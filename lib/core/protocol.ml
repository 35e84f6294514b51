open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd

type params = {
  n : int;
  t : int;
  seed : int;
  z : int;
  k : int;
  x : int;
  y : int;
  gst : float;
  horizon : float;
  crashes : Crash.spec;
  faults : Faults.t;
  adversarial : bool;
  variant : string;
  trace : string;
  backend : string;
}

let default =
  {
    n = 8;
    t = 3;
    seed = 1;
    z = 1;
    k = 1;
    x = 2;
    y = 1;
    gst = 40.0;
    horizon = 0.0;
    crashes = Crash.Exactly { crashes = 2; window = (0.0, 20.0) };
    faults = Faults.none;
    adversarial = false;
    variant = "es";
    trace = "default";
    backend = "sim";
  }

let params_to_json p =
  [
    ("n", Json.Int p.n);
    ("t", Json.Int p.t);
    ("seed", Json.Int p.seed);
    ("z", Json.Int p.z);
    ("k", Json.Int p.k);
    ("x", Json.Int p.x);
    ("y", Json.Int p.y);
    ("gst", Json.Float p.gst);
    ("horizon", Json.Float p.horizon);
    ("crashes", Crash.spec_to_json p.crashes);
    ("faults", Faults.to_json p.faults);
    ("adversarial", Json.Bool p.adversarial);
    ("variant", Json.String p.variant);
    ("trace", Json.String p.trace);
    ("backend", Json.String p.backend);
  ]

let params_of_json fields =
  let ( let* ) = Result.bind in
  let j = Json.Obj fields in
  let int name d = Json.field name ~what:"an int" Json.to_int_opt ~default:d j in
  let flt name d = Json.field name ~what:"a number" Json.to_float_opt ~default:d j in
  let str name d = Json.field name ~what:"a string" Json.to_string_opt ~default:d j in
  let spec name of_json d =
    match Json.member name j with
    | None -> Ok d
    | Some v -> Result.map_error (Printf.sprintf "%S: %s" name) (of_json v)
  in
  let* n = int "n" default.n in
  let* t = int "t" default.t in
  let* seed = int "seed" default.seed in
  let* z = int "z" default.z in
  let* k = int "k" default.k in
  let* x = int "x" default.x in
  let* y = int "y" default.y in
  let* gst = flt "gst" default.gst in
  let* horizon = flt "horizon" default.horizon in
  let* crashes = spec "crashes" Crash.spec_of_json default.crashes in
  let* faults = spec "faults" Faults.of_json default.faults in
  let* adversarial =
    Json.field "adversarial" ~what:"a bool" Json.to_bool_opt ~default:default.adversarial j
  in
  let* variant = str "variant" default.variant in
  let* trace = str "trace" default.trace in
  let* backend = str "backend" default.backend in
  (* One spelling per trace level, so "OFF" and "off" share a cache key;
     an unknown level is kept for [Job.validate] to refuse. *)
  let trace =
    match Trace.level_of_string trace with
    | Ok level -> Trace.level_to_string level
    | Error _ -> trace
  in
  Ok
    { n; t; seed; z; k; x; y; gst; horizon; crashes; faults; adversarial; variant; trace; backend }

module type S = sig
  type t

  val name : string
  val horizon_hint : float
  val variants : string list
  val validate : params -> string list
  val degree : params -> int option
  val install : Sim.t -> params -> t
  val stop : t -> unit -> bool
  val check : t -> Check.verdict
  val violation : t -> string list
  val metrics : t -> (string * float) list
end

type packed = (module S)

(* ---- shared pieces ---- *)

(* The oracle behaviour combines the nominal gst with the fault spec's
   adversary strategy; with no adversary named this reduces to the
   historical default (perfect when gst <= 0, stormy otherwise). *)
let behavior_of p = Behavior.of_adversary p.faults.Faults.adversary ~gst:p.gst

let proposals_of p = Array.init p.n (fun i -> 100 + i)

let errors checks = List.filter_map (function Ok () -> None | Error e -> Some e) checks

(* The entry of a protocol's variant table that [p.variant] names. *)
let variant_entry name table p =
  match List.assoc_opt p.variant table with
  | Some entry -> entry
  | None ->
      invalid_arg
        (Printf.sprintf "Protocol.%s: unknown variant %S (%s)" name p.variant
           (String.concat "|" (List.map fst table)))

(* Helpers for [kset_safety]: plain recursion over the decisions, so the
   all-clear verdict that nearly every run and every explored execution
   ends with allocates nothing.  Quadratic in the decisions, at most n. *)
let rec value_later (v : int) = function
  | [] -> false
  | (_, v', _, _) :: rest -> v = v' || value_later v rest

let rec pid_later (p : Pid.t) = function
  | [] -> false
  | (p', _, _, _) :: rest -> p = p' || pid_later p rest

let rec proposed proposals (v : int) i =
  i < Array.length proposals && (proposals.(i) = v || proposed proposals v (i + 1))

(* Distinct values, each counted at its last occurrence. *)
let rec distinct_values n = function
  | [] -> n
  | (_, v, _, _) :: rest -> distinct_values (if value_later v rest then n else n + 1) rest

let rec safety_notes proposals acc = function
  | [] -> acc
  | (p, v, _, _) :: rest ->
      let acc =
        if proposed proposals v 0 then acc
        else
          Printf.sprintf "validity: %s decided unproposed value %d" (Pid.to_string p) v
          :: acc
      in
      let acc =
        if pid_later p rest then
          Printf.sprintf "double decision by %s" (Pid.to_string p) :: acc
        else acc
      in
      safety_notes proposals acc rest

(* Safety-only k-set verdict: validity, agreement and single-decision,
   but NOT termination — meaningful on partial (explored) runs, where
   "nobody decided yet" must not read as a violation. *)
let kset_safety ~k ~proposals decisions =
  let values = distinct_values 0 decisions in
  let agreement =
    if values > k then
      [ Printf.sprintf "agreement: %d distinct values decided, k = %d" values k ]
    else []
  in
  List.sort_uniq compare (safety_notes proposals agreement decisions)

(* ---- protocols ---- *)

module Kset_p = struct
  type t = { sim : Sim.t; k : int; proposals : int array; h : Kset.t }

  let name = "kset"
  let horizon_hint = 5000.0
  let variants = []
  (* k-set agreement is defined for 1 <= k <= n: k = 0 would report a
     configuration error as an agreement failure. *)
  let check_k ~n ~k =
    if 1 <= k && k <= n then Ok () else Error (Printf.sprintf "k=%d: need 1 <= k <= n = %d" k n)

  let validate p = errors [ Oracle.check_z ~n:p.n ~z:p.z; check_k ~n:p.n ~k:p.k ]
  let degree (p : params) = Some p.k

  let install sim p =
    let proposals = proposals_of p in
    let omega, tie_break =
      if p.adversarial then
        (* The E2 mis-use configuration (Theorem 5 tightness): a constant
           Ω_z trusted set and the adversary-friendly tie-break.  With
           z > k this is outside the algorithm's assumptions, and the
           explorer hunts the agreement violations.  The set is built once:
           every round of every process reads it. *)
        let trusted = Pidset.of_list (List.init p.z Fun.id) in
        ({ Iface.trusted = (fun _ -> trusted) }, Kset.By_pid)
      else (fst (Oracle.omega_z sim ~z:p.z ~behavior:(behavior_of p) ()), Kset.Smallest)
    in
    let h = Kset.install sim ~omega ~proposals ~tie_break () in
    { sim; k = p.k; proposals; h }

  let stop t () = Kset.all_correct_decided t.h

  let check t =
    Check.k_set_agreement t.sim ~k:t.k ~proposals:t.proposals
      ~decisions:(Kset.decisions t.h)

  let violation t = kset_safety ~k:t.k ~proposals:t.proposals (Kset.decisions t.h)

  let metrics t =
    [
      ("rounds", float_of_int (Kset.max_round t.h));
      ("msgs", float_of_int (Kset.messages_sent t.h));
      ("decided", float_of_int (List.length (Kset.decisions t.h)));
    ]
end

module Consensus_p = struct
  type t = { sim : Sim.t; proposals : int array; h : Consensus_s.t }

  let name = "consensus_s"
  let horizon_hint = 5000.0
  let variants = []
  let validate _ = []
  let degree _ = Some 1

  let install sim p =
    let proposals = proposals_of p in
    let suspector, _ = Oracle.es_x sim ~x:p.n ~behavior:(behavior_of p) () in
    let h = Consensus_s.install sim ~suspector ~proposals () in
    { sim; proposals; h }

  let stop t () = Consensus_s.all_correct_decided t.h

  let check t =
    Check.k_set_agreement t.sim ~k:1 ~proposals:t.proposals
      ~decisions:(Consensus_s.decisions t.h)

  let violation t = kset_safety ~k:1 ~proposals:t.proposals (Consensus_s.decisions t.h)

  let metrics t =
    [
      ("rounds", float_of_int (Consensus_s.max_round t.h));
      ("msgs", float_of_int (Consensus_s.messages_sent t.h));
      ("decided", float_of_int (List.length (Consensus_s.decisions t.h)));
    ]
end

module Wheels_p = struct
  type t = { sim : Sim.t; w : Wheels.t; mon : Monitor.t }

  let name = "wheels"
  let horizon_hint = 400.0
  let variants = []
  let validate p = errors [ Wheels.check ~n:p.n ~t:p.t ~x:p.x ~y:p.y ]
  let degree _ = None

  let install sim p =
    let behavior = behavior_of p in
    let suspector, _ = Oracle.es_x sim ~x:p.x ~behavior () in
    let querier, _ = Oracle.ephi_y sim ~y:p.y ~behavior () in
    let w = Wheels.install sim ~suspector ~querier ~x:p.x ~y:p.y () in
    let omega = Wheels.omega w in
    let mon =
      Monitor.watch sim ~every:0.5 ~kind:"omega"
        ~read:(fun i -> omega.Iface.trusted i)
        ()
    in
    { sim; w; mon }

  let stop _ () = false

  let check t =
    Check.omega_z t.sim ~z:(Wheels.z t.w)
      ~deadline:(Sim.horizon t.sim -. 80.0)
      t.mon

  (* Eventual (liveness) classes have no finite-run safety property. *)
  let violation _ = []

  let metrics t =
    [
      ("stab", Wheels.stabilized_since t.w);
      ("x_moves", float_of_int (Wheels_lower.moves_broadcast (Wheels.lower t.w)));
      ("l_moves", float_of_int (Wheels_upper.moves_broadcast (Wheels.upper t.w)));
      ("msgs", float_of_int (Wheels.total_messages t.w));
    ]
end

module Psi_p = struct
  type t = { sim : Sim.t; p : Psi_to_omega.t; mon : Monitor.t }

  let name = "psi"
  let horizon_hint = 400.0
  let variants = []
  let validate p = errors [ Oracle.check_y ~t:p.t ~y:p.y ]
  let degree _ = None

  let install sim p =
    let querier, _ = Oracle.psi_y sim ~y:p.y ~behavior:(behavior_of p) () in
    let h = Psi_to_omega.create sim ~querier ~y:p.y in
    let omega = Psi_to_omega.omega h in
    let mon =
      Monitor.watch sim ~every:0.5 ~kind:"omega"
        ~read:(fun i -> omega.Iface.trusted i)
        ()
    in
    (* The chain transformation sends no messages: keep the clock moving. *)
    Sim.ticker sim ~every:1.0;
    { sim; p = h; mon }

  let stop _ () = false

  let check t =
    Check.omega_z t.sim ~z:(Psi_to_omega.z t.p)
      ~deadline:(Sim.horizon t.sim -. 80.0)
      t.mon

  let violation _ = []

  let metrics t =
    [ ("queries_per_read", float_of_int (Psi_to_omega.queries_per_read t.p)) ]
end

module Reduce_p = struct
  type t = { sim : Sim.t; z : int; proposals : int array; h : Kset.t }

  let name = "reduce"
  let horizon_hint = 5000.0

  (* The source class Ω_z is built from, by [p.variant]: the ranges its
     constructors enforce, the z of the Ω_z it yields (the one its
     construction computes, and the agreement degree Figure 3 then
     reaches), and the construction with the tie-break Figure 3 uses. *)
  let table =
    [
      ( "es",
        ( (fun p -> Wheels.check ~n:p.n ~t:p.t ~x:p.x ~y:0),
          (fun p -> Bounds.z_of_addition ~t:p.t ~x:p.x ~y:0),
          fun sim p behavior ->
            let suspector, _ = Oracle.es_x sim ~x:p.x ~behavior () in
            let w = Reduce.omega_from_es sim ~suspector ~x:p.x () in
            (Wheels.omega w, Kset.Smallest) ) );
      ( "phi",
        ( (fun p -> Wheels.check ~n:p.n ~t:p.t ~x:1 ~y:p.y),
          (fun p -> Bounds.z_of_addition ~t:p.t ~x:1 ~y:p.y),
          fun sim p behavior ->
            let querier, _ = Oracle.ephi_y sim ~y:p.y ~behavior () in
            let w = Reduce.omega_from_phi sim ~querier ~y:p.y () in
            (Wheels.omega w, Kset.Smallest) ) );
      ( "psi",
        ( (fun p -> Oracle.check_y ~t:p.t ~y:p.y),
          (fun p -> p.t + 1 - p.y),
          fun sim p behavior ->
            let querier, _ = Oracle.psi_y sim ~y:p.y ~behavior () in
            let h = Reduce.omega_from_psi sim ~querier ~y:p.y in
            (Psi_to_omega.omega h, Kset.Smallest) ) );
      (* Theorem 8's addition: ◇S_x + ◇φ_y through both wheels.  With
         [adversarial] set Figure 3 breaks ties by pid, as kset's misuse
         wiring does. *)
      ( "wheels",
        ( (fun p -> Wheels.check ~n:p.n ~t:p.t ~x:p.x ~y:p.y),
          (fun p -> Bounds.z_of_addition ~t:p.t ~x:p.x ~y:p.y),
          fun sim p behavior ->
            let suspector, _ = Oracle.es_x sim ~x:p.x ~behavior () in
            let querier, _ = Oracle.ephi_y sim ~y:p.y ~behavior () in
            let w = Wheels.install sim ~suspector ~querier ~x:p.x ~y:p.y () in
            let tie_break = if p.adversarial then Kset.By_pid else Kset.Smallest in
            (Wheels.omega w, tie_break) ) );
    ]

  let variants = List.map fst table

  let validate p =
    match List.assoc_opt p.variant table with
    | Some (check, _, _) -> errors [ check p ]
    | None -> []

  let degree p = Option.map (fun (_, z, _) -> z p) (List.assoc_opt p.variant table)

  let install sim p =
    let _, z, build = variant_entry name table p in
    let omega, tie_break = build sim p (behavior_of p) in
    let proposals = proposals_of p in
    let h = Reduce.solve_kset sim ~omega ~proposals ~tie_break () in
    { sim; z = z p; proposals; h }

  let stop t () = Kset.all_correct_decided t.h

  let check t =
    Check.k_set_agreement t.sim ~k:t.z ~proposals:t.proposals
      ~decisions:(Kset.decisions t.h)

  let violation t = kset_safety ~k:t.z ~proposals:t.proposals (Kset.decisions t.h)

  let metrics t =
    [
      ("z", float_of_int t.z);
      ("rounds", float_of_int (Kset.max_round t.h));
      ("msgs", float_of_int (Kset.messages_sent t.h));
    ]
end

module Strengthen_p = struct
  type t = { sim : Sim.t; st : Strengthen.t; mon : Monitor.t }

  let name = "strengthen"
  let horizon_hint = 400.0

  (* Figure 9 (Appendix B), by [p.variant]: from ◇S_x + ◇φ_y or from
     the perpetual S_x + φ_y, in shared memory or message passing. *)
  let table =
    [
      ("es", (true, `Shm)); ("s", (false, `Shm)); ("es-mp", (true, `Mp)); ("s-mp", (false, `Mp));
    ]

  let variants = List.map fst table
  let validate p = errors [ Oracle.check_x ~n:p.n ~x:p.x; Oracle.check_y ~t:p.t ~y:p.y ]
  let degree _ = None

  let install sim p =
    let eventual, substrate = variant_entry name table p in
    let behavior = behavior_of p in
    let suspector, _ =
      (if eventual then Oracle.es_x else Oracle.s_x) sim ~x:p.x ~behavior ()
    in
    let querier, _ =
      (if eventual then Oracle.ephi_y else Oracle.phi_y) sim ~y:p.y ~behavior ()
    in
    let st =
      match substrate with
      | `Shm -> Strengthen.install_shm sim ~suspector ~querier ()
      | `Mp -> Strengthen.install_mp sim ~suspector ~querier ()
    in
    let read = (Strengthen.output st).Iface.suspected in
    { sim; st; mon = Monitor.watch sim ~kind:"es" ~read () }

  let stop _ () = false

  (* The strengthened output is checked at full scope: ◇S = ◇S_n. *)
  let check t =
    Check.es_x t.sim ~x:(Sim.n t.sim) ~deadline:(Sim.horizon t.sim -. 80.0) t.mon

  let violation _ = []

  let metrics t =
    let refresh i acc = max acc (Strengthen.refreshes t.st i) in
    [
      ("refresh", float_of_int (Pidset.fold refresh (Sim.correct_set t.sim) 0));
      ("msgs", float_of_int (Trace.counter (Sim.trace t.sim) "strengthen.hb.sent"));
    ]
end

module Impl_p = struct
  type t = {
    hb : Impl.t;
    kset : Kset.t option;  (** the kset variant's Figure 3 *)
    certify : unit -> Check.verdict;
    safety : unit -> string list;
  }

  let name = "impl"
  let horizon_hint = 300.0

  (* What is built on the heartbeat detectors and checked, by
     [p.variant]: the suspector as ◇P, the leader as Ω_z, the querier as
     ◇φ_y, or z-set agreement over the implemented Ω_z. *)
  let table = [ ("es", `Es); ("omega", `Omega); ("phi", `Phi); ("kset", `Kset) ]
  let variants = List.map fst table

  (* p1 probes the querier on two disjoint regions, one at each end of
     the pid range. *)
  let regions ~n =
    if n < 5 then Error (Printf.sprintf "n=%d: impl/phi probes two disjoint regions, n >= 5" n)
    else Ok [ Pidset.of_list [ n - 3; n - 2 ]; Pidset.of_list [ 0; 1 ] ]

  let validate p =
    match List.assoc_opt p.variant table with
    | Some (`Omega | `Kset) -> errors [ Oracle.check_z ~n:p.n ~z:p.z ]
    | Some `Phi ->
        errors [ Oracle.check_y ~t:p.t ~y:p.y; Result.map ignore (regions ~n:p.n) ]
    | Some `Es | None -> []

  (* Only the kset variant decides, over the implemented Ω_z. *)
  let degree p =
    match List.assoc_opt p.variant table with Some `Kset -> Some p.z | _ -> None

  let install sim p =
    let what = variant_entry name table p in
    let delay = Delay.Psync { gst = p.gst; bound = 2.0; pre_spread = p.gst -. 5.0 } in
    let hb = Impl.install sim ~delay () in
    let deadline = Sim.horizon sim -. 80.0 in
    let detector certify = { hb; kset = None; certify; safety = (fun () -> []) } in
    let watch kind read check =
      let mon = Monitor.watch sim ~kind ~read () in
      detector (fun () -> check ~deadline mon)
    in
    match what with
    | `Es -> watch "es" (Impl.suspector hb).Iface.suspected (Check.es_x sim ~x:p.n)
    | `Omega ->
        watch "omega" (Impl.omega hb ~z:p.z).Iface.trusted (Check.omega_z sim ~z:p.z)
    | `Phi ->
        let regions = Result.fold ~ok:Fun.id ~error:invalid_arg (regions ~n:p.n) in
        let q, log = Impl.querier hb ~y:p.y in
        Sim.spawn sim ~pid:0 (fun () ->
            while true do
              List.iter (fun x -> ignore (q.Iface.query 0 x)) regions;
              Sim.sleep 2.0
            done);
        detector (fun () -> Check.phi_y sim ~y:p.y ~eventual:true ~deadline log)
    | `Kset ->
        let proposals = proposals_of p in
        let h = Kset.install sim ~omega:(Impl.omega hb ~z:p.z) ~proposals () in
        let decisions () = Kset.decisions h and k = p.z in
        {
          hb;
          kset = Some h;
          certify = (fun () -> Check.k_set_agreement sim ~k ~proposals ~decisions:(decisions ()));
          safety = (fun () -> kset_safety ~k ~proposals (decisions ()));
        }

  let stop t () = Option.fold ~none:false ~some:Kset.all_correct_decided t.kset
  let check t = t.certify ()
  let violation t = t.safety ()

  let metrics t =
    ("heartbeats", float_of_int (Impl.heartbeats_sent t.hb))
    :: Option.fold ~none:[]
         ~some:(fun h -> [ ("rounds", float_of_int (Kset.max_round h)) ])
         t.kset
end

(* ---- registry ---- *)

let registry : (string * packed) list =
  [
    ("kset", (module Kset_p));
    ("consensus_s", (module Consensus_p));
    ("wheels", (module Wheels_p));
    ("psi", (module Psi_p));
    ("reduce", (module Reduce_p));
    ("strengthen", (module Strengthen_p));
    ("impl", (module Impl_p));
  ]

let find name = List.assoc_opt name registry
let names () = List.map fst registry

(* ---- running ---- *)

let resolve_horizon (module P : S) p =
  if p.horizon > 0.0 then p.horizon else P.horizon_hint

let trace_level_of p =
  match Trace.level_of_string p.trace with Ok l -> l | Error _ -> Trace.Default

let make_sim (module P : S) p =
  let sim =
    Sim.create
      ~horizon:(resolve_horizon (module P) p)
      ~trace_level:(trace_level_of p) ~n:p.n ~t:p.t
      ~seed:p.seed ()
  in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  let crash_list =
    let base = Crash.generate p.crashes ~n:p.n ~t:p.t rng in
    if p.faults.Faults.crashes = Crash.No_crashes then base
    else begin
      (* The fault spec's crashes extend the base schedule (earliest time
         wins per pid); the combined list goes through one
         [install_crashes] call so the resilience bound is enforced on
         the union — an over-budget spec raises right here. *)
      let frng = Rng.split_named (Sim.rng sim) "faultcrash" in
      let extra = Crash.generate p.faults.Faults.crashes ~n:p.n ~t:p.t frng in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (pid, tm) ->
          match Hashtbl.find_opt tbl pid with
          | Some tm' when tm' <= tm -> ()
          | _ -> Hashtbl.replace tbl pid tm)
        (base @ extra);
      List.sort compare (Hashtbl.fold (fun pid tm acc -> (pid, tm) :: acc) tbl [])
    end
  in
  Sim.install_crashes sim crash_list;
  Sim.set_faults sim p.faults;
  Sim.install_stalls sim p.faults.Faults.stalls;
  sim

type report = {
  rp_sim : Sim.t;
  rp_outcome : Sim.outcome;
  rp_verdict : Check.verdict;
  rp_violations : string list;
      (** safety-only violations ([S.violation]) — unlike [rp_verdict],
          meaningful even on runs whose fault windows never healed *)
  rp_metrics : (string * float) list;
}

(* Paper-facing metrics derived from the trace in one forward pass:
   when does Ω_z stabilize (last observed change of an "omega"-kind FD
   output, and the protocol round it happened in), when does ◇S_x's
   scope converge (last "es" change), how many messages per decision,
   how many rounds to decide.  Every registered protocol gets whichever
   of these its trace supports — an empty list at [trace = off]. *)
let obs_metrics sim =
  let tr = Sim.trace sim in
  if not (Trace.records_entries tr) then []
  else begin
    let n_dec = ref 0 and max_round = ref 0 in
    let cur_round : (Pid.t, int) Hashtbl.t = Hashtbl.create 16 in
    (* kind -> (time of last change, round it happened in if known) *)
    let last_fd : (string, float * int option) Hashtbl.t = Hashtbl.create 4 in
    Trace.iter
      (fun { Trace.time; entry } ->
        match entry with
        | Trace.Begin (Trace.Round { pid; round }) ->
            Hashtbl.replace cur_round pid round
        | Trace.Decide { round; _ } ->
            incr n_dec;
            if round > !max_round then max_round := round
        | Trace.Fd_change { pid; kind; _ } ->
            Hashtbl.replace last_fd kind (time, Hashtbl.find_opt cur_round pid)
        | _ -> ())
      tr;
    let sends =
      List.fold_left
        (fun acc (name, v) ->
          let suf = ".sent" in
          let ln = String.length name and ls = String.length suf in
          if ln >= ls && String.sub name (ln - ls) ls = suf then acc + v
          else acc)
        0 (Trace.counters tr)
    in
    let decide_metrics =
      if !n_dec = 0 then []
      else
        [
          ("obs.rounds_to_decide", float_of_int !max_round);
          ("obs.msgs_per_decision", float_of_int sends /. float_of_int !n_dec);
        ]
    in
    let fd_metrics kind prefix =
      match Hashtbl.find_opt last_fd kind with
      | None -> []
      | Some (time, round) ->
          (prefix ^ "_stab_time", time)
          ::
          (match round with
          | Some r -> [ (prefix ^ "_stab_round", float_of_int r) ]
          | None -> [])
    in
    decide_metrics @ fd_metrics "omega" "obs.omega" @ fd_metrics "es" "obs.es"
  end

(* Fault-layer observability: the trace counters bumped by Net/Sim when a
   spec is active (all zero — and omitted — on fault-free runs). *)
let fault_counters =
  [
    "fault.parked";
    "fault.dup";
    "fault.reorder";
    "fault.inflated";
    "fault.deferred";
    "fault.stalls";
    "net.retransmits";
    "net.backoff_resets";
  ]

let fault_metrics sim =
  let tr = Sim.trace sim in
  List.filter_map
    (fun name ->
      match Trace.counter tr name with
      | 0 -> None
      | v -> Some (name, float_of_int v))
    fault_counters

(* A running job's [Runner.poll] is consulted once every [poll_stride]
   events (a power of two): often enough to stop a long job within
   milliseconds, rarely enough to cost nothing per event. *)
let poll_stride = 4096

let run (module P : S) p =
  let sim = make_sim (module P) p in
  let h = P.install sim p in
  let stop = P.stop h in
  let events = ref 0 in
  let stop_when () =
    stop ()
    || begin
         incr events;
         !events land (poll_stride - 1) = 0 && Setagree_runner.Runner.poll ()
       end
  in
  let outcome = Sim.run ~stop_when sim in
  let verdict = P.check h in
  let violations = P.violation h in
  let metrics =
    P.metrics h @ obs_metrics sim @ fault_metrics sim
    @ [
        ("latency", outcome.Sim.end_time);
        ("sched.events", float_of_int outcome.Sim.events);
        ("sched.pred_evals", float_of_int (Sim.pred_evals sim));
        ("sched.signals", float_of_int (Sim.cond_signals sim));
        ("sched.wakeups", float_of_int (Sim.wakeups sim));
      ]
  in
  Sim.release sim;
  {
    rp_sim = sim;
    rp_outcome = outcome;
    rp_verdict = verdict;
    rp_violations = violations;
    rp_metrics = metrics;
  }

let explore_make (module P : S) p () =
  let sim = make_sim (module P) p in
  let h = P.install sim p in
  {
    Explore.i_sim = sim;
    i_stop = P.stop h;
    i_violation = (fun () -> P.violation h);
    i_crashable = List.init p.n Fun.id;
  }
