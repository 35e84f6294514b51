open Setagree_util
open Setagree_dsys

type scope_info = { scope : Pidset.t; protected : Pid.t }

type query_event = {
  q_time : float;
  q_pid : Pid.t;
  q_set : Pidset.t;
  q_result : bool;
}

type query_log = query_event list ref

exception Psi_containment_violation of Pidset.t * Pidset.t

(* Real-runtime override.  A runtime node extracts its failure detector
   from message timing (the accrual detector in [Setagree_rt]); installing
   it here makes every oracle constructor return ifaces backed by the
   extraction instead of simulator ground truth — so protocol [install]
   code runs unchanged on both substrates.  The hook is domain-local
   (Domain.DLS): each node's domain overrides only its own oracle reads,
   while the simulator-driven main domain keeps ground-truth oracles. *)
type external_source = {
  ext_suspected : Pid.t -> Pidset.t;
  ext_trusted : z:int -> Pid.t -> Pidset.t;
  ext_query : y:int -> Pid.t -> Pidset.t -> bool;
}

let ext_key : external_source option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_external src = Domain.DLS.set ext_key src
let external_source () = Domain.DLS.get ext_key

(* Deterministic boolean draw from a seed and a list of integer coordinates:
   the same (seed, coordinates) always yields the same draw, so oracle
   outputs are pure functions of virtual time and runs replay exactly. *)
let draw ~seed parts p =
  if p <= 0.0 then false
  else
    let h = List.fold_left (fun h x -> (h * 1_000_003) lxor (x + 0x9E37)) seed parts in
    Rng.bernoulli (Rng.create h) p

let draw_rng ~seed parts =
  let h = List.fold_left (fun h x -> (h * 1_000_003) lxor (x + 0x9E37)) seed parts in
  Rng.create h

let epoch_of (b : Behavior.t) now = int_of_float (now /. b.epoch)

let in_range name v ~lo ~hi bound =
  if lo <= v && v <= hi then Ok ()
  else Error (Printf.sprintf "%s=%d: need %d <= %s <= %s = %d" name v lo name bound hi)

let check_x ~n ~x = in_range "x" x ~lo:1 ~hi:n "n"
let check_z ~n ~z = in_range "z" z ~lo:1 ~hi:n "n"
let check_y ~t ~y = in_range "y" y ~lo:0 ~hi:t "t"

let require who = Result.iter_error (fun e -> invalid_arg (who ^ ": " ^ e))

let min_correct sim =
  match Pidset.min_elt_opt (Sim.correct_set sim) with
  | Some p -> p
  | None -> invalid_arg "Oracle: no correct process in the run"

(* Pick the scope Q: the protected leader plus x-1 other processes drawn
   deterministically (faulty ones included on purpose: the class allows it,
   and it is harder on client algorithms). *)
let pick_scope sim ~x ~seed ~protected =
  let n = Sim.n sim in
  require "Oracle: scope size" (check_x ~n ~x);
  let rng = draw_rng ~seed [ 7; x ] in
  let others = List.filter (fun p -> p <> protected) (Pid.all ~n) in
  let chosen = List.filteri (fun i _ -> i < x - 1) (Rng.shuffle rng others) in
  Pidset.add protected (Pidset.of_list chosen)

(* Whether reader [i] suspects [j] before gst — where the classes place no
   constraint at all, so the strategy picks the most disruptive legal
   output it knows. *)
let pre_gst_suspects (b : Behavior.t) ~seed ~tag ~n ~i ~j ~e ~base =
  match b.strategy with
  | Behavior.Rotating ->
      (* Suspect everyone but one rotating survivor, a different one per
         reader and per epoch: trust keeps moving and readers disagree. *)
      j <> (e + i) mod n
  | Behavior.Slander_all -> true
  | Behavior.Random -> base <> draw ~seed [ tag; i; j; e ] b.noise

let suspector_of sim ~(behavior : Behavior.t) ~seed ~scope ~protected ~perpetual =
  let n = Sim.n sim in
  let b = behavior in
  (* The per-reader output is a pure function of (epoch, pre/post-gst,
     crashed set): all randomness is hashed from those coordinates, never
     drawn from shared RNG state.  Oracle reads are far denser than epoch
     ticks (every blocked-predicate evaluation reads the oracle), so a
     one-entry-per-reader memo removes the O(n) suspect loop from the
     scheduler's hot path without changing a single output. *)
  let memo_e = Array.make n min_int in
  let memo_pre = Array.make n false in
  let memo_c = Array.make n Pidset.empty in
  let memo_v = Array.make n Pidset.empty in
  let suspected i =
    if Sim.is_crashed sim i then Pidset.empty
    else begin
      let now = Sim.now sim in
      let crashed = Sim.crashed_set sim in
      let e = epoch_of b now in
      let pre = now < b.gst in
      if memo_e.(i) = e && memo_pre.(i) = pre && memo_c.(i) == crashed then
        memo_v.(i)
      else begin
        let s = ref Pidset.empty in
        for j = 0 to n - 1 do
          if j <> i then begin
            let base = Pidset.mem j crashed in
            let member =
              if pre then pre_gst_suspects b ~seed ~tag:1 ~n ~i ~j ~e ~base
              else
                (* Completeness: crashed stay suspected.  Slack: unprotected
                   correct processes may be slandered — [Slander_all] does so
                   always, [Random]/[Rotating] per draw. *)
                base
                || (match b.strategy with
                   | Behavior.Slander_all -> true
                   | _ -> draw ~seed [ 2; i; j; e ] b.slander)
            in
            if member then s := Pidset.add j !s
          end
        done;
        (* Limited-scope accuracy: members of Q never suspect the protected
           process — always for the perpetual class, after gst for ◇. *)
        if Pidset.mem i scope && (perpetual || not pre) then
          s := Pidset.remove protected !s;
        memo_e.(i) <- e;
        memo_pre.(i) <- pre;
        memo_c.(i) <- crashed;
        memo_v.(i) <- !s;
        !s
      end
    end
  in
  { Iface.suspected }

(* In external mode the accuracy scope is not chosen by the oracle — the
   extraction serves everyone; report the full universe with the smallest
   pid as the nominal protectee. *)
let ext_scope sim = { scope = Pidset.full ~n:(Sim.n sim); protected = 0 }

let es_x sim ~x ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  match external_source () with
  | Some e -> ({ Iface.suspected = e.ext_suspected }, ext_scope sim)
  | None ->
      let protected = min_correct sim in
      let scope = pick_scope sim ~x ~seed ~protected in
      ( suspector_of sim ~behavior ~seed ~scope ~protected ~perpetual:false,
        { scope; protected } )

let s_x sim ~x ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  match external_source () with
  | Some e -> ({ Iface.suspected = e.ext_suspected }, ext_scope sim)
  | None ->
      let protected = min_correct sim in
      let scope = pick_scope sim ~x ~seed ~protected in
      ( suspector_of sim ~behavior ~seed ~scope ~protected ~perpetual:true,
        { scope; protected } )

let perfect_p sim =
  {
    Iface.suspected =
      (fun i -> if Sim.is_crashed sim i then Pidset.empty else Sim.crashed_set sim);
  }

let eventually_p sim ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  match external_source () with
  | Some e -> { Iface.suspected = e.ext_suspected }
  | None ->
  let n = Sim.n sim in
  let b = behavior in
  (* Same per-reader (epoch, crashed-set) memo as [suspector_of]; the
     post-gst branch already returns the shared crashed set unmodified. *)
  let memo_e = Array.make n min_int in
  let memo_c = Array.make n Pidset.empty in
  let memo_v = Array.make n Pidset.empty in
  let suspected i =
    if Sim.is_crashed sim i then Pidset.empty
    else begin
      let now = Sim.now sim in
      let crashed = Sim.crashed_set sim in
      if now >= b.gst then crashed
      else begin
        let e = epoch_of b now in
        if memo_e.(i) = e && memo_c.(i) == crashed then memo_v.(i)
        else begin
          let s = ref Pidset.empty in
          for j = 0 to n - 1 do
            if j <> i then begin
              let base = Pidset.mem j crashed in
              if pre_gst_suspects b ~seed ~tag:3 ~n ~i ~j ~e ~base then
                s := Pidset.add j !s
            end
          done;
          memo_e.(i) <- e;
          memo_c.(i) <- crashed;
          memo_v.(i) <- !s;
          !s
        end
      end
    end
  in
  { Iface.suspected }

let omega_z sim ~z ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  let n = Sim.n sim in
  require "Oracle.omega_z" (check_z ~n ~z);
  match external_source () with
  | Some e ->
      (* The eventual set is not known in advance for an extracted
         detector; callers of the runtime path judge the recorded history
         with [Check] instead. *)
      ({ Iface.trusted = (fun i -> e.ext_trusted ~z i) }, Pidset.empty)
  | None ->
  let b = behavior in
  let leader = min_correct sim in
  let final =
    let rng = draw_rng ~seed [ 11; z ] in
    let others = List.filter (fun p -> p <> leader) (Pid.all ~n) in
    let extra = Rng.int rng z in
    let chosen = List.filteri (fun i _ -> i < extra) (Rng.shuffle rng others) in
    Pidset.add leader (Pidset.of_list chosen)
  in
  (* Pre-gst outputs depend only on (reader, epoch) — the draws are hashed
     from those coordinates, not pulled from shared RNG state — so cache
     one epoch's set per reader.  Post-gst every read returns the shared
     [final].  With reads vastly outnumbering epoch ticks this turns the
     dominant oracle cost (an Rng + Pidset.random per read) into an array
     compare, with bit-identical outputs. *)
  let memo_e = Array.make n min_int in
  let memo_v = Array.make n Pidset.empty in
  let trusted i =
    if Sim.is_crashed sim i then Pidset.empty
    else begin
      let now = Sim.now sim in
      if now >= b.gst then final
      else begin
        let e = epoch_of b now in
        if memo_e.(i) = e then memo_v.(i)
        else begin
          let v =
            match b.strategy with
            | Behavior.Rotating ->
                (* Rotating singleton leaders, disagreeing across readers:
                   the worst legal pre-gst Ω output for leader-based code. *)
                Pidset.add ((e + i) mod n) Pidset.empty
            | _ ->
                (* Churning arbitrary sets: different at each process and
                   epoch. *)
                let rng = draw_rng ~seed [ 13; i; e ] in
                let size = 1 + Rng.int rng z in
                Pidset.random rng ~n ~size
          in
          memo_e.(i) <- e;
          memo_v.(i) <- v;
          v
        end
      end
    end
  in
  ({ Iface.trusted }, final)

let querier_of sim ~y ~(behavior : Behavior.t) ~seed ~perpetual =
  let t = Sim.t_bound sim in
  require "Oracle: phi parameter" (check_y ~t ~y);
  match external_source () with
  | Some e ->
      ignore perpetual;
      let log : query_log = ref [] in
      let query i x =
        let result = e.ext_query ~y i x in
        log :=
          { q_time = Sim.now sim; q_pid = i; q_set = x; q_result = result }
          :: !log;
        result
      in
      ({ Iface.query }, log)
  | None ->
  let b = behavior in
  let log : query_log = ref [] in
  let query i x =
    let now = Sim.now sim in
    let c = Pidset.cardinal x in
    let result =
      if c <= t - y then true
      else if c > t then false
      else begin
        let all_crashed = Pidset.subset x (Sim.crashed_set sim) in
        let e = epoch_of b now in
        if now >= b.gst then all_crashed
        else if perpetual then
          (* Safety is perpetual: never claim a live region dead.  Liveness
             may be delayed: a dead region can still be denied pre-gst —
             the non-Random strategies deny every query until gst. *)
          all_crashed
          && (match b.strategy with
             | Behavior.Random ->
                 not (draw ~seed [ 4; i; Pidset.hash x; e ] b.noise)
             | _ -> false)
        else begin
          (* Eventual φ: pre-gst answers are unconstrained — the non-Random
             strategies always answer maximally wrong. *)
          match b.strategy with
          | Behavior.Random ->
              if draw ~seed [ 5; i; Pidset.hash x; e ] b.noise then
                not all_crashed
              else all_crashed
          | _ -> not all_crashed
        end
      end
    in
    log := { q_time = now; q_pid = i; q_set = x; q_result = result } :: !log;
    result
  in
  ({ Iface.query }, log)

let phi_y sim ~y ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  querier_of sim ~y ~behavior ~seed ~perpetual:true

let ephi_y sim ~y ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  querier_of sim ~y ~behavior ~seed ~perpetual:false

let psi_y sim ~y ?(behavior = Behavior.stormy ~gst:50.0) ?(seed = 0x5EED) () =
  let ({ Iface.query = base }, log) = phi_y sim ~y ~behavior ~seed () in
  let used : Pidset.t list ref = ref [] in
  let query i x =
    List.iter
      (fun x' ->
        if not (Pidset.subset x x' || Pidset.subset x' x) then
          raise (Psi_containment_violation (x, x')))
      !used;
    if not (List.exists (Pidset.equal x) !used) then used := x :: !used;
    base i x
  in
  ({ Iface.query }, log)
