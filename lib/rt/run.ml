open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core

type cfg = {
  transport : [ `Udp | `Chan ];
  timescale : float;
  hb_period_s : float;
  horizon_s : float;
  linger_s : float;
  sample_every_s : float;
  accrual_window : int;
  accrual_threshold : float;
  accrual_min_samples : int;
  crash_at_s : float;
  crash_spread_s : float;
  detect_slack_s : float;
  qos_window_s : float;
}

let default_cfg =
  {
    transport = `Udp;
    timescale = 150.0;
    hb_period_s = 0.02;
    horizon_s = 0.0;
    linger_s = 1.5;
    sample_every_s = 0.05;
    accrual_window = 200;
    accrual_threshold = 2.0;
    accrual_min_samples = 5;
    crash_at_s = 0.25;
    crash_spread_s = 0.15;
    detect_slack_s = 0.8;
    qos_window_s = 0.5;
  }

type result = {
  o_protocol : string;
  o_params : Protocol.params;
  o_crashes : (Pid.t * float) list;
  o_decisions : (Pid.t * int * int * float) list;
  o_safety : Check.verdict;
  o_fd : Check.verdict;
  o_qos : Qos.report;
  o_qos_windows : (float * Qos.report) list;
  o_phi : (Pid.t * Qos.phi_point list) list;
  o_metrics : (string * float) list;
  o_registry : Metrics.t;
  o_node_events : int;
  o_wall_s : float;
}

let ok r = r.o_safety.Check.ok && r.o_fd.Check.ok

let wall_horizon cfg ~decides =
  if cfg.horizon_s > 0.0 then cfg.horizon_s else if decides then 8.0 else 3.0

(* Victims come from the same seeded ["crash"] split the simulator uses;
   the schedule's virtual times only fix the order, the wall times are the
   runtime's own (early enough to precede decisions, late enough for the
   accrual histograms to be warm). *)
let plan_crashes (p : Protocol.params) cfg =
  let rng = Rng.split_named (Rng.create p.seed) "crash" in
  let base = Crash.generate p.crashes ~n:p.n ~t:p.t rng in
  let ordered = List.sort (fun (_, a) (_, b) -> Float.compare a b) base in
  List.mapi
    (fun k (pid, _) -> (pid, cfg.crash_at_s +. (float_of_int k *. cfg.crash_spread_s)))
    ordered

let make_endpoints cfg ~n =
  match cfg.transport with `Udp -> Transport.udp ~n | `Chan -> Transport.chan ~n

let sum_counters per_node =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    per_node;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let verdict_of_notes notes = { Check.ok = notes = []; notes }

(* Merge counter totals and the QoS report into both shapes callers want:
   a flat metric alist and a mergeable registry. *)
let build_metrics ~counters ~(qos : Qos.report) ~wall_s ~events =
  let reg = Metrics.create () in
  List.iter (fun (k, v) -> Metrics.incr reg ~by:v k) counters;
  Metrics.incr reg ~by:events "rt.events";
  Metrics.set_gauge reg "rt.wall_s" wall_s;
  Qos.record reg qos;
  let flat =
    List.map (fun (k, v) -> (k, float_of_int v)) counters
    @ [ ("rt.events", float_of_int events); ("rt.wall_s", wall_s) ]
    @ Qos.to_metrics qos
  in
  (flat, reg)

let run_protocol pk (p : Protocol.params) ?(cfg = default_cfg) () =
  let (module P : Protocol.S) = pk in
  let n = p.n in
  let k_opt = P.degree p in
  let horizon_s = wall_horizon cfg ~decides:(k_opt <> None) in
  let crashes = plan_crashes p cfg in
  let eps = make_endpoints cfg ~n in
  let node_cfg self =
    {
      Node.pk;
      params = p;
      timescale = cfg.timescale;
      hb_period_s = cfg.hb_period_s;
      horizon_s;
      linger_s = cfg.linger_s;
      sample_every_s = cfg.sample_every_s;
      accrual_window = cfg.accrual_window;
      accrual_threshold = cfg.accrual_threshold;
      accrual_min_samples = cfg.accrual_min_samples;
      crash_at_s = List.assoc_opt self crashes;
    }
  in
  let wall0 = Unix.gettimeofday () in
  let results =
    Fun.protect
      ~finally:(fun () -> Transport.close eps)
      (fun () ->
        let domains =
          Array.init n (fun i ->
              Domain.spawn (fun () -> Node.run eps ~self:i (node_cfg i)))
        in
        Array.map Domain.join domains)
  in
  let wall_s = Unix.gettimeofday () -. wall0 in
  let victims = Pidset.of_list (List.map fst crashes) in
  let correct = Pidset.diff (Pidset.full ~n) victims in
  let actual_crashes =
    Array.to_list results
    |> List.filter_map (fun (r : Node.result) ->
           Option.map (fun tm -> (r.Node.r_pid, tm)) r.Node.r_crashed_at_s)
  in
  let g_end =
    Array.fold_left
      (fun acc (r : Node.result) -> Float.max acc r.Node.r_end_s)
      0.0 results
  in
  let ground =
    { Check.g_n = n; g_correct = correct; g_crashes = actual_crashes; g_end }
  in
  let decisions =
    Array.to_list results
    |> List.concat_map (fun (r : Node.result) -> r.Node.r_decisions)
  in
  let histories sel =
    Array.to_list results
    |> List.map (fun (r : Node.result) ->
           ( r.Node.r_pid,
             List.map (fun s -> (s.Qos.s_time, sel s)) r.Node.r_history ))
  in
  let safety =
    match k_opt with
    | None -> { Check.ok = true; notes = [ P.name ^ ": liveness-only protocol" ] }
    | Some k ->
        let proposals = Protocol.proposals_of p in
        let notes = Protocol.kset_safety ~k ~proposals decisions in
        let decided = List.map (fun (pid, _, _, _) -> pid) decisions in
        let missing = Pidset.filter (fun i -> not (List.mem i decided)) correct in
        let notes =
          if Pidset.is_empty missing then notes
          else
            notes
            @ [
                Printf.sprintf "termination: correct %s never decided"
                  (Pidset.to_string missing);
              ]
        in
        verdict_of_notes notes
  in
  let last_crash =
    List.fold_left (fun acc (_, tm) -> Float.max acc tm) 0.0 actual_crashes
  in
  let deadline = last_crash +. cfg.detect_slack_s in
  let fd_omega =
    Check.omega_z_history ground ~z:p.z ~deadline
      (histories (fun s -> s.Qos.s_trusted))
  in
  let suspected_hist = histories (fun s -> s.Qos.s_suspected) in
  let fd =
    if actual_crashes = [] then fd_omega
    else begin
      (* Completeness needs samples at/after its deadline: clamp to the
         earliest correct observer's last sample so short-lived deciding
         runs are judged on the window they actually recorded. *)
      let min_last =
        List.fold_left
          (fun acc (i, s) ->
            if Pidset.mem i correct then
              match List.rev s with (tm, _) :: _ -> Float.min acc tm | [] -> acc
            else acc)
          Float.infinity suspected_hist
      in
      let cdeadline = Float.min deadline min_last in
      Check.all_of
        [
          fd_omega;
          Check.strong_completeness_history ground ~deadline:cdeadline suspected_hist;
        ]
    end
  in
  let full_hist =
    Array.to_list results
    |> List.map (fun (r : Node.result) -> (r.Node.r_pid, r.Node.r_history))
  in
  let qos = Qos.compute ~ground full_hist in
  let qos_windows = Qos.windowed ~ground ~window_s:cfg.qos_window_s full_hist in
  let phi_series =
    Array.to_list results
    |> List.map (fun (r : Node.result) -> (r.Node.r_pid, r.Node.r_phi))
  in
  let counters =
    sum_counters
      (Array.to_list results |> List.map (fun (r : Node.result) -> r.Node.r_counters))
  in
  let events =
    Array.fold_left (fun acc (r : Node.result) -> acc + r.Node.r_events) 0 results
  in
  let metrics, registry = build_metrics ~counters ~qos ~wall_s ~events in
  let metrics =
    metrics
    @ [
        ("rt.decided", float_of_int (List.length decisions));
        ("qos.windows", float_of_int (List.length qos_windows));
      ]
  in
  {
    o_protocol = P.name;
    o_params = p;
    o_crashes = crashes;
    o_decisions = decisions;
    o_safety = safety;
    o_fd = fd;
    o_qos = qos;
    o_qos_windows = qos_windows;
    o_phi = phi_series;
    o_metrics = metrics;
    o_registry = registry;
    o_node_events = events;
    o_wall_s = wall_s;
  }

(* ---- heartbeat-only probe (bench QoS sweeps) ---- *)

type probe_node = {
  pr_pid : Pid.t;
  pr_history : Qos.sample list;
  pr_counters : (string * int) list;
  pr_crashed_at_s : float option;
  pr_end_s : float;
}

let probe_body eps ~self ~n ~seed ~crash_at_s ~horizon_s cfg =
  let tp = Transport.attach eps ~self in
  let acc =
    Accrual.create ~window:cfg.accrual_window ~threshold:cfg.accrual_threshold
      ~min_samples:cfg.accrual_min_samples ~timeout_initial:(4.0 *. cfg.hb_period_s)
      ~timeout_cap:(25.0 *. cfg.hb_period_s)
      ~rng:(Rng.split_named (Rng.create seed) ("probe:" ^ string_of_int self))
      ~self ~n ()
  in
  let t0 = Unix.gettimeofday () in
  let now_s () = Unix.gettimeofday () -. t0 in
  let tick_s = Float.min (cfg.hb_period_s /. 2.0) 0.002 in
  let next_hb = ref 0.0 in
  let next_sample = ref cfg.sample_every_s in
  let history = ref [] in
  let crashed_at = ref None in
  let running = ref true in
  while !running do
    let now = now_s () in
    match crash_at_s with
    | Some c when now >= c ->
        crashed_at := Some now;
        running := false
    | _ ->
        if now >= !next_hb then begin
          for j = 0 to n - 1 do
            if j <> self then Transport.send tp ~dst:j Frame.Heartbeat
          done;
          next_hb := now +. cfg.hb_period_s
        end;
        Transport.poll tp (fun ~src _kind -> Accrual.heartbeat acc src ~now:(now_s ()));
        if now >= !next_sample then begin
          history :=
            {
              Qos.s_time = now;
              s_suspected = Accrual.suspected acc ~now;
              s_trusted = Accrual.trusted acc ~z:1 ~now;
            }
            :: !history;
          next_sample := now +. cfg.sample_every_s
        end;
        if now >= horizon_s then running := false;
        if !running then Unix.sleepf tick_s
  done;
  {
    pr_pid = self;
    pr_history = List.rev !history;
    pr_counters =
      Transport.counters tp
      @ [ ("rt.false_suspicions", Accrual.false_suspicions acc) ];
    pr_crashed_at_s = !crashed_at;
    pr_end_s = now_s ();
  }

let fd_probe ~n ~crashes ~seed ?(cfg = default_cfg) () =
  let horizon_s = if cfg.horizon_s > 0.0 then cfg.horizon_s else 2.5 in
  let planned =
    if crashes = 0 then []
    else begin
      let rng = Rng.split_named (Rng.create seed) "crash" in
      let base =
        Crash.generate
          (Crash.Exactly { crashes; window = (0.0, 1.0) })
          ~n ~t:crashes rng
      in
      List.mapi
        (fun k (pid, _) ->
          (pid, cfg.crash_at_s +. (float_of_int k *. cfg.crash_spread_s)))
        (List.sort (fun (_, a) (_, b) -> Float.compare a b) base)
    end
  in
  let eps = make_endpoints cfg ~n in
  let results =
    Fun.protect
      ~finally:(fun () -> Transport.close eps)
      (fun () ->
        let domains =
          Array.init n (fun i ->
              Domain.spawn (fun () ->
                  probe_body eps ~self:i ~n ~seed
                    ~crash_at_s:(List.assoc_opt i planned)
                    ~horizon_s cfg))
        in
        Array.map Domain.join domains)
  in
  let victims = Pidset.of_list (List.map fst planned) in
  let actual_crashes =
    Array.to_list results
    |> List.filter_map (fun r -> Option.map (fun tm -> (r.pr_pid, tm)) r.pr_crashed_at_s)
  in
  let ground =
    {
      Check.g_n = n;
      g_correct = Pidset.diff (Pidset.full ~n) victims;
      g_crashes = actual_crashes;
      g_end = Array.fold_left (fun acc r -> Float.max acc r.pr_end_s) 0.0 results;
    }
  in
  let qos =
    Qos.compute ~ground
      (Array.to_list results |> List.map (fun r -> (r.pr_pid, r.pr_history)))
  in
  let counters =
    sum_counters (Array.to_list results |> List.map (fun r -> r.pr_counters))
  in
  let metrics, _ = build_metrics ~counters ~qos ~wall_s:ground.Check.g_end ~events:0 in
  (qos, metrics)

let pp_result fmt r =
  Format.fprintf fmt "@[<v>rt %s: n=%d t=%d seed=%d transport=real@," r.o_protocol
    r.o_params.Protocol.n r.o_params.Protocol.t r.o_params.Protocol.seed;
  Format.fprintf fmt "  crashes: %s@,"
    (if r.o_crashes = [] then "none"
     else
       String.concat ", "
         (List.map
            (fun (pid, tm) -> Printf.sprintf "%s@%.2fs" (Pid.to_string pid) tm)
            r.o_crashes));
  Format.fprintf fmt "  decisions: %d  wall: %.2fs  events: %d@,"
    (List.length r.o_decisions) r.o_wall_s r.o_node_events;
  Format.fprintf fmt "  safety: %a@,  fd(omega_z): %a@," Check.pp_verdict r.o_safety
    Check.pp_verdict r.o_fd;
  (match r.o_qos.Qos.detection_time_s with
  | Some d -> Format.fprintf fmt "  qos: detection %.3fs" d
  | None -> Format.fprintf fmt "  qos: detection n/a");
  Format.fprintf fmt "  mistakes %.4f/s  accuracy %.3f  samples %d@,"
    r.o_qos.Qos.mistake_rate_hz r.o_qos.Qos.query_accuracy r.o_qos.Qos.samples;
  let phi_points =
    List.fold_left (fun acc (_, ps) -> acc + List.length ps) 0 r.o_phi
  in
  Format.fprintf fmt "  series: %d qos windows  %d phi points@]"
    (List.length r.o_qos_windows) phi_points
