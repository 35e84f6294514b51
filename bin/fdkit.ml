(* fdkit: the command line of the setagree library.  Every paper
   stack is a protocol of Core.Protocol's registry.  run, campaign,
   chaos, explore and replay share one path with the daemon: Job.validate
   (exit 3 on a refused spec), Job.execute, Job.write_artifacts into
   --out, then each prints its summary and exits with the outcome's code:

     fdkit run -p kset       -n 9 -t 4 -z 2 -k 2 --crashes 3 --seed 7
     fdkit run -p wheels     -x 2 -y 1 --crashes 2
     fdkit run -p reduce     --variant phi -y 2
     fdkit run -p strengthen -y 2 --variant es-mp
     fdkit run -p impl       --gst 30 --horizon 400 --variant omega

   A seed sweep, sharded across domains, with JSON artifacts and
   failing-seed triage (here Theorem 5's tightness: Omega_2 with the
   misuse wiring breaks 1-set agreement):

     fdkit campaign --exp kset -n 7 -t 2 -z 2 -k 1 --adversarial \
       --crashes 0 --horizon 400 --seeds 25

   trace validates its spec the same way and then simulates it alone.
   The simulator's reference engines are test-only.  The irreducibility
   scenarios, which compare two runs, are bench experiment e9. *)

open Cmdliner
open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core
open Setagree_runner
module Rt_run = Setagree_rt.Run

(* ---- shared options ---- *)

let n_arg = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
let t_arg = Arg.(value & opt int 3 & info [ "t" ] ~docv:"T" ~doc:"Max crashes (resilience).")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.")

let gst_arg =
  Arg.(
    value & opt float 40.0
    & info [ "gst" ] ~docv:"TIME" ~doc:"Oracle stabilization time (0 = perfect).")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- shared Protocol.params term ---- *)

let faults_arg =
  let parse path =
    try
      match Json.of_string (read_file path) with
      | Error e -> Error (`Msg (Printf.sprintf "%s: not JSON: %s" path e))
      | Ok j -> (
          match Faults.of_json j with
          | Ok f -> Ok f
          | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e)))
    with Sys_error e -> Error (`Msg e)
  in
  let print ppf f = Format.fprintf ppf "%s" (Faults.summary f) in
  Arg.(
    value
    & opt (conv (parse, print)) Faults.none
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "JSON fault specification: link drop/duplicate/reorder/inflation \
           windows, partitions with heal times, process stalls, extra crashes \
           and an oracle adversary strategy (see Dsys.Faults).")

let adversarial_arg =
  Arg.(
    value & flag
    & info [ "adversarial" ]
        ~doc:
          "kset mis-use configuration (Theorem 5 tightness): constant Omega_z trusted \
           set and the By_pid tie-break.  With z > k the explorer finds agreement \
           violations.  reduce --variant wheels: the By_pid tie-break.")

let variant_arg =
  let table (name, (module P : Protocol.S)) =
    if P.variants = [] then None else Some (name ^ ": " ^ String.concat "|" P.variants)
  in
  let tables = String.concat "; " (List.filter_map table Protocol.registry) in
  Arg.(
    value & opt string "es"
    & info [ "variant" ] ~docv:"NAME"
        ~doc:("Protocol variant, the first the default (" ^ tables ^ ")."))

let trace_arg =
  Arg.(
    value
    & opt (enum [ ("off", "off"); ("default", "default"); ("full", "full") ]) "default"
    & info [ "trace" ] ~docv:"off|default|full"
        ~doc:
          "Trace level: $(b,off) records nothing, $(b,default) protocol-level \
           spans and events, $(b,full) adds per-message and scheduler-wakeup \
           records.  Pure observability — never changes the execution.")

let backend_arg =
  Arg.(
    value
    & opt (enum (List.map (fun b -> (b, b)) Job.backends)) "sim"
    & info [ "backend" ] ~docv:(String.concat "|" Job.backends)
        ~doc:
          "Execution substrate: $(b,sim) runs the deterministic simulator; \
           $(b,rt) runs one OCaml domain per process over real UDP loopback \
           datagrams with timeout-extracted (accrual) failure detectors; \
           $(b,rt-chan) is the same runtime over loss-free in-process \
           channels (CI fallback, no sockets).")

(* All artifacts are stamped with the code fingerprint, and cache keys
   embed the per-protocol one. *)
let () = Fingerprint.install ()

(* Runtime tuning: params.horizon is a virtual-time budget, so the rt
   backend keeps its own wall-clock knobs (env-overridable for CI). *)
let rt_cfg_of (p : Protocol.params) =
  let fenv name dflt =
    match Option.bind (Sys.getenv_opt name) float_of_string_opt with
    | Some v when v > 0.0 -> v
    | _ -> dflt
  in
  let base = Rt_run.default_cfg in
  {
    base with
    Rt_run.transport = (if p.Protocol.backend = "rt-chan" then `Chan else `Udp);
    hb_period_s = fenv "FDKIT_RT_HB" base.Rt_run.hb_period_s;
    horizon_s = fenv "FDKIT_RT_HORIZON" base.Rt_run.horizon_s;
    timescale = fenv "FDKIT_RT_TIMESCALE" base.Rt_run.timescale;
  }

(* Core's Job module executes rt-backend jobs through this hook
   (Setagree_rt sits above core, so core can't call it directly).  The
   row is what [fdkit run] prints for the run. *)
let () =
  Job.rt_runner :=
    Some
      (fun pk (p : Protocol.params) ->
        let r = Rt_run.run_protocol pk p ~cfg:(rt_cfg_of p) () in
        Runner.body
          ~notes:
            (if Rt_run.ok r then []
             else r.Rt_run.o_safety.Check.notes @ r.Rt_run.o_fd.Check.notes)
          ~metrics:r.Rt_run.o_metrics
          ~row:(Format.asprintf "%a" Rt_run.pp_result r)
          (Rt_run.ok r))

let mk_params n t seed crashes gst horizon z k x y adversarial variant trace faults
    backend =
  {
    Protocol.n;
    t;
    seed;
    z;
    k;
    x;
    y;
    gst;
    horizon;
    crashes =
      (if crashes <= 0 then Crash.No_crashes
       else Crash.Exactly { crashes = min crashes t; window = (0.0, 20.0) });
    faults;
    adversarial;
    variant;
    trace;
    backend;
  }

let params_term ?(default_z = 1) ?(default_k = 1) ?(default_crashes = 2) () =
  let z_arg =
    Arg.(value & opt int default_z & info [ "z" ] ~doc:"Oracle class Omega_z (kset, impl).")
  in
  let k_arg =
    Arg.(value & opt int default_k & info [ "k" ] ~doc:"Agreement degree checked (kset).")
  in
  let x_arg =
    Arg.(value & opt int 2 & info [ "x" ] ~doc:"◇S_x scope (wheels, reduce, strengthen).")
  in
  let y_arg =
    Arg.(
      value & opt int 1
      & info [ "y" ] ~doc:"◇φ_y / Ψ_y strength (wheels, psi, reduce, strengthen, impl).")
  in
  let crashes_arg =
    Arg.(
      value & opt int default_crashes
      & info [ "crashes" ] ~docv:"C" ~doc:"Number of crashes to inject (0 = none).")
  in
  let horizon_arg =
    Arg.(
      value & opt float 0.0
      & info [ "horizon" ] ~docv:"TIME" ~doc:"Virtual-time budget (0 = protocol default).")
  in
  Term.(
    const mk_params $ n_arg $ t_arg $ seed_arg $ crashes_arg $ gst_arg $ horizon_arg
    $ z_arg $ k_arg $ x_arg $ y_arg $ adversarial_arg $ variant_arg $ trace_arg
    $ faults_arg $ backend_arg)

let registry_doc () =
  Printf.sprintf "Protocols: %s." (String.concat ", " (Protocol.names ()))

(* ---- running a spec ---- *)

(* A refused spec: Job.validate's messages and, for an illegal fault
   spec, its smallest illegal part.  Exit 3. *)
let refuse spec errs =
  List.iter prerr_endline errs;
  (match spec with
  | Job.Run { params = p; _ }
  | Job.Campaign { params = p; _ }
  | Job.Explore { params = p; _ }
  | Job.Chaos { base = p; _ }
    when List.exists (String.starts_with ~prefix:"illegal fault spec") errs -> (
      match Chaos.minimize_illegal ~n:p.Protocol.n ~t:p.Protocol.t p.Protocol.faults with
      | Some s -> Printf.eprintf "minimized to: %s\n" (Faults.summary s)
      | None -> ())
  | _ -> ());
  3

(* --compare's determinism check: the merged outputs at -j N and -j 1. *)
let deterministic c c1 = Runner.signature c = Runner.signature c1

(* The one path of run, campaign, chaos, explore and replay: validate,
   execute (with [cache], from and into [out]/cache), write the kind's
   artifacts into [out], then [report] prints the outcome and returns the
   exit code.  [report] gets the written (artifact, triage file), [None]
   without [out] or for Run and Replay.  With [compare] the spec runs
   again on one domain, without the cache (it would only replay what the
   first run stored, comparing the cache with itself); [report] gets that
   campaign, and differing signatures exit 2. *)
let exec_spec ?jobs ?out ?(cache = false) ?(compare = false) spec report =
  match Job.validate spec with
  | Error errs -> refuse spec errs
  | Ok () -> (
      let cache =
        match out with
        | Some out when cache -> Some (Runner.Cache.create ~dir:(Filename.concat out "cache") ())
        | _ -> None
      in
      let o = Job.execute ?jobs ?cache spec in
      let c = o.Job.o_campaign in
      let seq = if compare then Some (Job.execute ~jobs:1 spec).Job.o_campaign else None in
      match Option.fold ~none:(Ok None) ~some:(fun dir -> Job.write_artifacts ~dir o) out with
      | Error e ->
          prerr_endline e;
          max 1 o.Job.o_exit
      | Ok files -> (
          let code = report o files seq in
          match seq with
          | Some c1 when not (deterministic c c1) ->
              prerr_endline "determinism violation: -j 1 and -j N merged outputs differ";
              2
          | _ -> code))

(* [fdkit run] prints the one result: the verdict and metrics, or the rt
   backend's report. *)
let exec_run protocol (p : Protocol.params) =
  exec_spec (Job.of_flags ~kind:`Run ~protocol p) (fun o _ _ ->
      let r = o.Job.o_campaign.Runner.c_results.(0) in
      let rt = Job.is_rt p.Protocol.backend in
      if rt then print_endline r.Runner.r_row
      else
        Printf.printf "%s seed=%d: %s\n" protocol p.Protocol.seed
          (Format.asprintf "%a" Check.pp_verdict
             { Check.ok = r.Runner.r_ok; notes = r.Runner.r_notes });
      List.iter
        (fun (key, v) -> Printf.printf "  %-*s %g\n" (if rt then 22 else 18) key v)
        r.Runner.r_metrics;
      o.Job.o_exit)

let protocol_arg =
  Arg.(
    value & opt string "kset"
    & info [ "protocol"; "p" ] ~docv:"NAME" ~doc:"Protocol from the registry.")

(* ---- run ---- *)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:("Run any registered protocol once. " ^ registry_doc ()))
    Term.(const exec_run $ protocol_arg $ params_term ())

(* ---- campaign ---- *)

(* Fault/runtime counter totals for the summary tables.  [Protocol.run]
   omits zero-valued fault counters from job metrics and
   [Runner.metric_summaries] drops metrics nobody sampled, so a clean
   campaign printed no fault row at all — "zero retransmits" was
   indistinguishable from "retransmits not measured".  Sum the
   counter-like metrics ([fault.*], [net.*], [rt.*]) across all jobs and
   always print [Protocol.fault_counters], zeros included. *)
let counter_totals (c : Runner.campaign) =
  let prefixes = [ "fault."; "net."; "rt." ] in
  let tbl = Hashtbl.create 16 in
  List.iter (fun key -> Hashtbl.replace tbl key 0.0) Protocol.fault_counters;
  Array.iter
    (fun (r : Runner.result) ->
      List.iter
        (fun (key, v) ->
          if List.exists (fun prefix -> String.starts_with ~prefix key) prefixes then
            Hashtbl.replace tbl key
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
        r.Runner.r_metrics)
    c.Runner.c_results;
  List.sort compare (Hashtbl.fold (fun key v acc -> (key, v) :: acc) tbl [])

let print_counter_totals c =
  print_endline "  counter totals (all jobs):";
  List.iter (fun (key, v) -> Printf.printf "    %-22s %g\n" key v) (counter_totals c);
  (* Not job metrics — campaign-level cache robustness counters (jobs
     that bypassed the cache, corrupt entries detected and healed,
     failed stores); always printed so "0" is distinguishable from "not
     measured". *)
  Printf.printf "    %-22s %d\n" "cache.skipped" c.Runner.c_cache_skipped;
  Printf.printf "    %-22s %d\n" "cache.corrupt" c.Runner.c_cache_corrupt;
  Printf.printf "    %-22s %d\n" "cache.write_failed" c.Runner.c_cache_write_failed

let cache_flag_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Resolve jobs from the content-addressed result cache \
           ($(b,<out>/cache)) and store fresh results into it.  Cached \
           replays are byte-identical to cold runs (same signature).")

let print_cache_line c =
  if
    c.Runner.c_cache_hits > 0 || c.Runner.c_cache_skipped > 0
    || c.Runner.c_executed < Array.length c.Runner.c_results
  then
    Printf.printf "  cache: %d hit(s), %d executed, %d skipped\n"
      c.Runner.c_cache_hits c.Runner.c_executed c.Runner.c_cache_skipped

let campaign_cmd =
  let run family jobs seeds out compare cache (base : Protocol.params) =
    let spec = Job.of_flags ~kind:`Campaign ~seeds ~protocol:family base in
    exec_spec ~jobs ~out ~cache ~compare spec (fun o files seq ->
        let c = o.Job.o_campaign and art, triage = Option.get files in
        let failures = Runner.failures c in
        let describe tag c =
          Printf.printf "%s: %d jobs on %d domain(s), %d failed, %.2fs wall, %.1f jobs/s\n"
            tag
            (Array.length c.Runner.c_results)
            c.Runner.c_workers
            (List.length (Runner.failures c))
            c.Runner.c_wall_s c.Runner.c_throughput
        in
        describe (Printf.sprintf "campaign %s -j %d" family jobs) c;
        print_cache_line c;
        Printf.printf "artifact: %s\n" art;
        List.iter
          (fun (name, s) ->
            Printf.printf "  %-18s %s\n" name (Format.asprintf "%a" Stats.pp_summary s))
          (Runner.metric_summaries c);
        print_counter_totals c;
        (* A -j N side that served any job from the cache measures the
           cache, not the domains: no speedup then. *)
        let speedup c1 =
          if c.Runner.c_cache_hits > 0 then None
          else Some (c.Runner.c_throughput /. Float.max c1.Runner.c_throughput 1e-9)
        in
        Option.iter
          (fun c1 ->
            describe (Printf.sprintf "baseline %s -j 1" family) c1;
            Printf.printf "speedup: %s; deterministic merge: %s\n"
              (match speedup c1 with
              | Some x -> Printf.sprintf "%.2fx" x
              | None ->
                  Printf.sprintf "not measured (%d job(s) served from the cache)"
                    c.Runner.c_cache_hits)
              (if deterministic c c1 then "yes" else "NO — BUG"))
          seq;
        let side tag c =
          ( tag,
            Json.Obj
              [
                ("workers", Json.Int c.Runner.c_workers);
                ("executed", Json.Int c.Runner.c_executed);
                ("cache_hits", Json.Int c.Runner.c_cache_hits);
                ("wall_s", Json.Float c.Runner.c_wall_s);
                ("throughput_jobs_per_s", Json.Float c.Runner.c_throughput);
              ] )
        in
        (* The CLI's own record of the sweep and of --compare's -j 1 run. *)
        Json.write_file
          (Filename.concat out "campaign_summary.json")
          (Json.Obj
             ([
                ("experiment", Json.String family);
                ("seeds", Json.Int seeds);
                ("failed", Json.Int (List.length failures));
                side "parallel" c;
              ]
             @ Option.fold ~none:[]
                 ~some:(fun c1 ->
                   [
                     side "sequential" c1;
                     ( "speedup",
                       Option.fold ~none:Json.Null ~some:(fun x -> Json.Float x) (speedup c1) );
                     ("deterministic", Json.Bool (deterministic c c1));
                   ])
                 seq));
        if failures <> [] then begin
          Printf.printf "%d failing seed(s) — triage records (with replay commands) in %s\n"
            (List.length failures) triage;
          let none = "none: no command line expresses this job's params; see " ^ triage in
          List.iter
            (fun r ->
              Printf.printf "  seed %d: %s\n    replay: %s\n" r.Runner.r_seed
                (String.concat "; " r.Runner.r_notes)
                (Option.value ~default:none r.Runner.r_replay))
            failures
        end;
        o.Job.o_exit)
  in
  let exp_arg =
    Arg.(
      value & opt string "kset"
      & info [ "exp" ] ~docv:"NAME" ~doc:("Protocol family to sweep. " ^ registry_doc ()))
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Runner.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (default: BENCH_JOBS or cores).")
  in
  let seeds_arg =
    Arg.(value & opt int 32 & info [ "seeds" ] ~docv:"S" ~doc:"Run seeds 1..S.")
  in
  let out_arg =
    Arg.(
      value & opt string "_results"
      & info [ "out" ] ~docv:"DIR" ~doc:"Artifact directory (created if missing).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also run the sweep on 1 domain, without the cache: report speedup (not \
             measured when the cache served any job of the -j N sweep) and verify the \
             merged outputs are identical (exit 2 if not).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Shard a seed sweep of a protocol family across domains; write \
          BENCH_<family>.json, campaign_summary.json and failures.json (with replay \
          commands for every failing seed); exit nonzero if any seed fails.  \
          Note: these flags are sugar for the unified job API — prefer \
          $(b,fdkit submit) against a running $(b,fdkit serve) daemon for cached, \
          streaming campaigns.")
    Term.(
      const run $ exp_arg $ jobs_arg $ seeds_arg $ out_arg $ compare_arg
      $ cache_flag_arg $ params_term ())

(* ---- explore ---- *)

(* The search bounds, one term for [explore] and [submit --kind explore]. *)
let bounds_term =
  let docs = "SEARCH BOUNDS" in
  let int_opt name docv default doc =
    Arg.(value & opt int default & info [ name ] ~docs ~docv ~doc)
  in
  let d = Explorer.default_bounds in
  Term.(
    const (fun depth delays walks max_runs_per_job shrink_budget ->
        { d with Explorer.depth; delays; walks; max_runs_per_job; shrink_budget })
    $ int_opt "depth" "D" d.Explorer.depth "Choice points eligible for branching per run."
    $ int_opt "delays" "B" d.Explorer.delays "Max deviations from FIFO per execution."
    $ int_opt "walks" "W" d.Explorer.walks "Guided random walks on top of the DFS."
    $ int_opt "max-runs" "R" d.Explorer.max_runs_per_job "DFS execution budget per point job."
    $ int_opt "shrink-budget" "R" d.Explorer.shrink_budget
        "Delta-debugging trial runs per counterexample.")

let explore_cmd =
  let run protocol jobs out compare expect honest bounds cache (base : Protocol.params) =
    (* Exploration defaults (adversarial wiring unless --honest, short
       horizon) are applied by Job.of_flags — shared with the daemon. *)
    let spec = Job.of_flags ~kind:`Explore ~honest ~bounds ~protocol base in
    exec_spec ~jobs ~out ~cache ~compare spec (fun o files seq ->
        let c = o.Job.o_campaign and ces = o.Job.o_ces and art, triage = Option.get files in
        let sum name =
          Array.fold_left
            (fun acc r ->
              acc +. Option.value ~default:0.0 (List.assoc_opt name r.Runner.r_metrics))
            0.0 c.Runner.c_results
        in
        let runs = sum "explore.runs" in
        let violations = sum "explore.violations" in
        Printf.printf "explore %s: %d jobs on %d domain(s), %.2fs wall\n" protocol
          (Array.length c.Runner.c_results)
          c.Runner.c_workers c.Runner.c_wall_s;
        print_cache_line c;
        Printf.printf
          "  executions=%.0f points=%.0f prunes=%.0f shrink_runs=%.0f violations=%.0f\n"
          runs (sum "explore.points") (sum "explore.prunes") (sum "explore.shrink_runs")
          violations;
        Printf.printf "  rate: %.1f runs/s, %.2f violations/s\n"
          (runs /. Float.max c.Runner.c_wall_s 1e-9)
          (violations /. Float.max c.Runner.c_wall_s 1e-9);
        Printf.printf "  counterexamples: %d (minimized, deduplicated)\n" (List.length ces);
        List.iteri
          (fun i (s : Schedule.t) ->
            if i < 5 then
              Printf.printf "    [%d] %s  -- %s\n" i
                (Format.asprintf "%a" Schedule.pp_choices s.Schedule.choices)
                (String.concat "; " s.Schedule.violation))
          ces;
        Printf.printf "artifacts: %s, %s\n" art triage;
        if ces <> [] then
          Printf.printf "replay: dune exec bin/fdkit.exe -- replay --schedule %s\n" triage;
        Option.iter
          (fun c1 ->
            Printf.printf "determinism (-j %d vs -j 1): signatures %s\n" jobs
              (if deterministic c c1 then "match" else "DIFFER"))
          seq;
        match expect with
        | `Violation when ces = [] ->
            prerr_endline "expected a violation, found none";
            1
        | `None when ces <> [] ->
            prerr_endline "expected no violation, found some";
            1
        | _ -> o.Job.o_exit)
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Runner.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let out_arg =
    Arg.(
      value & opt string "_results"
      & info [ "out" ] ~docv:"DIR" ~doc:"Artifact directory (created if missing).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also explore on 1 domain, without the cache, and verify the merged \
             signatures are identical (exit 2 if not); they cover the counterexamples.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (enum [ ("violation", `Violation); ("none", `None); ("any", `Any) ]) `Any
      & info [ "expect" ] ~docv:"violation|none|any"
          ~doc:"Exit 1 unless the exploration outcome matches (CI assertions).")
  in
  let honest_arg =
    Arg.(
      value & flag
      & info [ "honest" ]
          ~doc:
            "Disable the default adversarial (mis-use) wiring; explore the protocol as \
             normally configured.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore message delivery orders and crash injections \
          (delay-bounded DFS with commutativity pruning, plus optional random walks), \
          sharded across domains; minimize every violating schedule and write replayable \
          counterexamples.json.  Note: these flags are sugar for the unified job API \
          (fdkit submit / serve).")
    Term.(
      const run $ protocol_arg $ jobs_arg $ out_arg $ compare_arg $ expect_arg
      $ honest_arg $ bounds_term $ cache_flag_arg
      $ params_term ~default_z:2 ~default_k:1 ~default_crashes:0 ())

(* ---- chaos ---- *)

let chaos_cmd =
  let run jobs seeds protocols mix_filter out cache (base : Protocol.params) =
    (* Defaults for empty protocol and mix lists live in Job.of_flags,
       shared with the daemon. *)
    let spec =
      Job.of_flags ~kind:`Chaos ~seeds ~protocols ~mixes:mix_filter ~protocol:"" base
    in
    let protocols, mixes =
      match spec with
      | Job.Chaos { protocols; mixes; _ } -> (protocols, mixes)
      | _ -> (Chaos.default_protocols, Chaos.mix_names)
    in
    exec_spec ~jobs ~out ~cache spec (fun outcome files _ ->
        let o = Option.get outcome.Job.o_chaos and art, triage = Option.get files in
        let c = o.Chaos.o_campaign in
        Printf.printf "chaos: %d runs (%s x %s x %d seeds) on %d domain(s), %.2fs wall\n"
          o.Chaos.o_runs
          (String.concat "," protocols)
          (String.concat "," mixes)
          seeds c.Runner.c_workers c.Runner.c_wall_s;
        print_cache_line c;
        Printf.printf "  safety violations:  %d\n  liveness failures:  %d\n"
          o.Chaos.o_safety o.Chaos.o_liveness;
        Printf.printf "artifacts: %s, %s\n" art triage;
        List.iter
          (fun (name, s) ->
            Printf.printf "  %-22s %s\n" name (Format.asprintf "%a" Stats.pp_summary s))
          (Runner.metric_summaries c);
        print_counter_totals c;
        List.iteri
          (fun i (f : Chaos.failure) ->
            Printf.printf
              "  [%d] %s/%s seed=%d %s: %s\n      minimized: %s\n      replay: dune exec \
               bin/fdkit.exe -- replay --faults %s --index %d\n"
              i f.Chaos.f_protocol f.Chaos.f_mix f.Chaos.f_params.Protocol.seed
              (Chaos.kind_to_string f.Chaos.f_kind)
              (String.concat "; " f.Chaos.f_notes)
              (Faults.summary f.Chaos.f_params.Protocol.faults)
              triage i)
          o.Chaos.o_failures;
        (* Exit 2 on a safety violation, 1 on liveness failures alone. *)
        outcome.Job.o_exit)
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Runner.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let seeds_arg =
    Arg.(value & opt int 8 & info [ "seeds" ] ~docv:"S" ~doc:"Run seeds 1..S per cell.")
  in
  let protocols_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "protocols" ] ~docv:"P1,P2"
          ~doc:"Protocols to sweep (default kset,consensus_s,wheels).")
  in
  let mixes_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "mixes" ] ~docv:"M1,M2"
          ~doc:"Fault mixes to sweep (default: all built-in mixes).")
  in
  let out_arg =
    Arg.(
      value & opt string "_results"
      & info [ "out" ] ~docv:"DIR" ~doc:"Artifact directory (created if missing).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos campaign: sweep fault mixes (drop/dup/reorder/inflate links, \
          partitions with heals, stalls, adversary oracles, combos) x seeds over \
          registered protocols; assert safety on every run and liveness after heal; \
          minimize failures into replayable chaos_failures.json (exit 2 on any \
          safety violation, 1 on liveness failures).  Note: these flags are sugar \
          for the unified job API (fdkit submit / serve).")
    Term.(
      const run $ jobs_arg $ seeds_arg $ protocols_arg $ mixes_arg $ out_arg
      $ cache_flag_arg $ params_term ())

(* ---- replay ---- *)

let replay_cmd =
  let run schedule faults index =
    let dispatch source path =
      exec_spec (Job.Replay { source; path; index }) (fun o _ _ ->
          List.iter print_endline (Runner.rows o.Job.o_campaign);
          o.Job.o_exit)
    in
    match (schedule, faults) with
    | None, None ->
        prerr_endline "replay needs --schedule FILE or --faults FILE";
        3
    | Some _, Some _ ->
        prerr_endline "--schedule and --faults are mutually exclusive";
        3
    | None, Some path -> dispatch Job.Faults_file path
    | Some path, None -> dispatch Job.Schedule_file path
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"A counterexamples.json artifact or a bare schedule file.")
  in
  let faults_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"FILE"
          ~doc:"A chaos_failures.json artifact: re-run the recorded configuration \
                (params + minimized fault spec) and verify the failure reproduces.")
  in
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "index" ] ~docv:"I" ~doc:"Which counterexample to replay.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a recorded counterexample — an explorer schedule \
          choice-for-choice (--schedule) or a chaos failure byte-for-byte from its \
          seed and fault spec (--faults) — and verify it exhibits the recorded \
          violation (exit 0 iff reproduced).  Note: these flags are sugar for the \
          unified job API (fdkit submit / serve).")
    Term.(const run $ schedule_arg $ faults_file_arg $ index_arg)

(* ---- grid ---- *)

let grid_cmd =
  let run n t matrix =
    Printf.printf "Figure 1 grid for t = %d (row z: classes solving z-set agreement)\n\n" t;
    Printf.printf "%-4s %-8s %-8s %-8s %-8s %-8s\n" "z" "S_x" "◇S_x" "Ω_z" "φ_y" "◇φ_y";
    List.iter
      (fun (row : Bounds.row) ->
        Printf.printf "%-4d %-8s %-8s %-8s %-8s %-8s\n" row.z
          (Printf.sprintf "S_%d" row.sx)
          (Printf.sprintf "◇S_%d" row.sx)
          (Printf.sprintf "Ω_%d" row.z)
          (Printf.sprintf "φ_%d" row.phiy)
          (Printf.sprintf "◇φ_%d" row.phiy))
      (Bounds.grid ~t);
    if matrix then begin
      Printf.printf
        "\nfull reducibility matrix (Y = yes, n = impossible, ? = open):\n\n";
      Format.printf "%a@." (Grid.pp_matrix ~n ~t) (Grid.row_representatives ~n ~t)
    end;
    0
  in
  let matrix_arg =
    Arg.(value & flag & info [ "matrix" ] ~doc:"Also print the pairwise reducibility matrix.")
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Print the class grid of Figure 1 for a given t.")
    Term.(const run $ n_arg $ t_arg $ matrix_arg)

(* ---- trace export ---- *)

let trace_cmd =
  (* Stale-artifact detection: warn (never fail) when the file was
     stamped by a different schema or build than the one checking it. *)
  let warn_stamp path j =
    let short fp = if String.length fp > 12 then String.sub fp 0 12 else fp in
    (match Json.member "schema_version" j with
    | Some (Json.Int v) when v <> Stamp.schema_version ->
        Printf.eprintf "check: warning: %s has schema version %d, this build writes %d\n"
          path v Stamp.schema_version
    | _ -> ());
    match Json.member "code_fingerprint" j with
    | Some (Json.String fp) when fp <> Stamp.fingerprint () ->
        Printf.eprintf
          "check: warning: %s was written by a different build (fingerprint %s, \
           running %s) — re-export before comparing\n"
          path (short fp)
          (short (Stamp.fingerprint ()))
    | _ -> ()
  in
  (* Re-parse the written file and demand >= 1 complete span: the CI
     smoke contract. *)
  let check_chrome path =
    match Json.of_string (read_file path) with
    | Error e ->
        Printf.eprintf "check: %s does not parse as JSON: %s\n" path e;
        1
    | Ok j -> (
        warn_stamp path j;
        match Json.member "traceEvents" j with
        | Some (Json.List evs) ->
            let count ph =
              List.length
                (List.filter
                   (fun e -> Json.member "ph" e = Some (Json.String ph))
                   evs)
            in
            (* Spans interrupted by a crash legitimately stay open (a B
               with no E), so require >= 1 completed span, not balance. *)
            let b = count "B" and e = count "E" in
            if e >= 1 && b >= e then begin
              Printf.printf "check: ok (%d events, %d complete spans)\n"
                (List.length evs) e;
              0
            end
            else begin
              Printf.eprintf
                "check: expected >= 1 complete span, got %d B / %d E events\n" b e;
              1
            end
        | _ ->
            Printf.eprintf "check: %s has no traceEvents array\n" path;
            1)
  in
  let check_jsonl path =
    let ok = ref true and lines = ref 0 in
    String.split_on_char '\n' (read_file path)
    |> List.iter (fun line ->
           if line <> "" then begin
             incr lines;
             match Json.of_string line with
             | Ok j -> if !lines = 1 then warn_stamp path j
             | Error e ->
                 ok := false;
                 Printf.eprintf "check: bad JSONL line %d: %s\n" !lines e
           end);
    if !ok && !lines > 0 then begin
      Printf.printf "check: ok (%d JSONL lines)\n" !lines;
      0
    end
    else 1
  in
  let run protocol format out check (p : Protocol.params) =
    let spec = Job.of_flags ~kind:`Run ~protocol p in
    match Job.validate spec with
    | Error errs -> refuse spec errs
    | Ok () when Job.is_rt p.Protocol.backend ->
        prerr_endline "trace runs the simulator only: --backend sim";
        3
    | Ok () ->
        let r = Protocol.run (Option.get (Protocol.find protocol)) p in
        let tr = Sim.trace r.Protocol.rp_sim in
        let n_spans = List.length (Trace.spans tr) in
        (match format with
        | `Summary ->
            Format.printf "%a@." Trace.pp_summary tr;
            Printf.printf "spans: %d complete, %d open; nesting: %s\n" n_spans
              (List.length (Trace.open_spans tr))
              (if Trace.nesting_ok tr then "ok" else "VIOLATED");
            List.iter
              (fun (key, v) -> Printf.printf "  %-22s %g\n" key v)
              r.Protocol.rp_metrics;
            0
        | (`Jsonl | `Chrome) as fmt ->
            Files.mkdir_p out;
            let ext = match fmt with `Jsonl -> "jsonl" | `Chrome -> "chrome.json" in
            let path =
              Filename.concat out
                (Printf.sprintf "trace_%s_seed%d.%s" protocol p.Protocol.seed ext)
            in
            (match fmt with
            | `Jsonl -> Export.write_jsonl path tr
            | `Chrome -> Export.write_chrome path tr);
            Printf.printf "trace: %s (%d entries, %d complete spans, level %s)\n"
              path (Trace.length tr) n_spans
              (Trace.level_to_string (Trace.level tr));
            if check then
              match fmt with
              | `Chrome -> check_chrome path
              | `Jsonl -> check_jsonl path
            else 0)
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("summary", `Summary) ]) `Summary
      & info [ "format" ] ~docv:"jsonl|chrome|summary"
          ~doc:
            "Output format: $(b,jsonl) one event per line, $(b,chrome) a \
             chrome://tracing / Perfetto trace_event file, $(b,summary) a textual \
             digest on stdout.")
  in
  let out_arg =
    Arg.(
      value & opt string "_results"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created if missing).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After writing, re-parse the file and verify it is well-formed (chrome: \
             >= 1 complete span); exit nonzero otherwise.  Also warns when the \
             file's schema version or code fingerprint differs from this build's.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         ("Simulate one execution and dump/convert its trace (spans, events, \
           counters); the spec is validated as $(b,run) validates it (exit 3), and an \
           rt backend is refused. "
        ^ registry_doc ()))
    Term.(const run $ protocol_arg $ format_arg $ out_arg $ check_arg $ params_term ())

(* ---- reducibility queries ---- *)

let reducible_cmd =
  let run n t from_s into_s =
    match (Grid.parse_cls from_s, Grid.parse_cls into_s) with
    | Some from, Some into ->
        let v = Grid.reducible ~n ~t ~from ~into in
        let verdict, why, code =
          match v with
          | Grid.Yes why -> ("YES", why, 0)
          | Grid.No why -> ("NO", why, 1)
          | Grid.Unknown why -> ("UNKNOWN", why, 2)
        in
        Format.printf "%a -> %a in AS(n=%d, t=%d): %s@.  %s@." Grid.pp_cls from
          Grid.pp_cls into n t verdict why;
        (match (Grid.kset_power ~n ~t from, Grid.kset_power ~n ~t into) with
        | Some ka, Some kb ->
            Format.printf "  k-set power: %a solves %d-set, %a solves %d-set@."
              Grid.pp_cls from ka Grid.pp_cls into kb
        | _ -> ());
        code
    | _ ->
        prerr_endline
          "cannot parse class; use S3, ES2, Omega1, Phi2, EPhi0, Psi1, P, EP";
        3
  in
  let from_arg =
    Arg.(required & opt (some string) None & info [ "from" ] ~docv:"CLS" ~doc:"Source class.")
  in
  let into_arg =
    Arg.(required & opt (some string) None & info [ "to" ] ~docv:"CLS" ~doc:"Target class.")
  in
  Cmd.v
    (Cmd.info "reducible"
       ~doc:
         "Query the paper's reducibility lattice: can the target class be built from \
          the source class in AS(n,t)?")
    Term.(const run $ n_arg $ t_arg $ from_arg $ into_arg)

(* ---- serve: the campaign daemon and its client commands ---- *)

let socket_arg =
  Arg.(
    value
    & opt string Serve.default_config.Serve.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket the fdkit serve daemon listens on.")

let serve_cmd =
  let run socket cache_dir no_cache jobs out verbose queue_depth
      default_deadline_s retry_budget retry_backoff_s no_resume =
    let log =
      if verbose then fun s -> Printf.eprintf "[serve] %s\n%!" s else ignore
    in
    let config =
      {
        Serve.socket_path = socket;
        cache_dir = (if no_cache then None else Some cache_dir);
        jobs = (if jobs > 0 then Some jobs else None);
        out_dir = out;
        log;
        queue_depth;
        default_deadline_s;
        retry_budget;
        retry_backoff_s;
        resume = not no_resume;
      }
    in
    Printf.printf "fdkit serve: listening on %s (cache: %s, journal: %s)\n%!"
      socket
      (if no_cache then "off" else cache_dir)
      (Serve.journal_path out);
    (* A live daemon already on the socket is a refusal (the stale-file
       case is handled inside serve by probe + unlink). *)
    match Serve.serve ~config () with
    | () -> 0
    | exception Failure e ->
        prerr_endline e;
        2
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Runner.Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Content-addressed result cache directory.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the result cache.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (0 = auto).")
  in
  let out_arg =
    Arg.(
      value & opt string "_results"
      & info [ "out" ] ~docv:"DIR" ~doc:"Artifact directory for campaign outputs.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log submissions to stderr.")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt int Serve.default_config.Serve.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bounded FIFO: max jobs waiting (the running job not counted); \
             submits beyond it are shed with a 'rejected: queue full' ack.")
  in
  let deadline_arg =
    Arg.(
      value & opt float 0.0
      & info [ "default-deadline-s" ] ~docv:"SECS"
          ~doc:
            "Per-attempt wall-clock budget for jobs whose submit frame \
             carries no deadline_s; 0 disables the watchdog.")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt int Serve.default_config.Serve.retry_budget
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:
            "Retries (with capped exponential backoff) for a timed-out or \
             crashed job before it is quarantined as poison.")
  in
  let retry_backoff_arg =
    Arg.(
      value
      & opt float Serve.default_config.Serve.retry_backoff_s
      & info [ "retry-backoff-s" ] ~docv:"SECS"
          ~doc:"Base of the capped exponential retry backoff.")
  in
  let no_resume_arg =
    Arg.(
      value & flag
      & info [ "no-resume" ]
          ~doc:
            "Do not re-enqueue journal-recovered interrupted jobs on start; \
             close them out as cancelled instead (completed history is \
             replayed either way).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-safe campaign daemon: accept Job specs over a Unix \
          socket (newline-delimited JSON), queue them on a bounded FIFO, \
          execute them on the multicore campaign engine, stream progress \
          frames live, and resolve warm jobs from the content-addressed \
          result cache.  Every accepted spec and state transition is \
          journaled (append + fsync) to $(b,<out>/serve_journal.jsonl); on \
          start the journal is replayed, so a kill -9 mid-campaign loses \
          nothing — interrupted jobs are re-enqueued and their finished \
          prefix resolves from the cache.  Timed-out or crashed jobs retry \
          with capped exponential backoff up to --retry-budget, then are \
          quarantined as poison (exit 6) with a ready-to-paste resubmit \
          command in the journal.  Clients that send \
          {\"op\":\"subscribe\"} additionally receive periodic \
          $(b,telemetry) frames (metrics snapshots and deltas of the \
          in-flight campaign — see $(b,fdkit submit --help) for the frame \
          schema); {\"op\":\"unsubscribe\"} turns them off again, both \
          honoured mid-run.  Telemetry is read-only: campaign signatures \
          are byte-identical with or without a subscriber.  Pair with \
          $(b,fdkit submit/status/top/cancel/shutdown).")
    Term.(
      const run $ socket_arg $ cache_dir_arg $ no_cache_arg $ jobs_arg $ out_arg
      $ verbose_arg $ queue_depth_arg $ deadline_arg $ retry_budget_arg
      $ retry_backoff_arg $ no_resume_arg)

let json_int ?(default = 0) key v =
  match Json.member key v with Some (Json.Int i) -> i | _ -> default

let json_str ?(default = "?") key v =
  match Json.member key v with Some (Json.String s) -> s | _ -> default

let json_float ?(default = 0.0) key v =
  match Json.member key v with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> default

(* One rendered line per telemetry frame under --follow. *)
let print_telemetry v =
  let cached = json_int "cached" v in
  let label = json_str ~default:"" "label" v in
  Printf.printf "  ~ #%d t=%.1fs %d/%d%s  %.1f jobs/s  %.0f ev/s  gc=%.2e mw%s\n%!"
    (json_int "seq" v) (json_float "wall_s" v) (json_int "done" v)
    (json_int "total" v)
    (if cached > 0 then Printf.sprintf " (%d cached)" cached else "")
    (json_float "rate_jobs_per_s" v)
    (json_float "events_per_s" v)
    (json_float "gc_minor_words" v)
    (if label = "" then "" else "  " ^ label)

let submit_cmd =
  let run socket spec_file kind protocol seeds protocols mixes honest bounds
      expect_cached follow stream retry deadline_s (base : Protocol.params) =
    let spec =
      match spec_file with
      | Some path -> (
          try
            match Json.of_string (read_file path) with
            | Error e -> Error (Printf.sprintf "%s: not JSON: %s" path e)
            | Ok j -> (
                match Job.of_json j with
                | Ok s -> Ok s
                | Error e -> Error (Printf.sprintf "%s: %s" path e))
          with Sys_error e -> Error e)
      | None ->
          (* Same elaboration as the run/campaign/chaos/explore commands. *)
          let seeds =
            if seeds > 0 then seeds
            else match kind with `Chaos -> 8 | _ -> 32
          in
          Ok (Job.of_flags ~seeds ~protocols ~mixes ~honest ~bounds ~kind ~protocol base)
    in
    match spec with
    | Error e ->
        prerr_endline e;
        3
    | Ok spec -> (
        match
          (* --retry rides out a daemon mid-restart (journal replay,
             socket not yet rebound) with capped-exponential reconnect. *)
          if retry > 0 then Serve.Client.connect_retry ~attempts:(retry + 1) socket
          else Serve.Client.connect socket
        with
        | Error e ->
            prerr_endline e;
            Printf.eprintf "hint: is `fdkit serve` running? socket checked: %s\n"
              socket;
            7
        | Ok conn ->
            let stream_oc = Option.map open_out stream in
            (* Subscribe before submitting so the campaign's first
               telemetry frame is never missed. *)
            if follow || stream_oc <> None then Serve.Client.subscribe conn;
            let on_event v =
              (match stream_oc with
              | Some oc ->
                  output_string oc (Json.to_string ~minify:true v);
                  output_char oc '\n';
                  flush oc
              | None -> ());
              match Json.member "type" v with
              | Some (Json.String "ack")
                when Json.member "accepted" v = Some (Json.Bool true) ->
                  if Json.member "attached" v = Some (Json.Bool true) then
                    Printf.printf "attached to job #%d (already %s): %s\n%!"
                      (json_int "id" v) (json_str "state" v) (Job.summary spec)
                  else Printf.printf "submitted: %s\n%!" (Job.summary spec)
              | Some (Json.String "retry") ->
                  Printf.printf "  retry %d: %s — backoff %gs\n%!"
                    (json_int "attempt" v)
                    (json_str ~default:"attempt failed" "reason" v)
                    (json_float "backoff_s" v)
              | Some (Json.String "progress") ->
                  Printf.printf "  [%d/%d] %s%s%s\n%!" (json_int "done" v)
                    (json_int "total" v) (json_str "label" v)
                    (if Json.member "cached" v = Some (Json.Bool true) then
                       " (cached)"
                     else "")
                    (if Json.member "ok" v = Some (Json.Bool true) then ""
                     else " FAILED")
              | Some (Json.String "telemetry") when follow -> print_telemetry v
              | _ -> ()
            in
            let r =
              Serve.Client.submit
                ?deadline_s:(if deadline_s > 0. then Some deadline_s else None)
                ~on_event conn spec
            in
            Serve.Client.close conn;
            Option.iter close_out stream_oc;
            (match r with
            | Error e ->
                prerr_endline e;
                3
            | Ok v -> (
                match Json.member "type" v with
                | Some (Json.String "done") ->
                    let executed = json_int "executed" v in
                    Printf.printf
                      "done: state=%s exit=%d jobs=%d failed=%d cache_hits=%d \
                       executed=%d cache_skipped=%d\n"
                      (json_str "state" v) (json_int "exit" v) (json_int "jobs" v)
                      (json_int "failed" v)
                      (json_int "cache_hits" v)
                      executed
                      (json_int "cache_skipped" v);
                    Printf.printf "signature=%s\n" (json_str "signature" v);
                    if expect_cached && executed > 0 then begin
                      Printf.eprintf
                        "expected a fully cached run, but %d job(s) executed\n"
                        executed;
                      1
                    end
                    else json_int "exit" v
                | Some (Json.String "ack") ->
                    prerr_endline "rejected:";
                    (match Json.member "errors" v with
                    | Some (Json.List errs) ->
                        List.iter
                          (function
                            | Json.String e -> Printf.eprintf "  - %s\n" e
                            | _ -> ())
                          errs
                    | _ -> ());
                    3
                | _ ->
                    Printf.eprintf "daemon error: %s\n"
                      (json_str ~default:"unknown" "message" v);
                    3)))
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Submit a Job spec read from a JSON file (the canonical encoding, \
             see DESIGN.md §11) instead of elaborating the flags below.")
  in
  let kind_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("run", `Run);
               ("campaign", `Campaign);
               ("chaos", `Chaos);
               ("explore", `Explore);
             ])
          `Campaign
      & info [ "kind" ] ~docv:"run|campaign|chaos|explore"
          ~doc:"Job kind to elaborate from the flags.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 0
      & info [ "seeds" ] ~docv:"S"
          ~doc:"Run seeds 1..S (0 = kind default: 32, chaos 8).")
  in
  let protocols_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "protocols" ] ~docv:"P1,P2"
          ~doc:"Chaos: protocols to sweep (default: the built-in list).")
  in
  let mixes_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "mixes" ] ~docv:"M1,M2"
          ~doc:"Chaos: fault mixes to sweep (default: all).")
  in
  let honest_arg =
    Arg.(
      value & flag
      & info [ "honest" ] ~doc:"Explore: disable the adversarial wiring.")
  in
  let expect_cached_arg =
    Arg.(
      value & flag
      & info [ "expect-cached" ]
          ~doc:
            "Exit nonzero unless the job resolved entirely from the result \
             cache (0 executed) — CI warm-cache assertion.")
  in
  let follow_arg =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Subscribe to live telemetry frames and render one line per \
             periodic snapshot (sequence number, wall clock, done/total, \
             jobs/s, events/s, GC minor words, last completed label).")
  in
  let stream_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stream" ] ~docv:"FILE"
          ~doc:
            "Save every frame the daemon sends (ack, progress, telemetry, \
             done) to $(docv) as newline-delimited JSON; implies the \
             telemetry subscription.")
  in
  let retry_arg =
    Arg.(
      value & opt int 0
      & info [ "retry" ] ~docv:"N"
          ~doc:
            "Retry the initial connect up to $(docv) times with capped \
             exponential backoff — rides out a daemon mid-restart.")
  in
  let deadline_s_arg =
    Arg.(
      value & opt float 0.0
      & info [ "deadline-s" ] ~docv:"SECS"
          ~doc:
            "Per-attempt wall-clock budget for this job (overrides the \
             daemon's --default-deadline-s); a timed-out job retries with \
             backoff and is eventually poisoned (exit 6).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a job to a running fdkit serve daemon, stream its progress, \
          and exit with the job's exit code.  The flag set mirrors \
          run/campaign/chaos/explore; --spec FILE submits a serialized \
          Job spec directly.  Daemon frames (one JSON object per line): \
          $(b,ack) {id,accepted,summary|errors}; $(b,progress) \
          {id,done,total,cached,label,ok}; $(b,telemetry) (with --follow or \
          --stream) {id,seq,wall_s,done,total,cached,cache_skipped,label,\
          rate_jobs_per_s,events_per_s,gc_minor_words,gc_promoted_words,\
          counters,delta}; $(b,done) {id,state,exit,jobs,failed,cache_hits,\
          executed,cache_skipped,cancelled,wall_s,signature}.")
    Term.(
      const run $ socket_arg $ spec_arg $ kind_arg $ protocol_arg $ seeds_arg
      $ protocols_arg $ mixes_arg $ honest_arg $ bounds_term $ expect_cached_arg
      $ follow_arg $ stream_arg $ retry_arg $ deadline_s_arg $ params_term ())

(* Exit 7 is reserved for "daemon unreachable" so scripts can tell a
   dead daemon (restart it) from a failing job (fix the job). *)
let unreachable_exit = 7

let unreachable_hint socket e =
  prerr_endline e;
  Printf.eprintf "hint: is `fdkit serve` running? socket checked: %s\n%!" socket

let with_daemon socket f =
  match Serve.Client.connect socket with
  | Error e ->
      unreachable_hint socket e;
      unreachable_exit
  | Ok conn ->
      let code = f conn in
      Serve.Client.close conn;
      code

(* "-" until the first snapshot of a running job; then its age. *)
let telemetry_age j =
  match Json.member "telemetry_age_s" j with
  | Some (Json.Float f) -> Printf.sprintf "%.1fs" f
  | Some (Json.Int i) -> Printf.sprintf "%d.0s" i
  | _ -> "-"

(* One rendering of a status frame: [status] prints it once, [top] on
   every tick. *)
let print_status v =
  (match Json.member "jobs" v with
  | Some (Json.List []) | None -> print_endline "no jobs submitted"
  | Some (Json.List jobs) ->
      Printf.printf "%d job(s), queue depth %d:\n" (List.length jobs)
        (json_int "queue_depth" v);
      List.iter
        (fun j ->
          Printf.printf
            "  #%d %-8s %-9s phase=%s exit=%d hits=%d executed=%d skipped=%d \
             telemetry=%s %s\n"
            (json_int "id" j) (json_str "kind" j) (json_str "state" j)
            (json_str "phase" j) (json_int "exit" j)
            (json_int "cache_hits" j)
            (json_int "executed" j)
            (json_int "cache_skipped" j)
            (telemetry_age j) (json_str "summary" j))
        jobs
  | Some _ -> ());
  (match Json.member "counters" v with
  | Some (Json.Obj _ as counters) ->
      let retried = json_int "jobs_retried" counters in
      let poisoned = json_int "jobs_poisoned" counters in
      if retried > 0 || poisoned > 0 then
        Printf.printf "watchdog: %d retried, %d poisoned\n" retried poisoned
  | _ -> ());
  match Json.member "cache" v with
  | Some (Json.Obj _ as cache) ->
      Printf.printf
        "cache: %s — %d hit(s), %d miss(es), %d store(s), %d corrupt, %d write-failed\n"
        (json_str "dir" cache) (json_int "hits" cache) (json_int "misses" cache)
        (json_int "stores" cache) (json_int "corrupt" cache)
        (json_int "write_failed" cache)
  | _ -> print_endline "cache: off"

let status_cmd =
  let run socket =
    with_daemon socket (fun conn ->
        match Serve.Client.status conn with
        | Error e ->
            prerr_endline e;
            3
        | Ok v ->
            print_status v;
            0)
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Print a running daemon's queue depth, job history (state, phase, \
          cache hit/executed/skipped counts, age of the last telemetry \
          snapshot) and cache counters.")
    Term.(const run $ socket_arg)

(* ---- top: live refresh of the daemon's status ---- *)

let top_cmd =
  let run socket interval once =
    (* Reconnect per tick: a throwaway connect → status → close per
       refresh holds none of the daemon's 32 connection slots between
       ticks, and the next tick finds a restarted daemon. *)
    let render () =
      match Serve.Client.connect socket with
      | Error e ->
          unreachable_hint socket e;
          Error unreachable_exit
      | Ok conn -> (
          let r = Serve.Client.status conn in
          Serve.Client.close conn;
          match r with
          | Error e ->
              unreachable_hint socket e;
              Error unreachable_exit
          | Ok v ->
              if not once then print_string "\027[2J\027[H";
              Printf.printf "fdkit top — %s\n" socket;
              print_status v;
              flush stdout;
              Ok ())
    in
    (* Loop mode survives a daemon restart: each tick is its own
       connect, so an unreachable tick reports and keeps ticking — the
       next tick finds the restarted daemon.  --once propagates the
       distinct exit code for scripting. *)
    let rec loop () =
      match render () with
      | Error code when once -> code
      | Error _ | Ok () ->
          if once then 0
          else begin
            Unix.sleepf interval;
            loop ()
          end
    in
    loop ()
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh period.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame and exit (no screen clearing) — \
                scripting/CI mode.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running fdkit serve daemon: queue depth and per-job \
          state/phase/telemetry-freshness, refreshed every --interval \
          seconds.  Each refresh is its own connect → status → close \
          exchange, so the watcher rides out daemon restarts: an \
          unreachable tick prints a hint and keeps ticking (--once instead \
          exits 7 for scripting).")
    Term.(const run $ socket_arg $ interval_arg $ once_arg)

let cancel_cmd =
  let run socket =
    with_daemon socket (fun conn ->
        (* A fresh connection has no submission of its own and is no
           watcher, so a bare cancel frame would be refused — resolve
           the running job's id via status and cancel it by name. *)
        match Serve.Client.status conn with
        | Error e ->
            Printf.eprintf "fdkit cancel: %s\n%!" e;
            1
        | Ok v -> (
            match Json.member "running" v with
            | Some (Json.Int id) ->
                Serve.Client.cancel ~id conn;
                Printf.printf "cancel sent (job %d)\n" id;
                0
            | _ ->
                print_endline "no job is running";
                1))
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Ask the daemon to cancel the running job: it starts no further \
          job, and each in-flight job stops at its next poll and is \
          discarded, never cached; completed jobs are kept and cached.  \
          Exits 1 when nothing is running.")
    Term.(const run $ socket_arg)

let shutdown_cmd =
  let run socket =
    with_daemon socket (fun conn ->
        match Serve.Client.shutdown conn with
        | Ok _ ->
            print_endline "daemon shut down";
            0
        | Error e ->
            prerr_endline e;
            3)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop a running fdkit serve daemon.")
    Term.(const run $ socket_arg)

let () =
  let doc = "Set-agreement-oriented failure detector classes: simulation toolkit." in
  let info = Cmd.info "fdkit" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            campaign_cmd;
            chaos_cmd;
            trace_cmd;
            explore_cmd;
            replay_cmd;
            grid_cmd;
            reducible_cmd;
            serve_cmd;
            submit_cmd;
            status_cmd;
            top_cmd;
            cancel_cmd;
            shutdown_cmd;
          ]))
