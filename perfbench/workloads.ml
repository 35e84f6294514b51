(* The four workloads of the repo benchmark and the per-layer probes of
   their traced runs.  Every call into the system goes through the
   libraries' public functions or the [fdkit] binary of the same build;
   spans are recorded only here, around those calls.

   A workload runs its {e unit} (one fixed computation) repeatedly until
   the run's seconds are used (the campaign layers, Runner, Cache, Json
   and Faults, are measured in kset-n32's traced run, on one chaos
   campaign):
   - kset-n32: one [Job.execute] of a kset Run spec at n=32 (the
     [fdkit run] path, no cache), each unit with its own seed: the
     engine layers do the work (its traced ladder runs at n=256);
   - explore-safe: one [Job.execute] of a kset Explore spec on Theorem
     5's safe side (z = k = 1) on 2 workers: the controlled simulator,
     DFS and Runner sharding;
   - serve-mixed: one batch of 20 requests from 2 closed-loop
     [Serve.Client] connections to an [fdkit serve] daemon, half cache
     reads and half fresh executions: the daemon, journal and cache
     (reported as the run's mean batch, see [serve]).

   The in-process units run in a forked child each, so every unit
   starts from the same heap (a long run does not measure the garbage of
   the units before it) and the child's peak RSS is the unit's. *)

open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd
open Setagree_runner
open Setagree_core

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = s *. 1000.

(* ---- files and processes ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
      List.find_map
        (fun l ->
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf_opt
              (String.sub l 6 (String.length l - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          else None)
        lines

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

(* ---- run context ---- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  mutable traced : bool;
  run_id : string;
  tmp : string;  (** this run's own directory; removed when the run ends *)
  fdkit : string;
  mutable tally : Book.tally;
  spans : Book.recorder;
  m : Mutex.t;
  mutable measured : (string * float list) list;
  mutable children : int list;  (** live child pids, killed on any exit path *)
  mutable ladder : (string * float) list;
}

let make_ctx ~workload ~seed ~seconds ~traced ~run_id ~tmp ~fdkit =
  {
    workload;
    seed;
    seconds;
    traced;
    run_id;
    tmp;
    fdkit;
    tally = Book.tally ();
    spans = Book.recorder ();
    m = Mutex.create ();
    measured = [];
    children = [];
    ladder = [];
  }

let samples ctx name = Option.value ~default:[] (List.assoc_opt name ctx.measured)

let measure ctx name values =
  Mutex.lock ctx.m;
  ctx.measured <- List.filter (fun (n, _) -> n <> name) ctx.measured @ [ (name, values) ];
  Mutex.unlock ctx.m

let measure1 ctx name v = measure ctx name [ v ]
let add_sample ctx name v = measure ctx name (samples ctx name @ [ v ])

let register ctx pid =
  Mutex.lock ctx.m;
  ctx.children <- pid :: ctx.children;
  Mutex.unlock ctx.m

let unregister ctx pid =
  Mutex.lock ctx.m;
  ctx.children <- List.filter (( <> ) pid) ctx.children;
  Mutex.unlock ctx.m

let reap_within pid secs =
  let deadline = now () +. secs in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then false
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

(* A set-up process leads its own process group, which holds the daemon
   it started; other children are single processes. *)
let signal_child pid =
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) [ -pid; pid ]

let kill_child ctx pid =
  signal_child pid;
  ignore (reap_within pid 5.0);
  unregister ctx pid

(* A span around [f] when the run is traced; [f] gets the span id to
   parent its own children. *)
let span ctx ?parent name f =
  if not ctx.traced then f None
  else begin
    let id = Book.reserve ctx.spans in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> ignore (Book.add ctx.spans ~id ?parent ~name t0 (now ())))
      (fun () -> f (Some id))
  end

let record_span ctx ?parent name t0 t1 =
  if ctx.traced then Some (Book.add ctx.spans ?parent ~name t0 t1) else None

(* [f] with span recording off: the plain half of a traced run's
   overhead measurement. *)
let untraced ctx f =
  let t = ctx.traced in
  ctx.traced <- false;
  Fun.protect ~finally:(fun () -> ctx.traced <- t) f

(* The end-to-end figures of the in-process workloads, from the run's
   unit times ([unit_s]): wall_s is the fastest unit.  Other tenants of
   a small shared host only ever slow a unit down, in bursts and in
   phases of minutes that slow a whole run by up to half; a short unit
   that fits between bursts still runs at full speed.  Over three
   ten-seed sets of kset-n32 and of a chaos campaign on a 2-vCPU host,
   set medians of the fastest unit moved by 4-20% where those of the
   first quartile moved by 14-54%.  Every
   unit does the same work (or, for kset, work drawn from the same seed
   distribution), so the fastest unit still scales with it. *)
let report_units ctx =
  match (samples ctx "unit_s", samples ctx "unit_jobs") with
  | [], _ | _, [] -> ()
  | xs, jobs ->
      let w = List.fold_left Float.min infinity xs in
      measure1 ctx "wall_s" w;
      measure1 ctx "jobs_per_s" ((Book.summarize ~unit_:"" jobs).Book.value /. w)

(* Signals that stop a run from outside; the run's handlers for them
   take its children down. *)
let stop_signals = [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* How many times a run sets up; setup_s is their median. *)
let setup_reps = 9

(* setup_s runs from process start until the workload is ready.  Each
   repetition is a fresh process of this program ([fdbench setup], which
   runs [setup_only] below): it computes the code fingerprints fdkit
   computes at start, validates the workload's specs, and for
   serve-mixed starts the daemon and prefills its cache; it reports
   ready on stdout and tears down, untimed.  Nothing is shared between
   repetitions or with this process, so no memo hides a cold start.
   A repetition that does not report ready is a failed operation. *)
let timed_setup ctx ?parent i =
  let dir = Filename.concat ctx.tmp (Printf.sprintf "setup-%d" i) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let self = Sys.executable_name in
  let args =
    [|
      self; "setup"; "--workload"; ctx.workload; "--seed"; string_of_int ctx.seed; "--fdkit"; ctx.fdkit;
      "--dir"; dir;
    |]
  in
  let t0 = now () in
  let pid = Unix.create_process self args null wr Unix.stderr in
  register ctx pid;
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let line = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
  let t1 = now () in
  close_in_noerr ic;
  let st = reap pid in
  unregister ctx pid;
  rm_rf dir;
  match (line, st) with
  | Some "ready", Some (Unix.WEXITED 0) ->
      add_sample ctx "setup_s" (t1 -. t0);
      ignore (record_span ctx ?parent "setup" t0 t1)
  | _ -> Book.fail ctx.tally (Printf.sprintf "set-up process %d did not get ready" i)

let timed_setups ctx ?parent () =
  for i = 1 to setup_reps do
    timed_setup ctx ?parent i
  done

(* Run [f i] (which returns the elapsed time of unit [i]) until the
   run's seconds are used: another unit starts only while at least half
   a unit of time is left, so a run ends within half a unit of its
   seconds.  At least one unit always runs.

   The run's timed set-ups are spread over it, between units: the k-th
   once (k-1)/setup_reps of the seconds have passed.  Their median then
   samples the host over the whole run, as the units do, not over its
   first moment. *)
let repeat_units ctx ?parent f =
  let t_start = now () in
  let setups = ref 0 in
  let setups_upto k =
    while !setups < k do
      incr setups;
      timed_setup ctx ?parent !setups
    done
  in
  let due () =
    min setup_reps (1 + int_of_float ((now () -. t_start) /. ctx.seconds *. float_of_int setup_reps))
  in
  let rec go i =
    setups_upto (due ());
    let w = f i in
    if now () -. t_start +. (0.5 *. w) < ctx.seconds then go (i + 1)
  in
  go 0;
  setups_upto setup_reps

(* Run [f] in a forked child and return its value with the child's peak
   RSS.  A child that dies or hangs (the run's deadline kills it) is an
   [Error], counted by the caller as a failed operation. *)
let in_child ctx f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      (* The run's handlers clean up after the whole run, not a unit. *)
      List.iter (fun s -> Sys.set_signal s Sys.Signal_default) stop_signals;
      Unix.close rd;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let s = Marshal.to_string (v, peak_rss_mb None) [] in
      let rec write off =
        if off < String.length s then write (off + Unix.write_substring wr s off (String.length s - off))
      in
      (try write 0 with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid -> (
      register ctx pid;
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let s = try In_channel.input_all ic with Sys_error _ -> "" in
      close_in_noerr ic;
      let st = reap pid in
      unregister ctx pid;
      match st with
      | Some (Unix.WEXITED 0) when s <> "" -> (
          match (Marshal.from_string s 0 : (_, string) result * float option) with
          | Ok v, rss -> Ok (v, rss)
          | Error e, _ -> Error e)
      | _ -> Error "unit process died")

let execute ?jobs ?cache ?on_progress ?on_telemetry spec =
  timed (fun () -> Job.execute ?jobs ?cache ?on_progress ?on_telemetry spec)

let validate_exn spec =
  match Job.validate spec with
  | Ok () -> ()
  | Error es -> failwith ("invalid spec: " ^ String.concat "; " es)

let result_ok (r : Runner.result) = r.Runner.r_ok && r.Runner.r_error = None

let result_reason (r : Runner.result) =
  match r.Runner.r_error with
  | Some e -> r.Runner.r_label ^ ": raised " ^ e
  | None -> r.Runner.r_label ^ ": " ^ String.concat "; " r.Runner.r_notes

let wseed ctx salt = 1 + Rng.int (Rng.split_named (Rng.create ctx.seed) salt) 100_000

(* What a unit's child sends back: enough to check the outputs and
   derive the metrics, and nothing that cannot be marshalled. *)
type unit_out = {
  u_wall : float;
  u_exit : int;
  u_results : Runner.result array;
  u_workers : int;
  u_executed : int;
  u_safety : int;  (** chaos: runs with safety violations *)
  u_liveness : int;  (** chaos: healed runs that did not decide *)
  u_ces : int;  (** explore: counterexamples *)
  u_progress : (float * Runner.result * bool) list;  (** completion time, result, cached *)
  u_gc_minor : float;  (** telemetry's minor words of executed jobs *)
}

(* Execute [spec] in a child, with [on_progress] and [on_telemetry]
   attached when [hooks] is set (the way the daemon attaches them), and
   send back what they saw. *)
let unit_child ctx ?cache_dir ~jobs ~hooks spec =
  in_child ctx (fun () ->
      let cache =
        Option.map
          (fun dir ->
            rm_rf dir;
            Runner.Cache.create ~dir ())
          cache_dir
      in
      let progress = ref [] and gc_minor = ref 0.0 in
      let pm = Mutex.create () in
      let on_progress (p : Runner.progress) =
        let t = now () in
        Mutex.lock pm;
        progress := (t, p.Runner.pr_result, p.Runner.pr_cached) :: !progress;
        Mutex.unlock pm
      in
      let on_telemetry (te : Runner.telemetry) = gc_minor := te.Runner.te_gc_minor_words in
      let o, wall =
        if hooks then execute ~jobs ?cache ~on_progress ~on_telemetry spec else execute ~jobs ?cache spec
      in
      Option.iter rm_rf cache_dir;
      let c = o.Job.o_campaign in
      {
        u_wall = wall;
        u_exit = o.Job.o_exit;
        u_results = c.Runner.c_results;
        u_workers = c.Runner.c_workers;
        u_executed = c.Runner.c_executed;
        u_safety = (match o.Job.o_chaos with Some co -> co.Chaos.o_safety | None -> 0);
        u_liveness = (match o.Job.o_chaos with Some co -> co.Chaos.o_liveness | None -> 0);
        u_ces = List.length o.Job.o_ces;
        u_progress = List.rev !progress;
        u_gc_minor = !gc_minor;
      })

(* Record a finished unit's time and peak RSS; a unit whose child died
   is a failed operation and records nothing. *)
let finish_unit ctx name r =
  match r with
  | Error e ->
      Book.fail ctx.tally (name ^ ": " ^ e);
      None
  | Ok (u, rss) ->
      add_sample ctx "unit_s" u.u_wall;
      add_sample ctx "unit_jobs" (float_of_int (Array.length u.u_results));
      Option.iter (add_sample ctx "peak_rss_mb") rss;
      Some u

let elapsed_of = function Some u -> u.u_wall | None -> 1.0

(* Set-up shared by every workload: the code fingerprints, as fdkit
   computes them at start (the whole-library stamp, and the per-protocol
   digests the result cache keys on), then the workload's specs checked
   the way [Job.execute]'s callers check them. *)
let prepare ~protocols specs =
  Fingerprint.install ();
  List.iter (fun p -> ignore (Fingerprint.protocol p)) protocols;
  List.iter validate_exn specs

(* ---- kset-n32 ---- *)

let kset_params ~n ~t seed =
  { Protocol.default with Protocol.n; t; z = 2; k = 2; gst = 10.0; seed }

let run_spec params = Job.Run { protocol = "kset"; params }

(* One Job.execute of the Run spec, counted as one operation whose check
   is the k-set agreement verdict. *)
let kset_unit ctx ?parent name spec =
  let r = span ctx ?parent name (fun _ -> unit_child ctx ~jobs:1 ~hooks:false spec) in
  let u = finish_unit ctx name r in
  Option.iter
    (fun u ->
      let rs = u.u_results in
      Book.count ctx.tally
        ~reason:(if Array.length rs = 1 then result_reason rs.(0) else "kset: no result")
        (u.u_exit = 0 && Array.length rs = 1 && result_ok rs.(0)))
    u;
  elapsed_of u

(* Every unit gets its own kset seed from the workload seed: the work
   differs by crash schedule, and a run spans many schedules instead of
   riding on one.  Units run at n=32, so a run has hundreds of them; the
   traced ladder runs at n=256, where the per-event costs and the heap's
   growth show. *)
let kset_n = 32
let ladder_n = 256

let kset_spec ?(n = kset_n) ctx i =
  run_spec (kset_params ~n ~t:((n / 2) - 1) (wseed ctx ("kset" ^ string_of_int i)))

let kset_setup ctx = prepare ~protocols:[ "kset" ] [ kset_spec ctx 0 ]

let sum_counters tr suffix =
  List.fold_left
    (fun acc (name, v) -> if Filename.check_suffix name suffix then acc + v else acc)
    0 (Trace.counters tr)

(* Probes of the engine ladder.  Each times one layer through its public
   functions, at the kset run's size. *)

(* Hold-model churn: a pop and an add per step at a steady pending-set
   size, with the kset delay spread. *)
let earena_probe ~pending ~steps =
  let a = Earena.create ~initial:pending () in
  let rng = Rng.create 7 in
  for i = 1 to pending do
    ignore (Earena.add a ~time:(Rng.float rng 1.0) ~kind:0 ~arg:i)
  done;
  let (), dt =
    timed (fun () ->
        for i = 1 to steps do
          let s = Earena.pop a in
          let tm = Earena.time_of a s in
          ignore (Earena.add a ~time:(tm +. Rng.uniform_in rng 0.5 1.5) ~kind:0 ~arg:i)
        done)
  in
  dt /. float_of_int (2 * steps) *. 1e9

(* A warmed simulator running nothing but its self-re-arming ticker. *)
let sim_probe ~n ~t =
  let sim = Sim.create ~horizon:1_000_000.0 ~n ~t ~seed:1 () in
  Sim.ticker sim ~every:1.0;
  let warm = ref 0 in
  ignore
    (Sim.run
       ~stop_when:(fun () ->
         incr warm;
         !warm >= 1000)
       sim);
  Gc.full_major ();
  let o, dt = timed (fun () -> Sim.run sim) in
  dt /. float_of_int (max 1 o.Sim.events) *. 1e9

(* All-to-all broadcast rounds with keyed quorum waits and no oracle:
   the message path of a kset round without the protocol. *)
let net_probe ~n ~t ~rounds =
  let sim = Sim.create ~horizon:1_000_000.0 ~trace_level:Trace.Off ~n ~t ~seed:1 () in
  let net : int Net.t = Net.create sim ~tag:"probe" ~retain:false ~classify:Fun.id () in
  let q = n - t in
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (fun () ->
        for r = 1 to rounds do
          Net.broadcast net ~src:i r;
          Sim.Cond.await
            [ Net.quorum_cond net i ~key:r ~q ]
            (fun () -> Net.keyed_nsenders net i r >= q);
          Net.keyed_drop net i r
        done)
  done;
  let _, dt = timed (fun () -> Sim.run sim) in
  dt /. float_of_int (max 1 (Net.delivered_count net)) *. 1e9

(* Ω_z reads by every process at clock points before and after gst. *)
let oracle_probe ~n ~t ~z ~gst =
  let sim = Sim.create ~horizon:1_000_000.0 ~trace_level:Trace.Off ~n ~t ~seed:1 () in
  let behavior = Behavior.of_adversary Faults.none.Faults.adversary ~gst in
  let omega, _ = Oracle.omega_z sim ~z ~behavior () in
  Sim.ticker sim ~every:1.0;
  let reps = 400 in
  let total = ref 0.0 and reads = ref 0 in
  for tp = 1 to int_of_float (2.0 *. gst) do
    ignore (Sim.run ~stop_when:(fun () -> Sim.now sim >= float_of_int tp) sim);
    let (), dt =
      timed (fun () ->
          for _ = 1 to reps do
            for i = 0 to n - 1 do
              ignore (omega.Iface.trusted i)
            done
          done)
    in
    total := !total +. dt;
    reads := !reads + (reps * n)
  done;
  !total /. float_of_int !reads *. 1e9

(* One rung of the ladder, measured in a child like the units, so every
   rung starts from the same heap; a rung whose child died is a failed
   operation. *)
let rung ctx ?parent name f =
  match span ctx ?parent name (fun _ -> in_child ctx f) with
  | Ok (v, _) -> Some v
  | Error e ->
      Book.fail ctx.tally (name ^ ": " ^ e);
      None

(* Protocol set-up, run and check on one instance: whether the verdict
   holds, the phases' metrics with the engine counters of the run, the
   phases as (name, start, end), and the arena's estimated pending-set
   size. *)
let protocol_rung pk (p : Protocol.params) () =
  let phase name f =
    let t0 = now () in
    let v = f () in
    (v, (name, t0, now ()))
  in
  let dur (_, t0, t1) = t1 -. t0 in
  let inst, setup = phase "protocol.setup" (Protocol.explore_make pk p) in
  let sim = inst.Explore.i_sim in
  let o, run = phase "protocol.run" (fun () -> Sim.run ~stop_when:inst.Explore.i_stop sim) in
  let tr = Sim.trace sim in
  (* Protocol.run's own check: the safety scan and the full k-set verdict. *)
  let (violations, verdict), check =
    phase "protocol.check" (fun () ->
        ( inst.Explore.i_violation (),
          Check.k_set_agreement sim ~k:p.Protocol.k ~proposals:(Protocol.proposals_of p)
            ~decisions:(Trace.decisions tr) ))
  in
  let events = float_of_int (max 1 o.Sim.events) in
  let delivered = float_of_int (sum_counters tr ".delivered") in
  let pred_evals = float_of_int (Sim.pred_evals sim) in
  ( violations = [] && Check.verdict_ok verdict,
    [
      ("protocol.setup_ms", ms (dur setup));
      ("protocol.run_s", dur run);
      ("protocol.check_ms", ms (dur check));
      ("sim.events", events);
      ("sim.ns_per_event", dur run /. events *. 1e9);
      ("sim.pred_evals_per_event", pred_evals /. events);
      ("sim.wakeups_per_pred_eval", float_of_int (Sim.wakeups sim) /. Float.max 1.0 pred_evals);
      ("sim.signals_per_event", float_of_int (Sim.cond_signals sim) /. events);
      ("net.sent", float_of_int (sum_counters tr ".sent"));
      ("net.delivered", delivered);
      ("net.deliveries_per_event", delivered /. events);
      ("trace.entries", float_of_int (Trace.length tr));
    ],
    [ setup; run; check ],
    (* Little's law with the default delay's mean of 1 time unit: the
       average number of deliveries in flight. *)
    max 1024 (int_of_float (delivered *. 1.0 /. Float.max 1.0 o.Sim.end_time)) )

type run_cost = {
  ok : bool;
  wall : float;
  events : float;
  minor : float;
  promoted : float;
  majors : float;
  top_heap_mb : float;
}

(* Protocol.run at a trace level, with the GC's counters around it. *)
let protocol_run pk (p : Protocol.params) level () =
  let g0 = Gc.quick_stat () in
  let r, wall = timed (fun () -> Protocol.run pk { p with Protocol.trace = level }) in
  let g1 = Gc.quick_stat () in
  {
    ok = Check.verdict_ok r.Protocol.rp_verdict && r.Protocol.rp_violations = [];
    wall;
    events = float_of_int (max 1 r.Protocol.rp_outcome.Sim.events);
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    top_heap_mb = float_of_int g1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.;
  }

let kset_ladder ctx ~parent (p : Protocol.params) ~job_wall =
  let pk = Option.get (Protocol.find "kset") in
  let pending =
    match rung ctx ?parent "protocol.instance" (protocol_rung pk p) with
    | None -> 1024
    | Some (ok, metrics, phases, pending) ->
        Book.count ctx.tally ~reason:"ladder: kset verdict not OK" ok;
        List.iter (fun (k, v) -> measure1 ctx k v) metrics;
        List.iter (fun (name, t0, t1) -> ignore (record_span ctx ?parent name t0 t1)) phases;
        pending
  in
  (* Trace off against the default level, alternating; the GC cost is
     that of the default-level runs. *)
  let pairs =
    List.init 3 (fun _ ->
        let off = rung ctx ?parent "protocol.run_trace_off" (protocol_run pk p "off") in
        let def = rung ctx ?parent "protocol.run_trace_default" (protocol_run pk p "default") in
        (off, def))
    |> List.filter_map (function Some a, Some b -> Some (a, b) | _ -> None)
  in
  List.iter
    (fun (a, b) ->
      List.iter (fun c -> Book.count ctx.tally ~reason:"ladder: Protocol.run verdict not OK" c.ok) [ a; b ])
    pairs;
  let med f = (Book.summarize ~unit_:"" (List.map f pairs)).Book.value in
  let ev = med (fun (_, d) -> d.events) in
  measure1 ctx "trace.overhead_ratio" (med (fun (o, d) -> d.wall /. o.wall));
  measure1 ctx "gc.minor_words_per_event" (med (fun (_, d) -> d.minor /. d.events));
  measure1 ctx "gc.promoted_words_per_event" (med (fun (_, d) -> d.promoted /. d.events));
  measure1 ctx "gc.major_collections" (med (fun (_, d) -> d.majors));
  measure1 ctx "gc.top_heap_mb" (med (fun (_, d) -> d.top_heap_mb));
  (* The layer probes, bottom up. *)
  let n = p.Protocol.n and t = p.Protocol.t in
  let probe name metric f =
    Option.iter (measure1 ctx metric) (rung ctx ?parent name f);
    match samples ctx metric with [ v ] -> v | _ -> 0.0
  in
  let arena = probe "earena.churn" "earena.ns_per_op" (fun () -> earena_probe ~pending ~steps:1_000_000) in
  let simp = probe "sim.probe" "sim.probe_ns_per_event" (fun () -> sim_probe ~n ~t) in
  let netp = probe "net.broadcast" "net.ns_per_delivery" (fun () -> net_probe ~n ~t ~rounds:4) in
  let orac =
    probe "oracle.reads" "oracle.ns_per_read" (fun () ->
        oracle_probe ~n ~t ~z:p.Protocol.z ~gst:p.Protocol.gst)
  in
  let per_event s = s /. ev *. 1e9 in
  ctx.ladder <-
    [
      ("arena (ns per op, pending " ^ string_of_int pending ^ ")", arena);
      ("sim ticker probe (ns per event)", simp);
      ("net all-to-all, no oracle (ns per delivery)", netp);
      ("oracle read (ns per read)", orac);
      ("protocol, trace off (ns per event)", per_event (med (fun (o, _) -> o.wall)));
      ("protocol, trace default (ns per event)", per_event (med (fun (_, d) -> d.wall)));
      ("Job.execute (ns per event)", per_event job_wall);
      ("daemon round trip: see serve-mixed job_p50_ms", 0.0);
    ]

(* ---- the campaign layers ---- *)

(* The Chaos spec sweeps seeds 1..[seeds] by construction, so its jobs
   do not depend on the workload seed. *)
let chaos_spec ~seeds ~mixes =
  Job.of_flags ~kind:`Chaos ~seeds ~mixes ~protocol:"kset" Protocol.default

let chaos_unit ctx ?parent ~hooks i spec =
  let cache_dir = Filename.concat ctx.tmp (Printf.sprintf "chaos-cache-%d" i) in
  let r =
    span ctx ?parent "chaos.execute" (fun _ -> unit_child ctx ~cache_dir ~jobs:2 ~hooks spec)
  in
  let u =
    match r with
    | Error e ->
        Book.fail ctx.tally ("chaos: " ^ e);
        None
    | Ok (u, _) -> Some u
  in
  Option.iter
    (fun u ->
      Array.iter (fun r -> Book.count ctx.tally ~reason:(result_reason r) (result_ok r)) u.u_results;
      if u.u_safety > 0 || u.u_liveness > 0 || u.u_exit <> 0 then
        Book.fail ctx.tally
          (Printf.sprintf "chaos: safety %d liveness %d exit %d" u.u_safety u.u_liveness u.u_exit))
    u;
  u

let chaos_layers ctx ~parent u =
  let executed = List.filter (fun (_, _, cached) -> not cached) u.u_progress in
  List.iter
    (fun (t, (r : Runner.result), _) ->
      ignore (record_span ctx ?parent "runner.job" (t -. r.Runner.r_wall_s) t))
    executed;
  let job_ms = List.map (fun (_, (r : Runner.result), _) -> ms r.Runner.r_wall_s) executed in
  let s = Book.summarize ~unit_:"ms" job_ms in
  measure1 ctx "runner.job_ms_p50" s.Book.value;
  if Book.beyond ~n:(List.length job_ms) 95. >= 10 then
    measure1 ctx "runner.job_ms_p95" (Book.percentile job_ms 95.);
  measure1 ctx "runner.busy_ratio"
    (List.fold_left ( +. ) 0.0 job_ms /. 1000. /. (u.u_wall *. float_of_int u.u_workers));
  measure1 ctx "runner.gc_minor_words_per_job" (u.u_gc_minor /. float_of_int (max 1 u.u_executed));
  measure1 ctx "fault.actions"
    (Array.fold_left
       (fun acc (r : Runner.result) ->
         List.fold_left
           (fun acc (k, v) -> if String.starts_with ~prefix:"fault." k then acc +. v else acc)
           acc r.Runner.r_metrics)
       0.0 u.u_results);
  (* The result cache and JSON codec on this campaign's own results. *)
  let results = Array.to_list u.u_results in
  let dir = Filename.concat ctx.tmp "cache-probe" in
  let cache = Runner.Cache.create ~dir () in
  let key (r : Runner.result) = Runner.Cache.key ~parts:[ "perfbench"; r.Runner.r_label ] in
  span ctx ?parent "cache.probe" (fun _ ->
      let stores =
        List.map (fun r -> ms (snd (timed (fun () -> Runner.Cache.store cache (key r) r)))) results
      in
      let finds =
        List.map
          (fun r ->
            let found, dt = timed (fun () -> Runner.Cache.find cache (key r)) in
            Book.count ctx.tally ~reason:"cache probe: stored result not found" (found <> None);
            ms dt)
          results
      in
      measure1 ctx "cache.store_ms_p50" (Book.summarize ~unit_:"ms" stores).Book.value;
      measure1 ctx "cache.find_ms_p50" (Book.summarize ~unit_:"ms" finds).Book.value);
  rm_rf dir;
  span ctx ?parent "json.probe" (fun _ ->
      let enc, dec =
        List.split
          (List.map
             (fun r ->
               let s, te =
                 timed (fun () -> Json.to_string ~minify:true (Runner.result_json ~timing:false r))
               in
               let back, td =
                 timed (fun () ->
                     match Json.of_string s with Ok j -> Runner.result_of_json j | Error _ -> None)
               in
               Book.count ctx.tally ~reason:"json probe: result did not round-trip" (back <> None);
               (te *. 1e6, td *. 1e6))
             results)
      in
      measure1 ctx "json.encode_us_p50" (Book.summarize ~unit_:"us" enc).Book.value;
      measure1 ctx "json.decode_us_p50" (Book.summarize ~unit_:"us" dec).Book.value)

(* The campaign layers, measured in kset-n32's traced run: the default
   Chaos spec over 8 seeds (216 jobs, so that ten job times lie beyond
   their p95) on 2 workers into a fresh cache, with the daemon's hooks
   attached.  chaos-cold is not a workload of its own: its campaign of
   half-second units followed this host's slow phases, and its set
   medians moved by up to 45% between two ten-seed sets. *)
let campaign_layers ctx ~parent =
  let spec = chaos_spec ~seeds:8 ~mixes:[] in
  prepare ~protocols:Chaos.default_protocols [ spec ];
  Option.iter (chaos_layers ctx ~parent) (chaos_unit ctx ?parent ~hooks:true 0 spec)

(* The benchmark's own span cost: the same units with and without
   spans, alternating, each timed from this process; the median of the
   pairs' ratios. *)
let span_overhead ctx ~pairs f =
  let ratios =
    List.init pairs (fun i ->
        let _, plain = timed (fun () -> untraced ctx (fun () -> f i)) in
        let _, spanned = timed (fun () -> f i) in
        spanned /. plain)
  in
  measure1 ctx "bench.trace_overhead_ratio" (Book.summarize ~unit_:"ratio" ratios).Book.value

let kset ctx =
  span ctx "run" (fun root ->
      kset_setup ctx;
      if not ctx.traced then begin
        repeat_units ctx ?parent:root (fun i -> kset_unit ctx "unit" (kset_spec ctx i));
        report_units ctx
      end
      else begin
        timed_setups ctx ?parent:root ();
        span_overhead ctx ~pairs:20 (fun i -> ignore (kset_unit ctx ?parent:root "unit" (kset_spec ctx i)));
        let spec = kset_spec ~n:ladder_n ctx 0 in
        let job_wall =
          match
            rung ctx ?parent:root "job.execute" (fun () ->
                let o, wall = execute ~jobs:1 spec in
                (o.Job.o_exit = 0, wall))
          with
          | Some (ok, wall) ->
              Book.count ctx.tally ~reason:"ladder: Job.execute verdict not OK" ok;
              wall
          | None -> 0.0
        in
        let params = match spec with Job.Run { params; _ } -> params | _ -> assert false in
        kset_ladder ctx ~parent:root params ~job_wall;
        campaign_layers ctx ~parent:root
      end)

(* The traced explore run: the unit plain, with spans, and with
   [on_progress] and [on_telemetry] attached the way the daemon attaches
   them.  The spans' cost is timed from this process (spanned over plain,
   bench.trace_overhead_ratio); the hooks' cost is the program's own
   (Job.execute's wall, hooked over plain, runner.telemetry_overhead_ratio).
   Returns the hooked unit, whose progress the layer metrics read. *)
let hook_overheads ctx unit =
  let plain, tp = timed (fun () -> untraced ctx (fun () -> unit ~hooks:false)) in
  let _, ts = timed (fun () -> unit ~hooks:false) in
  let hooked = unit ~hooks:true in
  measure1 ctx "bench.trace_overhead_ratio" (ts /. tp);
  match (plain, hooked) with
  | Some p, Some h ->
      measure1 ctx "runner.telemetry_overhead_ratio" (h.u_wall /. p.u_wall);
      Some h
  | _ -> None

(* ---- explore-safe ---- *)

(* One fixed instance (the default simulator seed): the seed moves the
   two scheduled crashes, and with them the search's memory by up to 2x,
   which would swamp peak_rss_mb across workload seeds. *)
let explore_safe =
  Job.of_flags ~kind:`Explore ~protocol:"kset"
    ~bounds:{ Explorer.default_bounds with Explorer.depth = 24; delays = 2; walks = 0 }
    { Protocol.default with Protocol.n = 7; t = 2; z = 1; k = 1 }

let explore_unit ctx ?parent ~hooks spec =
  let r = span ctx ?parent "explore.execute" (fun _ -> unit_child ctx ~jobs:2 ~hooks spec) in
  let u = finish_unit ctx "explore" r in
  Option.iter
    (fun u ->
      Array.iter
        (fun (r : Runner.result) ->
          let ces = match r.Runner.r_extra with Json.List l -> List.length l | _ -> 0 in
          Book.count ctx.tally
            ~reason:
              (if ces > 0 then r.Runner.r_label ^ ": counterexample on the safe side"
               else result_reason r)
            (result_ok r && ces = 0))
        u.u_results;
      if u.u_ces > 0 || u.u_exit <> 0 then
        Book.fail ctx.tally (Printf.sprintf "explore: %d counterexample(s), exit %d" u.u_ces u.u_exit))
    u;
  u

let explore_layers ctx ~parent u spec =
  List.iter
    (fun (t, (r : Runner.result), _) ->
      ignore (record_span ctx ?parent "runner.job" (t -. r.Runner.r_wall_s) t))
    u.u_progress;
  let rs = Array.to_list u.u_results in
  let sum name =
    List.fold_left
      (fun acc (r : Runner.result) ->
        acc +. Option.value ~default:0.0 (List.assoc_opt name r.Runner.r_metrics))
      0.0 rs
  in
  let runs = sum "explore.runs" and prunes = sum "explore.prunes" in
  measure1 ctx "explore.runs" runs;
  measure1 ctx "explore.points" (sum "explore.points");
  measure1 ctx "explore.prunes" prunes;
  measure1 ctx "explore.prune_ratio" (prunes /. Float.max 1.0 (runs +. prunes));
  measure1 ctx "explore.us_per_run" (u.u_wall /. Float.max 1.0 runs *. 1e6);
  (* Instance set-up, which every execution of the search pays. *)
  let make =
    match spec with
    | Job.Explore { protocol; params; _ } ->
        Protocol.explore_make (Option.get (Protocol.find protocol)) params
    | _ -> assert false
  in
  let setups =
    span ctx ?parent "explore.instance_setup" (fun _ ->
        List.init 200 (fun _ -> snd (timed (fun () -> ignore (make ())))))
  in
  let setup = (Book.summarize ~unit_:"s" setups).Book.value in
  let job_wall = List.fold_left (fun acc (r : Runner.result) -> acc +. r.Runner.r_wall_s) 0.0 rs in
  measure1 ctx "explore.setup_share" (setup *. runs /. Float.max 1e-9 job_wall)

let explore_setup spec = prepare ~protocols:[ "kset" ] [ spec ]

let explore ctx =
  span ctx "run" (fun root ->
      let spec = explore_safe in
      explore_setup spec;
      if not ctx.traced then begin
        repeat_units ctx ?parent:root (fun _ -> elapsed_of (explore_unit ctx ~hooks:false spec));
        report_units ctx
      end
      else begin
        timed_setups ctx ?parent:root ();
        Option.iter
          (fun u -> explore_layers ctx ~parent:root u spec)
          (hook_overheads ctx (fun ~hooks -> explore_unit ctx ?parent:root ~hooks spec))
      end)

(* ---- serve-mixed ---- *)

let clients = 2
let per_client = 10
let pool = 8

let serve_spec kseed = run_spec { Protocol.default with Protocol.seed = kseed }

type daemon = { pid : int; dir : string; sock : string }

(* The socket path is relative to the run's working directory, so it
   stays far below the 108-byte sun_path limit wherever the checkout
   lives. *)
let start_daemon ctx dir =
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [|
      ctx.fdkit; "serve"; "--socket"; sock; "--cache-dir"; Filename.concat dir "cache"; "--out";
      Filename.concat dir "out"; "--jobs"; "2";
    |]
  in
  let pid = Unix.create_process ctx.fdkit args null log log in
  Unix.close log;
  Unix.close null;
  register ctx pid;
  let d = { pid; dir; sock } in
  let deadline = now () +. 20.0 in
  let rec ready () =
    let up =
      match Serve.Client.connect sock with
      | Error _ -> false
      | Ok c ->
          let r = Serve.Client.ping c in
          Serve.Client.close c;
          Result.is_ok r
    in
    let exited = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> false | _ -> true in
    if up then d
    else if exited || now () > deadline then begin
      if exited then unregister ctx pid else kill_child ctx pid;
      failwith ("fdkit serve did not come up; see " ^ Filename.concat dir "daemon.log")
    end
    else begin
      Unix.sleepf 0.005;
      ready ()
    end
  in
  ready ()

(* Ask the daemon to shut down and wait for it; kill it if it lingers. *)
let stop_daemon ctx d =
  (match Serve.Client.connect d.sock with
  | Ok c ->
      ignore (Serve.Client.shutdown c);
      Serve.Client.close c
  | Error _ -> ());
  if reap_within d.pid 10.0 then unregister ctx d.pid
  else begin
    Book.fail ctx.tally "serve: daemon ignored shutdown and was killed";
    kill_child ctx d.pid
  end

(* Store the pool seeds' results into the daemon's cache directory
   through the same engine, and keep each one's signature to check the
   daemon's reads against. *)
let prefill (d : daemon) (plan : Book.plan) =
  let cache = Runner.Cache.create ~dir:(Filename.concat d.dir "cache") () in
  let sigs = Hashtbl.create 32 in
  Array.iter
    (Array.iter (fun s ->
         let o, _ = execute ~jobs:1 ~cache (serve_spec s) in
         Runner.reset_sink ();
         if o.Job.o_exit <> 0 || o.Job.o_campaign.Runner.c_executed <> 1 then
           failwith "serve: prefill job failed";
         Hashtbl.replace sigs s (Digest.to_hex (Digest.string (Runner.signature o.Job.o_campaign)))))
    plan.Book.pools;
  sigs

type reply = {
  rq : Book.request;
  t_submit : float;
  t_ack : float;
  t_prog : float;
  t_done : float;
  frames : int;
  cached : bool;
  ok : bool;
}

(* A request is correct when its done frame reports a finished job with
   exit 0 whose cache counts match the plan, and a planned hit carries
   the signature recorded at prefill. *)
let check_done sigs (rq : Book.request) res =
  let str k v = match Json.member k v with Some (Json.String s) -> s | _ -> "" in
  let int k v = match Json.member k v with Some (Json.Int i) -> i | _ -> -1 in
  match res with
  | Error e -> (false, false, Printf.sprintf "request seed=%d: %s" rq.Book.kseed e)
  | Ok v ->
      let cached = int "cache_hits" v = 1 && int "executed" v = 0 in
      let planned_ok =
        match rq.Book.planned with
        | Book.Hit -> cached && Hashtbl.find_opt sigs rq.Book.kseed = Some (str "signature" v)
        | Book.Miss -> int "cache_hits" v = 0 && int "executed" v = 1
      in
      let ok = str "type" v = "done" && str "state" v = "done" && int "exit" v = 0 && planned_ok in
      (ok, cached, Printf.sprintf "request seed=%d: %s" rq.Book.kseed (Json.to_string ~minify:true v))

let submit_one sigs conn (rq : Book.request) =
  let t_ack = ref Float.nan and t_prog = ref Float.nan and frames = ref 0 in
  let on_event v =
    let t = now () in
    incr frames;
    match Json.member "type" v with
    | Some (Json.String "ack") when Float.is_nan !t_ack -> t_ack := t
    | Some (Json.String "progress") when Float.is_nan !t_prog -> t_prog := t
    | _ -> ()
  in
  let t_submit = now () in
  let res = Serve.Client.submit ~on_event conn (serve_spec rq.Book.kseed) in
  let t_done = now () in
  let ok, cached, reason = check_done sigs rq res in
  ({ rq; t_submit; t_ack = !t_ack; t_prog = !t_prog; t_done; frames = !frames; cached; ok }, reason)

(* One batch: every client submits its requests in order, each waiting
   for the previous one's done frame (a closed loop).  Spans: the batch,
   each request, and the request's three phases, which tile it. *)
let serve_batch ctx ?parent conns sigs (plan : Book.plan) b =
  let t0 = now () in
  let doms =
    Array.mapi
      (fun c conn -> Domain.spawn (fun () -> Array.map (submit_one sigs conn) (Book.batch plan b).(c)))
      conns
  in
  let replies = Array.to_list doms |> List.concat_map (fun d -> Array.to_list (Domain.join d)) in
  let t1 = now () in
  List.iter (fun (r, reason) -> Book.count ctx.tally ~reason r.ok) replies;
  let batch = record_span ctx ?parent "serve.batch" t0 t1 in
  List.iter
    (fun (r, _) ->
      match record_span ctx ?parent:batch "serve.request" r.t_submit r.t_done with
      | Some id when not (Float.is_nan r.t_ack || Float.is_nan r.t_prog) ->
          ignore (record_span ctx ~parent:id "serve.submit_to_ack" r.t_submit r.t_ack);
          ignore (record_span ctx ~parent:id "serve.ack_to_progress" r.t_ack r.t_prog);
          ignore (record_span ctx ~parent:id "serve.progress_to_done" r.t_prog r.t_done)
      | _ -> ())
    replies;
  (List.map fst replies, t1 -. t0)

let serve_latencies ctx replies =
  let good = List.filter (fun r -> r.ok) replies in
  let col f = List.map f good in
  let med xs = (Book.summarize ~unit_:"ms" xs).Book.value in
  let job = col (fun r -> ms (r.t_done -. r.t_submit)) in
  let ack = col (fun r -> ms (r.t_ack -. r.t_submit)) in
  (* p90 only where the tail rule allows it (at least 100 samples). *)
  let p90 name xs =
    if Book.beyond ~n:(List.length xs) 90. >= 10 then
      measure1 ctx name (Book.percentile xs 90.)
  in
  measure1 ctx "job_p50_ms" (med job);
  measure1 ctx "ack_p50_ms" (med ack);
  p90 "job_p90_ms" job;
  p90 "ack_p90_ms" ack;
  measure1 ctx "serve.ack_to_progress_ms_p50" (med (col (fun r -> ms (r.t_prog -. r.t_ack))));
  measure1 ctx "serve.progress_to_done_ms_p50" (med (col (fun r -> ms (r.t_done -. r.t_prog))));
  let latency k =
    List.filter_map (fun r -> if r.rq.Book.planned = k then Some (ms (r.t_done -. r.t_submit)) else None) good
  in
  measure1 ctx "serve.hit_ms_p50" (med (latency Book.Hit));
  measure1 ctx "serve.miss_ms_p50" (med (latency Book.Miss));
  let n = float_of_int (max 1 (List.length replies)) in
  measure1 ctx "serve.frames_per_job" (float_of_int (List.fold_left (fun a r -> a + r.frames) 0 replies) /. n);
  measure1 ctx "cache.hit_ratio" (float_of_int (List.length (List.filter (fun r -> r.cached) replies)) /. n)

(* What Job.execute adds around a 1-job Run spec: its wall minus the
   job's own, with telemetry attached the way the daemon attaches it. *)
let join_wait_probe ctx (plan : Book.plan) =
  List.init 6 (fun _ ->
      let o, wall = execute ~jobs:2 ~on_progress:ignore ~on_telemetry:ignore (serve_spec (Book.fresh plan)) in
      Runner.reset_sink ();
      let rs = o.Job.o_campaign.Runner.c_results in
      Book.count ctx.tally ~reason:"join-wait probe job failed" (o.Job.o_exit = 0 && Array.length rs = 1);
      ms (wall -. if Array.length rs = 1 then rs.(0).Runner.r_wall_s else 0.0))

(* fsync'd appends beside the daemon's journal, on the same filesystem. *)
let journal_probe (d : daemon) =
  let path = Filename.concat (Filename.concat d.dir "out") "probe_journal.jsonl" in
  let j = Journal.append_open path in
  let xs =
    List.init 40 (fun i ->
        let e = Serve.Recovery.state_entry ~id:(i + 1) "running" in
        ms (snd (timed (fun () -> Journal.append j e))))
  in
  Journal.close j;
  xs

let count_lines path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0
  | l -> List.length l

let serve_plan ctx = Book.plan ~seed:ctx.seed ~clients ~pool ~per_client

(* Ready to serve: a daemon up in [dir] whose cache holds the pool
   seeds' results, with their signatures. *)
let serve_setup ctx plan dir =
  prepare ~protocols:[ "kset" ] [ serve_spec plan.Book.pools.(0).(0) ];
  let d = start_daemon ctx dir in
  (d, prefill d plan)

let serve ctx =
  let plan = serve_plan ctx in
  span ctx "run" (fun root ->
      let d, sigs = serve_setup ctx plan (Filename.concat ctx.tmp "serve") in
      let conns =
        Array.init clients (fun _ ->
            match Serve.Client.connect d.sock with Ok c -> c | Error e -> failwith ("serve: " ^ e))
      in
      let replies = ref [] and next = ref 0 in
      let batch c =
        let b = !next in
        incr next;
        let rs, w = serve_batch c ?parent:root conns sigs plan b in
        replies := !replies @ rs;
        add_sample ctx "serve.batch_s" w;
        w
      in
      if not ctx.traced then repeat_units ctx ?parent:root (fun _ -> batch ctx)
      else begin
        (* Batches alternate without and with spans, for the run's
           seconds and until the latency tails have their samples.  A
           batch cannot be run twice (its misses would hit), so the
           spans' cost compares the mean batch of the two halves. *)
        let plain = ref [] and spanned = ref [] in
        let pair _ =
          let wp = untraced ctx (fun () -> batch ctx) in
          let ws = batch ctx in
          plain := wp :: !plain;
          spanned := ws :: !spanned;
          wp +. ws
        in
        repeat_units ctx ?parent:root pair;
        while Book.beyond ~n:(List.length !replies) 90. < 10 do
          ignore (pair 0)
        done;
        let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
        measure1 ctx "bench.trace_overhead_ratio" (mean !spanned /. mean !plain);
        measure1 ctx "runner.join_wait_ms"
          (Book.summarize ~unit_:"ms" (span ctx ?parent:root "runner.join_wait" (fun _ -> join_wait_probe ctx plan))).Book.value;
        measure1 ctx "journal.append_ms_p50"
          (Book.summarize ~unit_:"ms" (span ctx ?parent:root "journal.append" (fun _ -> journal_probe d))).Book.value
      end;
      (* Batch walls step in units of the daemon's 0.25 s telemetry
         sleep, which a request pays or not by a race; the run's mean
         batch (its total over its batches) is steadier than their
         median. *)
      let walls = samples ctx "serve.batch_s" in
      let total = List.fold_left ( +. ) 0.0 walls in
      measure1 ctx "wall_s" (total /. float_of_int (List.length walls));
      measure1 ctx "jobs_per_s" (float_of_int (List.length !replies) /. total);
      serve_latencies ctx !replies;
      let rss = peak_rss_mb (Some d.pid) in
      Array.iter Serve.Client.close conns;
      stop_daemon ctx d;
      Option.iter (measure1 ctx "peak_rss_mb") rss;
      measure1 ctx "journal.lines_per_job"
        (float_of_int (count_lines (Serve.journal_path (Filename.concat d.dir "out")))
        /. float_of_int (max 1 (List.length !replies))))

(* The per-layer metrics each workload's traced run must produce;
   BENCHMARK.json's per_layer list is their union. *)
let layers_of = function
  | "kset-n32" ->
      [
        "earena.ns_per_op"; "sim.probe_ns_per_event"; "net.ns_per_delivery"; "oracle.ns_per_read";
        "sim.ns_per_event"; "sim.events"; "sim.pred_evals_per_event"; "sim.wakeups_per_pred_eval";
        "sim.signals_per_event"; "net.sent"; "net.delivered"; "net.deliveries_per_event";
        "protocol.setup_ms"; "protocol.run_s"; "protocol.check_ms"; "trace.entries";
        "trace.overhead_ratio"; "gc.minor_words_per_event"; "gc.promoted_words_per_event";
        "gc.major_collections"; "gc.top_heap_mb"; "bench.trace_overhead_ratio";
        "runner.job_ms_p50"; "runner.job_ms_p95"; "runner.busy_ratio"; "runner.gc_minor_words_per_job";
        "cache.store_ms_p50"; "cache.find_ms_p50"; "json.encode_us_p50"; "json.decode_us_p50";
        "fault.actions";
      ]
  | "serve-mixed" ->
      [
        "job_p50_ms"; "job_p90_ms"; "ack_p50_ms"; "ack_p90_ms"; "serve.ack_to_progress_ms_p50";
        "serve.progress_to_done_ms_p50"; "serve.hit_ms_p50"; "serve.miss_ms_p50";
        "runner.join_wait_ms"; "journal.append_ms_p50"; "journal.lines_per_job";
        "serve.frames_per_job"; "cache.hit_ratio"; "bench.trace_overhead_ratio";
      ]
  | "explore-safe" ->
      [
        "explore.runs"; "explore.points"; "explore.prunes"; "explore.prune_ratio";
        "explore.us_per_run"; "explore.setup_share"; "bench.trace_overhead_ratio";
        "runner.telemetry_overhead_ratio";
      ]
  | _ -> []

let run ctx =
  match ctx.workload with
  | "kset-n32" -> kset ctx
  | "explore-safe" -> explore ctx
  | "serve-mixed" -> serve ctx
  | w -> invalid_arg ("unknown workload " ^ w)

(* The body of [fdbench setup]: set the workload up in this fresh
   process, report ready on stdout, then tear down. *)
let setup_only ctx =
  let ready () =
    print_endline "ready";
    flush stdout
  in
  match ctx.workload with
  | "kset-n32" ->
      kset_setup ctx;
      ready ()
  | "explore-safe" ->
      explore_setup explore_safe;
      ready ()
  | "serve-mixed" ->
      let d, _ = serve_setup ctx (serve_plan ctx) (Filename.concat ctx.tmp "serve") in
      ready ();
      stop_daemon ctx d
  | w -> invalid_arg ("unknown workload " ^ w)
