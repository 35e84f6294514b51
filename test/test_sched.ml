(* Tests for the event-driven scheduler (Sim.Cond): condition mechanics,
   observability counters, and the executions the engine must keep
   reproducing.  Two reference engines used to run beside the arena: one
   re-evaluated every blocked predicate after every event instead of only
   the signalled ones, the other queued one closure per event with no
   delivery batching.  Both produced the arena's executions (decisions
   with times, rounds, stop reasons, event counts) on every case compared
   — which also pinned the substrates' signal completeness: every state
   change a predicate can read signals the right condition.  Before they
   were deleted, 200 such comparisons were recorded in
   [engine_fingerprints.jsonl]: kset and consensus_s at seeds 1-10, and
   draws of the generators the differential properties used (seeded with
   [Random.State.make [| 42 |]] as those properties were; their own draws
   first, then more from the same state).  Each line names the reference
   engines that agreed on it, and the arena must still reproduce every
   line.  The golden corpus pins full traces, and an allocation suite
   asserts the steady state promotes nothing. *)

open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd
open Setagree_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Condition mechanics --- *)

let test_signal_wakes_when_pred_holds () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let flag = ref false in
  let woke_at = ref (-1.0) in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> !flag);
      woke_at := Sim.now sim);
  Sim.schedule sim ~delay:3.0 (fun () ->
      flag := true;
      Sim.Cond.signal c);
  ignore (Sim.run sim);
  Alcotest.(check (float 1e-9)) "woken at the signalling event" 3.0 !woke_at

let test_signal_with_false_pred_keeps_blocked () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> false);
      woke := true);
  Sim.schedule sim ~delay:1.0 (fun () -> Sim.Cond.signal c);
  ignore (Sim.run sim);
  check "spurious signal did not wake" false !woke

let test_no_signal_no_reevaluation () =
  (* The whole point: a condition waiter's predicate is NOT re-evaluated by
     unrelated events. *)
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let evals = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ]
        (fun () ->
          incr evals;
          false));
  for i = 1 to 50 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
  done;
  ignore (Sim.run sim);
  check_int "evaluated once, at block time" 1 !evals

let test_poll_cond_reevaluated_every_event () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let evals = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await
        [ Sim.Cond.poll sim ]
        (fun () ->
          incr evals;
          false));
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
  done;
  ignore (Sim.run sim);
  (* Block-time evaluation + one per subsequent event. *)
  check "re-evaluated at each event" true (!evals >= 10)

let test_any_of_several_conds_wakes () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let a = Sim.Cond.create sim and b = Sim.Cond.create sim in
  let flag = ref false in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ a; b ] (fun () -> !flag);
      woke := true);
  Sim.schedule sim ~delay:2.0 (fun () ->
      flag := true;
      Sim.Cond.signal b);
  ignore (Sim.run sim);
  check "second condition suffices" true !woke

let test_foreign_cond_rejected () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let other = Sim.create ~n:2 ~t:0 ~seed:2 () in
  let c = Sim.Cond.create other in
  Sim.spawn sim ~pid:0 (fun () -> Sim.Cond.await [ c ] (fun () -> true));
  check "foreign condition rejected" true
    (try
       ignore (Sim.run sim);
       false
     with Invalid_argument _ -> true)

let test_crashed_waiter_dropped_not_resumed () =
  let sim = Sim.create ~n:3 ~t:1 ~seed:1 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let c = Sim.Cond.create sim in
  let flag = ref false in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> !flag);
      woke := true);
  Sim.schedule sim ~delay:10.0 (fun () ->
      flag := true;
      Sim.Cond.signal c);
  ignore (Sim.run sim);
  check "crashed fiber never resumed" false !woke

(* Sim.release: every fiber a run leaves suspended is discontinued
   exactly once, whichever way it was left.  Each fiber body counts its
   own end (normal return or discontinuation) through [Fun.protect]. *)
let test_release_discontinues_every_fiber () =
  let sim = Sim.create ~horizon:10.0 ~n:6 ~t:1 ~seed:1 () in
  let released = ref 0 and fibers = ref 0 in
  let spawn pid body =
    incr fibers;
    Sim.spawn sim ~pid (fun () -> Fun.protect ~finally:(fun () -> incr released) body)
  in
  let never = Sim.Cond.create sim and late = Sim.Cond.create sim in
  let flag = ref false in
  (* p0: blocked on a condition nobody signals *)
  spawn 0 (fun () -> Sim.Cond.await [ never ] (fun () -> false));
  (* p1: asleep past the horizon *)
  spawn 1 (fun () -> Sim.sleep 100.0);
  (* p2 crashes at 1.0 with a waiter and a sleeper *)
  spawn 2 (fun () -> Sim.Cond.await [ never ] (fun () -> false));
  spawn 2 (fun () -> Sim.sleep 2.0);
  Sim.install_crashes sim [ (2, 1.0) ];
  (* p3 and p4 stall from 1.0 past the horizon: p3's sleep expiry and
     p4's wakeup (signalled at 3.0) are parked until the stall ends *)
  spawn 3 (fun () -> Sim.sleep 2.0);
  spawn 4 (fun () -> Sim.Cond.await [ late ] (fun () -> !flag));
  Sim.install_stalls sim
    (List.map (fun s_pid -> { Faults.s_pid; s_from = 1.0; s_until = 50.0 }) [ 3; 4 ]);
  Sim.schedule sim ~delay:3.0 (fun () ->
      flag := true;
      Sim.Cond.signal late);
  (* p5 finishes normally *)
  spawn 5 (fun () -> Sim.sleep 0.5);
  ignore (Sim.run sim);
  check_int "only the finished fiber ended during the run" 1 !released;
  Sim.release sim;
  check_int "every fiber ended once" !fibers !released;
  Sim.release sim;
  check_int "a second release does nothing" !fibers !released;
  check "a released simulator does not run again" true
    (try
       ignore (Sim.run sim);
       false
     with Invalid_argument _ -> true)

let test_zero_time_wakeup_chain () =
  (* Waking one fiber signals the next at the same instant: the drain must
     iterate to a fixpoint within the event. *)
  let sim = Sim.create ~n:4 ~t:0 ~seed:1 () in
  let conds = Array.init 3 (fun _ -> Sim.Cond.create sim) in
  let stage = ref 0 in
  let done_at = ref (-1.0) in
  for i = 0 to 2 do
    Sim.spawn sim ~pid:i (fun () ->
        Sim.Cond.await [ conds.(i) ] (fun () -> !stage >= i + 1);
        if i < 2 then begin
          stage := i + 2;
          Sim.Cond.signal conds.(i + 1)
        end
        else done_at := Sim.now sim)
  done;
  Sim.schedule sim ~delay:1.0 (fun () ->
      stage := 1;
      Sim.Cond.signal conds.(0));
  ignore (Sim.run sim);
  Alcotest.(check (float 1e-9)) "whole chain fired in one instant" 1.0 !done_at

(* --- Observability --- *)

let run_kset ?delay ?loss ~seed ~n ~t ~z ~crashes () =
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 30.0) }) ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals ?delay ?loss () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  (sim, h, o)

let test_counters_populated_and_flushed () =
  let sim, _, o = run_kset ~seed:3 ~n:7 ~t:3 ~z:2 ~crashes:2 () in
  check "pred evals counted" true (Sim.pred_evals sim > 0);
  check "signals counted" true (Sim.cond_signals sim > 0);
  check "wakeups counted" true (Sim.wakeups sim > 0);
  let tr = Sim.trace sim in
  check_int "pred_evals flushed to trace" (Sim.pred_evals sim)
    (Trace.counter tr "sched.pred_evals");
  check_int "signals flushed to trace" (Sim.cond_signals sim)
    (Trace.counter tr "sched.signals");
  check_int "wakeups flushed to trace" (Sim.wakeups sim)
    (Trace.counter tr "sched.wakeups");
  check_int "events flushed to trace" o.Sim.events (Trace.counter tr "sched.events")

let test_cond_mode_evaluates_fewer_predicates () =
  (* The condition scheduler's point in miniature: on this run the engine
     that re-evaluated every blocked predicate after every event made
     25,194 evaluations. *)
  let sim, _, _ = run_kset ~seed:3 ~n:9 ~t:4 ~z:2 ~crashes:2 () in
  check_int "pred evals" 860 (Sim.pred_evals sim);
  check "below the re-poll engine's count" true (Sim.pred_evals sim < 25_194)

(* --- Differential: the reference engines' recorded fingerprints --- *)

(* A data file's non-empty lines.  [dune runtest] runs next to the copied
   file; [dune exec] from the repository root does not. *)
let data_lines name =
  let path = if Sys.file_exists name then name else Filename.concat "test" name in
  List.filter (( <> ) "")
    (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))

(* What a line pins: every decision (pid, value, round, time), the
   rounds, how and when the run stopped, its event count and the k-set
   verdict (k = z for kset, 1 for consensus_s). *)
let fingerprint ~decisions ~rounds ~k sim (o : Sim.outcome) =
  let proposals = Array.init (Sim.n sim) (fun i -> 100 + i) in
  let v = Check.k_set_agreement sim ~k ~proposals ~decisions in
  [
    ( "decisions",
      Json.List
        (List.map
           (fun (p, value, r, time) ->
             Json.List [ Json.Int p; Json.Int value; Json.Int r; Json.Float time ])
           decisions) );
    ("rounds", Json.Int rounds);
    ("reason", Json.String (Format.asprintf "%a" Sim.pp_stop_reason o.Sim.reason));
    ("events", Json.Int o.Sim.events);
    ("end_time", Json.Float o.Sim.end_time);
    ("verdict_ok", Json.Bool (Check.verdict_ok v));
  ]

let fingerprint_kset ?delay ?loss ~seed ~z ~crashes () =
  let sim, h, o = run_kset ?delay ?loss ~seed ~n:7 ~t:3 ~z ~crashes () in
  fingerprint ~decisions:(Kset.decisions h) ~rounds:(Kset.max_round h) ~k:z sim o

let fingerprint_cons_s ~seed ~crashes () =
  let n = 7 and t = 3 in
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 25.0) }) ~n ~t rng);
  let suspector, _ = Oracle.es_x sim ~x:n ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Consensus_s.install sim ~suspector ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Consensus_s.all_correct_decided h) sim in
  fingerprint ~decisions:(Consensus_s.decisions h) ~rounds:(Consensus_s.max_round h) ~k:1
    sim o

(* The adversarial draws' transports: heavy-tailed delays or partial
   synchrony with a late GST, with or without fair-lossy links.  Loss can
   leave a run undecided at the horizon, so only the loss-free draws
   must record an ok verdict. *)
let adv_delays =
  [
    ("exp(1)", Delay.Exponential 1.0);
    ("psync(gst=30)", Delay.Psync { gst = 30.0; bound = 2.0; pre_spread = 25.0 });
  ]

let adv_losses = [ ("loss=0", None); ("loss=0.2", Some 0.2) ]

(* The reference engines, as the recorded lines name them. *)
let poll = "legacy-poll"
and queue = "legacy-queue"

(* Re-run every recorded line of [group] on the arena; fail listing each
   line whose fingerprint changed, with its new entry.  [agreed] names the
   reference engines the case compared against: each line must record
   that all of them agreed on it. *)
let test_recorded ~agreed group () =
  let cases =
    List.filter_map
      (fun line ->
        match Json.of_string_exn line with
        | Json.Obj fields when List.assoc_opt "group" fields = Some (Json.String group) ->
            Some (line, fields)
        | _ -> None)
      (data_lines "engine_fingerprints.jsonl")
  in
  check (group ^ " is recorded") true (cases <> []);
  List.iter
    (fun (line, fields) ->
      let engines =
        match List.assoc_opt "engines" fields with
        | Some (Json.List l) -> List.filter_map (function Json.String e -> Some e | _ -> None) l
        | _ -> []
      in
      List.iter
        (fun e -> check (Printf.sprintf "%s: %s agreed" line e) true (List.mem e engines))
        agreed)
    cases;
  let changed =
    List.filter_map
      (fun (line, fields) ->
        let int k = match List.assoc_opt k fields with Some (Json.Int i) -> i | _ -> -1 in
        let str k = match List.assoc_opt k fields with Some (Json.String s) -> s | _ -> "?" in
        let seed = int "seed" and crashes = int "crashes" in
        let loss = Option.join (List.assoc_opt (str "loss") adv_losses) in
        let computed =
          match group with
          | "kset-seeds" | "kset" -> fingerprint_kset ~seed ~z:(int "z") ~crashes ()
          | "kset-adversarial" ->
              let delay = List.assoc (str "delay") adv_delays in
              fingerprint_kset ~delay ?loss ~seed ~z:2 ~crashes:2 ()
          | _ -> fingerprint_cons_s ~seed ~crashes ()
        in
        if loss = None then
          check (line ^ ": verdict ok") true
            (List.assoc "verdict_ok" computed = Json.Bool true);
        let entry =
          Json.to_string ~minify:true
            (Json.Obj
               (List.filter (fun (k, _) -> not (List.mem_assoc k computed)) fields @ computed))
        in
        if entry = line then None else Some (Printf.sprintf "%s\n  new entry: %s" line entry))
      cases
  in
  if changed <> [] then
    Alcotest.failf "%d of %d recorded %s fingerprint(s) changed:\n%s" (List.length changed)
      (List.length cases) group (String.concat "\n" changed)

(* --- Allocation profile: the steady state promotes nothing --- *)

let test_steady_state_promotes_nothing () =
  (* A warmed-up simulator running only its self-re-arming ticker: 10k
     events through the arena must not promote a single word — the
     allocation-free steady state the flat-arena engine guarantees. *)
  let sim = Sim.create ~horizon:11_000.0 ~n:8 ~t:3 ~seed:1 () in
  Sim.ticker sim ~every:1.0;
  let warm = ref 0 in
  let _ = Sim.run ~stop_when:(fun () -> incr warm; !warm >= 500) sim in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let o = Sim.run sim in
  let g1 = Gc.quick_stat () in
  check "ran >= 10k steady-state events" true (o.Sim.events >= 10_000);
  Alcotest.(check (float 0.0))
    "zero promoted words across steady-state events" 0.0
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)

(* --- Golden fingerprint corpus --- *)

(* [golden_corpus.jsonl] pins one execution per line: the MD5 of the
   run's full-level [Export.to_jsonl] output without the stamped meta
   line and the counter lines and footer (they carry the code
   fingerprint and scheduler-work counters, not the execution), plus its
   event count and end time.  It was generated while the arena, the
   legacy-poll scheduler and the legacy queue could all be selected
   through [Protocol.params]; both legacy engines reproduced every entry.
   Cases: every registered protocol (each variant of those that have
   some) x seeds 1-3 x 0 or 2 crashes, kset under each chaos mix at seed
   1, and the first counterexample of CI's misuse exploration.  The
   strengthen, impl and reduce/wheels cases were appended after the
   legacy engines had gone, from the arena alone.  A mismatch prints the
   case and its new entry; the file is only ever edited by hand. *)

let entry_digest sim =
  let tr = Sim.trace sim in
  let entries = Trace.length tr in
  let b = Buffer.create 65536 in
  List.iteri
    (fun i line ->
      if i >= 1 && i <= entries then begin
        Buffer.add_string b line;
        Buffer.add_char b '\n'
      end)
    (Export.jsonl_lines tr);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Run one corpus case; returns (md5, events, end time). *)
let run_corpus_case j =
  match Json.member "schedule" j with
  | Some sj ->
      (* Explorer.replay's steps, keeping the simulator for its trace. *)
      let s = Result.get_ok (Schedule.of_json sj) in
      let pk = Option.get (Protocol.find s.Schedule.protocol) in
      let p =
        {
          (Result.get_ok (Protocol.params_of_json s.Schedule.params)) with
          crashes = s.Schedule.crashes;
        }
      in
      let sim = ref None in
      let make () =
        let i = Protocol.explore_make pk p () in
        sim := Some i.Explore.i_sim;
        i
      in
      let e = Explore.run_schedule ~make s.Schedule.choices in
      check "counterexample reproduced" true
        (match Explorer.replay s with Ok (_, reproduced) -> reproduced | Error _ -> false);
      let o = e.Explore.ex_outcome in
      (entry_digest (Option.get !sim), o.Sim.events, o.Sim.end_time)
  | None ->
      let protocol =
        match Json.member "protocol" j with Some (Json.String s) -> s | _ -> "?"
      in
      let params =
        match Json.member "params" j with Some (Json.Obj l) -> l | _ -> []
      in
      let r =
        Protocol.run
          (Option.get (Protocol.find protocol))
          (Result.get_ok (Protocol.params_of_json params))
      in
      let o = r.Protocol.rp_outcome in
      (entry_digest r.Protocol.rp_sim, o.Sim.events, o.Sim.end_time)

let test_golden_corpus () =
  let cases = data_lines "golden_corpus.jsonl" in
  check "corpus is not empty" true (cases <> []);
  let covered =
    List.filter_map
      (fun line ->
        let j = Json.of_string_exn line in
        match (Json.member "protocol" j, Json.member "params" j) with
        | Some (Json.String protocol), Some (Json.Obj params) ->
            Some (protocol, (Result.get_ok (Protocol.params_of_json params)).Protocol.variant)
        | _ -> None)
      cases
  in
  List.iter
    (fun (name, (module P : Protocol.S)) ->
      List.iter
        (fun variant ->
          check
            (Printf.sprintf "corpus covers %s/%s" name variant)
            true
            (List.exists
               (fun (protocol, v) -> protocol = name && (P.variants = [] || v = variant))
               covered))
        (match P.variants with [] -> [ "" ] | l -> l))
    Protocol.registry;
  let changed =
    List.filter_map
      (fun line ->
        let j = Json.of_string_exn line in
        let md5, events, end_time = run_corpus_case j in
        let fields = match j with Json.Obj l -> l | _ -> [] in
        let entry =
          Json.to_string ~minify:true
            (Json.Obj
               (List.filter (fun (k, _) -> not (List.mem k [ "md5"; "events"; "end_time" ])) fields
               @ [
                   ("md5", Json.String md5);
                   ("events", Json.Int events);
                   ("end_time", Json.Float end_time);
                 ]))
        in
        if entry = line then None
        else
          let case = match List.assoc_opt "case" fields with Some (Json.String c) -> c | _ -> "?" in
          Some (Printf.sprintf "%s\n  new entry: %s" case entry))
      cases
  in
  if changed <> [] then
    Alcotest.failf "%d of %d golden case(s) changed:\n%s" (List.length changed)
      (List.length cases) (String.concat "\n" changed)

let () =
  Alcotest.run "sched"
    [
      ( "cond",
        [
          Alcotest.test_case "signal wakes" `Quick test_signal_wakes_when_pred_holds;
          Alcotest.test_case "spurious signal" `Quick test_signal_with_false_pred_keeps_blocked;
          Alcotest.test_case "no signal, no re-eval" `Quick test_no_signal_no_reevaluation;
          Alcotest.test_case "poll cadence" `Quick test_poll_cond_reevaluated_every_event;
          Alcotest.test_case "any-of wakes" `Quick test_any_of_several_conds_wakes;
          Alcotest.test_case "foreign cond" `Quick test_foreign_cond_rejected;
          Alcotest.test_case "crashed waiter dropped" `Quick test_crashed_waiter_dropped_not_resumed;
          Alcotest.test_case "zero-time chain" `Quick test_zero_time_wakeup_chain;
          Alcotest.test_case "release ends every fiber" `Quick
            test_release_discontinues_every_fiber;
        ] );
      ( "observability",
        [
          Alcotest.test_case "counters flushed" `Quick test_counters_populated_and_flushed;
          Alcotest.test_case "fewer pred evals" `Quick test_cond_mode_evaluates_fewer_predicates;
        ] );
      ( "differential",
        [
          Alcotest.test_case "kset across seeds" `Quick
            (test_recorded ~agreed:[ poll ] "kset-seeds");
          Alcotest.test_case "cons_s across seeds" `Quick
            (test_recorded ~agreed:[ poll ] "cons_s-seeds");
          Alcotest.test_case "kset three-way (arena/poll/queue)" `Quick
            (test_recorded ~agreed:[ poll; queue ] "kset-seeds");
          Alcotest.test_case "cons_s cond == legacy-queue" `Quick
            (test_recorded ~agreed:[ queue ] "cons_s-seeds");
        ] );
      ( "corpus",
        [ Alcotest.test_case "arena matches golden corpus" `Quick test_golden_corpus ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state promotes nothing" `Quick
            test_steady_state_promotes_nothing;
        ] );
      (* The differential properties' draws, widened, as recorded. *)
      ( "properties",
        [
          Alcotest.test_case "random (seed, z, crashes): cond == legacy-poll == legacy-queue, recorded"
            `Quick (test_recorded ~agreed:[ poll; queue ] "kset");
          Alcotest.test_case "random (seed, delay, loss): adversarial kset cond == legacy-poll, recorded"
            `Quick (test_recorded ~agreed:[ poll ] "kset-adversarial");
          Alcotest.test_case "random (seed, crashes): cons_s cond == legacy-poll == legacy-queue, recorded"
            `Quick (test_recorded ~agreed:[ poll; queue ] "cons_s");
        ] );
    ]
