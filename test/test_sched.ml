(* Tests for the event-driven scheduler (Sim.Cond): condition mechanics,
   observability counters, and the differential property the refactor rests
   on — the arena/condition engine, the legacy-poll scheduler and the
   legacy closure-per-event queue produce {e identical} executions
   (decisions with times, rounds, stop reasons, event counts) for the same
   seed, across algorithms, crash schedules and oracle behaviours.  The
   legacy-poll scheduler re-evaluates every blocked predicate after every
   event; the condition scheduler only the signalled ones, so the
   comparison also pins down the signal-completeness of the substrates
   (every state change a predicate can read signals the right condition).
   The legacy-queue comparison pins the flat event arena and batched
   delivery to the closure queue they replaced (under continuous delays,
   where batches are singletons and even raw event counts agree).  An
   allocation suite asserts the arena engine's steady state promotes
   nothing. *)

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
  List.iter
    (fun legacy_queue ->
      let engine = if legacy_queue then "legacy queue" else "arena" in
      let sim = Sim.create ~legacy_queue ~horizon:10.0 ~n:6 ~t:1 ~seed:1 () in
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
        (List.map
           (fun s_pid -> { Faults.s_pid; s_from = 1.0; s_until = 50.0 })
           [ 3; 4 ]);
      Sim.schedule sim ~delay:3.0 (fun () ->
          flag := true;
          Sim.Cond.signal late);
      (* p5 finishes normally *)
      spawn 5 (fun () -> Sim.sleep 0.5);
      ignore (Sim.run sim);
      check_int (engine ^ ": only the finished fiber ended during the run") 1 !released;
      Sim.release sim;
      check_int (engine ^ ": every fiber ended once") !fibers !released;
      Sim.release sim;
      check_int (engine ^ ": a second release does nothing") !fibers !released;
      check (engine ^ ": a released simulator does not run again") true
        (try
           ignore (Sim.run sim);
           false
         with Invalid_argument _ -> true))
    [ false; true ]

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

let run_kset_mode ?(legacy_queue = false) ~legacy_poll ~seed ~n ~t ~z ~crashes () =
  let sim = Sim.create ~horizon:3000.0 ~legacy_poll ~legacy_queue ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 30.0) }) ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  (sim, h, o)

let test_counters_populated_and_flushed () =
  let sim, _, o = run_kset_mode ~legacy_poll:false ~seed:3 ~n:7 ~t:3 ~z:2 ~crashes:2 () in
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
  (* The acceptance criterion in miniature: same run, far fewer predicate
     evaluations under the condition scheduler. *)
  let sim_c, _, _ = run_kset_mode ~legacy_poll:false ~seed:3 ~n:9 ~t:4 ~z:2 ~crashes:2 () in
  let sim_l, _, _ = run_kset_mode ~legacy_poll:true ~seed:3 ~n:9 ~t:4 ~z:2 ~crashes:2 () in
  check "strictly fewer evaluations" true (Sim.pred_evals sim_c < Sim.pred_evals sim_l)

(* --- Differential: condition scheduler == legacy-poll scheduler --- *)

type fingerprint = {
  decisions : (Pid.t * int * int * float) list;
  rounds : int;
  reason : Sim.stop_reason;
  events : int;
  end_time : float;
  verdict_ok : bool;
}

let fingerprint_kset ?(legacy_queue = false) ~legacy_poll ~seed ~n ~t ~z ~crashes () =
  let sim, h, o = run_kset_mode ~legacy_queue ~legacy_poll ~seed ~n ~t ~z ~crashes () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let v = Check.k_set_agreement sim ~k:z ~proposals ~decisions:(Kset.decisions h) in
  {
    decisions = Kset.decisions h;
    rounds = Kset.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

let fingerprint_cons_s ?(legacy_queue = false) ~legacy_poll ~seed ~n ~t ~crashes () =
  let sim = Sim.create ~horizon:3000.0 ~legacy_poll ~legacy_queue ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 25.0) }) ~n ~t rng);
  let suspector, _ = Oracle.es_x sim ~x:n ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Consensus_s.install sim ~suspector ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Consensus_s.all_correct_decided h) sim in
  let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Consensus_s.decisions h) in
  {
    decisions = Consensus_s.decisions h;
    rounds = Consensus_s.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

let same_fingerprint label a b =
  if a <> b then
    Alcotest.failf "%s: schedulers diverge (%d vs %d decisions, %d vs %d rounds, %d vs %d events)"
      label (List.length a.decisions) (List.length b.decisions) a.rounds b.rounds
      a.events b.events

let test_differential_kset_seeds () =
  for seed = 1 to 10 do
    let a = fingerprint_kset ~legacy_poll:false ~seed ~n:7 ~t:3 ~z:2 ~crashes:2 () in
    let b = fingerprint_kset ~legacy_poll:true ~seed ~n:7 ~t:3 ~z:2 ~crashes:2 () in
    same_fingerprint (Printf.sprintf "kset seed %d" seed) a b;
    check "verdict ok" true a.verdict_ok
  done

let test_differential_cons_s_seeds () =
  for seed = 1 to 10 do
    let a = fingerprint_cons_s ~legacy_poll:false ~seed ~n:7 ~t:3 ~crashes:2 () in
    let b = fingerprint_cons_s ~legacy_poll:true ~seed ~n:7 ~t:3 ~crashes:2 () in
    same_fingerprint (Printf.sprintf "cons_s seed %d" seed) a b;
    check "verdict ok" true a.verdict_ok
  done

(* Three-way differential: the arena engine (cond), the legacy re-poll
   scheduler, and the legacy closure-per-event queue must all produce the
   same execution.  The queue baseline is only compared under continuous
   delay distributions (the default Uniform): the arena batches
   same-instant same-destination deliveries into one event, so discrete
   distributions (Psync) can legitimately differ in raw event counts
   while agreeing on everything else. *)

let test_differential_kset_three_way () =
  for seed = 1 to 10 do
    let a = fingerprint_kset ~legacy_poll:false ~seed ~n:7 ~t:3 ~z:2 ~crashes:2 () in
    let b = fingerprint_kset ~legacy_poll:true ~seed ~n:7 ~t:3 ~z:2 ~crashes:2 () in
    let c = fingerprint_kset ~legacy_queue:true ~legacy_poll:false ~seed ~n:7 ~t:3 ~z:2 ~crashes:2 () in
    same_fingerprint (Printf.sprintf "kset seed %d cond/poll" seed) a b;
    same_fingerprint (Printf.sprintf "kset seed %d cond/queue" seed) a c;
    check "verdict ok" true a.verdict_ok
  done

let test_differential_cons_s_queue_seeds () =
  for seed = 1 to 10 do
    let a = fingerprint_cons_s ~legacy_poll:false ~seed ~n:7 ~t:3 ~crashes:2 () in
    let c = fingerprint_cons_s ~legacy_queue:true ~legacy_poll:false ~seed ~n:7 ~t:3 ~crashes:2 () in
    same_fingerprint (Printf.sprintf "cons_s seed %d cond/queue" seed) a c;
    check "verdict ok" true a.verdict_ok
  done

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

let qcheck_differential_kset =
  QCheck.Test.make ~name:"random (seed, z, crashes): cond == legacy-poll" ~count:20
    (QCheck.make
       ~print:(fun (s, z, c) -> Printf.sprintf "seed=%d z=%d crashes=%d" s z c)
       QCheck.Gen.(triple (int_range 100 50_000) (int_range 1 3) (int_range 0 3)))
    (fun (seed, z, crashes) ->
      let a = fingerprint_kset ~legacy_poll:false ~seed ~n:7 ~t:3 ~z ~crashes () in
      let b = fingerprint_kset ~legacy_poll:true ~seed ~n:7 ~t:3 ~z ~crashes () in
      a = b && a.verdict_ok)

(* Adversarial transports: the differential property must also hold when
   the network itself is hostile — heavy-tailed delays, partial synchrony
   with a late GST, fair-lossy links.  Loss can leave the run undecided at
   the horizon (liveness is forfeit without retransmission), so the
   verdict is only asserted loss-free; the fingerprints must match
   regardless. *)

let fingerprint_kset_adv ~legacy_poll ~seed ~delay ?loss () =
  let n = 7 and t = 3 and z = 2 in
  let sim = Sim.create ~horizon:3000.0 ~legacy_poll ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 30.0) }) ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals ~delay ?loss () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  let v = Check.k_set_agreement sim ~k:z ~proposals ~decisions:(Kset.decisions h) in
  {
    decisions = Kset.decisions h;
    rounds = Kset.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

let adv_delays =
  [
    ("exp(1)", Delay.Exponential 1.0);
    ("psync(gst=30)", Delay.Psync { gst = 30.0; bound = 2.0; pre_spread = 25.0 });
  ]

let adv_losses = [ ("loss=0", None); ("loss=0.2", Some 0.2) ]

let qcheck_differential_kset_adversarial =
  QCheck.Test.make
    ~name:"random (seed, delay, loss): adversarial kset cond == legacy-poll" ~count:16
    (QCheck.make
       ~print:(fun (s, d, l) ->
         Printf.sprintf "seed=%d delay=%s %s" s (fst (List.nth adv_delays d))
           (fst (List.nth adv_losses l)))
       QCheck.Gen.(triple (int_range 100 50_000) (int_range 0 1) (int_range 0 1)))
    (fun (seed, d, l) ->
      let delay = snd (List.nth adv_delays d) in
      let loss = snd (List.nth adv_losses l) in
      let a = fingerprint_kset_adv ~legacy_poll:false ~seed ~delay ?loss () in
      let b = fingerprint_kset_adv ~legacy_poll:true ~seed ~delay ?loss () in
      a = b && (loss <> None || a.verdict_ok))

let qcheck_differential_kset_queue =
  QCheck.Test.make ~name:"random (seed, z, crashes): cond == legacy-queue" ~count:20
    (QCheck.make
       ~print:(fun (s, z, c) -> Printf.sprintf "seed=%d z=%d crashes=%d" s z c)
       QCheck.Gen.(triple (int_range 100 50_000) (int_range 1 3) (int_range 0 3)))
    (fun (seed, z, crashes) ->
      let a = fingerprint_kset ~legacy_poll:false ~seed ~n:7 ~t:3 ~z ~crashes () in
      let c = fingerprint_kset ~legacy_queue:true ~legacy_poll:false ~seed ~n:7 ~t:3 ~z ~crashes () in
      a = c && a.verdict_ok)

let qcheck_differential_cons_s =
  QCheck.Test.make ~name:"random (seed, crashes): cons_s cond == legacy-poll" ~count:10
    (QCheck.make
       ~print:(fun (s, c) -> Printf.sprintf "seed=%d crashes=%d" s c)
       QCheck.Gen.(pair (int_range 100 50_000) (int_range 0 3)))
    (fun (seed, crashes) ->
      let a = fingerprint_cons_s ~legacy_poll:false ~seed ~n:7 ~t:3 ~crashes () in
      let b = fingerprint_cons_s ~legacy_poll:true ~seed ~n:7 ~t:3 ~crashes () in
      a = b && a.verdict_ok)

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

let corpus_file =
  (* [dune runtest] runs next to the copied file; [dune exec] from the
     repository root does not. *)
  if Sys.file_exists "golden_corpus.jsonl" then "golden_corpus.jsonl"
  else Filename.concat "test" "golden_corpus.jsonl"

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
        { (Protocol.params_of_json s.Schedule.params) with crashes = s.Schedule.crashes }
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
        Protocol.run (Option.get (Protocol.find protocol)) (Protocol.params_of_json params)
      in
      let o = r.Protocol.rp_outcome in
      (entry_digest r.Protocol.rp_sim, o.Sim.events, o.Sim.end_time)

let test_golden_corpus () =
  let ic = open_in_bin corpus_file in
  let cases = List.filter (( <> ) "") (String.split_on_char '\n' (In_channel.input_all ic)) in
  close_in ic;
  check "corpus is not empty" true (cases <> []);
  let covered =
    List.filter_map
      (fun line ->
        let j = Json.of_string_exn line in
        match (Json.member "protocol" j, Json.member "params" j) with
        | Some (Json.String protocol), Some (Json.Obj params) ->
            Some (protocol, (Protocol.params_of_json params).Protocol.variant)
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
          Alcotest.test_case "kset across seeds" `Quick test_differential_kset_seeds;
          Alcotest.test_case "cons_s across seeds" `Quick test_differential_cons_s_seeds;
          Alcotest.test_case "kset three-way (arena/poll/queue)" `Quick
            test_differential_kset_three_way;
          Alcotest.test_case "cons_s cond == legacy-queue" `Quick
            test_differential_cons_s_queue_seeds;
        ] );
      ( "corpus",
        [ Alcotest.test_case "arena matches golden corpus" `Quick test_golden_corpus ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state promotes nothing" `Quick
            test_steady_state_promotes_nothing;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
          [
            qcheck_differential_kset;
            qcheck_differential_kset_queue;
            qcheck_differential_kset_adversarial;
            qcheck_differential_cons_s;
          ] );
    ]
