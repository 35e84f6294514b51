(* Tests for the discrete-event kernel: event ordering, fibers (sleep /
   poll-cond waits), crash semantics, determinism, budgets, traces. *)

open Setagree_util
open Setagree_dsys

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Poll-cadence wait: re-evaluated after every event, no signal
   discipline needed — what the old [Sim.wait_until] shim did. *)
let wait_until sim pred = Sim.Cond.await [ Sim.Cond.poll sim ] pred

let mk ?(horizon = 1000.0) ?(n = 4) ?(t = 1) ?(seed = 1) () =
  Sim.create ~horizon ~n ~t ~seed ()

let test_create_validation () =
  check "n >= 2" true
    (try ignore (Sim.create ~n:1 ~t:0 ~seed:0 ()); false with Invalid_argument _ -> true);
  check "t < n" true
    (try ignore (Sim.create ~n:3 ~t:3 ~seed:0 ()); false with Invalid_argument _ -> true)

let test_time_starts_at_zero () =
  let sim = mk () in
  Alcotest.(check (float 0.0)) "t0" 0.0 (Sim.now sim)

let test_schedule_order () =
  let sim = mk () in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log);
  let o = Sim.run sim in
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check "quiescent" true (o.reason = Sim.Quiescent);
  check_int "events" 3 o.events

let test_same_time_fifo () =
  let sim = mk () in
  let log = ref [] in
  for i = 0 to 9 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "insertion order at same instant"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_at_absolute () =
  let sim = mk () in
  let seen = ref 0.0 in
  Sim.at sim ~time:5.5 (fun () -> seen := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check (float 0.001)) "at time" 5.5 !seen

let test_at_past_rejected () =
  let sim = mk () in
  Sim.schedule sim ~delay:10.0 (fun () ->
      check "past at raises" true
        (try Sim.at sim ~time:1.0 (fun () -> ()); false with Invalid_argument _ -> true));
  ignore (Sim.run sim)

let test_negative_delay_rejected () =
  let sim = mk () in
  check "negative delay" true
    (try Sim.schedule sim ~delay:(-1.0) (fun () -> ()); false
     with Invalid_argument _ -> true)

let test_sleep_advances_time () =
  let sim = mk () in
  let wake = ref 0.0 in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.sleep 4.25;
      wake := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check (float 0.001)) "wake time" 4.25 !wake

let test_sleep_sequence () =
  let sim = mk () in
  let times = ref [] in
  Sim.spawn sim ~pid:0 (fun () ->
      for _ = 1 to 3 do
        Sim.sleep 1.0;
        times := Sim.now sim :: !times
      done);
  ignore (Sim.run sim);
  Alcotest.(check (list (float 0.001))) "sleep accumulates" [ 1.0; 2.0; 3.0 ] (List.rev !times)

let test_wait_until_immediate () =
  let sim = mk () in
  let passed = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> true);
      passed := true);
  ignore (Sim.run sim);
  check "immediate wait passes" true !passed

let test_wait_until_wakes () =
  let sim = mk () in
  let flag = ref false in
  let woke_at = ref 0.0 in
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> !flag);
      woke_at := Sim.now sim);
  Sim.schedule sim ~delay:7.0 (fun () -> flag := true);
  ignore (Sim.run sim);
  Alcotest.(check (float 0.001)) "woke when flag set" 7.0 !woke_at

let test_wait_until_chain () =
  (* Fiber B waits on a flag set by fiber A waking from its own wait:
     zero-time causality chains must resolve within one event. *)
  let sim = mk () in
  let f1 = ref false and f2 = ref false and done2 = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> !f1);
      f2 := true);
  Sim.spawn sim ~pid:1 (fun () ->
      wait_until sim (fun () -> !f2);
      done2 := true);
  Sim.schedule sim ~delay:1.0 (fun () -> f1 := true);
  ignore (Sim.run sim);
  check "chain resolved" true !done2

let test_crash_stops_fiber () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let steps = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      while true do
        incr steps;
        Sim.sleep 2.0
      done);
  ignore (Sim.run sim);
  (* Steps at 0, 2, 4; crash at 5 kills the resume at 6. *)
  check_int "steps before crash" 3 !steps;
  check "is_crashed" true (Sim.is_crashed sim 0)

let test_crash_drops_waiter () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 2.0) ];
  let flag = ref false and woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> !flag);
      woke := true);
  Sim.schedule sim ~delay:5.0 (fun () -> flag := true);
  ignore (Sim.run sim);
  check "crashed waiter never wakes" false !woke

let test_crash_bound_enforced () =
  let sim = mk ~n:4 ~t:1 () in
  check "too many crashes" true
    (try Sim.install_crashes sim [ (0, 1.0); (1, 2.0) ]; false
     with Invalid_argument _ -> true)

let test_ground_truth_sets () =
  let sim = mk ~n:4 ~t:2 () in
  Sim.install_crashes sim [ (1, 3.0); (2, 8.0) ];
  check "correct set" true
    (Pidset.equal (Sim.correct_set sim) (Pidset.of_list [ 0; 3 ]));
  Alcotest.(check (option (float 0.001))) "crash_time" (Some 3.0) (Sim.crash_time sim 1);
  check "alive at 5" true
    (Pidset.equal (Sim.alive_at sim 5.0) (Pidset.of_list [ 0; 2; 3 ]));
  check "alive at 10" true (Pidset.equal (Sim.alive_at sim 10.0) (Pidset.of_list [ 0; 3 ]));
  ignore (Sim.run sim);
  check "crashed set after run" true
    (Pidset.equal (Sim.crashed_set sim) (Pidset.of_list [ 1; 2 ]))

let test_spawn_on_crashed_discarded () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let ran = ref false in
  Sim.schedule sim ~delay:2.0 (fun () -> Sim.spawn sim ~pid:0 (fun () -> ran := true));
  ignore (Sim.run sim);
  check "not run" false !ran

let test_horizon_stops () =
  let sim = mk ~horizon:10.0 () in
  Sim.spawn sim ~pid:0 (fun () ->
      while true do
        Sim.sleep 1.0
      done);
  let o = Sim.run sim in
  check "horizon reason" true (o.reason = Sim.Horizon);
  check "end_time <= horizon" true (o.end_time <= 10.0 +. 1e-9)

let test_budget_stops () =
  let sim = mk ~horizon:1e9 () in
  let sim_budget = Sim.create ~horizon:1e9 ~max_events:50 ~n:4 ~t:1 ~seed:1 () in
  ignore sim;
  Sim.spawn sim_budget ~pid:0 (fun () ->
      while true do
        Sim.sleep 1.0
      done);
  let o = Sim.run sim_budget in
  check "budget reason" true (o.reason = Sim.Budget);
  check_int "events = budget" 50 o.events

let test_stop_when () =
  let sim = mk () in
  let count = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      while true do
        incr count;
        Sim.sleep 1.0
      done);
  let o = Sim.run ~stop_when:(fun () -> !count >= 5) sim in
  check "stopped reason" true (o.reason = Sim.Stopped);
  check_int "stopped at 5" 5 !count

let test_determinism_same_seed () =
  let observe seed =
    let sim = mk ~seed () in
    let rng = Rng.split_named (Sim.rng sim) "test" in
    let log = ref [] in
    for pid = 0 to 3 do
      Sim.spawn sim ~pid (fun () ->
          for _ = 1 to 5 do
            Sim.sleep (Rng.uniform_in rng 0.5 1.5);
            log := (pid, Sim.now sim) :: !log
          done)
    done;
    ignore (Sim.run sim);
    List.rev !log
  in
  check "same seed same run" true (observe 42 = observe 42);
  check "diff seed diff run" true (observe 42 <> observe 43)

let test_ticker_drives_clock () =
  let sim = mk ~horizon:10.0 () in
  Sim.ticker sim ~every:1.0;
  let o = Sim.run sim in
  check "clock reached horizon region" true (o.end_time >= 9.0)

let test_ticker_wakes_time_predicate () =
  let sim = mk ~horizon:100.0 () in
  Sim.ticker sim ~every:1.0;
  let woke = ref 0.0 in
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> Sim.now sim >= 42.0);
      woke := Sim.now sim);
  ignore (Sim.run ~stop_when:(fun () -> !woke > 0.0) sim);
  check "woken by ticker" true (!woke >= 42.0 && !woke < 44.0)

let test_zero_time_livelock_detected () =
  (* Two fibers that keep enabling each other at the same instant: the
     scheduler's fixpoint guard must detect the livelock and fail loudly
     instead of hanging. *)
  let sim = mk () in
  let ping = ref true and pong = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      while true do
        wait_until sim (fun () -> !ping);
        ping := false;
        pong := true
      done);
  Sim.spawn sim ~pid:1 (fun () ->
      while true do
        wait_until sim (fun () -> !pong);
        pong := false;
        ping := true
      done);
  check "livelock detected" true
    (try
       ignore (Sim.run sim);
       false
     with Failure msg -> String.length msg > 0)

let test_multiple_fibers_per_pid () =
  let sim = mk () in
  let a = ref false and b = ref false in
  Sim.spawn sim ~pid:0 (fun () -> a := true);
  Sim.spawn sim ~pid:0 (fun () -> b := true);
  ignore (Sim.run sim);
  check "both tasks ran" true (!a && !b)

(* Crash schedules *)

let test_crash_now_dynamic () =
  let sim = mk ~n:4 ~t:2 () in
  let steps = ref 0 in
  Sim.spawn sim ~pid:1 (fun () ->
      while true do
        incr steps;
        Sim.sleep 1.0
      done);
  (* A reactive adversary kills p2 after its third step. *)
  Sim.spawn sim ~pid:0 (fun () ->
      wait_until sim (fun () -> !steps >= 3);
      Sim.crash_now sim 1);
  ignore (Sim.run sim);
  check_int "stopped at third step" 3 !steps;
  check "ground truth updated" true (Sim.is_crashed sim 1);
  check "correct set updated" true (not (Pidset.mem 1 (Sim.correct_set sim)))

let test_crash_now_idempotent_and_scheduled () =
  let sim = mk ~n:4 ~t:1 () in
  Sim.install_crashes sim [ (2, 10.0) ];
  (* Crashing the process that already has the scheduled crash does not
     consume extra budget. *)
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.crash_now sim 2;
      Sim.crash_now sim 2);
  ignore (Sim.run sim);
  check "crashed early" true (Sim.is_crashed sim 2)

let test_crash_spec_none () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "no crashes" 0
    (List.length (Crash.generate Crash.No_crashes ~n:5 ~t:2 rng))

let test_crash_spec_initial () =
  let rng = Rng.create 1 in
  let cs = Crash.generate (Crash.Initial [ 1; 3 ]) ~n:5 ~t:2 rng in
  check "times zero" true (List.for_all (fun (_, tm) -> tm = 0.0) cs);
  check "victims" true (Pidset.equal (Crash.victims cs) (Pidset.of_list [ 1; 3 ]))

let test_crash_spec_exactly () =
  let rng = Rng.create 2 in
  for _ = 1 to 20 do
    let cs = Crash.generate (Crash.Exactly { crashes = 2; window = (1.0, 5.0) }) ~n:6 ~t:3 rng in
    check_int "two crashes" 2 (List.length cs);
    check "window" true (List.for_all (fun (_, tm) -> tm >= 1.0 && tm < 5.0) cs);
    check_int "distinct victims" 2 (Pidset.cardinal (Crash.victims cs))
  done

let test_crash_spec_random_capped () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let cs =
      Crash.generate (Crash.Random_up_to { max_crashes = 10; window = (0.0, 1.0) }) ~n:6
        ~t:2 rng
    in
    check "capped by t" true (List.length cs <= 2)
  done

let test_crash_spec_explicit_checked () =
  let rng = Rng.create 4 in
  check "explicit over t rejected" true
    (try
       ignore (Crash.generate (Crash.Explicit [ (0, 1.0); (1, 1.0) ]) ~n:4 ~t:1 rng);
       false
     with Invalid_argument _ -> true)

(* Trace *)

let test_trace_counters () =
  let tr = Trace.create () in
  Trace.incr tr "a";
  Trace.incr tr "a";
  Trace.add_to tr "b" 5;
  check_int "a" 2 (Trace.counter tr "a");
  check_int "b" 5 (Trace.counter tr "b");
  check_int "missing" 0 (Trace.counter tr "zzz");
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 2); ("b", 5) ] (Trace.counters tr)

let test_trace_entries () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 (Trace.Crash 2);
  Trace.record tr ~time:2.0 (Trace.Decide { pid = 0; value = 7; round = 3 });
  Trace.record tr ~time:3.0 (Trace.Note { pid = None; text = "hello world" });
  check_int "entries" 3 (List.length (Trace.entries tr));
  Alcotest.(check (list (pair int (float 0.001)))) "crashes" [ (2, 1.0) ] (Trace.crashes tr);
  (match Trace.decisions tr with
  | [ (0, 7, 3, tm) ] -> Alcotest.(check (float 0.001)) "decide time" 2.0 tm
  | _ -> Alcotest.fail "decisions");
  check_int "note found" 1 (List.length (Trace.find_notes tr "world"));
  check_int "note missing" 0 (List.length (Trace.find_notes tr "absent"))

let () =
  Alcotest.run "dsys"
    [
      ( "scheduler",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "time zero" `Quick test_time_starts_at_zero;
          Alcotest.test_case "event order" `Quick test_schedule_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "absolute at" `Quick test_at_absolute;
          Alcotest.test_case "at past" `Quick test_at_past_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "horizon" `Quick test_horizon_stops;
          Alcotest.test_case "budget" `Quick test_budget_stops;
          Alcotest.test_case "stop_when" `Quick test_stop_when;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
          Alcotest.test_case "ticker clock" `Quick test_ticker_drives_clock;
          Alcotest.test_case "ticker wakes" `Quick test_ticker_wakes_time_predicate;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "sleep advances" `Quick test_sleep_advances_time;
          Alcotest.test_case "sleep sequence" `Quick test_sleep_sequence;
          Alcotest.test_case "wait immediate" `Quick test_wait_until_immediate;
          Alcotest.test_case "wait wakes" `Quick test_wait_until_wakes;
          Alcotest.test_case "wait chain" `Quick test_wait_until_chain;
          Alcotest.test_case "livelock guard" `Quick test_zero_time_livelock_detected;
          Alcotest.test_case "two fibers one pid" `Quick test_multiple_fibers_per_pid;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "stops fiber" `Quick test_crash_stops_fiber;
          Alcotest.test_case "drops waiter" `Quick test_crash_drops_waiter;
          Alcotest.test_case "bound enforced" `Quick test_crash_bound_enforced;
          Alcotest.test_case "ground truth" `Quick test_ground_truth_sets;
          Alcotest.test_case "spawn on crashed" `Quick test_spawn_on_crashed_discarded;
          Alcotest.test_case "crash_now dynamic" `Quick test_crash_now_dynamic;
          Alcotest.test_case "crash_now idempotent" `Quick test_crash_now_idempotent_and_scheduled;
          Alcotest.test_case "spec none" `Quick test_crash_spec_none;
          Alcotest.test_case "spec initial" `Quick test_crash_spec_initial;
          Alcotest.test_case "spec exactly" `Quick test_crash_spec_exactly;
          Alcotest.test_case "spec random capped" `Quick test_crash_spec_random_capped;
          Alcotest.test_case "spec explicit checked" `Quick test_crash_spec_explicit_checked;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counters" `Quick test_trace_counters;
          Alcotest.test_case "entries" `Quick test_trace_entries;
        ] );
    ]
