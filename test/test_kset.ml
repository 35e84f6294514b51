(* Tests for the Ω_k-based k-set agreement algorithm (paper Figure 3):
   validity / agreement / termination across seeds, crash patterns and
   oracle behaviours; the §3.2 oracle-efficiency and zero-degradation
   claims; interaction with weaker/stronger oracles; qcheck randomized
   sweeps. *)

open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd
open Setagree_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type outcome = {
  verdict : Check.verdict;
  rounds : int;
  handle : Kset.t;
  sim : Sim.t;
}

let run_kset ?(n = 7) ?(t = 3) ?(z = 2) ?(k = 2) ?(crashes = Crash.No_crashes)
    ?(behavior = Behavior.stormy ~gst:40.0) ?(delay = Delay.default)
    ?(tie_break = Kset.Smallest) ~seed () =
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim (Crash.generate crashes ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals ~delay ~tie_break () in
  let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  let verdict = Check.k_set_agreement sim ~k ~proposals ~decisions:(Kset.decisions h) in
  { verdict; rounds = Kset.max_round h; handle = h; sim }

let assert_ok o label =
  if not (Check.verdict_ok o.verdict) then
    Alcotest.failf "%s: %s" label (String.concat "; " o.verdict.notes)

let test_solves_across_seeds () =
  for seed = 1 to 8 do
    let o =
      run_kset ~seed ~crashes:(Crash.Exactly { crashes = 2; window = (0.0, 30.0) }) ()
    in
    assert_ok o (Printf.sprintf "seed %d" seed)
  done

let test_consensus_z1 () =
  for seed = 1 to 5 do
    let o =
      run_kset ~seed ~z:1 ~k:1
        ~crashes:(Crash.Exactly { crashes = 3; window = (0.0, 30.0) })
        ()
    in
    assert_ok o (Printf.sprintf "consensus seed %d" seed)
  done

let test_max_failures () =
  (* t crashes, all hitting before gst, stormy oracle. *)
  let o =
    run_kset ~seed:17 ~z:2 ~k:2
      ~crashes:(Crash.Exactly { crashes = 3; window = (0.0, 10.0) })
      ()
  in
  assert_ok o "t crashes"

let test_no_crash_fast_path () =
  (* Perfect oracle + no crash: decide in round 1, two communication steps
     (oracle efficiency, §3.2). *)
  let o = run_kset ~seed:2 ~z:1 ~k:1 ~behavior:Behavior.perfect () in
  assert_ok o "fast path";
  check_int "one round" 1 o.rounds

let test_zero_degradation () =
  (* Initial crashes only + perfect oracle: still round 1 (§3.2). *)
  let o =
    run_kset ~seed:3 ~z:1 ~k:1 ~behavior:Behavior.perfect
      ~crashes:(Crash.Initial [ 5; 6 ]) ()
  in
  assert_ok o "zero degradation";
  check_int "one round" 1 o.rounds

let test_zero_degradation_all_z () =
  List.iter
    (fun z ->
      let o =
        run_kset ~seed:4 ~z ~k:z ~behavior:Behavior.perfect ~crashes:(Crash.Initial [ 6 ]) ()
      in
      assert_ok o "zero degradation z";
      check_int "one round" 1 o.rounds)
    [ 1; 2; 3 ]

let test_noisy_oracle_delays_but_terminates () =
  let o =
    run_kset ~seed:5 ~z:2 ~k:2
      ~behavior:(Behavior.make ~noise:0.5 ~slander:0.3 ~gst:60.0 ())
      ()
  in
  assert_ok o "noisy";
  check "took multiple rounds" true (o.rounds > 1)

let test_stronger_oracle_weaker_goal () =
  (* Ω_1 trivially solves k-set for any k >= 1. *)
  List.iter
    (fun k ->
      let o = run_kset ~seed:6 ~z:1 ~k () in
      assert_ok o "omega_1 solves k-set")
    [ 1; 2; 3 ]

let test_requires_majority () =
  let sim = Sim.create ~n:6 ~t:3 ~seed:1 () in
  let omega, _ = Oracle.omega_z sim ~z:1 () in
  check "t >= n/2 rejected" true
    (try
       ignore (Kset.install sim ~omega ~proposals:(Array.make 6 0) ());
       false
     with Invalid_argument _ -> true)

let test_bad_proposals_length () =
  let sim = Sim.create ~n:7 ~t:3 ~seed:1 () in
  let omega, _ = Oracle.omega_z sim ~z:1 () in
  check "bad proposals" true
    (try
       ignore (Kset.install sim ~omega ~proposals:(Array.make 3 0) ());
       false
     with Invalid_argument _ -> true)

let test_decisions_recorded_in_trace () =
  let o = run_kset ~seed:7 () in
  let trace_decisions = Trace.decisions (Sim.trace o.sim) in
  check_int "trace matches handle" (List.length (Kset.decisions o.handle))
    (List.length trace_decisions)

let test_identical_proposals_single_value () =
  let sim = Sim.create ~horizon:3000.0 ~n:7 ~t:3 ~seed:8 () in
  let omega, _ = Oracle.omega_z sim ~z:3 () in
  let proposals = Array.make 7 55 in
  let h = Kset.install sim ~omega ~proposals () in
  let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  List.iter (fun (_, v, _, _) -> check_int "only proposed value" 55 v) (Kset.decisions h)

let test_crashed_before_start_never_decides () =
  let sim = Sim.create ~horizon:3000.0 ~n:7 ~t:3 ~seed:9 () in
  Sim.install_crashes sim [ (4, 0.0) ];
  let omega, _ = Oracle.omega_z sim ~z:1 () in
  let proposals = Array.init 7 (fun i -> i) in
  let h = Kset.install sim ~omega ~proposals () in
  let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  check "dead never decides" true (Kset.decided h 4 = None)

let test_heavy_delay_spread () =
  let o =
    run_kset ~seed:10 ~delay:(Delay.Exponential 2.0)
      ~crashes:(Crash.Exactly { crashes = 2; window = (0.0, 20.0) })
      ()
  in
  assert_ok o "exponential delays"

let test_adversarial_tie_break_still_k () =
  (* By_pid is legal: agreement at k >= z must still hold. *)
  for seed = 1 to 5 do
    let o = run_kset ~seed ~z:2 ~k:2 ~tie_break:Kset.By_pid () in
    assert_ok o "by_pid legal"
  done

let test_messages_grow_with_rounds () =
  let quick = run_kset ~seed:11 ~behavior:Behavior.perfect () in
  let slow = run_kset ~seed:11 ~behavior:(Behavior.stormy ~gst:60.0) () in
  check "more rounds, more messages" true
    (Kset.messages_sent slow.handle > Kset.messages_sent quick.handle)

let test_decider_crashes_mid_relay () =
  (* The strongest adversary for the decision path: crash the very first
     decider at its decision instant, with the DECISION relay staggered so
     the broadcast is cut short.  Everyone else must still decide — through
     the echo relay of whoever the partial broadcast reached (the paper's
     task T2 rationale), or through their own rounds. *)
  for seed = 1 to 5 do
    let n = 7 and t = 3 in
    let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
    let rng = Rng.split_named (Sim.rng sim) "crash" in
    Sim.install_crashes sim
      (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 20.0) }) ~n ~t rng);
    let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst:40.0) () in
    let proposals = Array.init n (fun i -> 100 + i) in
    let h = Kset.install sim ~omega ~proposals ~decision_stagger:0.01 () in
    let killed = ref false in
    (* Watcher: a reactive adversary hosted by a process that survives the
       scheduled crashes (it may still kill its own host below). *)
    let watcher = Pidset.min_elt (Sim.correct_set sim) in
    Sim.spawn sim ~pid:watcher (fun () ->
        Sim.Cond.await [ Sim.Cond.poll sim ] (fun () -> Kset.decisions h <> []);
        if not !killed then begin
          killed := true;
          match Kset.decisions h with
          | (p, _, _, _) :: _ -> if not (Sim.is_crashed sim p) then Sim.crash_now sim p
          | [] -> ()
        end);
    let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
    let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h) in
    (* The first decider is now crashed; the checker only requires the
       correct processes to decide, and single-value agreement overall. *)
    if not (Check.verdict_ok v) then
      Alcotest.failf "seed %d: %s" seed (String.concat "; " v.Check.notes);
    check "adversary fired" true !killed
  done

let test_consensus_over_lossy_links () =
  (* The whole algorithm over 30% message loss: the stubborn transport
     restores the reliable-channel assumption, so agreement must hold and
     the run merely costs more raw link traffic and latency. *)
  for seed = 1 to 3 do
    let n = 7 and t = 3 in
    let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
    let rng = Rng.split_named (Sim.rng sim) "crash" in
    Sim.install_crashes sim
      (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 20.0) }) ~n ~t rng);
    let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst:40.0) () in
    let proposals = Array.init n (fun i -> 100 + i) in
    let h = Kset.install sim ~omega ~proposals ~loss:0.3 () in
    let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
    let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h) in
    if not (Check.verdict_ok v) then
      Alcotest.failf "lossy seed %d: %s" seed (String.concat "; " v.Check.notes)
  done

let test_crash_now_respects_bound () =
  let sim = Sim.create ~n:5 ~t:1 ~seed:1 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  check "t+1-th crash rejected" true
    (try
       Sim.crash_now sim 1;
       false
     with Invalid_argument _ -> true)

let test_lemma2_invariant () =
  (* Lemma 2, witnessed: no round ever carries more than z distinct non-⊥
     estimates, even through pre-stabilization churn and adversarial
     tie-breaks. *)
  List.iter
    (fun (z, seed) ->
      let o =
        run_kset ~seed ~z ~k:z ~tie_break:Kset.By_pid
          ~crashes:(Crash.Exactly { crashes = 2; window = (0.0, 30.0) })
          ()
      in
      let m = Kset.max_distinct_aux o.handle in
      if m > z then Alcotest.failf "z=%d seed=%d: %d distinct aux values" z seed m)
    [ (1, 1); (1, 2); (2, 3); (2, 4); (3, 5); (3, 6) ]

let test_determinism () =
  let d1 = (run_kset ~seed:12 ()).handle |> Kset.decisions in
  let d2 = (run_kset ~seed:12 ()).handle |> Kset.decisions in
  check "same seed same decisions" true (d1 = d2)

let qcheck_agreement =
  QCheck.Test.make ~name:"random (seed, z, crashes): k=z agreement holds" ~count:15
    (QCheck.make
       ~print:(fun (s, z, c) -> Printf.sprintf "seed=%d z=%d crashes=%d" s z c)
       QCheck.Gen.(triple (int_range 100 10_000) (int_range 1 3) (int_range 0 3)))
    (fun (seed, z, crashes) ->
      let o =
        run_kset ~seed ~z ~k:z
          ~crashes:(Crash.Exactly { crashes; window = (0.0, 30.0) })
          ()
      in
      Check.verdict_ok o.verdict)

let qcheck_validity_only_proposed =
  QCheck.Test.make ~name:"decided values are proposals" ~count:10
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000))
    (fun seed ->
      let o = run_kset ~seed ~z:2 ~k:2 () in
      List.for_all (fun (_, v, _, _) -> v >= 100 && v < 107) (Kset.decisions o.handle))

(* The message path's allocation budget, end to end: the benchmark's
   kset run (n=32, t=15, z=k=2, gst=10) through [Protocol.run], set-up
   and check included, allocates at most 20 minor words per event. *)
let test_run_allocation () =
  let p =
    { Protocol.default with Protocol.n = 32; t = 15; z = 2; k = 2; gst = 10.0; seed = 1 }
  in
  let kset = Option.get (Protocol.find "kset") in
  ignore (Protocol.run kset p);
  let w0 = Gc.minor_words () in
  let r = Protocol.run kset p in
  let per = (Gc.minor_words () -. w0) /. float_of_int r.Protocol.rp_outcome.Sim.events in
  check "the run decides" true r.Protocol.rp_verdict.Check.ok;
  check (Printf.sprintf "%.1f minor words per event, at most 20" per) true (per <= 20.0)

let () =
  Alcotest.run "kset"
    [
      ( "agreement",
        [
          Alcotest.test_case "across seeds" `Quick test_solves_across_seeds;
          Alcotest.test_case "consensus (z=1)" `Quick test_consensus_z1;
          Alcotest.test_case "t crashes" `Quick test_max_failures;
          Alcotest.test_case "noisy oracle" `Quick test_noisy_oracle_delays_but_terminates;
          Alcotest.test_case "stronger oracle" `Quick test_stronger_oracle_weaker_goal;
          Alcotest.test_case "identical proposals" `Quick test_identical_proposals_single_value;
          Alcotest.test_case "by_pid tie-break legal" `Quick test_adversarial_tie_break_still_k;
          Alcotest.test_case "heavy delays" `Quick test_heavy_delay_spread;
        ] );
      ( "performance-claims",
        [
          Alcotest.test_case "oracle efficiency" `Quick test_no_crash_fast_path;
          Alcotest.test_case "zero degradation" `Quick test_zero_degradation;
          Alcotest.test_case "zero degradation all z" `Quick test_zero_degradation_all_z;
          Alcotest.test_case "messages grow with rounds" `Quick test_messages_grow_with_rounds;
          Alcotest.test_case "run allocation" `Quick test_run_allocation;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "majority required" `Quick test_requires_majority;
          Alcotest.test_case "proposals length" `Quick test_bad_proposals_length;
          Alcotest.test_case "trace decisions" `Quick test_decisions_recorded_in_trace;
          Alcotest.test_case "dead never decides" `Quick test_crashed_before_start_never_decides;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "decider crashes mid-relay" `Quick test_decider_crashes_mid_relay;
          Alcotest.test_case "consensus over lossy links" `Quick test_consensus_over_lossy_links;
          Alcotest.test_case "crash_now bound" `Quick test_crash_now_respects_bound;
          Alcotest.test_case "lemma 2 invariant" `Quick test_lemma2_invariant;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) [ qcheck_agreement; qcheck_validity_only_proposed ]
      );
    ]
