(* Tests for the unified fault-injection layer (Dsys.Faults) and its
   integration: JSON round-trips, legality, send-path semantics, ddmin
   minimization, stall-then-re-trust under the adaptive timeouts, and a
   differential qcheck suite asserting that every registered protocol
   survives arbitrary healing fault specs (safety on every run, liveness
   once the spec has healed). *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core

let check = Alcotest.(check bool)

(* --- spec construction & send-path semantics --- *)

let test_heal_time () =
  check "none heals at 0" true (Faults.heal_time Faults.none = 0.0);
  let spec =
    {
      Faults.none with
      Faults.links = [ Faults.link ~drop:0.5 ~from:0.0 ~until:30.0 () ];
      partitions =
        [ Faults.partition ~groups:[ [ 0; 1 ] ] ~from:5.0 ~heal:45.0 () ];
      stalls = [ Faults.stall ~pid:2 ~from:10.0 ~until:20.0 ];
    }
  in
  check "sup of window ends" true (Faults.heal_time spec = 45.0);
  check "summary mentions partition" true
    (String.length (Faults.summary spec) > 0)

let test_send_plan_none_is_pass () =
  let rng = Rng.create 1 in
  let plan = Faults.send_plan Faults.none rng ~src:0 ~dst:1 ~now:10.0 in
  check "none = pass" true (plan = Faults.pass)

let test_send_plan_partition_parks () =
  let spec =
    {
      Faults.none with
      Faults.partitions =
        [ Faults.partition ~groups:[ [ 0; 1 ]; [ 2; 3 ] ] ~from:5.0 ~heal:40.0 () ];
    }
  in
  let rng = Rng.create 2 in
  let plan sep now = Faults.send_plan spec rng ~src:0 ~dst:sep ~now in
  (* across blocks, inside the window: parked until the heal time *)
  check "cross-block parked" true ((plan 2 10.0).Faults.park = Some 40.0);
  (* same block: untouched *)
  check "same-block passes" true ((plan 1 10.0).Faults.park = None);
  (* outside the window: untouched *)
  check "pre-window passes" true ((plan 2 1.0).Faults.park = None);
  check "post-heal passes" true ((plan 2 50.0).Faults.park = None)

let test_send_plan_link_faults () =
  let spec =
    {
      Faults.none with
      Faults.links =
        [ Faults.link ~drop:1.0 ~dup:1.0 ~inflate:3.0 ~from:0.0 ~until:25.0 () ];
    }
  in
  let rng = Rng.create 3 in
  let plan = Faults.send_plan spec rng ~src:4 ~dst:5 ~now:10.0 in
  check "drop=1 parks until window end" true (plan.Faults.park = Some 25.0);
  check "dup=1 doubles copies" true (plan.Faults.copies = 2);
  check "inflate multiplies" true (plan.Faults.inflate = 3.0);
  let after = Faults.send_plan spec rng ~src:4 ~dst:5 ~now:30.0 in
  check "window closed" true (after = Faults.pass)

let test_send_plan_deterministic () =
  let spec =
    {
      Faults.none with
      Faults.links =
        [ Faults.link ~drop:0.4 ~dup:0.3 ~reorder:0.5 ~spread:4.0 ~from:0.0
            ~until:60.0 () ];
    }
  in
  let draw seed =
    let rng = Rng.create seed in
    List.init 50 (fun i ->
        Faults.send_plan spec rng ~src:(i mod 4) ~dst:((i + 1) mod 4)
          ~now:(float_of_int i))
  in
  check "same seed, same plans" true (draw 7 = draw 7);
  check "different seed diverges somewhere" true (draw 7 <> draw 8)

(* --- JSON round-trip (qcheck) --- *)

(* Floats are multiples of 1/4 so the JSON text round-trips exactly. *)
let qf lo hi =
  QCheck.Gen.map
    (fun i -> float_of_int i /. 4.0)
    (QCheck.Gen.int_range (lo * 4) (hi * 4))

let gen_link =
  QCheck.Gen.(
    map
      (fun ((from, dur), (drop, dup, reorder), (spread, inflate), (src, dst)) ->
        Faults.link ~src ~dst ~drop ~dup ~reorder ~spread
          ~inflate:(0.25 +. inflate) ~from ~until:(from +. 0.25 +. dur) ())
      (quad
         (pair (qf 0 40) (qf 0 30))
         (triple (qf 0 1) (qf 0 1) (qf 0 1))
         (pair (qf 0 5) (qf 0 3))
         (pair
            (list_size (int_range 0 3) (int_range 0 7))
            (list_size (int_range 0 3) (int_range 0 7)))))

let gen_partition =
  QCheck.Gen.(
    map
      (fun (split, from, dur) ->
        Faults.partition
          ~groups:[ List.init split Fun.id ]
          ~from ~heal:(from +. 0.25 +. dur) ())
      (triple (int_range 1 7) (qf 0 40) (qf 0 30)))

let gen_stall =
  QCheck.Gen.(
    map
      (fun (pid, from, dur) ->
        Faults.stall ~pid ~from ~until:(from +. 0.25 +. dur))
      (triple (int_range 0 7) (qf 0 40) (qf 0 30)))

let gen_crashes =
  QCheck.Gen.(
    oneof
      [
        return Crash.No_crashes;
        map
          (fun l -> Crash.Explicit (List.map (fun (p, t) -> (p, t)) l))
          (list_size (int_range 1 3) (pair (int_range 0 7) (qf 0 30)));
        map (fun pids -> Crash.Initial pids)
          (list_size (int_range 1 3) (int_range 0 7));
        map
          (fun (c, (a, b)) ->
            Crash.Exactly { crashes = c; window = (a, a +. 0.25 +. b) })
          (pair (int_range 0 3) (pair (qf 0 20) (qf 0 20)));
        map
          (fun (c, (a, b)) ->
            Crash.Random_up_to { max_crashes = c; window = (a, a +. 0.25 +. b) })
          (pair (int_range 0 3) (pair (qf 0 20) (qf 0 20)));
      ])

let gen_faults =
  QCheck.Gen.(
    map
      (fun ((links, partitions, stalls), crashes, adversary) ->
        { Faults.links; partitions; stalls; crashes; adversary })
      (triple
         (triple
            (list_size (int_range 0 2) gen_link)
            (list_size (int_range 0 1) gen_partition)
            (list_size (int_range 0 2) gen_stall))
         gen_crashes
         (oneofl ("" :: Faults.adversaries))))

let arb_faults = QCheck.make ~print:Faults.summary gen_faults

let qcheck_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Faults: of_json (to_json s) = s"
    arb_faults (fun spec ->
      match Faults.of_json (Faults.to_json spec) with
      | Ok spec' -> Faults.equal spec spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

let qcheck_json_text_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"Faults: round-trip through JSON text" arb_faults (fun spec ->
      let text = Json.to_string (Faults.to_json spec) in
      match Faults.of_json (Json.of_string_exn text) with
      | Ok spec' -> Faults.equal spec spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

let qcheck_elements_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"Faults: of_elements (elements s) = s" arb_faults (fun spec ->
      Faults.equal (Faults.of_elements (Faults.elements spec)) spec)

(* --- legality --- *)

let illegal spec = Result.is_error (Faults.legal ~n:8 ~t:3 spec)

let test_legal () =
  check "none is legal" false (illegal Faults.none);
  check "t+1 explicit crashes are illegal" true
    (illegal
       {
         Faults.none with
         Faults.crashes =
           Crash.Explicit [ (0, 1.0); (1, 2.0); (2, 3.0); (3, 4.0) ];
       });
  check "t explicit crashes are legal" false
    (illegal
       {
         Faults.none with
         Faults.crashes = Crash.Explicit [ (0, 1.0); (1, 2.0); (2, 3.0) ];
       });
  check "t+1 initial crashes are illegal" true
    (illegal
       { Faults.none with Faults.crashes = Crash.Initial [ 0; 1; 2; 3 ] });
  check "\"never\" adversary is illegal" true
    (illegal { Faults.none with Faults.adversary = "never" });
  check "unknown adversary is illegal" true
    (illegal { Faults.none with Faults.adversary = "entropy-demon" });
  check "named adversaries are legal" true
    (List.for_all
       (fun a ->
         a = "never" || not (illegal { Faults.none with Faults.adversary = a }))
       Faults.adversaries);
  check "probability > 1 is illegal" true
    (illegal
       {
         Faults.none with
         Faults.links = [ Faults.link ~drop:1.5 ~from:0.0 ~until:10.0 () ];
       });
  check "empty window is illegal" true
    (illegal
       {
         Faults.none with
         Faults.links = [ Faults.link ~from:10.0 ~until:10.0 () ];
       });
  check "pid out of range is illegal" true
    (illegal
       { Faults.none with Faults.stalls = [ Faults.stall ~pid:8 ~from:0.0 ~until:5.0 ] });
  check "overlapping partition groups are illegal" true
    (illegal
       {
         Faults.none with
         Faults.partitions =
           [ Faults.partition ~groups:[ [ 0; 1 ]; [ 1; 2 ] ] ~from:0.0 ~heal:5.0 () ];
       })

(* --- ddmin & chaos minimization --- *)

let test_ddmin_minimizes () =
  let tried = ref [] in
  let test l =
    tried := l :: !tried;
    List.mem 3 l && List.mem 6 l
  in
  let out = Explore.ddmin ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  check "ddmin keeps exactly the relevant atoms" true
    (List.sort compare out = [ 3; 6 ]);
  (* The empty list first, then chunks of 4, 2 and 1, left to right. *)
  check "candidates in order" true
    (List.rev !tried
    = [
        [];
        [ 5; 6; 7; 8 ];
        [ 1; 2; 3; 4 ];
        [ 3; 4; 5; 6; 7; 8 ];
        [ 5; 6; 7; 8 ];
        [ 3; 4; 7; 8 ];
        [ 3; 4; 5; 6 ];
        [ 4; 5; 6 ];
        [ 3; 5; 6 ];
        [ 3; 6 ];
        [ 3 ];
      ])

let test_minimize_illegal () =
  (* t+1 explicit crashes plus an irrelevant stall: minimization must
     strip the stall and keep the four crash atoms (dropping any one of
     them makes the spec legal again). *)
  let spec =
    {
      Faults.none with
      Faults.crashes = Crash.Explicit [ (0, 1.0); (1, 2.0); (2, 3.0); (3, 4.0) ];
      stalls = [ Faults.stall ~pid:5 ~from:0.0 ~until:9.0 ];
    }
  in
  match Chaos.minimize_illegal ~n:8 ~t:3 spec with
  | None -> Alcotest.fail "illegal spec not recognised"
  | Some min ->
      check "still illegal" true (illegal min);
      check "stall stripped" true (min.Faults.stalls = []);
      check "crash atoms kept" true
        (match min.Faults.crashes with
        | Crash.Explicit l -> List.length l = 4
        | _ -> false);
      check "legal spec yields no counterexample" true
        (Chaos.minimize_illegal ~n:8 ~t:3 Faults.none = None)

(* --- stall + adaptive timeout: falsely suspect, then re-trust --- *)

let test_stall_then_retrust () =
  (* pid 4 freezes during [40, 55) — after GST (30), so thresholds have
     settled.  The heartbeat monitor at pid 0 must falsely suspect it
     mid-stall, re-trust it shortly after it resumes, and record the
     disproven suspicion as a backoff bump (the adaptive-timeout
     acceptance criterion). *)
  let sim = Sim.create ~horizon:100.0 ~n:5 ~t:2 ~seed:11 () in
  Sim.install_stalls sim [ Faults.stall ~pid:4 ~from:40.0 ~until:55.0 ];
  let hb = Impl.install sim () in
  let susp = Impl.suspector hb in
  let mid = ref false and after = ref true in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.sleep 52.0;
      mid := Pidset.mem 4 (susp.Iface.suspected 0);
      Sim.sleep 18.0;
      (* 70.0: well past resume + one heartbeat round-trip *)
      after := Pidset.mem 4 (susp.Iface.suspected 0));
  ignore (Sim.run sim);
  check "stalled process falsely suspected mid-window" true !mid;
  check "re-trusted after resume" false !after;
  let touts = Impl.timeouts hb in
  check "false suspicion recorded" true (Timeout.false_suspicions touts > 0);
  check "pair threshold backed off" true (Timeout.bumps touts 0 4 > 0);
  check "threshold stays capped" true (Timeout.current touts 0 4 <= 60.0)

let test_timeout_backoff_capped () =
  let rng = Rng.create 5 in
  let t = Timeout.create ~initial:1.0 ~factor:2.0 ~cap:4.0 ~jitter:0.0 ~rng ~n:2 () in
  (* Repeated false suspicions: threshold grows 1 -> 2 -> 4 and caps. *)
  let now = ref 0.0 in
  for _ = 1 to 6 do
    now := !now +. 100.0;
    check "silent long enough" true (Timeout.expired t 0 1 ~now:!now);
    Timeout.heard t 0 1 ~now:!now
  done;
  check "threshold capped" true (Timeout.current t 0 1 <= 4.0);
  check "bumps counted" true (Timeout.bumps t 0 1 >= 2);
  check "false suspicions counted" true (Timeout.false_suspicions t = 6)

(* Timeout jitter must come from a private named split, not the shared
   stream: attaching runtime-style instrumentation (a Timeout on the
   simulator's root RNG, exercised before the protocol installs) must
   leave a fault-free run byte-identical.  Before the split, the jitter
   draws advanced the caller's stream and every substrate child created
   afterwards — delays, schedules, decisions — silently shifted. *)
let kset_observables ~instrument () =
  let sim = Sim.create ~horizon:400.0 ~n:6 ~t:2 ~seed:11 () in
  Sim.install_crashes sim [ (4, 12.0) ];
  if instrument then begin
    let tm = Timeout.create ~rng:(Sim.rng sim) ~n:6 () in
    ignore (Timeout.expired tm 0 1 ~now:10.0);
    (* gap 10 > initial threshold 3: a false suspicion, so [heard] backs
       off the threshold and draws jitter. *)
    Timeout.heard tm 0 1 ~now:10.0;
    Timeout.heard tm 0 1 ~now:30.0
  end;
  let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init 6 (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals () in
  let outcome = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  (Kset.decisions h, outcome.Sim.end_time, outcome.Sim.events)

let test_timeout_rng_insulated () =
  let base_decisions, base_end, base_events = kset_observables ~instrument:false () in
  let ins_decisions, ins_end, ins_events = kset_observables ~instrument:true () in
  check "same decisions" true (base_decisions = ins_decisions);
  check "same end time" true (base_end = ins_end);
  check "same event count" true (base_events = ins_events)

(* --- protocol integration: partition heals, kset still decides --- *)

let run_with_faults name ?(seed = 3) faults =
  let pk =
    match Protocol.find name with
    | Some pk -> pk
    | None -> Alcotest.failf "protocol %s not registered" name
  in
  Protocol.run pk { Protocol.default with Protocol.seed; faults }

let test_partition_heal_kset_decides () =
  let faults =
    {
      Faults.none with
      Faults.partitions =
        [ Faults.partition ~groups:[ [ 0; 1; 2; 3 ] ] ~from:5.0 ~heal:45.0 () ];
    }
  in
  let r = run_with_faults "kset" faults in
  check "no safety violation" true (r.Protocol.rp_violations = []);
  check "decides after heal" true (Check.verdict_ok r.Protocol.rp_verdict)

let test_stall_spec_kset_decides () =
  let faults =
    { Faults.none with Faults.stalls = [ Faults.stall ~pid:1 ~from:10.0 ~until:40.0 ] }
  in
  let r = run_with_faults "kset" faults in
  check "no safety violation" true (r.Protocol.rp_violations = []);
  check "decides despite the stall" true (Check.verdict_ok r.Protocol.rp_verdict)

(* --- differential qcheck: every registered protocol survives healing
       specs (safety always; liveness because every spec heals) --- *)

(* Healing specs only: windows end by 60, probabilities below 1 so no
   link is dead for ever, partitions always heal, stalls always end, no
   extra crashes beyond the params' own schedule, and the adversary is
   one of the stabilizing strategies. *)
let gen_healing =
  QCheck.Gen.(
    map
      (fun ((drop, dup, reorder), (from, dur), part, stall, adversary) ->
        let links =
          if drop +. dup +. reorder = 0.0 then []
          else
            [
              Faults.link ~drop ~dup ~reorder ~spread:3.0 ~inflate:2.0 ~from
                ~until:(from +. 5.0 +. dur) ();
            ]
        in
        let partitions =
          match part with
          | None -> []
          | Some split ->
              [
                Faults.partition
                  ~groups:[ List.init split Fun.id ]
                  ~from:5.0 ~heal:45.0 ();
              ]
        in
        let stalls =
          match stall with
          | None -> []
          | Some pid -> [ Faults.stall ~pid ~from:10.0 ~until:35.0 ]
        in
        { Faults.none with Faults.links; partitions; stalls; adversary })
      (map
         (fun ((a, b), (c, d, e)) -> (a, b, c, d, e))
         (pair
            (pair
               (triple
                  (oneofl [ 0.0; 0.3; 0.6 ])
                  (oneofl [ 0.0; 0.3 ])
                  (oneofl [ 0.0; 0.5 ]))
               (pair (qf 0 20) (qf 0 30)))
            (triple
               (opt (int_range 1 7))
               (opt (int_range 0 7))
               (oneofl [ ""; "calm"; "rotating"; "slander"; "late" ])))))

let arb_healing_run =
  QCheck.make
    ~print:(fun (seed, spec) ->
      Printf.sprintf "seed=%d %s" seed (Faults.summary spec))
    QCheck.Gen.(pair (int_range 1 10_000) gen_healing)

let qcheck_differential name =
  QCheck.Test.make ~count:12
    ~name:(Printf.sprintf "%s: healing faults keep safety & liveness" name)
    arb_healing_run (fun (seed, spec) ->
      QCheck.assume (Result.is_ok (Faults.legal ~n:8 ~t:3 spec));
      let r = run_with_faults name ~seed spec in
      if r.Protocol.rp_violations <> [] then
        QCheck.Test.fail_reportf "safety: %s"
          (String.concat "; " r.Protocol.rp_violations)
      else if not (Check.verdict_ok r.Protocol.rp_verdict) then
        QCheck.Test.fail_reportf "liveness: %s"
          (String.concat "; " r.Protocol.rp_verdict.Check.notes)
      else true)

let differential_tests =
  List.map (fun (name, _) -> qcheck_differential name) Protocol.registry

(* --- chaos engine sanity --- *)

let test_chaos_smoke () =
  let o =
    Option.get
      (Job.execute ~jobs:2
         (Job.of_flags ~kind:`Chaos ~protocols:[ "kset" ]
            ~mixes:[ "none"; "drop"; "stalls" ] ~seeds:1 ~protocol:"" Protocol.default))
        .Job.o_chaos
  in
  check "all runs executed" true (o.Chaos.o_runs = 3);
  check "no safety violations" true (o.Chaos.o_safety = 0);
  check "no liveness failures" true (o.Chaos.o_liveness = 0);
  check "no failure records" true (o.Chaos.o_failures = [])

let test_chaos_failure_json_roundtrip () =
  (* Fabricate a failure record via the illegal-spec path and round-trip
     it through the artifact JSON shape. *)
  let spec =
    {
      Faults.none with
      Faults.crashes = Crash.Explicit [ (0, 1.0); (1, 2.0); (2, 3.0); (3, 4.0) ];
    }
  in
  match Chaos.minimize_illegal ~n:8 ~t:3 spec with
  | None -> Alcotest.fail "expected illegal"
  | Some _ ->
      check "reproduce rejects legal spec as not-illegal" true
        (Chaos.minimize_illegal ~n:8 ~t:3 Faults.none = None)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]) in
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "heal_time & summary" `Quick test_heal_time;
          Alcotest.test_case "send_plan none = pass" `Quick test_send_plan_none_is_pass;
          Alcotest.test_case "partition parks" `Quick test_send_plan_partition_parks;
          Alcotest.test_case "link faults" `Quick test_send_plan_link_faults;
          Alcotest.test_case "send_plan deterministic" `Quick
            test_send_plan_deterministic;
        ] );
      ( "json",
        List.map qt
          [ qcheck_json_roundtrip; qcheck_json_text_roundtrip; qcheck_elements_roundtrip ] );
      ("legal", [ Alcotest.test_case "legality checks" `Quick test_legal ]);
      ( "minimize",
        [
          Alcotest.test_case "ddmin minimizes" `Quick test_ddmin_minimizes;
          Alcotest.test_case "illegal spec minimized" `Quick test_minimize_illegal;
        ] );
      ( "adaptive-timeout",
        [
          Alcotest.test_case "stall then re-trust" `Quick test_stall_then_retrust;
          Alcotest.test_case "backoff capped" `Quick test_timeout_backoff_capped;
          Alcotest.test_case "jitter rng insulated (byte-identical run)" `Quick
            test_timeout_rng_insulated;
        ] );
      ( "integration",
        [
          Alcotest.test_case "partition heals, kset decides" `Quick
            test_partition_heal_kset_decides;
          Alcotest.test_case "stalled process, kset decides" `Quick
            test_stall_spec_kset_decides;
        ] );
      ("differential", List.map qt differential_tests);
      ( "chaos",
        [
          Alcotest.test_case "smoke campaign clean" `Quick test_chaos_smoke;
          Alcotest.test_case "failure json" `Quick test_chaos_failure_json_roundtrip;
        ] );
    ]
