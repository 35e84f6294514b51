(* Tests for the failure-detector oracles and the class checkers: each
   oracle's history must be accepted by its class checker (across seeds,
   behaviours and crash patterns), the checkers must reject histories that
   genuinely violate the class, and the query-class semantics (triviality /
   safety / liveness windows) must hold pointwise. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd

let check = Alcotest.(check bool)

let gst = 30.0
let horizon = 120.0
let deadline = 80.0

let mk ?(n = 7) ?(t = 3) ~seed () = Sim.create ~horizon ~n ~t ~seed ()

let with_crashes sim ~crashes =
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 20.0) }) ~n:(Sim.n sim)
       ~t:(Sim.t_bound sim) rng)

let run_watching sim read =
  let mon = Monitor.watch sim ~every:0.5 ~read () in
  Sim.ticker sim ~every:0.5;
  ignore (Sim.run sim);
  mon

(* --- suspector classes --- *)

let test_es_x_membership () =
  List.iter
    (fun (seed, x, crashes, behavior) ->
      let sim = mk ~seed () in
      with_crashes sim ~crashes;
      let fd, _info = Oracle.es_x sim ~x ~behavior () in
      let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
      let v = Check.es_x sim ~x ~deadline mon in
      if not (Check.verdict_ok v) then
        Alcotest.failf "seed=%d x=%d crashes=%d: %s" seed x crashes
          (String.concat "; " v.notes))
    [
      (1, 2, 2, Behavior.stormy ~gst);
      (2, 3, 3, Behavior.stormy ~gst);
      (3, 4, 1, Behavior.calm ~gst);
      (4, 7, 0, Behavior.stormy ~gst);
      (5, 1, 3, Behavior.stormy ~gst);
      (6, 2, 2, Behavior.make ~noise:0.5 ~slander:0.4 ~gst ());
    ]

let test_es_x_is_weaker_grid () =
  (* A ◇S_x history is also a legal ◇S_{x'} history for x' <= x. *)
  let sim = mk ~seed:9 () in
  with_crashes sim ~crashes:2;
  let fd, _ = Oracle.es_x sim ~x:4 ~behavior:(Behavior.stormy ~gst) () in
  let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
  List.iter
    (fun x' ->
      check (Printf.sprintf "scope %d" x') true
        (Check.verdict_ok (Check.es_x sim ~x:x' ~deadline mon)))
    [ 1; 2; 3; 4 ]

let test_s_x_membership () =
  List.iter
    (fun (seed, x, crashes) ->
      let sim = mk ~seed () in
      with_crashes sim ~crashes;
      let fd, _ = Oracle.s_x sim ~x ~behavior:(Behavior.stormy ~gst) () in
      let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
      let v = Check.s_x sim ~x ~deadline mon in
      if not (Check.verdict_ok v) then
        Alcotest.failf "seed=%d x=%d: %s" seed x (String.concat "; " v.notes))
    [ (11, 2, 2); (12, 3, 3); (13, 5, 1) ]

let test_perfect_p () =
  let sim = mk ~seed:21 () in
  with_crashes sim ~crashes:3;
  let fd = Oracle.perfect_p sim in
  let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
  (* P = completeness + perpetual strong accuracy: nobody ever suspects a
     live process; in particular it is an S_n history. *)
  check "completeness" true (Check.verdict_ok (Check.strong_completeness sim ~deadline mon));
  check "S_n accuracy" true (Check.verdict_ok (Check.s_x sim ~x:(Sim.n sim) ~deadline mon))

let test_eventually_p () =
  let sim = mk ~seed:22 () in
  with_crashes sim ~crashes:2;
  let fd = Oracle.eventually_p sim ~behavior:(Behavior.stormy ~gst) () in
  let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
  check "◇P ⊆ ◇S_n" true (Check.verdict_ok (Check.es_x sim ~x:(Sim.n sim) ~deadline mon))

let test_crashed_reader_suspects_nobody () =
  let sim = mk ~seed:23 () in
  Sim.install_crashes sim [ (2, 10.0) ];
  let fd, _ = Oracle.es_x sim ~x:3 ~behavior:(Behavior.stormy ~gst) () in
  Sim.ticker sim ~every:1.0;
  ignore (Sim.run ~stop_when:(fun () -> Sim.now sim > 50.0) sim);
  check "dead module outputs empty" true (Pidset.is_empty (fd.Iface.suspected 2))

let test_checker_rejects_incompleteness () =
  (* A suspector that never suspects anyone fails completeness as soon as
     someone crashes. *)
  let sim = mk ~seed:24 () in
  Sim.install_crashes sim [ (1, 5.0) ];
  let mon = run_watching sim (fun _ -> Pidset.empty) in
  check "incomplete rejected" false
    (Check.verdict_ok (Check.strong_completeness sim ~deadline mon))

let test_checker_rejects_bad_accuracy () =
  (* Everybody suspects every correct process forever: no protected leader
     exists for any x >= 1 (self-inclusion breaks it too). *)
  let sim = mk ~seed:25 () in
  let all = Pidset.full ~n:(Sim.n sim) in
  let mon = run_watching sim (fun _ -> all) in
  check "no accuracy" false
    (Check.verdict_ok (Check.limited_scope_accuracy sim ~x:2 ~from:0.0 mon))

let test_accuracy_scope_threshold () =
  (* Exactly 3 processes (incl. the leader) protect p0; accuracy holds for
     x <= 3 and fails for x = 4. *)
  let sim = mk ~seed:26 () in
  let protectors = Pidset.of_list [ 0; 1; 2 ] in
  let everyone = Pidset.full ~n:7 in
  (* Protectors suspect everyone but p0 (and themselves); the rest suspect
     everyone (but themselves).  Only p0 has protectors, exactly three. *)
  let read i =
    let base = Pidset.remove i everyone in
    if Pidset.mem i protectors then Pidset.remove 0 base else base
  in
  let mon = run_watching sim read in
  check "x=3 ok" true
    (Check.verdict_ok (Check.limited_scope_accuracy sim ~x:3 ~from:0.0 mon));
  check "x=4 fails" false
    (Check.verdict_ok (Check.limited_scope_accuracy sim ~x:4 ~from:0.0 mon))

(* --- leader classes --- *)

let test_omega_z_membership () =
  List.iter
    (fun (seed, z, crashes) ->
      let sim = mk ~seed () in
      with_crashes sim ~crashes;
      let fd, final = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst) () in
      let mon = run_watching sim (fun i -> fd.Iface.trusted i) in
      let v = Check.omega_z sim ~z ~deadline mon in
      if not (Check.verdict_ok v) then
        Alcotest.failf "seed=%d z=%d: %s" seed z (String.concat "; " v.notes);
      check "final has a correct member" true
        (not (Pidset.is_empty (Pidset.inter final (Sim.correct_set sim)))))
    [ (31, 1, 3); (32, 2, 2); (33, 3, 0); (34, 4, 3) ]

let test_omega_weaker_with_larger_z () =
  (* An Ω_z history is a legal Ω_{z'} history for z' >= z. *)
  let sim = mk ~seed:35 () in
  with_crashes sim ~crashes:2;
  let fd, _ = Oracle.omega_z sim ~z:2 ~behavior:(Behavior.stormy ~gst) () in
  let mon = run_watching sim (fun i -> fd.Iface.trusted i) in
  check "z=2 ok" true (Check.verdict_ok (Check.omega_z sim ~z:2 ~deadline mon));
  check "z=3 ok" true (Check.verdict_ok (Check.omega_z sim ~z:3 ~deadline mon));
  (* And can fail for smaller z if the final set is bigger. *)
  let final_size =
    match Monitor.final mon 0 with Some s -> Pidset.cardinal s | None -> 0
  in
  if final_size = 2 then
    check "z=1 fails on size" false (Check.verdict_ok (Check.omega_z sim ~z:1 ~deadline mon))

let test_omega_checker_rejects_disagreement () =
  let sim = mk ~seed:36 () in
  let mon = run_watching sim (fun i -> Pidset.singleton i) in
  check "divergent leaders rejected" false
    (Check.verdict_ok (Check.omega_z sim ~z:1 ~deadline mon))

let test_omega_checker_rejects_dead_leader () =
  let sim = mk ~seed:37 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let mon = run_watching sim (fun _ -> Pidset.singleton 0) in
  check "all-crashed trusted set rejected" false
    (Check.verdict_ok (Check.omega_z sim ~z:1 ~deadline mon))

let test_omega_checker_rejects_late_instability () =
  let sim = mk ~seed:38 () in
  (* Flips between two singletons forever: never stabilizes. *)
  let read _ =
    if int_of_float (Sim.now sim) mod 2 = 0 then Pidset.singleton 0 else Pidset.singleton 1
  in
  let mon = run_watching sim read in
  check "instability rejected" false (Check.verdict_ok (Check.omega_z sim ~z:1 ~deadline mon))

(* --- query classes --- *)

let query_all_sizes sim (q : Iface.querier) =
  (* Issue queries of every size from one correct observer. *)
  let n = Sim.n sim in
  let obs = Pidset.min_elt (Sim.correct_set sim) in
  Sim.spawn sim ~pid:obs (fun () ->
      while true do
        for size = 0 to n do
          ignore (q.Iface.query obs (Combi.unrank ~n ~size 0));
          ignore (q.Iface.query obs (Combi.unrank ~n ~size (Combi.binomial n size - 1)))
        done;
        Sim.sleep 1.0
      done)

let test_phi_y_membership () =
  List.iter
    (fun (seed, y, crashes, eventual) ->
      let sim = mk ~seed () in
      with_crashes sim ~crashes;
      let behavior = Behavior.stormy ~gst in
      let q, log =
        if eventual then Oracle.ephi_y sim ~y ~behavior ()
        else Oracle.phi_y sim ~y ~behavior ()
      in
      query_all_sizes sim q;
      Sim.ticker sim ~every:1.0;
      ignore (Sim.run sim);
      let v = Check.phi_y sim ~y ~eventual ~deadline log in
      if not (Check.verdict_ok v) then
        Alcotest.failf "seed=%d y=%d eventual=%b: %s" seed y eventual
          (String.concat "; " (List.filteri (fun i _ -> i < 3) v.notes)))
    [
      (41, 1, 2, false);
      (42, 2, 3, false);
      (43, 3, 3, false);
      (44, 1, 2, true);
      (45, 2, 0, true);
      (46, 3, 3, true);
    ]

let test_phi_triviality_pointwise () =
  let sim = mk ~seed:47 () in
  let t = Sim.t_bound sim in
  let y = 2 in
  let q, _ = Oracle.phi_y sim ~y ~behavior:(Behavior.stormy ~gst) () in
  (* Small sets: always true; big sets: always false — at any time, any
     noise. *)
  let small = Combi.unrank ~n:7 ~size:(t - y) 5 in
  let big = Combi.unrank ~n:7 ~size:(t + 1) 3 in
  check "small true" true (q.Iface.query 0 small);
  check "big false" false (q.Iface.query 0 big)

let test_phi_perpetual_safety_pointwise () =
  (* φ (perpetual): a meaningful-window query on a region with a live member
     is false even before gst, under heavy noise. *)
  let sim = mk ~seed:48 () in
  with_crashes sim ~crashes:2;
  let q, _ =
    Oracle.phi_y sim ~y:2 ~behavior:(Behavior.make ~noise:0.9 ~gst ()) ()
  in
  let live = Pidset.min_elt (Sim.correct_set sim) in
  let region = Pidset.add live (Pidset.random (Rng.create 5) ~n:7 ~size:1) in
  let region = if Pidset.cardinal region = 2 then region else Pidset.of_list [ live; (live + 1) mod 7 ] in
  check "never true on live region" false (q.Iface.query 0 region)

let test_ephi_can_lie_pre_gst () =
  (* ◇φ with noise 1.0: pre-gst every meaningful answer is flipped, so a
     live region is reported dead — legal for the eventual class, detected
     as a violation by the perpetual checker. *)
  let sim = mk ~seed:49 () in
  let q, log = Oracle.ephi_y sim ~y:2 ~behavior:(Behavior.make ~noise:1.0 ~gst ()) () in
  let region = Combi.unrank ~n:7 ~size:2 0 in
  let lied = q.Iface.query 0 region in
  check "pre-gst lie" true lied;
  let v_perp = Check.phi_y sim ~y:2 ~eventual:false ~deadline:0.0 log in
  check "perpetual checker flags it" false (Check.verdict_ok v_perp);
  let v_ev = Check.phi_y sim ~y:2 ~eventual:true ~deadline log in
  check "eventual checker accepts it" true (Check.verdict_ok v_ev)

let test_phi_liveness_post_gst () =
  let sim = mk ~seed:50 () in
  Sim.install_crashes sim [ (5, 2.0); (6, 3.0) ];
  let q, _ = Oracle.phi_y sim ~y:2 ~behavior:(Behavior.stormy ~gst) () in
  let dead = Pidset.of_list [ 5; 6 ] in
  Sim.ticker sim ~every:1.0;
  ignore (Sim.run ~stop_when:(fun () -> Sim.now sim >= gst +. 1.0) sim);
  check "dead region certified after gst" true (q.Iface.query 0 dead)

let test_psi_containment_enforced () =
  let sim = mk ~seed:51 () in
  let q, _ = Oracle.psi_y sim ~y:2 ~behavior:(Behavior.calm ~gst) () in
  let a = Pidset.of_list [ 0; 1 ] in
  let b = Pidset.of_list [ 0; 1; 2 ] in
  let c = Pidset.of_list [ 3; 4 ] in
  ignore (q.Iface.query 0 a);
  ignore (q.Iface.query 0 b);
  (* nested: fine *)
  check "incomparable raises" true
    (try
       ignore (q.Iface.query 0 c);
       false
     with Oracle.Psi_containment_violation _ -> true)

let test_psi_repeat_query_ok () =
  let sim = mk ~seed:52 () in
  let q, _ = Oracle.psi_y sim ~y:2 ~behavior:(Behavior.calm ~gst) () in
  let a = Pidset.of_list [ 0; 1 ] in
  ignore (q.Iface.query 0 a);
  ignore (q.Iface.query 1 a);
  check "same set repeatable" true true

let test_no_info_modules () =
  let q = Iface.no_query_info ~t:3 in
  check "small true" true (q.Iface.query 0 (Pidset.of_list [ 0; 1; 2 ]));
  check "big false" false (q.Iface.query 0 (Pidset.of_list [ 0; 1; 2; 3 ]));
  check "no suspicion" true (Pidset.is_empty (Iface.no_suspicion.Iface.suspected 0))

(* --- determinism of oracles --- *)

let test_oracle_determinism () =
  let observe () =
    let sim = mk ~seed:61 () in
    with_crashes sim ~crashes:2;
    let fd, _ = Oracle.es_x sim ~x:3 ~behavior:(Behavior.stormy ~gst) () in
    let mon = run_watching sim (fun i -> fd.Iface.suspected i) in
    List.map (fun i -> Monitor.series mon i) (List.init 7 Fun.id)
  in
  check "replay identical" true (observe () = observe ())

(* --- monitor mechanics --- *)

let test_monitor_records_changes_only () =
  let sim = mk ~seed:62 () in
  let v = ref Pidset.empty in
  Sim.schedule sim ~delay:10.0 (fun () -> v := Pidset.singleton 1);
  let mon = run_watching sim (fun _ -> !v) in
  Alcotest.(check int) "two change points" 2 (List.length (Monitor.series mon 0));
  (match Monitor.value_in_effect mon 0 ~at:5.0 with
  | Some s -> check "early value" true (Pidset.is_empty s)
  | None -> Alcotest.fail "no early value");
  (match Monitor.final mon 0 with
  | Some s -> check "final value" true (Pidset.equal s (Pidset.singleton 1))
  | None -> Alcotest.fail "no final");
  check "last change around 10" true
    (match Monitor.last_change mon 0 with Some tc -> tc >= 10.0 && tc < 11.0 | None -> false)

let test_monitor_values_after () =
  let sim = mk ~seed:63 () in
  let v = ref (Pidset.singleton 0) in
  Sim.schedule sim ~delay:10.0 (fun () -> v := Pidset.singleton 1);
  Sim.schedule sim ~delay:20.0 (fun () -> v := Pidset.singleton 2);
  let mon = run_watching sim (fun _ -> !v) in
  let after_15 = Monitor.values_after mon 0 ~from:15.0 in
  Alcotest.(check int) "value in effect + later change" 2 (List.length after_15)

(* --- parameter validation --- *)

let test_oracle_param_validation () =
  let sim = mk ~seed:65 () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check "es_x x=0" true (raises (fun () -> ignore (Oracle.es_x sim ~x:0 ())));
  check "es_x x=n+1" true (raises (fun () -> ignore (Oracle.es_x sim ~x:8 ())));
  check "omega_z z=0" true (raises (fun () -> ignore (Oracle.omega_z sim ~z:0 ())));
  check "phi_y y=-1" true (raises (fun () -> ignore (Oracle.phi_y sim ~y:(-1) ())));
  check "phi_y y=t+1" true (raises (fun () -> ignore (Oracle.phi_y sim ~y:4 ())));
  let hb = Impl.install sim () in
  check "impl omega z=0" true (raises (fun () -> ignore (Impl.omega hb ~z:0)));
  check "impl querier y=t+1" true (raises (fun () -> ignore (Impl.querier hb ~y:4)))

let test_oracle_requires_correct_process () =
  (* An oracle created in a run where everybody is scheduled to crash has no
     leader to protect. *)
  let sim = Sim.create ~horizon:100.0 ~n:2 ~t:1 ~seed:66 () in
  Sim.install_crashes sim [ (0, 1.0) ];
  (* p1 correct: fine. *)
  let _ = Oracle.es_x sim ~x:1 () in
  check "ok with one correct" true true

let () =
  Alcotest.run "fd"
    [
      ( "suspectors",
        [
          Alcotest.test_case "◇S_x membership" `Quick test_es_x_membership;
          Alcotest.test_case "◇S_x downward grid" `Quick test_es_x_is_weaker_grid;
          Alcotest.test_case "S_x membership" `Quick test_s_x_membership;
          Alcotest.test_case "P" `Quick test_perfect_p;
          Alcotest.test_case "◇P" `Quick test_eventually_p;
          Alcotest.test_case "dead module silent" `Quick test_crashed_reader_suspects_nobody;
          Alcotest.test_case "rejects incompleteness" `Quick test_checker_rejects_incompleteness;
          Alcotest.test_case "rejects bad accuracy" `Quick test_checker_rejects_bad_accuracy;
          Alcotest.test_case "scope threshold" `Quick test_accuracy_scope_threshold;
        ] );
      ( "leaders",
        [
          Alcotest.test_case "Ω_z membership" `Quick test_omega_z_membership;
          Alcotest.test_case "Ω_z upward grid" `Quick test_omega_weaker_with_larger_z;
          Alcotest.test_case "rejects disagreement" `Quick test_omega_checker_rejects_disagreement;
          Alcotest.test_case "rejects dead leader" `Quick test_omega_checker_rejects_dead_leader;
          Alcotest.test_case "rejects instability" `Quick test_omega_checker_rejects_late_instability;
        ] );
      ( "queries",
        [
          Alcotest.test_case "φ_y / ◇φ_y membership" `Quick test_phi_y_membership;
          Alcotest.test_case "triviality pointwise" `Quick test_phi_triviality_pointwise;
          Alcotest.test_case "perpetual safety" `Quick test_phi_perpetual_safety_pointwise;
          Alcotest.test_case "◇φ lies pre-gst" `Quick test_ephi_can_lie_pre_gst;
          Alcotest.test_case "liveness post-gst" `Quick test_phi_liveness_post_gst;
          Alcotest.test_case "Ψ containment" `Quick test_psi_containment_enforced;
          Alcotest.test_case "Ψ repeat ok" `Quick test_psi_repeat_query_ok;
          Alcotest.test_case "no-info modules" `Quick test_no_info_modules;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "oracle determinism" `Quick test_oracle_determinism;
          Alcotest.test_case "monitor change points" `Quick test_monitor_records_changes_only;
          Alcotest.test_case "monitor values_after" `Quick test_monitor_values_after;
          Alcotest.test_case "param validation" `Quick test_oracle_param_validation;
          Alcotest.test_case "one correct suffices" `Quick test_oracle_requires_correct_process;
        ] );
    ]
