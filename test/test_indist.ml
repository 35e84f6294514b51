(* Tests for the executable impossibility scenarios (paper §5): every
   scenario must confirm its theorem's prediction, and the misuse kset
   runs must separate k < z from k >= z cleanly. *)

open Setagree_core

let check = Alcotest.(check bool)

let assert_confirmed (r : Indist.report) =
  if not r.ok then
    Alcotest.failf "%s NOT confirmed: %s" r.title (String.concat "; " r.details)

let test_o1_phi_blind () =
  List.iter
    (fun (y, crashes, seed) ->
      assert_confirmed (Indist.phi_blind_to_victims ~n:8 ~t:3 ~y ~crashes ~seed))
    [ (1, 2, 1); (1, 1, 2); (2, 1, 3); (0, 3, 4) ]

let test_o1_misuse_flagged () =
  let r = Indist.phi_blind_to_victims ~n:8 ~t:3 ~y:3 ~crashes:2 ~seed:1 in
  check "crashes > t - y rejected" false r.ok

let test_omega_blind () =
  List.iter
    (fun (z, seed) -> assert_confirmed (Indist.omega_blind_to_crashes ~n:7 ~t:3 ~z ~seed))
    [ (1, 1); (2, 2); (3, 3) ]

let test_thm10_pairs () =
  List.iter
    (fun (x, y, seed) -> assert_confirmed (Indist.thm10_pair ~n:7 ~t:3 ~x ~y ~seed ()))
    [ (4, 1, 1); (3, 2, 2); (7, 1, 3) ]

let test_thm12_pairs () =
  List.iter
    (fun (z, y, seed) -> assert_confirmed (Indist.thm12_pair ~n:8 ~t:3 ~z ~y ~seed))
    [ (1, 1, 1); (2, 1, 2); (1, 2, 3); (2, 3, 4) ]

let test_thm12_bad_params () =
  let r = Indist.thm12_pair ~n:4 ~t:3 ~z:3 ~y:1 ~seed:1 in
  check "E and L overlap rejected" false r.ok

let test_thm10_bad_params () =
  (* y = 0 means |E| = t + 1 > t: the construction does not apply. *)
  let r = Indist.thm10_pair ~n:7 ~t:3 ~x:4 ~y:0 ~seed:1 () in
  check "rejected" false r.ok

(* Theorem 5's tightness through the registry: kset with the misuse
   wiring (a constant Omega_z over z live processes, By_pid tie-break),
   no crashes, horizon 400, seeds 1-25.  Returns the most distinct values
   any seed decided. *)
let worst_distinct ~z ~k =
  let pk = Option.get (Protocol.find "kset") in
  List.fold_left
    (fun acc seed ->
      let r =
        Protocol.run pk
          {
            Protocol.default with
            Protocol.n = 7;
            t = 2;
            z;
            k;
            seed;
            adversarial = true;
            crashes = Setagree_dsys.Crash.No_crashes;
            horizon = 400.0;
          }
      in
      max acc
        (Indist.distinct_decisions
           (Setagree_dsys.Trace.decisions (Setagree_dsys.Sim.trace r.Protocol.rp_sim))))
    0
    (List.init 25 (fun i -> i + 1))

let test_violation_when_k_below_z () =
  List.iter
    (fun (z, k) ->
      let worst = worst_distinct ~z ~k in
      if worst <= k then
        Alcotest.failf "Omega_%d, k = %d: no seed decided more than k values" z k)
    [ (2, 1); (3, 2); (3, 1) ]

let test_no_violation_when_k_geq_z () =
  List.iter
    (fun (z, k) ->
      let worst = worst_distinct ~z ~k in
      if worst > k then
        Alcotest.failf "Omega_%d, k = %d: a seed decided %d > k values" z k worst)
    [ (1, 1); (2, 2); (2, 3); (3, 3) ]

let test_distinct_decisions_helper () =
  Alcotest.(check int) "distinct" 2
    (Indist.distinct_decisions [ (0, 5, 1, 0.0); (1, 5, 1, 0.0); (2, 7, 2, 1.0) ]);
  Alcotest.(check int) "empty" 0 (Indist.distinct_decisions [])

let test_reports_printable () =
  let r = Indist.phi_blind_to_victims ~n:8 ~t:3 ~y:1 ~crashes:2 ~seed:9 in
  let s = Format.asprintf "%a" Indist.pp_report r in
  check "non-empty rendering" true (String.length s > 20)

let () =
  Alcotest.run "indist"
    [
      ( "information-caps",
        [
          Alcotest.test_case "O1: phi blind to victims" `Quick test_o1_phi_blind;
          Alcotest.test_case "O1 misuse flagged" `Quick test_o1_misuse_flagged;
          Alcotest.test_case "omega blind to crashes" `Quick test_omega_blind;
        ] );
      ( "theorem-10",
        [
          Alcotest.test_case "pair runs" `Quick test_thm10_pairs;
          Alcotest.test_case "bad params" `Quick test_thm10_bad_params;
        ] );
      ( "theorem-12",
        [
          Alcotest.test_case "pair runs" `Quick test_thm12_pairs;
          Alcotest.test_case "bad params" `Quick test_thm12_bad_params;
        ] );
      ( "theorem-5-tightness",
        [
          Alcotest.test_case "k < z violates" `Quick test_violation_when_k_below_z;
          Alcotest.test_case "k >= z never violates" `Quick test_no_violation_when_k_geq_z;
          Alcotest.test_case "distinct helper" `Quick test_distinct_decisions_helper;
          Alcotest.test_case "printable" `Quick test_reports_printable;
        ] );
    ]
