(* The paper's headline example (its Figure 2, instantiated).

   Fix t = 3.  Then:
   - ◇S_t = ◇S_3 alone can solve 2-set agreement but NOT consensus
     (it only yields Ω_2);
   - ◇φ_1 alone can solve t-set = 3-set agreement but NOT 2-set
     (it only yields Ω_3);
   - added together through the two-wheels transformation they yield
     Ω_1 = Ω (x + y + z = 3 + 1 + 1 >= t + 2), which solves consensus.

   This demo runs all three constructions in separate simulations with the
   same crash pattern and reports what each achieves.

   Run with:  dune exec examples/additivity_demo.exe *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core

let n = 8
let t = 3
let gst = 35.0
let horizon = 400.0

let fresh_sim ~seed =
  let sim = Sim.create ~horizon ~n ~t ~seed () in
  Sim.install_crashes sim [ (6, 5.0); (7, 12.0) ];
  sim

let certify sim omega ~z =
  let mon =
    Monitor.watch sim ~every:0.5 ~read:(fun i -> omega.Iface.trusted i) ()
  in
  let _ = Sim.run sim in
  Check.omega_z sim ~z ~deadline:(horizon -. 80.0) mon

let () =
  Printf.printf "n = %d processes, t = %d, crashes: p7@5 p8@12, oracles stabilize at %.0f\n\n"
    n t gst;

  (* 1. ◇S_3 alone (wheels with y = 0): reaches Ω_2, certified; and the
     same history is NOT an Ω_1. *)
  let sim1 = fresh_sim ~seed:1 in
  let suspector, _ = Oracle.es_x sim1 ~x:t ~behavior:(Behavior.stormy ~gst) () in
  let w1 = Reduce.omega_from_es sim1 ~suspector ~x:t () in
  let omega1 = Wheels.omega w1 in
  let mon1 = Monitor.watch sim1 ~every:0.5 ~read:(fun i -> omega1.Iface.trusted i) () in
  let _ = Sim.run sim1 in
  let v_z2 = Check.omega_z sim1 ~z:2 ~deadline:(horizon -. 80.0) mon1 in
  let v_z1 = Check.omega_z sim1 ~z:1 ~deadline:(horizon -. 80.0) mon1 in
  Printf.printf "◇S_%d alone      -> Omega_2: %s   (as Omega_1: %s)\n" t
    (Format.asprintf "%a" Check.pp_verdict v_z2)
    (if Check.verdict_ok v_z1 then "unexpectedly OK" else "FAIL, as the theory says");

  (* 2. ◇φ_1 alone (wheels with x = 1): reaches Ω_3 only. *)
  let sim2 = fresh_sim ~seed:2 in
  let querier, _ = Oracle.ephi_y sim2 ~y:1 ~behavior:(Behavior.stormy ~gst) () in
  let w2 = Reduce.omega_from_phi sim2 ~querier ~y:1 () in
  let v2 = certify sim2 (Wheels.omega w2) ~z:3 in
  Printf.printf "◇φ_1 alone      -> Omega_3: %s\n" (Format.asprintf "%a" Check.pp_verdict v2);

  (* 3. The addition: ◇S_3 + ◇φ_1 -> Ω_1, then consensus on top. *)
  let sim3 = fresh_sim ~seed:3 in
  let behavior = Behavior.stormy ~gst in
  let suspector3, _ = Oracle.es_x sim3 ~x:t ~behavior () in
  let querier3, _ = Oracle.ephi_y sim3 ~y:1 ~behavior () in
  let w3 = Wheels.install sim3 ~suspector:suspector3 ~querier:querier3 ~x:t ~y:1 () in
  Printf.printf "\n◇S_%d + ◇φ_1    -> claims Omega_%d (z = t + 2 - x - y = %d)\n" t
    (Wheels.z w3) (Wheels.z w3);
  let proposals = Array.init n (fun i -> 500 + i) in
  (* Consensus is Figure 3 over an Omega_1 input. *)
  let c = Kset.install sim3 ~omega:(Wheels.omega w3) ~proposals () in
  let _ = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided c) sim3 in
  List.iter
    (fun (pid, value, round, time) ->
      Printf.printf "  %s decided %d (round %d, t=%.1f)\n" (Pid.to_string pid) value round
        time)
    (Kset.decisions c);
  let values = List.sort_uniq Int.compare (List.map (fun (_, v, _, _) -> v) (Kset.decisions c)) in
  Printf.printf "agreement on a single value: %b\n" (List.length values <= 1);
  Printf.printf
    "\nSo two detector classes, each individually too weak for consensus,\n\
     add up to exactly the consensus power — the paper's additivity result.\n"
