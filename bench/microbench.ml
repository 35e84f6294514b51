(* Bechamel micro-benchmarks of the computational kernels (B1-B6 in
   DESIGN.md §4): ring arithmetic, subset unranking, event-queue churn,
   pidset algebra, one reliable broadcast, and one full consensus instance
   on the simulator. *)

open Bechamel
open Toolkit
open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd
open Setagree_core

let b_ring_next =
  let ring = Ring.Lower.create ~n:10 ~x:4 in
  Test.make ~name:"ring.lower next+decode"
    (Staged.stage (fun () ->
         let p = ref (Ring.Lower.start ring) in
         for _ = 1 to 100 do
           p := Ring.Lower.next ring !p;
           ignore (Ring.Lower.decode ring !p)
         done))

let b_combi_unrank =
  Test.make ~name:"combi.unrank C(20,10)"
    (Staged.stage (fun () ->
         for r = 0 to 99 do
           ignore (Combi.unrank ~n:20 ~size:10 (r * 1847))
         done))

let b_earena =
  Test.make ~name:"earena add/pop x100 (steady state)"
    (Staged.stage
       (let a = Earena.create ~initial:128 () in
        fun () ->
          for i = 0 to 99 do
            Earena.add a ~time:(float_of_int ((i * 7919) mod 100)) ~kind:0 ~arg:i
          done;
          while not (Earena.is_empty a) do
            ignore (Earena.pop a)
          done))

let b_pidset =
  Test.make ~name:"pidset algebra x100"
    (Staged.stage (fun () ->
         let a = Pidset.of_list [ 0; 2; 4; 6; 8 ] in
         let b = Pidset.of_list [ 1; 2; 3; 4 ] in
         for _ = 1 to 100 do
           ignore (Pidset.cardinal (Pidset.diff (Pidset.union a b) (Pidset.inter a b)))
         done))

let b_rbcast =
  Test.make ~name:"rbcast broadcast (n=8, full run)"
    (Staged.stage (fun () ->
         let sim = Sim.create ~n:8 ~t:3 ~seed:1 () in
         let rb : int Rbcast.t = Rbcast.create sim () in
         Rbcast.broadcast rb ~src:0 42;
         ignore (Sim.run sim)))

let b_consensus =
  Test.make ~name:"consensus instance (n=8, perfect oracle)"
    (Staged.stage (fun () ->
         let sim = Sim.create ~horizon:100.0 ~n:8 ~t:3 ~seed:1 () in
         let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:Behavior.perfect () in
         let proposals = Array.init 8 (fun i -> i) in
         let h = Kset.install sim ~omega ~proposals () in
         ignore (Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim)))

let tests =
  Test.make_grouped ~name:"micro"
    [ b_ring_next; b_combi_unrank; b_earena; b_pidset; b_rbcast; b_consensus ]

let run () =
  print_newline ();
  print_endline "Microbenchmarks (Bechamel, monotonic clock)";
  print_endline "===========================================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.merge ols instances (List.map (fun i -> Analyze.all ols i raw) instances)
  in
  Hashtbl.iter
    (fun measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-45s %12.1f %s/run\n" name est measure
          | _ -> Printf.printf "%-45s %12s\n" name "n/a")
        rows)
    results
