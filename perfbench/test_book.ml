(* The benchmark's own bookkeeping: the tail-percentile rule, failure
   accounting, the seeded serve request plan, span self-time, and the
   comparison verdicts. *)

let floats = Alcotest.(list (float 1e-9))
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let tail n = Book.tail_percentile n in
  Alcotest.(check (option (float 0.))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (float 0.))) "40 samples: p75" (Some 75.) (tail 40);
  Alcotest.(check (option (float 0.))) "99 samples: p75" (Some 75.) (tail 99);
  Alcotest.(check (option (float 0.))) "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "199 samples: p90" (Some 90.) (tail 199);
  Alcotest.(check (option (float 0.))) "200 samples: p95" (Some 95.) (tail 200);
  Alcotest.(check (option (float 0.))) "1000 samples: p99" (Some 99.) (tail 1000);
  (* Nearest rank: exactly ten samples lie beyond p90 of 100. *)
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Book.percentile (List.rev (range 100)) 90.);
  Alcotest.(check int) "beyond p90 of 100" 10 (Book.beyond ~n:100 90.);
  Alcotest.(check int) "beyond p95 of 200" 10 (Book.beyond ~n:200 95.);
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (Book.percentile (range 10) 50.);
  let s = Book.summarize ~unit_:"ms" (range 100) in
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "summary tail" (Some (90., 90.)) s.Book.tail;
  Alcotest.(check int) "summary samples" 100 s.Book.samples

let test_quartiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Book.quartiles (Book.sorted (range 10)) in
  Alcotest.check floats "1..10" [ 2.75; 8.25 ] [ q1; q3 ];
  let q1, q3 = Book.quartiles (Book.sorted (range 4)) in
  Alcotest.check floats "1..4" [ 1.25; 3.75 ] [ q1; q3 ];
  Alcotest.(check (float 1e-9)) "median of 4" 2.5 (Book.median (Book.sorted (range 4)))

let test_fail_ratio () =
  let t = Book.tally () in
  Alcotest.(check (float 0.)) "nothing attempted counts as failed" 1. (Book.fail_ratio t);
  Book.count t true;
  Book.count t true;
  Book.count t ~reason:"refused: queue full" false;
  Book.count t true;
  Book.fail t "run deadline exceeded";
  Alcotest.(check int) "attempted" 5 t.Book.attempted;
  Alcotest.(check int) "failed" 2 t.Book.failed;
  Alcotest.(check (float 1e-12)) "ratio" 0.4 (Book.fail_ratio t);
  Alcotest.(check (list string)) "reasons" [ "refused: queue full"; "run deadline exceeded" ] t.Book.reasons

let test_plan () =
  let mk seed = Book.plan ~seed ~clients:2 ~pool:8 ~per_client:25 in
  let batches p = List.init 4 (Book.batch p) in
  let a = mk 7 and b = mk 7 and c = mk 8 in
  (* b makes its last batch first: batches are made in order anyway. *)
  ignore (Book.batch b 3);
  Alcotest.(check bool) "same seed, same pools" true (a.Book.pools = b.Book.pools);
  Alcotest.(check bool) "same seed, same batches" true (batches a = batches b);
  Alcotest.(check bool) "other seed, other batches" false (batches a = batches c);
  let pooled = Hashtbl.create 16 in
  Array.iteri
    (fun cl p -> Array.iter (fun s ->
         Alcotest.(check bool) "pools disjoint" false (Hashtbl.mem pooled s);
         Hashtbl.replace pooled s cl) p)
    a.Book.pools;
  let misses = Hashtbl.create 256 in
  List.iter
    (Array.iteri (fun cl reqs ->
         let hits = Array.to_list reqs |> List.filter (fun r -> r.Book.planned = Book.Hit) in
         Alcotest.(check int) "half are hits" 12 (List.length hits);
         Alcotest.(check int) "requests per client" 25 (Array.length reqs);
         Array.iter
           (fun r ->
             match r.Book.planned with
             | Book.Hit ->
                 Alcotest.(check (option int)) "hit from own pool" (Some cl) (Hashtbl.find_opt pooled r.Book.kseed)
             | Book.Miss ->
                 Alcotest.(check bool) "miss never pooled" false (Hashtbl.mem pooled r.Book.kseed);
                 Alcotest.(check bool) "miss never repeated" false (Hashtbl.mem misses r.Book.kseed);
                 Hashtbl.replace misses r.Book.kseed ())
           reqs))
    (batches a);
  (* A fast run uses many batches: the plan never runs out, and seeds
     drawn outside the batches are fresh too. *)
  let many = List.concat_map (fun b -> Array.to_list (Book.batch a b)) (List.init 400 Fun.id) in
  Alcotest.(check int) "400 batches" (400 * 2) (List.length many);
  let x = Book.fresh a in
  Alcotest.(check bool) "fresh seed unused" false (Hashtbl.mem pooled x || Hashtbl.mem misses x);
  Alcotest.(check bool) "fresh seed not in later batches" false
    (Array.exists (Array.exists (fun r -> r.Book.kseed = x)) (Book.batch a 400))

let test_self_time () =
  let sp id parent t0 t1 = { Book.id; parent; name = (if parent = None then "root" else "child"); t0; t1 } in
  let root = sp 1 None 0. 10. in
  (* Overlapping children count once; a child past the end is clipped. *)
  let spans = [ root; sp 2 (Some 1) 1. 3.; sp 3 (Some 1) 2. 5.; sp 4 (Some 1) 8. 12. ] in
  Alcotest.(check (float 1e-12)) "root self" 4. (Book.self_time spans root);
  Alcotest.(check (float 1e-12)) "leaf self" 2. (Book.self_time spans (sp 2 (Some 1) 1. 3.));
  Alcotest.(check (list (pair string (float 1e-12))))
    "by name" [ ("root", 4.); ("child", 9.) ] (Book.self_by_name spans);
  let r = Book.recorder () in
  let p = Book.reserve r in
  let c = Book.add r ~parent:p ~name:"c" 1. 2. in
  ignore (Book.add r ~id:p ~name:"p" 0. 3.);
  let l = Book.spans r in
  Alcotest.(check (list int)) "ids" [ c; p ] (List.map (fun s -> s.Book.id) l);
  Alcotest.(check (float 1e-12)) "reserved parent self" 2.
    (Book.self_time l (List.find (fun s -> s.Book.id = p) l))

let test_judge () =
  let a = [ 10.; 10.1; 9.9; 10.; 10.05 ] in
  let judge b = Book.verdict_to_string (Book.judge ~bound:(Some 0.1) ~lower_is_better:true ~a_values:a ~b_values:b) in
  Alcotest.(check string) "worse" "WORSE" (judge [ 12.; 12.1; 11.9; 12.; 12. ]);
  Alcotest.(check string) "better" "better" (judge [ 8.; 8.1; 7.9; 8.; 8. ]);
  Alcotest.(check string) "same" "same" (judge [ 10.4; 10.5; 10.3; 10.4; 10.4 ]);
  Alcotest.(check string) "unresolved" "unresolved" (judge [ 5.; 20.; 10.; 15.; 7. ]);
  Alcotest.(check string) "no bound" "-"
    (Book.verdict_to_string (Book.judge ~bound:None ~lower_is_better:true ~a_values:a ~b_values:a))

let () =
  Alcotest.run "perfbench"
    [
      ( "book",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match statistics.quantiles" `Quick test_quartiles;
          Alcotest.test_case "fail_ratio accounting" `Quick test_fail_ratio;
          Alcotest.test_case "seeded request plan" `Quick test_plan;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "compare verdicts" `Quick test_judge;
        ] );
    ]
