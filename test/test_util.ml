(* Unit and property tests for Setagree_util: pid sets, RNG, priority queue,
   combinatorics and the wheel rings. *)

open Setagree_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pidset                                                              *)
(* ------------------------------------------------------------------ *)

let test_pidset_empty () =
  check "empty is empty" true (Pidset.is_empty Pidset.empty);
  check_int "empty cardinal" 0 (Pidset.cardinal Pidset.empty);
  check "nothing in empty" false (Pidset.mem 0 Pidset.empty)

let test_pidset_add_remove () =
  let s = Pidset.add 3 (Pidset.add 1 Pidset.empty) in
  check "mem 1" true (Pidset.mem 1 s);
  check "mem 3" true (Pidset.mem 3 s);
  check "not mem 2" false (Pidset.mem 2 s);
  check_int "cardinal" 2 (Pidset.cardinal s);
  let s' = Pidset.remove 1 s in
  check "removed" false (Pidset.mem 1 s');
  check "idempotent remove" true (Pidset.equal s' (Pidset.remove 1 s'))

let test_pidset_full () =
  let s = Pidset.full ~n:5 in
  check_int "full cardinal" 5 (Pidset.cardinal s);
  check "contains 0" true (Pidset.mem 0 s);
  check "contains 4" true (Pidset.mem 4 s);
  check "not 5" false (Pidset.mem 5 s)

let test_pidset_ops () =
  let a = Pidset.of_list [ 0; 1; 2 ] and b = Pidset.of_list [ 2; 3 ] in
  check "union" true (Pidset.equal (Pidset.union a b) (Pidset.of_list [ 0; 1; 2; 3 ]));
  check "inter" true (Pidset.equal (Pidset.inter a b) (Pidset.singleton 2));
  check "diff" true (Pidset.equal (Pidset.diff a b) (Pidset.of_list [ 0; 1 ]));
  check "subset yes" true (Pidset.subset (Pidset.singleton 2) a);
  check "subset no" false (Pidset.subset b a);
  check "disjoint no" false (Pidset.disjoint a b);
  check "disjoint yes" true (Pidset.disjoint a (Pidset.singleton 5))

let test_pidset_to_list_sorted () =
  let s = Pidset.of_list [ 5; 1; 3 ] in
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] (Pidset.to_list s)

let test_pidset_min_max () =
  let s = Pidset.of_list [ 4; 2; 9 ] in
  check_int "min" 2 (Pidset.min_elt s);
  Alcotest.(check (option int)) "max" (Some 9) (Pidset.max_elt_opt s);
  Alcotest.(check (option int)) "min empty" None (Pidset.min_elt_opt Pidset.empty);
  check "min_elt raises" true
    (try
       ignore (Pidset.min_elt Pidset.empty);
       false
     with Not_found -> true)

let test_pidset_iterators () =
  let s = Pidset.of_list [ 0; 2; 4 ] in
  check_int "fold sum" 6 (Pidset.fold (fun p acc -> p + acc) s 0);
  check "for_all even" true (Pidset.for_all (fun p -> p mod 2 = 0) s);
  check "exists 4" true (Pidset.exists (fun p -> p = 4) s);
  check "filter" true
    (Pidset.equal (Pidset.filter (fun p -> p > 1) s) (Pidset.of_list [ 2; 4 ]))

let test_pidset_random_size () =
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    let size = Rng.int rng 11 in
    let s = Pidset.random rng ~n:10 ~size in
    check_int "random size" size (Pidset.cardinal s);
    check "subset of full" true (Pidset.subset s (Pidset.full ~n:10))
  done

let test_pidset_pp () =
  Alcotest.(check string) "pp" "{p1,p3}" (Pidset.to_string (Pidset.of_list [ 0; 2 ]))

let pidset_qcheck =
  let gen_set = QCheck.Gen.(map (fun l -> Pidset.of_list l) (list_size (int_bound 10) (int_bound 20))) in
  let arb = QCheck.make ~print:Pidset.to_string gen_set in
  [
    QCheck.Test.make ~name:"union comm" ~count:200 (QCheck.pair arb arb) (fun (a, b) ->
        Pidset.equal (Pidset.union a b) (Pidset.union b a));
    QCheck.Test.make ~name:"inter subset both" ~count:200 (QCheck.pair arb arb)
      (fun (a, b) ->
        let i = Pidset.inter a b in
        Pidset.subset i a && Pidset.subset i b);
    QCheck.Test.make ~name:"diff disjoint" ~count:200 (QCheck.pair arb arb) (fun (a, b) ->
        Pidset.disjoint (Pidset.diff a b) b);
    QCheck.Test.make ~name:"card union + card inter" ~count:200 (QCheck.pair arb arb)
      (fun (a, b) ->
        Pidset.cardinal (Pidset.union a b) + Pidset.cardinal (Pidset.inter a b)
        = Pidset.cardinal a + Pidset.cardinal b);
    QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:200 arb (fun s ->
        Pidset.equal s (Pidset.of_list (Pidset.to_list s)));
    (* The direct rendering against a list-and-concat reference,
       over the whole 1,024-pid universe: empty, sparse, dense and full
       sets, so every digit count and word boundary is crossed. *)
    QCheck.Test.make ~name:"to_string = reference rendering" ~count:300
      (QCheck.make ~print:Pidset.to_string
         QCheck.Gen.(
           frequency
             [
               (1, return Pidset.empty);
               (1, return (Pidset.full ~n:Pidset.max_size));
               (4, map Pidset.of_list (list_size (int_bound 40) (int_bound (Pidset.max_size - 1))));
               ( 2,
                 map
                   (fun (seed, size) ->
                     Pidset.random (Rng.create seed) ~n:Pidset.max_size ~size)
                   (pair int (int_bound Pidset.max_size)) );
             ]))
      (fun s ->
        Pidset.to_string s
        = "{" ^ String.concat "," (List.map Pid.to_string (Pidset.to_list s)) ^ "}");
  ]

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42 and b = Rng.create 43 in
  let da = List.init 10 (fun _ -> Rng.int64 a) in
  let db = List.init 10 (fun _ -> Rng.int64 b) in
  check "different seeds differ" true (da <> db)

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    check "in range" true (v >= 0 && v < 7)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.0 in
    check "float in range" true (v >= 0.0 && v < 3.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let s1 = List.init 10 (fun _ -> Rng.int64 c1) in
  let s2 = List.init 10 (fun _ -> Rng.int64 c2) in
  check "children differ" true (s1 <> s2)

let test_rng_split_named_stable () =
  let mk () = Rng.create 9 in
  let a = Rng.split_named (mk ()) "alpha" in
  let b = Rng.split_named (mk ()) "alpha" in
  check "same name same stream" true (Rng.int64 a = Rng.int64 b);
  let c = Rng.split_named (mk ()) "beta" in
  check "diff name diff stream" true (Rng.int64 (Rng.split_named (mk ()) "alpha") <> Rng.int64 c)

let test_rng_split_named_order_independent () =
  let r1 = Rng.create 9 in
  ignore (Rng.int64 r1);
  (* split_named must not depend on draws made since creation? It does use
     current state; document the actual contract: same parent state.  Here we
     check the complementary property: copies agree. *)
  let r2 = Rng.create 9 in
  let a = Rng.split_named (Rng.copy r2) "x" in
  let b = Rng.split_named r2 "x" in
  check "copy preserves stream" true (Rng.int64 a = Rng.int64 b)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    check "p=0 never" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    check "exp >= 0" true (Rng.exponential rng ~mean:2.0 >= 0.0)
  done

let test_rng_pick_shuffle () =
  let rng = Rng.create 5 in
  let l = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 50 do
    check "pick member" true (List.mem (Rng.pick rng l) l)
  done;
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "shuffle is permutation" l (List.sort compare s)

let test_rng_mean_sanity () =
  let rng = Rng.create 6 in
  let total = ref 0.0 in
  let count = 10_000 in
  for _ = 1 to count do
    total := !total +. Rng.float rng 1.0
  done;
  let mean = !total /. float_of_int count in
  check "uniform mean near 0.5" true (mean > 0.45 && mean < 0.55)

(* ------------------------------------------------------------------ *)
(* Earena                                                              *)
(* ------------------------------------------------------------------ *)

let test_earena_basic () =
  let a = Earena.create ~initial:4 () in
  check "empty" true (Earena.is_empty a);
  check "peek empty = inf" true (Earena.peek_time a = infinity);
  check_int "pop empty = -1" (-1) (Earena.pop a);
  Earena.add a ~time:2.0 ~kind:1 ~arg:10;
  Earena.add a ~time:1.0 ~kind:2 ~arg:20;
  Earena.add a ~time:3.0 ~kind:3 ~arg:30;
  check_int "length" 3 (Earena.length a);
  check "peek = 1.0" true (Earena.peek_time a = 1.0);
  let p = Earena.pop a in
  check "time survives pop" true (Earena.time_of a p = 1.0);
  check_int "kind survives pop" 2 (Earena.kind_of a p);
  check_int "arg survives pop" 20 (Earena.arg_of a p);
  check_int "length after pop" 2 (Earena.length a);
  check_int "then time 2.0" 10 (Earena.arg_of a (Earena.pop a));
  check_int "then time 3.0" 30 (Earena.arg_of a (Earena.pop a));
  check "drained" true (Earena.is_empty a)

let test_earena_tie_insertion_order () =
  (* Equal times pop in insertion order — the replay-determinism contract. *)
  let a = Earena.create () in
  for i = 0 to 9 do
    Earena.add a ~time:1.0 ~kind:0 ~arg:i
  done;
  for i = 0 to 9 do
    check_int "fifo at one instant" i (Earena.arg_of a (Earena.pop a))
  done

let test_earena_grow_and_recycle () =
  (* Force growth past the initial capacity, then verify steady-state slot
     recycling keeps capacity fixed. *)
  let a = Earena.create ~initial:4 () in
  for i = 0 to 99 do
    Earena.add a ~time:(float_of_int i) ~kind:0 ~arg:i
  done;
  for i = 0 to 99 do
    let s = Earena.pop a in
    check_int "fifo by time" i (Earena.arg_of a s)
  done;
  let cap = Earena.capacity a in
  for round = 0 to 999 do
    Earena.add a ~time:(float_of_int round) ~kind:0 ~arg:round;
    let p = Earena.pop a in
    check_int "recycled slot round-trips arg" round (Earena.arg_of a p)
  done;
  check_int "capacity stable in steady state" cap (Earena.capacity a)

let earena_sorted_qcheck =
  QCheck.Test.make ~name:"earena pop sequence = sorted" ~count:200
    QCheck.(list (pair (int_bound 10) (int_bound 1000)))
    (fun items ->
      let a = Earena.create () in
      List.iter (fun (tm, arg) -> Earena.add a ~time:(float_of_int tm) ~kind:0 ~arg) items;
      let rec drain acc =
        let s = Earena.pop a in
        if s = -1 then List.rev acc
        else drain ((Earena.time_of a s, Earena.arg_of a s) :: acc)
      in
      (* Stable sort by time: ties keep insertion order, exactly what
         sorting by (time, seq) produces. *)
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) items
        |> List.map (fun (tm, arg) -> (float_of_int tm, arg))
      in
      drain [] = expected)

(* The arena against a list model at a given [(initial, buckets)] list,
   under interleaved adds and pops with slot recycling.  Most
   adds land on one of two instants just past the pop frontier, so a
   bucket chain passes the rebuild limit and the wheel narrows, again and
   again up to its fuse; the narrowed window then sends the spread adds
   (up to 40 time units out) to the heap.  Adds behind the frontier,
   negative times among them, take the heap too. *)
let earena_wheel_qcheck ~name sizes =
  let gen_ops = QCheck.Gen.(list_size (int_range 0 400) (pair (int_bound 9) (int_bound 1000))) in
  QCheck.Test.make ~name ~count:100
    (QCheck.make
       ~print:(fun l ->
         String.concat "," (List.map (fun (op, v) -> Printf.sprintf "%d:%d" op v) l))
       gen_ops)
    (fun ops ->
      List.for_all
        (fun (initial, buckets) ->
          let a = Earena.create ~initial () in
          (* live entries as (time, seq); each event's arg is its seq *)
          let live = ref [] in
          let seq = ref 0 in
          let frontier = ref 0.0 in
          let before (t1, s1) (t2, s2) = t1 < t2 || (t1 = t2 && s1 < s2) in
          let model_min () =
            List.fold_left
              (fun acc e -> match acc with Some m when before m e -> acc | _ -> Some e)
              None !live
          in
          let ok = ref (Earena.buckets a = buckets) in
          let pop () =
            let s = Earena.pop a in
            match model_min () with
            | None -> if s <> -1 then ok := false
            | Some ((time, sq) as e) ->
                if s = -1 || Earena.arg_of a s <> sq || Earena.time_of a s <> time then
                  ok := false;
                frontier := time;
                live := List.filter (fun x -> x != e) !live
          in
          List.iter
            (fun (op, v) ->
              if op = 8 then pop ()
              else begin
                let time =
                  if op <= 5 then !frontier +. float_of_int (v mod 2)
                  else if op <= 7 then !frontier +. (float_of_int (v mod 120) /. 3.0)
                  else !frontier -. 0.5 -. (float_of_int (v mod 40) /. 4.0)
                in
                Earena.add a ~time ~kind:0 ~arg:!seq;
                live := (time, !seq) :: !live;
                incr seq
              end)
            ops;
          while !live <> [] do
            pop ()
          done;
          !ok && Earena.pop a = -1)
        sizes)

(* The wheels from one summary word up: 1024 buckets ([initial] 64, 32
   bitmap words under one summary word) and 16384 ([initial] 1024, what
   a simulator of n >= 23 gets). *)
let earena_wheel_sizes_qcheck =
  earena_wheel_qcheck ~name:"earena = list model at 1024 and 16384 buckets"
    [ (64, 1024); (1024, 16384) ]

(* The wheels below 1024 buckets, whose bitmap fills part of the one
   summary word: 32 buckets (one bitmap word, [initial] 1, the smallest)
   and 64 ([initial] 4, what a simulator of n = 2 gets from 2n^2 = 8). *)
let earena_small_wheel_qcheck =
  earena_wheel_qcheck ~name:"earena = list model at 32 and 64 buckets" [ (1, 32); (4, 64) ]

(* ------------------------------------------------------------------ *)
(* Ringbuf                                                             *)
(* ------------------------------------------------------------------ *)

(* What the runtime node's phi series relies on: the window reads oldest
   first after it wraps, and [dropped] counts what the wrap overwrote. *)
let test_ringbuf_wraps () =
  let r = Ringbuf.create ~cap:3 in
  Alcotest.(check (list int)) "empty" [] (Ringbuf.to_list r);
  List.iter (Ringbuf.push r) [ 1; 2 ];
  Alcotest.(check (list int)) "below capacity" [ 1; 2 ] (Ringbuf.to_list r);
  check_int "nothing dropped yet" 0 (Ringbuf.dropped r);
  List.iter (Ringbuf.push r) [ 3; 4; 5; 6; 7 ];
  Alcotest.(check (list int)) "wrapped, oldest first" [ 5; 6; 7 ] (Ringbuf.to_list r);
  check_int "overwrites counted" 4 (Ringbuf.dropped r)

let test_ringbuf_bad_cap () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Ringbuf.create: cap must be >= 1")
    (fun () -> ignore (Ringbuf.create ~cap:0))

(* ------------------------------------------------------------------ *)
(* Combi                                                               *)
(* ------------------------------------------------------------------ *)

let test_binomial_values () =
  check_int "C(5,2)" 10 (Combi.binomial 5 2);
  check_int "C(5,0)" 1 (Combi.binomial 5 0);
  check_int "C(5,5)" 1 (Combi.binomial 5 5);
  check_int "C(5,6)" 0 (Combi.binomial 5 6);
  check_int "C(5,-1)" 0 (Combi.binomial 5 (-1));
  check_int "C(10,3)" 120 (Combi.binomial 10 3);
  check_int "C(20,10)" 184756 (Combi.binomial 20 10)

let test_binomial_pascal () =
  for n = 1 to 15 do
    for k = 1 to n - 1 do
      check_int "pascal" (Combi.binomial n k)
        (Combi.binomial (n - 1) (k - 1) + Combi.binomial (n - 1) k)
    done
  done

let test_unrank_first_last () =
  let first = Combi.unrank ~n:6 ~size:3 0 in
  check "first lex" true (Pidset.equal first (Pidset.of_list [ 0; 1; 2 ]));
  let last = Combi.unrank ~n:6 ~size:3 (Combi.binomial 6 3 - 1) in
  check "last lex" true (Pidset.equal last (Pidset.of_list [ 3; 4; 5 ]))

let test_unrank_rank_roundtrip () =
  for n = 1 to 8 do
    for size = 0 to n do
      for r = 0 to Combi.binomial n size - 1 do
        let s = Combi.unrank ~n ~size r in
        check_int "roundtrip" r (Combi.rank ~n s);
        check_int "size" size (Pidset.cardinal s)
      done
    done
  done

let test_unrank_out_of_range () =
  check "raises" true
    (try
       ignore (Combi.unrank ~n:5 ~size:2 10);
       false
     with Invalid_argument _ -> true)

let test_enumerate_all_distinct () =
  let l = List.of_seq (Combi.enumerate ~n:7 ~size:3) in
  check_int "count" (Combi.binomial 7 3) (List.length l);
  let sorted = List.sort_uniq Pidset.compare l in
  check_int "distinct" (List.length l) (List.length sorted)

let test_enumerate_lex_increasing () =
  (* In lexicographic order on ascending element lists. *)
  let l = List.of_seq (Combi.enumerate ~n:6 ~size:2) in
  let as_lists = List.map Pidset.to_list l in
  let sorted = List.sort compare as_lists in
  Alcotest.(check (list (list int))) "lex order" sorted as_lists

let test_unrank_in_base () =
  let base = Pidset.of_list [ 2; 5; 7; 9 ] in
  let s0 = Combi.unrank_in ~base ~size:2 0 in
  check "first is two smallest" true (Pidset.equal s0 (Pidset.of_list [ 2; 5 ]));
  for r = 0 to Combi.binomial 4 2 - 1 do
    let s = Combi.unrank_in ~base ~size:2 r in
    check "subset of base" true (Pidset.subset s base);
    check_int "rank_in roundtrip" r (Combi.rank_in ~base s)
  done

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_lower_ring_total () =
  let r = Ring.Lower.create ~n:5 ~x:2 in
  check_int "total = C(5,2)*2" 20 (Ring.Lower.total r)

let test_lower_ring_decode_start () =
  let r = Ring.Lower.create ~n:5 ~x:2 in
  let l, x = Ring.Lower.decode r (Ring.Lower.start r) in
  check_int "first element" 0 l;
  check "first set" true (Pidset.equal x (Pidset.of_list [ 0; 1 ]))

let test_lower_ring_element_in_set () =
  let r = Ring.Lower.create ~n:6 ~x:3 in
  for p = 0 to Ring.Lower.total r - 1 do
    let l, x = Ring.Lower.decode r p in
    check "element in set" true (Pidset.mem l x);
    check_int "set size" 3 (Pidset.cardinal x)
  done

let test_lower_ring_wraps () =
  let r = Ring.Lower.create ~n:4 ~x:2 in
  let total = Ring.Lower.total r in
  let rec advance p k = if k = 0 then p else advance (Ring.Lower.next r p) (k - 1) in
  check_int "full cycle returns" (Ring.Lower.start r) (advance (Ring.Lower.start r) total)

let test_lower_ring_covers_all_pairs () =
  let r = Ring.Lower.create ~n:5 ~x:2 in
  let seen = Hashtbl.create 32 in
  for p = 0 to Ring.Lower.total r - 1 do
    Hashtbl.replace seen (Ring.Lower.decode r p) ()
  done;
  check_int "all pairs distinct" (Ring.Lower.total r) (Hashtbl.length seen)

let test_lower_ring_x_elements_consecutive () =
  (* Positions k*x .. k*x + x - 1 share the same set. *)
  let r = Ring.Lower.create ~n:6 ~x:3 in
  for k = 0 to Combi.binomial 6 3 - 1 do
    let _, x0 = Ring.Lower.decode r (k * 3) in
    for j = 1 to 2 do
      let _, xj = Ring.Lower.decode r ((k * 3) + j) in
      check "same set within block" true (Pidset.equal x0 xj)
    done
  done

let test_upper_ring_total () =
  let r = Ring.Upper.create ~n:5 ~ysize:3 ~lsize:2 in
  check_int "total = C(5,3)*C(3,2)" 30 (Ring.Upper.total r)

let test_upper_ring_l_subset_y () =
  let r = Ring.Upper.create ~n:6 ~ysize:3 ~lsize:2 in
  for p = 0 to Ring.Upper.total r - 1 do
    let l, y = Ring.Upper.decode r p in
    check "L subset Y" true (Pidset.subset l y);
    check_int "L size" 2 (Pidset.cardinal l);
    check_int "Y size" 3 (Pidset.cardinal y)
  done

let test_upper_ring_covers_all () =
  let r = Ring.Upper.create ~n:5 ~ysize:3 ~lsize:1 in
  let seen = Hashtbl.create 64 in
  for p = 0 to Ring.Upper.total r - 1 do
    Hashtbl.replace seen (Ring.Upper.decode r p) ()
  done;
  check_int "distinct pairs" (Ring.Upper.total r) (Hashtbl.length seen)

let test_upper_ring_wraps () =
  let r = Ring.Upper.create ~n:4 ~ysize:2 ~lsize:1 in
  let total = Ring.Upper.total r in
  let rec advance p k = if k = 0 then p else advance (Ring.Upper.next r p) (k - 1) in
  check_int "full cycle" (Ring.Upper.start r) (advance (Ring.Upper.start r) total)

let test_ring_bad_args () =
  check "lower bad x" true
    (try ignore (Ring.Lower.create ~n:3 ~x:4); false with Invalid_argument _ -> true);
  check "upper bad lsize" true
    (try ignore (Ring.Upper.create ~n:4 ~ysize:2 ~lsize:3); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Greedy ring consumption (the wheels' T2 discipline)                 *)
(* ------------------------------------------------------------------ *)

(* Pure model of the move-message consumer: buffer each message until the
   current position matches, then advance (possibly repeatedly).  The
   wheels rely on the reached position being independent of arrival order —
   all correct processes R-deliver the same multiset — so confluence IS the
   agreement property of the transformation's control state. *)
let greedy_consume ~total ~start arrivals =
  let pending = Hashtbl.create 16 in
  let pos = ref start in
  let bump p delta =
    let c = Option.value ~default:0 (Hashtbl.find_opt pending p) in
    Hashtbl.replace pending p (c + delta)
  in
  let rec drain () =
    match Hashtbl.find_opt pending !pos with
    | Some c when c > 0 ->
        bump !pos (-1);
        pos := (!pos + 1) mod total;
        drain ()
    | _ -> ()
  in
  List.iter
    (fun p ->
      bump p 1;
      drain ())
    arrivals;
  (!pos, Hashtbl.fold (fun _ c acc -> acc + max 0 c) pending 0)

let ring_confluence_qcheck =
  let gen =
    QCheck.Gen.(
      let* total = int_range 3 12 in
      let* start = int_bound (total - 1) in
      let* msgs = list_size (int_bound 20) (int_bound (total - 1)) in
      let* perm_seed = int_bound 1_000_000 in
      return (total, start, msgs, perm_seed))
  in
  QCheck.Test.make ~name:"greedy consumption is arrival-order independent" ~count:500
    (QCheck.make
       ~print:(fun (total, start, msgs, _) ->
         Printf.sprintf "total=%d start=%d msgs=[%s]" total start
           (String.concat ";" (List.map string_of_int msgs)))
       gen)
    (fun (total, start, msgs, perm_seed) ->
      let rng = Rng.create perm_seed in
      let shuffled = Rng.shuffle rng msgs in
      greedy_consume ~total ~start msgs = greedy_consume ~total ~start shuffled)

let test_greedy_consume_basics () =
  (* Matching message advances; non-matching waits; wrap-around consumes
     buffered ones. *)
  check "no msgs" true (greedy_consume ~total:5 ~start:2 [] = (2, 0));
  check "one match" true (greedy_consume ~total:5 ~start:2 [ 2 ] = (3, 0));
  check "one miss buffered" true (greedy_consume ~total:5 ~start:2 [ 4 ] = (2, 1));
  check "chain" true (greedy_consume ~total:5 ~start:2 [ 3; 2 ] = (4, 0));
  check "wrap" true (greedy_consume ~total:3 ~start:0 [ 0; 1; 2 ] = (0, 0))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.p50;
  Alcotest.(check (float 1e-9)) "p95" 5.0 s.p95;
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.stddev

let test_stats_singleton_and_empty () =
  let s = Stats.summarize [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "single mean" 7.0 s.mean;
  Alcotest.(check (float 1e-9)) "single stddev" 0.0 s.stddev;
  check "empty raises" true
    (try
       ignore (Stats.summarize []);
       false
     with Invalid_argument _ -> true)

let test_stats_percentile_unsorted_input () =
  Alcotest.(check (float 1e-9)) "p50 of shuffled" 3.0
    (Stats.percentile [ 5.0; 1.0; 3.0; 2.0; 4.0 ] 0.5);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0
    (Stats.percentile [ 5.0; 1.0; 3.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 5.0
    (Stats.percentile [ 5.0; 1.0; 3.0 ] 1.0)

let test_stats_pp () =
  let s = Stats.summarize [ 1.0; 2.0 ] in
  check "renders" true (String.length (Format.asprintf "%a" Stats.pp_summary s) > 10)

let test_stats_summarize_opt () =
  Alcotest.(check bool) "empty is None" true (Stats.summarize_opt [] = None);
  match Stats.summarize_opt [ 2.0; 4.0 ] with
  | None -> Alcotest.fail "non-empty must be Some"
  | Some s ->
      Alcotest.(check (float 1e-9)) "agrees with summarize" (Stats.summarize [ 2.0; 4.0 ]).mean s.mean;
      Alcotest.(check int) "count" 2 s.count

let stats_qcheck =
  let samples =
    QCheck.make
      ~print:(fun l -> String.concat ";" (List.map string_of_float l))
      QCheck.Gen.(list_size (int_range 1 40) (float_bound_inclusive 1000.0))
  in
  let p_gen = QCheck.make ~print:string_of_float QCheck.Gen.(float_bound_inclusive 1.0) in
  [
    QCheck.Test.make ~name:"percentile monotone in p" ~count:300
      (QCheck.triple samples p_gen p_gen)
      (fun (xs, p1, p2) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Stats.percentile xs lo <= Stats.percentile xs hi);
    QCheck.Test.make ~name:"percentile bounded by min/max" ~count:300
      (QCheck.pair samples p_gen)
      (fun (xs, p) ->
        let v = Stats.percentile xs p in
        let lo = List.fold_left Float.min Float.infinity xs in
        let hi = List.fold_left Float.max Float.neg_infinity xs in
        lo <= v && v <= hi);
    QCheck.Test.make ~name:"summarize_opt total on any list" ~count:300
      (QCheck.make QCheck.Gen.(list_size (int_bound 10) (float_bound_inclusive 5.0)))
      (fun xs ->
        match Stats.summarize_opt xs with
        | None -> xs = []
        | Some s -> s.Stats.count = List.length xs);
  ]

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_escaping () =
  Alcotest.(check string) "quotes and backslash" {|"a\"b\\c"|}
    (Json.to_string (Json.String {|a"b\c|}));
  Alcotest.(check string) "newline tab" {|"x\ny\tz"|}
    (Json.to_string (Json.String "x\ny\tz"));
  Alcotest.(check string) "control char" {|"\u0001"|} (Json.to_string (Json.String "\x01"));
  Alcotest.(check string) "escape exposed" {|\u0000|} (Json.escape "\x00")

let test_json_floats () =
  Alcotest.(check string) "whole float gets .0" "3.0" (Json.to_string (Json.Float 3.0));
  Alcotest.(check string) "fraction" "0.1" (Json.to_string (Json.Float 0.1));
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse () =
  let j = Json.of_string_exn {| {"a": [1, 2.5, true, null], "bA": "x\n"} |} in
  check "member a" true
    (Json.member "a" j
    = Some (Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool true; Json.Null ]));
  check "unicode key" true (Json.member "bA" j = Some (Json.String "x\n"));
  check "missing member" true (Json.member "zzz" j = None);
  check "reject garbage" true
    (match Json.of_string "{oops}" with Error _ -> true | Ok _ -> false);
  check "reject trailing" true
    (match Json.of_string "1 2" with Error _ -> true | Ok _ -> false)

let test_json_to_float_opt () =
  check "float" true (Json.to_float_opt (Json.Float 2.5) = Some 2.5);
  check "int coerces" true (Json.to_float_opt (Json.Int 3) = Some 3.0);
  check "string no" true (Json.to_float_opt (Json.String "3") = None)

let json_qcheck =
  (* Random finite Json values must survive print-then-parse, both pretty
     and minified. *)
  let gen_json =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          let leaf =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
                map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
                map (fun s -> Json.String s) (string_size ~gen:char (int_bound 12));
              ]
          in
          if n <= 0 then leaf
          else
            frequency
              [
                (3, leaf);
                (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs -> Json.Obj kvs)
                    (list_size (int_bound 4)
                       (pair (string_size ~gen:printable (int_bound 6)) (self (n / 2)))) );
              ]))
  in
  let arb = QCheck.make ~print:Json.to_string gen_json in
  [
    QCheck.Test.make ~name:"json pretty roundtrip" ~count:300 arb (fun j ->
        Json.equal j (Json.of_string_exn (Json.to_string j)));
    QCheck.Test.make ~name:"json minified roundtrip" ~count:300 arb (fun j ->
        Json.equal j (Json.of_string_exn (Json.to_string ~minify:true j)));
  ]

(* ------------------------------------------------------------------ *)
(* Json.parse_prefix and the newline-delimited Stream decoder (the      *)
(* serve wire format)                                                   *)
(* ------------------------------------------------------------------ *)

let test_json_parse_prefix () =
  (match Json.parse_prefix "{\"a\":1}trailing" with
  | Ok (v, stop) ->
      check "value" true (Json.member "a" v = Some (Json.Int 1));
      check_int "stop one past the value" 7 stop
  | Error e -> Alcotest.failf "parse_prefix: %s" (Json.error_to_string e));
  (match Json.parse_prefix ~pos:3 "xxx42,rest" with
  | Ok (v, stop) ->
      check "pos respected" true (v = Json.Int 42);
      check_int "stop before comma" 5 stop
  | Error e -> Alcotest.failf "parse_prefix ~pos: %s" (Json.error_to_string e));
  (match Json.parse_prefix "{\"a\": [1," with
  | Ok _ -> Alcotest.fail "truncated value accepted"
  | Error e -> check "truncation flagged incomplete" true e.Json.incomplete);
  match Json.parse_prefix "{oops}" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> check "malformed is not incomplete" false e.Json.incomplete

let stream_frames = [ "{\"op\":\"ping\"}"; "[1,2,3]"; "{\"n\":7,\"s\":\"x\"}" ]

let test_stream_byte_at_a_time () =
  let d = Json.Stream.decoder () in
  let wire = String.concat "" (List.map (fun f -> f ^ "\n") stream_frames) in
  let got = ref [] in
  String.iter
    (fun c ->
      Json.Stream.feed d (String.make 1 c);
      match Json.Stream.next d with
      | `Value v -> got := v :: !got
      | `Await -> ()
      | `Error e -> Alcotest.failf "stream: %s" (Json.error_to_string e))
    wire;
  let got = List.rev !got in
  check_int "all frames decoded" (List.length stream_frames) (List.length got);
  List.iter2
    (fun frame v -> check "frame survives re-chunking" true (Json.equal (Json.of_string_exn frame) v))
    stream_frames got;
  check_int "cursor consumed everything" (String.length wire) (Json.Stream.consumed d);
  check_int "nothing pending" 0 (Json.Stream.pending d)

let test_stream_error_recovery_and_offsets () =
  (* A malformed line is consumed and reported with its absolute offset;
     decoding resumes on the next line. *)
  let d = Json.Stream.decoder () in
  Json.Stream.feed d "{\"ok\":1}\n{bad}\n{\"ok\":2}\n";
  (match Json.Stream.next d with
  | `Value v -> check "first frame" true (Json.member "ok" v = Some (Json.Int 1))
  | _ -> Alcotest.fail "expected first frame");
  (match Json.Stream.next d with
  | `Error e ->
      check "absolute offset inside bad line" true (e.Json.offset >= 9 && e.Json.offset < 14);
      check "bad line is not incomplete" false e.Json.incomplete
  | _ -> Alcotest.fail "expected an error frame");
  (match Json.Stream.next d with
  | `Value v -> check "recovered after error" true (Json.member "ok" v = Some (Json.Int 2))
  | _ -> Alcotest.fail "expected recovery");
  check "drained" true (Json.Stream.next d = `Await)

let test_stream_partial_frame_held () =
  let d = Json.Stream.decoder () in
  Json.Stream.feed d "{\"a\":";
  check "partial frame awaits" true (Json.Stream.next d = `Await);
  check "partial bytes pending" true (Json.Stream.pending d > 0);
  Json.Stream.feed d "1}\n";
  (match Json.Stream.next d with
  | `Value v -> check "completed across feeds" true (Json.member "a" v = Some (Json.Int 1))
  | _ -> Alcotest.fail "expected completed frame");
  check_int "pending drained" 0 (Json.Stream.pending d)

(* The daemon feeds each socket read straight into the decoder and asks
   for frames after every chunk, so one large frame arriving in small
   chunks must cost time linear in its size. *)
let test_stream_large_frame_linear () =
  let blob = String.make (8 * 1024 * 1024) 'a' in
  let wire = "{\"blob\":\"" ^ blob ^ "\"}\n" in
  let d = Json.Stream.decoder () in
  let t0 = Unix.gettimeofday () in
  let got = ref None in
  let pos = ref 0 in
  while !pos < String.length wire do
    let len = min 4096 (String.length wire - !pos) in
    Json.Stream.feed d (String.sub wire !pos len);
    pos := !pos + len;
    match Json.Stream.next d with
    | `Value v -> got := Some v
    | `Await -> ()
    | `Error e -> Alcotest.failf "stream: %s" (Json.error_to_string e)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  check "frame decoded" true (!got = Some (Json.Obj [ ("blob", Json.String blob) ]));
  check "nothing pending" true (Json.Stream.pending d = 0);
  if elapsed >= 1.0 then Alcotest.failf "8 MiB in 4 KiB chunks took %.2fs" elapsed

let stream_qcheck =
  (* Any frame sequence survives any re-chunking of the byte stream. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 8)
           (oneofl
              [
                Json.Obj [ ("k", Json.Int 1) ];
                Json.List [ Json.Bool true; Json.Null ];
                Json.String "line\nbreak";
                Json.Int (-3);
                Json.Obj [ ("nested", Json.Obj [ ("x", Json.List [ Json.Int 9 ]) ]) ];
              ]))
        (int_range 1 1_000_000))
  in
  let print (frames, seed) =
    Printf.sprintf "seed=%d frames=%s" seed
      (String.concat " | " (List.map (Json.to_string ~minify:true) frames))
  in
  QCheck.Test.make ~count:500 ~name:"stream decodes under random chunking"
    (QCheck.make ~print gen)
    (fun (frames, seed) ->
      let wire =
        String.concat "" (List.map (fun f -> Json.to_string ~minify:true f ^ "\n") frames)
      in
      let rng = Rng.create seed in
      let d = Json.Stream.decoder () in
      let got = ref [] in
      let rec drain () =
        match Json.Stream.next d with
        | `Value v ->
            got := v :: !got;
            drain ()
        | `Await -> ()
        | `Error e -> QCheck.Test.fail_reportf "stream: %s" (Json.error_to_string e)
      in
      let pos = ref 0 in
      let n = String.length wire in
      while !pos < n do
        let len = 1 + Rng.int rng (min 7 (n - !pos)) in
        Json.Stream.feed d (String.sub wire !pos len);
        pos := !pos + len;
        drain ()
      done;
      let got = List.rev !got in
      List.length got = List.length frames
      && List.for_all2 Json.equal frames got
      && Json.Stream.pending d = 0)

(* Pid *)
let test_pid () =
  Alcotest.(check string) "to_string" "p3" (Pid.to_string 2);
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Pid.all ~n:3);
  check "equal" true (Pid.equal 1 1);
  check_int "compare" 0 (Pid.compare 4 4)

(* Pidset beyond one machine word: the n=64/128 scaling sweeps need sets
   over universes larger than Sys.int_size - 1. *)
let test_pidset_large_universe () =
  List.iter
    (fun n ->
      let full = Pidset.full ~n in
      check_int "full cardinal" n (Pidset.cardinal full);
      check "last member present" true (Pidset.mem (n - 1) full);
      check "one past absent" false (Pidset.mem n full);
      let evens = Pidset.of_list (List.init (n / 2) (fun i -> 2 * i)) in
      let odds = Pidset.diff full evens in
      check_int "split cardinals" n (Pidset.cardinal evens + Pidset.cardinal odds);
      check "disjoint halves" true (Pidset.disjoint evens odds);
      check "union restores" true (Pidset.equal full (Pidset.union evens odds));
      check_int "min" 0 (Pidset.min_elt full);
      Alcotest.(check (list int)) "to_list sorted"
        (List.init n Fun.id) (Pidset.to_list full))
    [ 63; 64; 65; 128; 200 ]

let test_pidset_large_equal_hash_canonical () =
  (* Sets built by different operation orders must compare and hash equal
     (canonical representation across word boundaries). *)
  let a = Pidset.add 100 (Pidset.singleton 3) in
  let b = Pidset.remove 70 (Pidset.of_list [ 3; 70; 100 ]) in
  check "equal across build paths" true (Pidset.equal a b);
  check_int "compare 0" 0 (Pidset.compare a b);
  check_int "same hash" (Pidset.hash a) (Pidset.hash b);
  (* Dropping the only high member must shrink back to a small-set value
     that equals a set never containing it. *)
  let c = Pidset.remove 100 a in
  check "trimmed" true (Pidset.equal c (Pidset.singleton 3));
  check_int "trimmed hash" (Pidset.hash (Pidset.singleton 3)) (Pidset.hash c)

(* Vec *)
let test_vec_basics () =
  let v : int Vec.t = Vec.create () in
  check_int "empty" 0 (Vec.length v);
  for i = 1 to 100 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get first" 1 (Vec.get v 0);
  check_int "get last" 100 (Vec.get v 99);
  Alcotest.(check (list int)) "to_list in append order" (List.init 100 (fun i -> i + 1))
    (Vec.to_list v);
  check_int "fold" 5050 (Vec.fold_left ( + ) 0 v);
  let seen = ref 0 in
  Vec.iter (fun _ -> incr seen) v;
  check_int "iter visits all" 100 !seen

let test_vec_list_from () =
  let v : int Vec.t = Vec.create () in
  for i = 1 to 10 do
    Vec.push v i
  done;
  Alcotest.(check (list int)) "suffix" [ 8; 9; 10 ] (Vec.list_from v ~cursor:7);
  Alcotest.(check (list int)) "whole" (List.init 10 (fun i -> i + 1)) (Vec.list_from v ~cursor:0);
  Alcotest.(check (list int)) "at end" [] (Vec.list_from v ~cursor:10);
  Alcotest.(check (list int)) "past end" [] (Vec.list_from v ~cursor:42)

let test_vec_get_out_of_bounds () =
  let v : int Vec.t = Vec.create () in
  Vec.push v 1;
  check "oob rejected" true
    (try
       ignore (Vec.get v 1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Strutil: byte-level substring search                                 *)
(* ------------------------------------------------------------------ *)

let test_strutil_empty () =
  Alcotest.(check (option int)) "empty sub" (Some 0) (Strutil.find "" ~sub:"");
  Alcotest.(check (option int)) "empty sub in text" (Some 0) (Strutil.find "abc" ~sub:"");
  check "contains empty" true (Strutil.contains "" ~sub:"");
  Alcotest.(check (option int)) "sub longer than s" None (Strutil.find "ab" ~sub:"abc");
  check "not in empty" false (Strutil.contains "" ~sub:"x")

let test_strutil_overlap () =
  (* Self-overlapping needles: the scan must not skip past a match that
     starts inside a failed partial match. *)
  Alcotest.(check (option int)) "aa in aaa" (Some 0) (Strutil.find "aaa" ~sub:"aa");
  Alcotest.(check (option int)) "aba in aabaa" (Some 1) (Strutil.find "aabaa" ~sub:"aba");
  Alcotest.(check (option int)) "abc after partial ab" (Some 2) (Strutil.find "ababc" ~sub:"abc");
  check "whole string" true (Strutil.contains "needle" ~sub:"needle");
  check "suffix" true (Strutil.contains "find the needle" ~sub:"needle");
  check "near miss" false (Strutil.contains "nee dle" ~sub:"needle")

let test_strutil_unicode_bytes () =
  (* Byte semantics, not codepoints: multi-byte sequences match by their
     UTF-8 encoding, including partial-sequence needles. *)
  let s = "d\xc3\xa9cid\xc3\xa9" (* "décidé" *) in
  check "multibyte needle" true (Strutil.contains s ~sub:"\xc3\xa9");
  Alcotest.(check (option int)) "byte offset" (Some 1) (Strutil.find s ~sub:"\xc3\xa9");
  check "partial utf8 byte" true (Strutil.contains s ~sub:"\xc3");
  check "absent multibyte" false (Strutil.contains s ~sub:"\xc3\xa8")

let strutil_qcheck =
  let naive s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = if i + m > n then false else String.sub s i m = sub || at (i + 1) in
    m = 0 || at 0
  in
  let printable = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (0 -- 8)) in
  [
    QCheck.Test.make ~count:2000 ~name:"contains agrees with naive scan"
      QCheck.(pair (make ~print:Print.string printable) (make ~print:Print.string printable))
      (fun (s, sub) -> Strutil.contains s ~sub = naive s sub);
    QCheck.Test.make ~count:2000 ~name:"find returns the leftmost match"
      QCheck.(pair (make ~print:Print.string printable) (make ~print:Print.string printable))
      (fun (s, sub) ->
        match Strutil.find s ~sub with
        | None -> not (naive s sub)
        | Some i ->
            let m = String.length sub in
            String.sub s i m = sub
            &&
            let rec earlier j = j < i && (String.sub s j m = sub || earlier (j + 1)) in
            not (earlier 0));
  ]

(* ------------------------------------------------------------------ *)
(* Journal: the crash-recovery write-ahead log                         *)
(* ------------------------------------------------------------------ *)

let journal_scratch name =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "setagree_journal_%s_%d.jsonl" name (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  path

let jentry i = Json.Obj [ ("type", Json.String "entry"); ("i", Json.Int i) ]
let is_meta e = Json.member "type" e = Some (Json.String "meta")

let test_journal_roundtrip () =
  let path = journal_scratch "roundtrip" in
  let t = Journal.append_open path in
  for i = 0 to 9 do
    Journal.append t (jentry i)
  done;
  Journal.close t;
  let { Journal.entries; dropped_lines; dropped_bytes } = Journal.load path in
  check_int "no garbage" 0 dropped_lines;
  check_int "no partial tail" 0 dropped_bytes;
  (match entries with
  | meta :: rest ->
      check "meta line first" true (is_meta meta);
      check_int "all entries back" 10 (List.length rest);
      List.iteri (fun i e -> check "entry intact" true (e = jentry i)) rest
  | [] -> Alcotest.fail "journal loaded empty");
  (* Reopening appends after the existing content — no second meta. *)
  let t = Journal.append_open path in
  Journal.append t (jentry 10);
  Journal.close t;
  let { Journal.entries; _ } = Journal.load path in
  check_int "append after reopen" 12 (List.length entries);
  check_int "single meta line" 1 (List.length (List.filter is_meta entries));
  Sys.remove path

let test_journal_missing_and_garbage () =
  let path = journal_scratch "garbage" in
  let l = Journal.load path in
  check_int "missing file loads empty" 0 (List.length l.Journal.entries);
  (* Mid-file garbage is skipped and counted; valid lines around it —
     including the suffix after the garbage — still load. *)
  let oc = open_out path in
  output_string oc (Json.to_string ~minify:true (jentry 0) ^ "\n");
  output_string oc "{\"broken\": \n";
  output_string oc "not json at all\n";
  output_string oc (Json.to_string ~minify:true (jentry 1) ^ "\n");
  close_out oc;
  let l = Journal.load path in
  check_int "two valid lines" 2 (List.length l.Journal.entries);
  check_int "two garbage lines dropped" 2 l.Journal.dropped_lines;
  check_int "no partial tail" 0 l.Journal.dropped_bytes;
  Sys.remove path

let test_journal_rewrite () =
  let path = journal_scratch "rewrite" in
  let t = Journal.append_open path in
  for i = 0 to 19 do
    Journal.append t (jentry i)
  done;
  Journal.close t;
  Journal.rewrite path [ jentry 100; jentry 101 ];
  let { Journal.entries; dropped_lines; dropped_bytes } = Journal.load path in
  check_int "no garbage" 0 dropped_lines;
  check_int "no partial tail" 0 dropped_bytes;
  (match entries with
  | [ meta; a; b ] ->
      check "meta line first" true (is_meta meta);
      check "compacted entries kept" true (a = jentry 100 && b = jentry 101)
  | _ -> Alcotest.fail "rewrite did not produce meta + 2 entries");
  Sys.remove path

(* The durability contract: truncating the file at ANY byte (what a
   crash mid-append leaves behind) yields a clean prefix of what was
   appended — no garbage lines, no exceptions, no reordering. *)
let journal_truncation_qcheck =
  QCheck.Test.make ~count:60 ~name:"Journal: any truncation loads as a prefix"
    QCheck.(
      make
        Gen.(pair (list_size (int_range 0 25) (int_range 0 999)) (int_range 0 max_int)))
    (fun (values, cutraw) ->
      let path = journal_scratch "qcheck" in
      let t = Journal.append_open ~fsync:false path in
      List.iter (fun i -> Journal.append t (jentry i)) values;
      Journal.close t;
      let size = (Unix.stat path).Unix.st_size in
      let cut = cutraw mod (size + 1) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let l = Journal.load path in
      let expected = Journal.meta_entry () :: List.map jentry values in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      let ok =
        is_prefix l.Journal.entries expected
        && l.Journal.dropped_lines = 0
        && (cut < size || l.Journal.entries = expected)
        && l.Journal.dropped_bytes <= cut
      in
      Sys.remove path;
      ok)

let () =
  let qc = List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) pidset_qcheck in
  Alcotest.run "util"
    [
      ( "pidset",
        [
          Alcotest.test_case "empty" `Quick test_pidset_empty;
          Alcotest.test_case "add/remove" `Quick test_pidset_add_remove;
          Alcotest.test_case "full" `Quick test_pidset_full;
          Alcotest.test_case "set ops" `Quick test_pidset_ops;
          Alcotest.test_case "to_list sorted" `Quick test_pidset_to_list_sorted;
          Alcotest.test_case "min/max" `Quick test_pidset_min_max;
          Alcotest.test_case "iterators" `Quick test_pidset_iterators;
          Alcotest.test_case "random size" `Quick test_pidset_random_size;
          Alcotest.test_case "pp" `Quick test_pidset_pp;
          Alcotest.test_case "large universe" `Quick test_pidset_large_universe;
          Alcotest.test_case "canonical over words" `Quick test_pidset_large_equal_hash_canonical;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "list_from" `Quick test_vec_list_from;
          Alcotest.test_case "bounds" `Quick test_vec_get_out_of_bounds;
        ] );
      ( "strutil",
        [
          Alcotest.test_case "empty/degenerate" `Quick test_strutil_empty;
          Alcotest.test_case "overlap" `Quick test_strutil_overlap;
          Alcotest.test_case "unicode bytes" `Quick test_strutil_unicode_bytes;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) strutil_qcheck );
      ("pidset-properties", qc);
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "split_named stable" `Quick test_rng_split_named_stable;
          Alcotest.test_case "copy stream" `Quick test_rng_split_named_order_independent;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "pick/shuffle" `Quick test_rng_pick_shuffle;
          Alcotest.test_case "uniform mean" `Quick test_rng_mean_sanity;
        ] );
      ( "earena",
        [
          Alcotest.test_case "basic" `Quick test_earena_basic;
          Alcotest.test_case "tie = insertion order" `Quick test_earena_tie_insertion_order;
          Alcotest.test_case "grow + recycle" `Quick test_earena_grow_and_recycle;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            earena_sorted_qcheck;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            earena_wheel_sizes_qcheck;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            earena_small_wheel_qcheck;
        ] );
      ( "ringbuf",
        [
          Alcotest.test_case "wrap + dropped" `Quick test_ringbuf_wraps;
          Alcotest.test_case "zero capacity refused" `Quick test_ringbuf_bad_cap;
        ] );
      ( "combi",
        [
          Alcotest.test_case "binomial values" `Quick test_binomial_values;
          Alcotest.test_case "pascal identity" `Quick test_binomial_pascal;
          Alcotest.test_case "unrank first/last" `Quick test_unrank_first_last;
          Alcotest.test_case "rank/unrank roundtrip" `Quick test_unrank_rank_roundtrip;
          Alcotest.test_case "unrank out of range" `Quick test_unrank_out_of_range;
          Alcotest.test_case "enumerate distinct" `Quick test_enumerate_all_distinct;
          Alcotest.test_case "enumerate lex" `Quick test_enumerate_lex_increasing;
          Alcotest.test_case "unrank_in base" `Quick test_unrank_in_base;
        ] );
      ( "ring",
        [
          Alcotest.test_case "lower total" `Quick test_lower_ring_total;
          Alcotest.test_case "lower start" `Quick test_lower_ring_decode_start;
          Alcotest.test_case "lower element-in-set" `Quick test_lower_ring_element_in_set;
          Alcotest.test_case "lower wraps" `Quick test_lower_ring_wraps;
          Alcotest.test_case "lower covers pairs" `Quick test_lower_ring_covers_all_pairs;
          Alcotest.test_case "lower blocks" `Quick test_lower_ring_x_elements_consecutive;
          Alcotest.test_case "upper total" `Quick test_upper_ring_total;
          Alcotest.test_case "upper L in Y" `Quick test_upper_ring_l_subset_y;
          Alcotest.test_case "upper covers" `Quick test_upper_ring_covers_all;
          Alcotest.test_case "upper wraps" `Quick test_upper_ring_wraps;
          Alcotest.test_case "bad args" `Quick test_ring_bad_args;
        ] );
      ("pid", [ Alcotest.test_case "basics" `Quick test_pid ]);
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "singleton/empty" `Quick test_stats_singleton_and_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile_unsorted_input;
          Alcotest.test_case "pp" `Quick test_stats_pp;
          Alcotest.test_case "summarize_opt" `Quick test_stats_summarize_opt;
        ] );
      ( "stats-properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) stats_qcheck );
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "to_float_opt" `Quick test_json_to_float_opt;
        ] );
      ( "json-properties",
        List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) json_qcheck );
      ( "json-stream",
        [
          Alcotest.test_case "parse_prefix" `Quick test_json_parse_prefix;
          Alcotest.test_case "byte-at-a-time" `Quick test_stream_byte_at_a_time;
          Alcotest.test_case "error recovery + offsets" `Quick
            test_stream_error_recovery_and_offsets;
          Alcotest.test_case "partial frame held" `Quick test_stream_partial_frame_held;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            stream_qcheck;
          Alcotest.test_case "8 MiB frame in 4 KiB chunks" `Quick
            test_stream_large_frame_linear;
        ] );
      ( "greedy-consumption",
        Alcotest.test_case "basics" `Quick test_greedy_consume_basics
        :: List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) [ ring_confluence_qcheck ] );
      ( "journal",
        [
          Alcotest.test_case "append/load roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "missing file + garbage lines" `Quick
            test_journal_missing_and_garbage;
          Alcotest.test_case "compacting rewrite" `Quick test_journal_rewrite;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            journal_truncation_qcheck;
        ] );
    ]
