(* Tests for the schedule explorer stack: Crash.spec / Schedule JSON
   round-trips, the protocol-blind Explore kernel on toy instances where
   the full branch structure is checkable by hand (sleep-set pruning,
   first-deviation DFS, delta-debugging minimization, crash injection),
   and the campaign-shaped Explorer on the E2 misuse configuration
   (Omega_z with z > k must yield a replayable counterexample; z <= k
   must come up dry — Lemma 2) including the -j 1 == -j N determinism
   contract. *)

open Setagree_util
open Setagree_dsys
open Setagree_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- JSON round-trips --- *)

let gen_spec =
  QCheck.Gen.(
    let pid = int_range 0 7 in
    let time = map float_of_int (int_range 0 50) in
    let window = map (fun a -> (float_of_int a, float_of_int (a + 20))) (int_range 0 30) in
    int_range 0 4 >>= function
    | 0 -> return Crash.No_crashes
    | 1 -> map (fun l -> Crash.Explicit l) (list_size (int_range 0 3) (pair pid time))
    | 2 -> map (fun l -> Crash.Initial l) (list_size (int_range 0 3) pid)
    | 3 ->
        map2
          (fun m w -> Crash.Random_up_to { max_crashes = m; window = w })
          (int_range 0 4) window
    | _ ->
        map2 (fun c w -> Crash.Exactly { crashes = c; window = w }) (int_range 0 4) window)

let qcheck_crash_spec_roundtrip =
  QCheck.Test.make ~name:"Crash.spec_of_json (spec_to_json s) = Ok s" ~count:200
    (QCheck.make gen_spec)
    (fun spec -> Crash.spec_of_json (Crash.spec_to_json spec) = Ok spec)

let gen_choice =
  QCheck.Gen.(
    bool >>= function
    | true -> map (fun i -> Schedule.Deliver i) (int_range 0 20)
    | false -> map (fun p -> Schedule.Crash p) (int_range 0 7))

let gen_schedule =
  QCheck.Gen.(
    map2
      (fun (choices, spec) violation ->
        {
          Schedule.protocol = "kset";
          params = Protocol.params_to_json Protocol.default;
          crashes = spec;
          choices;
          violation;
        })
      (pair (list_size (int_range 0 12) gen_choice) gen_spec)
      (list_size (int_range 0 2) (return "agreement: 2 > k distinct decisions")))

let qcheck_schedule_roundtrip =
  QCheck.Test.make ~name:"Schedule.of_json (to_json s) = Ok s" ~count:200
    (QCheck.make gen_schedule)
    (fun s -> Schedule.of_json (Schedule.to_json s) = Ok s)

let test_schedule_file_roundtrip () =
  let s =
    {
      Schedule.protocol = "kset";
      params = Protocol.params_to_json { Protocol.default with Protocol.z = 2 };
      crashes = Crash.Exactly { crashes = 2; window = (0.0, 20.0) };
      choices = [ Schedule.Deliver 3; Schedule.Crash 1; Schedule.Deliver 0 ];
      violation = [ "agreement: 2 > k distinct decisions" ];
    }
  in
  let path = Filename.temp_file "schedule" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schedule.save path s;
      match Schedule.load path with
      | Ok s' -> check "save/load round-trip" true (s = s')
      | Error e -> Alcotest.failf "load failed: %s" e)

(* --- Toy instances: the kernel's branch structure by hand --- *)

(* A test dispatcher: offers thunks to the chooser as rows of a local
   table, the way Net offers its in-flight rows.  Like Net, a row handed
   back for a crashed destination fires nothing. *)
let offerer sim =
  let thunks = Hashtbl.create 16 and next = ref 0 in
  let disp =
    Sim.register_dispatcher sim (fun row ->
        let dst, f = Hashtbl.find thunks row in
        Hashtbl.remove thunks row;
        if not (Sim.is_crashed sim dst) then f ())
  in
  fun ~src ~dst f ->
    let row = !next in
    incr next;
    Hashtbl.replace thunks row (dst, f);
    Sim.offer sim ~src ~dst ~disp ~row

(* Three messages offered at the same boundary: 1->0, 2->0, 2->1.  The
   "protocol" is violated iff process 0's FIRST message comes from 2.
   FIFO is safe; exactly one reordering (Deliver 1 at point 0) breaks it;
   2->1 commutes with both (different destination), so branching on it is
   pruned. *)
let make_race () =
  let sim = Sim.create ~horizon:50.0 ~n:3 ~t:1 ~seed:1 () in
  let offer = offerer sim in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      offer ~src:1 ~dst:0 (fun () -> log := !log @ [ 1 ]);
      offer ~src:2 ~dst:0 (fun () -> log := !log @ [ 2 ]);
      offer ~src:2 ~dst:1 (fun () -> ()));
  {
    Explore.i_sim = sim;
    i_stop = (fun () -> false);
    i_violation = (fun () -> match !log with 2 :: _ -> [ "src 2 overtook src 1" ] | _ -> []);
    i_crashable = [];
  }

let test_default_exec_is_fifo_and_safe () =
  let stats = Explore.new_stats () in
  let e = Explore.default_exec ~make:make_race ~stats ~depth:8 in
  check "FIFO run is safe" true (e.Explore.ex_violation = []);
  check_int "three choice points" 3 e.Explore.ex_points;
  check_int "all-default choices" 0 (Explore.deviations e.Explore.ex_choices)

let test_dfs_finds_race_with_pruning () =
  let stats = Explore.new_stats () in
  let base = Explore.default_exec ~make:make_race ~stats ~depth:8 in
  let roots =
    List.concat_map
      (Explore.alternatives_at stats base)
      (List.init (Array.length base.Explore.ex_options) Fun.id)
  in
  (* Point 0: Deliver 1 branches (same dst as Deliver 0), Deliver 2 is
     pruned (dst 1 commutes).  Point 1: the only reordering commutes.
     Point 2: singleton.  So exactly one root, >= 2 prunes. *)
  check_int "one non-commuting root" 1 (List.length roots);
  check "commuting branches pruned" true (stats.Explore.prunes >= 2);
  let found = Explore.dfs ~make:make_race ~stats ~depth:8 ~delays:2 ~max_runs:50 roots in
  (match found with
  | [ (prefix, notes) ] ->
      check_int "one deviation suffices" 1 (Explore.deviations prefix);
      check "the recorded violation" true (notes = [ "src 2 overtook src 1" ])
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l));
  check "violations counted" true (stats.Explore.violations >= 1)

let test_shrink_race_to_single_reorder () =
  let stats = Explore.new_stats () in
  let base = Explore.default_exec ~make:make_race ~stats ~depth:8 in
  let roots = Explore.alternatives_at stats base 0 in
  let found = Explore.dfs ~make:make_race ~stats ~depth:8 ~delays:2 ~max_runs:50 roots in
  let before = stats.Explore.shrink_runs in
  let choices, notes = Explore.shrink ~make:make_race ~stats (List.hd found) in
  (* The empty schedule, dropping the one choice, normalizing it, the
     final single-choice pass, the confirming run. *)
  check_int "shrink runs" 5 (stats.Explore.shrink_runs - before);
  check "minimized to the one reordering" true (choices = [ Schedule.Deliver 1 ]);
  check "violation preserved" true (notes = [ "src 2 overtook src 1" ]);
  (* Replay of the minimized schedule exhibits the same violation. *)
  let e = Explore.run_schedule ~make:make_race choices in
  check "minimized schedule replays" true (e.Explore.ex_violation = notes)

let test_run_schedule_deterministic () =
  let run () =
    let e = Explore.run_schedule ~make:make_race ~depth:8 [ Schedule.Deliver 1 ] in
    (e.Explore.ex_choices, e.Explore.ex_violation, e.Explore.ex_outcome.Sim.events)
  in
  check "same choices, same execution" true (run () = run ())

(* Violated iff the adversary crashes process 1 — delivery order is
   irrelevant.  DFS must discover it via crash injection and shrink must
   keep exactly [Crash 1]. *)
let make_crashable () =
  let sim = Sim.create ~horizon:50.0 ~n:3 ~t:1 ~seed:1 () in
  let offer = offerer sim in
  Sim.schedule sim ~delay:1.0 (fun () -> offer ~src:2 ~dst:0 (fun () -> ()));
  {
    Explore.i_sim = sim;
    i_stop = (fun () -> false);
    i_violation =
      (fun () ->
        if Pidset.mem 1 (Sim.correct_set sim) then [] else [ "pid 1 was crashed" ]);
    i_crashable = [ 0; 1; 2 ];
  }

let test_dfs_injects_crash_and_shrinks () =
  let stats = Explore.new_stats () in
  let base = Explore.default_exec ~make:make_crashable ~stats ~depth:8 in
  check "default run safe" true (base.Explore.ex_violation = []);
  let roots =
    List.concat_map
      (Explore.alternatives_at stats base)
      (List.init (Array.length base.Explore.ex_options) Fun.id)
  in
  let found =
    Explore.dfs ~make:make_crashable ~stats ~depth:8 ~delays:2 ~max_runs:100 roots
  in
  check "found the crash violation" true
    (List.exists (fun (_, notes) -> notes = [ "pid 1 was crashed" ]) found);
  let fv = List.find (fun (_, notes) -> notes = [ "pid 1 was crashed" ]) found in
  let choices, notes = Explore.shrink ~make:make_crashable ~stats fv in
  check "minimized to the one crash" true (choices = [ Schedule.Crash 1 ]);
  check "violation preserved" true (notes = [ "pid 1 was crashed" ])

(* --- The chooser's pending pool against a list model --- *)

(* The pool's semantics as a newest-first list: the chooser sees it
   reversed (offer order), a pick removes its entry by id, a crash drops
   every entry to the crashed process and hands each one's row back, in
   offer order.  Random offers (from scheduled batches and from delivered
   messages, which answer every third one), picks at any index
   (out-of-range ones clamp), passes and crashes drive a simulator and
   the model side by side; the rows are the ids.  At every boundary the
   chooser's in-place view must equal the model's, and the dispatcher
   must see the model's picks and hand-backs, in the model's order. *)
type pool_op = Pick of int | Kill of Pid.t | Skip

let gen_pool_case =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 6) (list_size (int_range 0 5) (pair (int_bound 4) (int_bound 4))))
      (list_size (int_range 0 60)
         (frequency
            [
              (6, map (fun i -> Pick i) (int_range (-2) 9));
              (1, map (fun p -> Kill p) (int_bound 4));
              (1, return Skip);
            ])))

let print_pool_case (batches, ops) =
  Printf.sprintf "batches=[%s] ops=[%s]"
    (String.concat "; "
       (List.map
          (fun b -> String.concat "," (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) b))
          batches))
    (String.concat ","
       (List.map
          (function Pick i -> Printf.sprintf "d%d" i | Kill p -> Printf.sprintf "c%d" p | Skip -> "p")
          ops))

let qcheck_pool_matches_list_model =
  QCheck.Test.make ~name:"chooser pool = newest-first list model" ~count:300
    (QCheck.make ~print:print_pool_case gen_pool_case)
    (fun (batches, ops) ->
      let n = 5 and t = 3 in
      let sim = Sim.create ~horizon:100.0 ~n ~t ~seed:1 () in
      let model = ref [] (* (id, src, dst), newest first *) in
      let next_id = ref 0 in
      let dispatched = ref [] and expected = ref [] in
      let crashed = ref [] in
      let ok = ref true in
      let replies = Hashtbl.create 16 in
      (* Like Net, a row whose destination is dead by now delivers nothing. *)
      let disp =
        Sim.register_dispatcher sim (fun id ->
            dispatched := id :: !dispatched;
            let dst, reply = Hashtbl.find replies id in
            if not (Sim.is_crashed sim dst) then reply ())
      in
      let rec offer ~src ~dst ~reply =
        let id = !next_id in
        incr next_id;
        model := (id, src, dst) :: !model;
        Hashtbl.replace replies id
          (dst, fun () -> if reply && id mod 3 = 0 then offer ~src:dst ~dst:src ~reply:false);
        Sim.offer sim ~src ~dst ~disp ~row:id
      in
      List.iteri
        (fun i batch ->
          Sim.schedule sim ~delay:(float_of_int (i + 1)) (fun () ->
              List.iter (fun (src, dst) -> offer ~src ~dst ~reply:true) batch))
        batches;
      let rem = ref ops in
      Sim.set_chooser sim (fun sim m ->
          let view = List.init m (fun i -> (Sim.pending_src sim i, Sim.pending_dst sim i)) in
          if view <> List.rev_map (fun (_, s, d) -> (s, d)) !model
             || Sim.pending_deliveries sim <> m
          then ok := false;
          (match Sim.pending_src sim m with
          | _ -> ok := false
          | exception Invalid_argument _ -> ());
          let op = match !rem with [] -> Pick 0 | op :: rest -> rem := rest; op in
          match op with
          | Skip -> Sim.Pass
          | Kill p when List.mem p !crashed || List.length !crashed < t ->
              if not (List.mem p !crashed) then begin
                crashed := p :: !crashed;
                let gone, kept = List.partition (fun (_, _, d) -> d = p) !model in
                expected := List.map (fun (id, _, _) -> id) gone @ !expected;
                model := kept
              end;
              Sim.Inject_crash p
          | Kill _ -> Sim.Pass
          | Pick i ->
              (if m > 0 then
                 let id, _, _ = List.nth (List.rev !model) (max 0 (min i (m - 1))) in
                 expected := id :: !expected;
                 model := List.filter (fun (id', _, _) -> id' <> id) !model);
              Sim.Deliver i);
      ignore (Sim.run sim);
      !ok && !dispatched = !expected && Sim.pending_deliveries sim = List.length !model)

(* --- DFS recording only what it reads, against a full-recording reference --- *)

(* The reference search: every execution records its executed choices
   and its options from point 0 to [depth] (run_schedule), and a run
   with deviations to spare is expanded through alternatives_at at every
   point from its prefix on. *)
let reference_dfs ~make ~stats ~depth ~delays ~max_runs roots =
  let found = ref [] in
  let stack = ref roots in
  while !stack <> [] && stats.Explore.runs < max_runs do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        let e = Explore.run_schedule ~make ~depth prefix in
        stats.Explore.runs <- stats.Explore.runs + 1;
        stats.Explore.points <- stats.Explore.points + e.Explore.ex_points;
        if e.Explore.ex_violation <> [] then begin
          stats.Explore.violations <- stats.Explore.violations + 1;
          found := (prefix, e.Explore.ex_violation) :: !found
        end
        else if Explore.deviations prefix < delays then begin
          let kids = ref [] in
          for q = Array.length e.Explore.ex_options - 1 downto List.length prefix do
            kids := Explore.alternatives_at stats e q @ !kids
          done;
          stack := !kids @ !stack
        end
  done;
  List.rev !found

(* Small kset instances (adversarial wiring, so z > k ones violate), with
   the adversary's crash budget open, spent on an initial crash that
   fires, or spent on scheduled crashes. *)
let gen_dfs_case =
  QCheck.Gen.(
    let* n = int_range 3 5 in
    let t = (n - 1) / 2 in
    let* z = int_range 1 2 and* k = int_range 1 2 and* seed = int_range 1 1000 in
    let* crashes =
      oneofl
        [
          Crash.No_crashes;
          Crash.Initial [ n - 1 ];
          Crash.Exactly { crashes = t; window = (0.0, 5.0) };
        ]
    in
    let* delays = int_range 1 2 and* depth = int_range 3 10 and* max_runs = int_range 20 200 in
    return
      ( {
          Protocol.default with
          Protocol.n;
          t;
          z;
          k;
          seed;
          adversarial = true;
          horizon = 300.0;
          crashes;
        },
        (delays, depth, max_runs) ))

let print_dfs_case ((p : Protocol.params), (delays, depth, max_runs)) =
  Printf.sprintf "%s delays=%d depth=%d max_runs=%d"
    (Json.to_string ~minify:true (Json.Obj (Protocol.params_to_json p)))
    delays depth max_runs

let qcheck_dfs_matches_reference =
  QCheck.Test.make ~name:"dfs = full-recording reference" ~count:100
    (QCheck.make ~print:print_dfs_case gen_dfs_case)
    (fun (p, (delays, depth, max_runs)) ->
      let make = Protocol.explore_make (Option.get (Protocol.find "kset")) p in
      (* The roots a point job searches from: the FIFO run's alternatives,
         which deviate (and may violate) even where FIFO itself does. *)
      let base = Explore.run_schedule ~make ~depth [] in
      let roots =
        List.concat_map
          (Explore.alternatives_at (Explore.new_stats ()) base)
          (List.init depth Fun.id)
      in
      let search dfs =
        let stats = Explore.new_stats () in
        let found = dfs ~make ~stats ~depth ~delays ~max_runs roots in
        (found, stats.Explore.runs, stats.Explore.points, stats.Explore.prunes)
      in
      search (fun ~make ~stats ~depth ~delays ~max_runs roots ->
          Explore.dfs ~make ~stats ~depth ~delays ~max_runs roots)
      = search reference_dfs)

(* One leaf of the explore-safe search (a run whose prefix already holds
   its two deviations) allocates under 10,000 minor words: it records
   nothing, and its deliveries are rows, not closures.  It took 18,300
   words when every execution recorded its options. *)
let test_leaf_allocation () =
  let p =
    match
      Job.of_flags ~kind:`Explore ~protocol:"kset"
        { Protocol.default with Protocol.n = 7; t = 2; z = 1; k = 1 }
    with
    | Job.Explore { params; _ } -> params
    | _ -> assert false
  in
  let make = Protocol.explore_make (Option.get (Protocol.find "kset")) p in
  let stats = Explore.new_stats () in
  let base = Explore.default_exec ~make ~stats ~depth:24 in
  let first e q0 =
    List.find_map
      (fun q -> match Explore.alternatives_at stats e q with a :: _ -> Some a | [] -> None)
      (List.init (24 - q0) (fun i -> q0 + i))
    |> Option.get
  in
  let one = first base 0 in
  let leaf = first (Explore.run_schedule ~make ~depth:24 one) (List.length one) in
  check_int "the leaf holds two deviations" 2 (Explore.deviations leaf);
  let run () = Explore.dfs ~make ~stats ~depth:24 ~delays:2 [ leaf ] in
  ignore (run ());
  let runs = stats.Explore.runs in
  let w0 = Gc.minor_words () in
  let found = run () in
  let words = Gc.minor_words () -. w0 in
  check "one safe execution" true (found = [] && stats.Explore.runs = runs + 1);
  check (Printf.sprintf "leaf execution allocated %.0f minor words, at most 10000" words) true
    (words <= 10_000.0)

(* --- Explorer on the registry: E2 misuse end-to-end --- *)

let bounds =
  {
    Explorer.default_bounds with
    Explorer.depth = 8;
    delays = 1;
    walks = 8;
    max_runs_per_job = 100;
    shrink_budget = 100;
  }

let params z =
  {
    Protocol.default with
    Protocol.n = 7;
    t = 2;
    seed = 1;
    z;
    k = 1;
    adversarial = true;
    horizon = 300.0;
    crashes = Crash.No_crashes;
  }

let test_misuse_finds_and_replays () =
  let o = Job.execute ~jobs:1 (Job.Explore { protocol = "kset"; params = params 2; bounds }) in
  check "z > k yields a counterexample" true (o.Job.o_ces <> []);
  let ce = List.hd o.Job.o_ces in
  check "violation recorded" true (ce.Schedule.violation <> []);
  match Explorer.replay ce with
  | Ok (_, reproduced) -> check "replay reproduces the violation" true reproduced
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_explorer_jobs_deterministic () =
  let o1 = Job.execute ~jobs:1 (Job.Explore { protocol = "kset"; params = params 2; bounds }) in
  let o2 = Job.execute ~jobs:2 (Job.Explore { protocol = "kset"; params = params 2; bounds }) in
  Alcotest.(check string)
    "campaign signatures agree across -j"
    (Setagree_runner.Runner.signature o1.Job.o_campaign)
    (Setagree_runner.Runner.signature o2.Job.o_campaign);
  check "identical counterexample lists" true
    (List.map Schedule.to_json o1.Job.o_ces
    = List.map Schedule.to_json o2.Job.o_ces)

let test_safe_config_comes_up_dry () =
  let o = Job.execute ~jobs:1 (Job.Explore { protocol = "kset"; params = params 1; bounds }) in
  check "z <= k: no schedule violates (Lemma 2)" true (o.Job.o_ces = [])

(* One explorer instance's set-up, which every execution of a search
   pays: kset at n = 7 allocates under 1,024 words (about 430 on a
   64-bit host).  The simulator's event arena starts with a 256-bucket
   wheel: a 1,024-bucket one, what every instance got while wheels had
   no fewer, put the instance at about 1,400. *)
let test_instance_setup_allocation () =
  let make = Protocol.explore_make (Option.get (Protocol.find "kset")) (params 1) in
  (* Warm up: the first instance may fill lazily built tables. *)
  Sim.release (make ()).Explore.i_sim;
  let a0 = Gc.allocated_bytes () in
  let inst = make () in
  let words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  Sim.release inst.Explore.i_sim;
  check (Printf.sprintf "explore_make allocated %.0f words, under 1024" words) true
    (words < 1024.0)

let () =
  Alcotest.run "explore"
    [
      ( "json",
        [
          Alcotest.test_case "schedule file round-trip" `Quick test_schedule_file_roundtrip;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
            [ qcheck_crash_spec_roundtrip; qcheck_schedule_roundtrip ] );
      ( "kernel",
        [
          Alcotest.test_case "default exec is FIFO" `Quick test_default_exec_is_fifo_and_safe;
          Alcotest.test_case "dfs finds race, prunes commuting" `Quick
            test_dfs_finds_race_with_pruning;
          Alcotest.test_case "shrink to single reorder" `Quick
            test_shrink_race_to_single_reorder;
          Alcotest.test_case "run_schedule deterministic" `Quick
            test_run_schedule_deterministic;
          Alcotest.test_case "crash injection + shrink" `Quick
            test_dfs_injects_crash_and_shrinks;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            qcheck_pool_matches_list_model;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
            qcheck_dfs_matches_reference;
          Alcotest.test_case "leaf execution allocation" `Quick test_leaf_allocation;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "misuse finds + replays" `Quick test_misuse_finds_and_replays;
          Alcotest.test_case "-j1 == -j2" `Quick test_explorer_jobs_deterministic;
          Alcotest.test_case "safe config dry" `Quick test_safe_config_comes_up_dry;
          Alcotest.test_case "instance set-up allocation" `Quick
            test_instance_setup_allocation;
        ] );
    ]
