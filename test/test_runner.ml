(* Tests for the campaign engine: the determinism contract (same seed =>
   same result record; -j 1 and -j N => identical merged output), failure
   capture / triage records, and the JSON artifacts. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core
open Setagree_runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A real simulator job — consensus with Omega_1 on 5 processes — so the
   determinism property is exercised against the full effect-fiber
   machinery, not a toy closure. *)
let kset_job seed =
  Runner.job ~exp:"testcamp" ~seed
    ~params:[ ("n", Json.Int 5); ("z", Json.Int 1) ]
    ~replay:(Printf.sprintf "dune exec bin/fdkit.exe -- kset -n 5 -t 2 -z 1 -k 1 --seed %d" seed)
    (fun () ->
      let sim = Sim.create ~horizon:3000.0 ~n:5 ~t:2 ~seed () in
      let rng = Rng.split_named (Sim.rng sim) "crash" in
      Sim.install_crashes sim
        (Crash.generate (Crash.Exactly { crashes = 1; window = (0.0, 20.0) }) ~n:5 ~t:2 rng);
      let omega, _ = Oracle.omega_z sim ~z:1 ~behavior:(Behavior.stormy ~gst:30.0) () in
      let proposals = [| 101; 102; 103; 104; 105 |] in
      let h = Kset.install sim ~omega ~proposals () in
      let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
      let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Kset.decisions h) in
      Runner.body
        ~metrics:
          [
            ("rounds", float_of_int (Kset.max_round h));
            ("msgs", float_of_int (Kset.messages_sent h));
            ("latency", o.end_time);
          ]
        ~row:(Printf.sprintf "seed=%d rounds=%d msgs=%d" seed (Kset.max_round h)
                (Kset.messages_sent h))
        (Check.verdict_ok v))

let jobs_of_seeds seeds = List.map kset_job seeds

(* --- determinism ------------------------------------------------------ *)

let test_same_seed_same_result () =
  let c1 = Runner.run ~jobs:1 ~exp:"testcamp" (jobs_of_seeds [ 7 ]) in
  let c2 = Runner.run ~jobs:1 ~exp:"testcamp" (jobs_of_seeds [ 7 ]) in
  check_str "identical signature" (Runner.signature c1) (Runner.signature c2);
  let r1 = c1.Runner.c_results.(0) and r2 = c2.Runner.c_results.(0) in
  check "same ok" true (r1.Runner.r_ok = r2.Runner.r_ok);
  check "same metrics" true (r1.Runner.r_metrics = r2.Runner.r_metrics);
  check_str "same row" r1.Runner.r_row r2.Runner.r_row

let test_parallel_equals_sequential () =
  let seeds = List.init 12 (fun i -> i + 1) in
  let seq = Runner.run ~jobs:1 ~exp:"testcamp" (jobs_of_seeds seeds) in
  let par = Runner.run ~jobs:4 ~exp:"testcamp" (jobs_of_seeds seeds) in
  check_int "worker count recorded" 4 par.Runner.c_workers;
  check_str "merged output identical" (Runner.signature seq) (Runner.signature par);
  Alcotest.(check (list string)) "rows in canonical order" (Runner.rows seq) (Runner.rows par)

let test_seed_sensitivity () =
  let c1 = Runner.run ~jobs:1 ~exp:"testcamp" (jobs_of_seeds [ 1 ]) in
  let c2 = Runner.run ~jobs:1 ~exp:"testcamp" (jobs_of_seeds [ 2 ]) in
  check "different seeds differ" true (Runner.signature c1 <> Runner.signature c2)

(* --- failure capture and triage -------------------------------------- *)

let test_exception_captured () =
  let boom =
    Runner.job ~exp:"testcamp" ~seed:1 ~label:"boom" (fun () -> failwith "kaboom")
  in
  let c = Runner.run ~jobs:2 ~exp:"testcamp" [ boom; kset_job 3 ] in
  let r = c.Runner.c_results.(0) in
  check "exception -> not ok" false r.Runner.r_ok;
  check "error recorded" true
    (match r.Runner.r_error with Some msg -> String.length msg > 0 | None -> false);
  check_int "one failure" 1 (List.length (Runner.failures c));
  (* The healthy job still ran and merged in canonical position. *)
  check "second job ok" true c.Runner.c_results.(1).Runner.r_ok

let test_failure_json_has_replay () =
  let failing =
    Runner.job ~exp:"testcamp" ~seed:42 ~label:"bad"
      ~replay:"dune exec bin/fdkit.exe -- kset --seed 42"
      (fun () -> Runner.body ~notes:[ "agreement violated" ] false)
  in
  let c = Runner.run ~jobs:1 ~exp:"testcamp" [ failing ] in
  let r = List.hd (Runner.failures c) in
  let j = Runner.failure_json r in
  check "has seed" true (Json.member "seed" j = Some (Json.Int 42));
  check "has replay" true
    (Json.member "replay" j = Some (Json.String "dune exec bin/fdkit.exe -- kset --seed 42"));
  check "has notes" true
    (match Json.member "notes" j with Some (Json.List (_ :: _)) -> true | _ -> false)

let test_flush_failures_roundtrip () =
  Runner.reset_sink ();
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "setagree_runner_test" in
  let failing =
    Runner.job ~exp:"testcamp" ~seed:9 ~label:"bad" (fun () ->
        Runner.body ~notes:[ "nope" ] false)
  in
  Runner.note_campaign (Runner.run ~jobs:1 ~exp:"testcamp" [ failing; kset_job 1 ]);
  let count = Runner.flush_failures ~dir () in
  check_int "one failure flushed" 1 count;
  let ic = open_in (Filename.concat dir "failures.json") in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  (match Json.of_string contents with
  | Ok j ->
      check "count field" true (Json.member "failures" j = Some (Json.Int 1));
      check "triage list" true
        (match Json.member "triage" j with Some (Json.List [ _ ]) -> true | _ -> false)
  | Error msg -> Alcotest.failf "failures.json does not parse: %s" msg);
  Runner.reset_sink ()

(* [run] keeps nothing once it returns: a long-lived caller (the serve
   daemon) must not grow with every failing campaign it runs. *)
let test_run_feeds_no_sink () =
  Runner.reset_sink ();
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "setagree_runner_test" in
  let failing =
    Runner.job ~exp:"testcamp" ~seed:9 ~label:"bad" (fun () ->
        Runner.body ~notes:[ "nope" ] false)
  in
  let c = Runner.run ~jobs:1 ~exp:"testcamp" [ failing; kset_job 1 ] in
  check_int "the campaign has its failure" 1 (List.length (Runner.failures c));
  check_int "nothing collected" 0 (Runner.flush_failures ~dir ())

(* --- artifacts and aggregation --------------------------------------- *)

let test_artifact_roundtrip () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "setagree_runner_test" in
  let c = Runner.run ~jobs:2 ~exp:"artifact_rt" (jobs_of_seeds [ 1; 2; 3 ]) in
  let path = Runner.write_artifact ~dir c in
  check "named after experiment" true (Filename.basename path = "BENCH_artifact_rt.json");
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string contents with
  | Error msg -> Alcotest.failf "artifact does not parse: %s" msg
  | Ok j ->
      check "experiment" true
        (Json.member "experiment" j = Some (Json.String "artifact_rt"));
      check "jobs" true (Json.member "jobs" j = Some (Json.Int 3));
      check "throughput positive" true
        (match Option.bind (Json.member "throughput_jobs_per_s" j) Json.to_float_opt with
        | Some f -> f > 0.0
        | None -> false);
      check "aggregates has rounds" true
        (match Json.member "aggregates" j with
        | Some agg -> Json.member "rounds" agg <> None
        | None -> false);
      check "results length" true
        (match Json.member "results" j with Some (Json.List l) -> List.length l = 3 | _ -> false)

let test_metric_summaries_skip_empty () =
  (* A campaign whose only job reports no metrics must aggregate to
     nothing rather than raise (Stats.summarize_opt at work). *)
  let bare = Runner.job ~exp:"testcamp" ~seed:1 (fun () -> Runner.body true) in
  let c = Runner.run ~jobs:1 ~exp:"testcamp" [ bare ] in
  check_int "no aggregates" 0 (List.length (Runner.metric_summaries c))

let test_workers_clamped_to_jobs () =
  let c = Runner.run ~jobs:8 ~exp:"testcamp" (jobs_of_seeds [ 1; 2 ]) in
  check "workers <= jobs" true (c.Runner.c_workers <= 2)

let test_default_label () =
  let j = Runner.job ~exp:"e99" ~seed:5 (fun () -> Runner.body true) in
  check_str "default label" "e99/seed=5" j.Runner.label

(* --- cache robustness -------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "setagree_cache_%s_%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

(* The kset job again, but keyed so [Runner.run] routes it through the
   cache. *)
let cached_job seed =
  let j = kset_job seed in
  Runner.job ~exp:j.Runner.exp ~seed ~label:j.Runner.label
    ~key:(Runner.Cache.key ~parts:[ "cachefuzz"; string_of_int seed ])
    j.Runner.run

let cache_entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun shard ->
         let sd = Filename.concat dir shard in
         if Sys.is_directory sd then
           Sys.readdir sd |> Array.to_list
           |> List.filter (fun f -> Filename.check_suffix f ".json")
           |> List.map (Filename.concat sd)
         else [])
  |> List.sort compare

(* Fuzzed corruption: every entry on disk is mangled a different way —
   emptied, truncated at two depths, one byte flipped, overwritten with
   garbage, header flipped.  Every mangled entry must be detected as a
   counted miss (never an exception, never a false hit), unlinked, and
   healed by the re-execution's store; the campaign output must be
   byte-identical throughout. *)
let test_cache_corruption_fuzz () =
  let dir = scratch "fuzz" in
  let seeds = List.init 6 (fun i -> i + 1) in
  let cache = Runner.Cache.create ~dir () in
  let cold = Runner.run ~jobs:2 ~cache ~exp:"testcamp" (List.map cached_job seeds) in
  let signature = Runner.signature cold in
  check_int "every job stored" 6 (Runner.Cache.stores cache);
  let entries = cache_entry_files dir in
  check_int "six entries on disk" 6 (List.length entries);
  List.iteri
    (fun i path ->
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length contents in
      let flip s pos =
        let b = Bytes.of_string s in
        Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
        Bytes.to_string b
      in
      let mangled =
        match i mod 6 with
        | 0 -> "" (* emptied *)
        | 1 -> String.sub contents 0 (n / 2) (* truncated mid-payload *)
        | 2 -> String.sub contents 0 (n - 2) (* closing brace lost *)
        | 3 -> flip contents (n / 2) (* bit rot mid-payload *)
        | 4 -> "not json at all"
        | _ -> flip contents 1 (* mangled header *)
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc mangled))
    entries;
  Runner.Cache.reset_stats cache;
  let warm = Runner.run ~jobs:2 ~cache ~exp:"testcamp" (List.map cached_job seeds) in
  check_str "corruption never changes the output" signature
    (Runner.signature warm);
  check_int "every mangled entry detected" 6 (Runner.Cache.corrupt cache);
  check_int "each corrupt entry is a counted miss" 6 (Runner.Cache.misses cache);
  check_int "no false hits" 0 (Runner.Cache.hits cache);
  check_int "slots healed by re-store" 6 (Runner.Cache.stores cache);
  check_int "campaign attributes the corruption" 6 warm.Runner.c_cache_corrupt;
  check_int "no write failures" 0 warm.Runner.c_cache_write_failed;
  (* The healed entries are trusted again: a third pass is all hits. *)
  Runner.Cache.reset_stats cache;
  let healed =
    Runner.run ~jobs:2 ~cache ~exp:"testcamp" (List.map cached_job seeds)
  in
  check_str "healed signature identical" signature (Runner.signature healed);
  check_int "healed entries all hit" 6 (Runner.Cache.hits cache);
  check_int "nothing corrupt after healing" 0 (Runner.Cache.corrupt cache);
  rm_rf dir

(* A store that cannot reach the disk (here: the shard directory is
   blocked by a regular file) is a counted degradation, not a failure —
   the result is already in hand, only reuse is lost. *)
let test_cache_write_failure_counted () =
  let dir = scratch "wfail" in
  let cache = Runner.Cache.create ~dir () in
  let k = Runner.Cache.key ~parts:[ "wfail"; "1" ] in
  let shard = Filename.concat dir (String.sub k 0 2) in
  Out_channel.with_open_bin shard (fun oc ->
      Out_channel.output_string oc "in the way");
  let job = Runner.job ~exp:"testcamp" ~seed:1 ~key:k (fun () -> Runner.body true) in
  let c = Runner.run ~jobs:1 ~cache ~exp:"testcamp" [ job ] in
  check "job still succeeded" true c.Runner.c_results.(0).Runner.r_ok;
  check_int "write failure counted" 1 (Runner.Cache.write_failed cache);
  check_int "nothing stored" 0 (Runner.Cache.stores cache);
  check_int "campaign attributes the write failure" 1 c.Runner.c_cache_write_failed;
  rm_rf dir

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same result" `Quick test_same_seed_same_result;
          Alcotest.test_case "-j 1 equals -j 4" `Quick test_parallel_equals_sequential;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        ] );
      ( "triage",
        [
          Alcotest.test_case "exception captured" `Quick test_exception_captured;
          Alcotest.test_case "failure json" `Quick test_failure_json_has_replay;
          Alcotest.test_case "flush failures" `Quick test_flush_failures_roundtrip;
          Alcotest.test_case "run feeds no sink" `Quick test_run_feeds_no_sink;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "artifact roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "empty metrics" `Quick test_metric_summaries_skip_empty;
          Alcotest.test_case "workers clamp" `Quick test_workers_clamped_to_jobs;
          Alcotest.test_case "default label" `Quick test_default_label;
        ] );
      ( "cache-robustness",
        [
          Alcotest.test_case "fuzzed corruption = counted miss" `Quick
            test_cache_corruption_fuzz;
          Alcotest.test_case "write failure counted" `Quick
            test_cache_write_failure_counted;
        ] );
    ]
