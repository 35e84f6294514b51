(* Tests for the unified Job API (DESIGN.md §11): spec serialization and
   canonical stability, the content-addressed result cache (warm replays
   byte-identical to cold, -j1 = -jN, per-protocol invalidation), and
   the serve daemon end-to-end over its Unix socket. *)

open Setagree_util
open Setagree_core
open Setagree_runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh scratch directory per test (deleted and recreated). *)
let tmpdir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fdkit_job_%s_%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Files.mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Spec generators                                                     *)
(* ------------------------------------------------------------------ *)

(* Floats are multiples of 1/4 so the JSON text round-trips exactly. *)
let qf lo hi =
  QCheck.Gen.map
    (fun i -> float_of_int i /. 4.0)
    (QCheck.Gen.int_range (lo * 4) (hi * 4))

let gen_params =
  QCheck.Gen.(
    map
      (fun ((n, t, seed), (z, k, x, y), (gst, horizon), (adversarial, variant, backend)) ->
        {
          Protocol.default with
          Protocol.n;
          t;
          seed;
          z;
          k;
          x;
          y;
          gst;
          horizon;
          adversarial;
          variant;
          backend;
        })
      (quad
         (triple (int_range 4 12) (int_range 1 4) (int_range 1 99))
         (quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 3))
         (pair (qf 0 50) (qf 100 400))
         (triple bool
            (oneofl [ "es"; "phi"; "psi" ])
            (oneofl [ "sim"; "rt"; "rt-chan" ]))))

let gen_bounds =
  QCheck.Gen.(
    map
      (fun ((depth, delays, walks), (max_runs, walk_batch, shrink)) ->
        {
          Explorer.default_bounds with
          Explorer.depth;
          delays;
          walks;
          max_runs_per_job = max_runs;
          walk_batch;
          shrink_budget = shrink;
        })
      (pair
         (triple (int_range 1 10) (int_range 0 4) (int_range 0 8))
         (triple (int_range 1 500) (int_range 1 8) (int_range 0 100))))

let protos = [ "kset"; "wheels"; "psi"; "consensus_s" ]

let gen_spec =
  QCheck.Gen.(
    let* p = gen_params in
    oneof
      [
        map (fun protocol -> Job.Run { protocol; params = p }) (oneofl protos);
        map2
          (fun protocol seeds -> Job.Campaign { protocol; seeds; params = p })
          (oneofl protos) (int_range 1 64);
        map2
          (fun protocols (mixes, seeds) ->
            Job.Chaos { protocols; mixes; seeds; base = p })
          (list_size (int_range 1 3) (oneofl protos))
          (pair (list_size (int_range 1 3) (oneofl Chaos.mix_names)) (int_range 1 8));
        map2
          (fun protocol bounds -> Job.Explore { protocol; params = p; bounds })
          (oneofl protos) gen_bounds;
        map
          (fun (source, path, index) -> Job.Replay { source; path; index })
          (triple
             (oneofl [ Job.Schedule_file; Job.Faults_file ])
             (oneofl [ "counterexamples.json"; "_results/chaos_failures.json" ])
             (int_bound 5));
      ])

let arb_spec = QCheck.make ~print:Job.summary gen_spec

let qcheck_spec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Job: of_json (to_json s) = s" arb_spec
    (fun spec ->
      match Job.of_json (Job.to_json spec) with
      | Ok spec' -> Job.equal spec spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

let qcheck_canonical_text_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Job: round-trip through canonical text"
    arb_spec (fun spec ->
      match Job.of_json (Json.of_string_exn (Job.canonical spec)) with
      | Ok spec' ->
          Job.equal spec spec'
          && Job.canonical spec = Job.canonical spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

(* The canonical encoding is the basis of cache keys: pin it so an
   accidental field reorder (which would silently invalidate every
   cache on disk) fails a test instead. *)
let test_canonical_pinned () =
  let spec = Job.of_flags ~kind:`Campaign ~seeds:4 ~protocol:"kset" Protocol.default in
  Alcotest.(check string) "canonical bytes are stable"
    "{\"kind\":\"campaign\",\"protocol\":\"kset\",\"seeds\":4,\"params\":{\"n\":8,\"t\":3,\"seed\":1,\"z\":1,\"k\":1,\"x\":2,\"y\":1,\"gst\":40.0,\"horizon\":0.0,\"crashes\":{\"kind\":\"exactly\",\"crashes\":2,\"window\":[0.0,20.0]},\"faults\":{\"links\":[],\"partitions\":[],\"stalls\":[],\"crashes\":{\"kind\":\"none\"},\"adversary\":\"\"},\"adversarial\":false,\"variant\":\"es\",\"trace\":\"default\",\"backend\":\"sim\"}}"
    (Job.canonical spec)

(* Specs and journals written before the engine switches were retired
   carry ["legacy_poll"] and ["legacy_queue"].  They must still decode,
   load from a journal and dedup against the same spec written today,
   and a spec that set them still runs (on the one engine). *)
let rec with_retired_keys value = function
  | Json.Obj fields ->
      (* Schema 1 wrote the two keys just before "adversarial". *)
      Json.Obj
        (List.concat_map
           (fun (k, v) ->
             let v = with_retired_keys value v in
             if k = "adversarial" then
               [ ("legacy_poll", Json.Bool value); ("legacy_queue", Json.Bool value); (k, v) ]
             else [ (k, v) ])
           fields)
  | Json.List l -> Json.List (List.map (with_retired_keys value) l)
  | j -> j

let test_retired_keys_decode () =
  let spec = Job.of_flags ~kind:`Campaign ~seeds:4 ~protocol:"kset" Protocol.default in
  let old_text =
    Json.to_string ~minify:true (with_retired_keys false (Job.to_json spec))
  in
  check "old text carries the keys" true (old_text <> Job.canonical spec);
  (match Job.of_json (Json.of_string_exn old_text) with
  | Ok decoded ->
      Alcotest.(check string) "same canonical text as without the keys"
        (Job.canonical spec) (Job.canonical decoded)
  | Error e -> Alcotest.failf "old spec rejected: %s" e);
  let dir = tmpdir "retired" in
  let path = Filename.concat dir "serve_journal.jsonl" in
  let oc = open_out_bin path in
  output_string oc
    (Json.to_string ~minify:true
       (with_retired_keys false (Serve.Recovery.accepted_entry ~id:1 spec))
    ^ "\n");
  close_out oc;
  let r = Serve.Recovery.load path in
  check_int "no line dropped" 0 r.Serve.Recovery.dropped_lines;
  (match r.Serve.Recovery.pending with
  | [ pend ] ->
      check "journalled spec dedups against today's" true
        (Job.equal pend.Serve.Recovery.p_spec spec)
  | l -> Alcotest.failf "%d pending jobs, expected 1" (List.length l));
  rm_rf dir;
  let run = Job.of_flags ~kind:`Run ~protocol:"kset" Protocol.default in
  match Job.of_json (with_retired_keys true (Job.to_json run)) with
  | Ok decoded ->
      let a = (Job.execute decoded).Job.o_campaign and b = (Job.execute run).Job.o_campaign in
      check_int "runs and passes" 0 (List.length (Runner.failures a));
      Alcotest.(check string) "same execution" (Runner.signature b) (Runner.signature a)
  | Error e -> Alcotest.failf "spec with true values rejected: %s" e

(* A campaign's triage replay names its backend, so a failing rt seed
   replays on the runtime, not on the simulator. *)
let test_replay_keeps_backend () =
  let replays backend =
    let spec =
      Job.of_flags ~kind:`Campaign ~seeds:1 ~protocol:"kset"
        { Protocol.default with Protocol.backend }
    in
    Array.to_list (Job.execute ~jobs:1 spec).Job.o_campaign.Runner.c_results
    |> List.filter_map (fun r -> r.Runner.r_replay)
  in
  let has_flag s = List.mem "--backend" (String.split_on_char ' ' s) in
  (* No rt runner is installed in the test binary, so the rt-chan job
     fails and its replay is the triage command. *)
  (match replays "rt-chan" with
  | [ r ] ->
      check "rt replay names the backend" true
        (String.ends_with ~suffix:" --backend rt-chan" r)
  | l -> Alcotest.failf "%d replays, expected 1" (List.length l));
  check "sim replay has no backend flag" false (List.exists has_flag (replays "sim"))

let test_of_flags_defaults () =
  (match Job.of_flags ~kind:`Chaos ~protocol:"" ~seeds:8 Protocol.default with
  | Job.Chaos { protocols; mixes; seeds; _ } ->
      check "default protocols" true (protocols = Chaos.default_protocols);
      check "default mixes" true (mixes = Chaos.mix_names);
      check_int "seeds" 8 seeds
  | _ -> Alcotest.fail "expected Chaos");
  match Job.of_flags ~kind:`Explore ~protocol:"kset" Protocol.default with
  | Job.Explore { params; _ } ->
      check "adversarial on by default" true params.Protocol.adversarial;
      check "horizon defaulted" true (params.Protocol.horizon = 300.0)
  | _ -> Alcotest.fail "expected Explore"

let test_validate () =
  check "good spec" true
    (Job.validate (Job.of_flags ~kind:`Run ~protocol:"kset" Protocol.default)
    = Ok ());
  check "unknown protocol rejected" true
    (Result.is_error
       (Job.validate (Job.of_flags ~kind:`Run ~protocol:"nope" Protocol.default)));
  check "zero seeds rejected" true
    (Result.is_error
       (Job.validate
          (Job.of_flags ~kind:`Campaign ~seeds:0 ~protocol:"kset" Protocol.default)));
  check "missing replay file rejected" true
    (Result.is_error
       (Job.validate
          (Job.Replay
             { source = Job.Faults_file; path = "/no/such/file.json"; index = 0 })))

(* ------------------------------------------------------------------ *)
(* The result cache                                                    *)
(* ------------------------------------------------------------------ *)

let seeds = 6

let small_spec =
  Job.of_flags ~kind:`Campaign ~seeds ~protocol:"kset" Protocol.default

let execute ?fingerprint ~jobs dir =
  Job.execute ~jobs ?fingerprint ~cache:(Runner.Cache.create ~dir ()) small_spec

let test_cache_cold_warm_identical () =
  let dir = tmpdir "coldwarm" in
  let cold = (execute ~jobs:2 dir).Job.o_campaign in
  let warm = (execute ~jobs:2 dir).Job.o_campaign in
  check_int "cold executed all" seeds cold.Runner.c_executed;
  check_int "cold hit nothing" 0 cold.Runner.c_cache_hits;
  check_int "warm executed nothing" 0 warm.Runner.c_executed;
  check_int "warm hit everything" seeds warm.Runner.c_cache_hits;
  Alcotest.(check string) "warm summary byte-identical to cold"
    (Runner.signature cold) (Runner.signature warm);
  rm_rf dir

let test_cache_j1_equals_jn () =
  let dir = tmpdir "j1jn" in
  let cold = (execute ~jobs:1 dir).Job.o_campaign in
  let j1 = (execute ~jobs:1 dir).Job.o_campaign in
  let jn = (execute ~jobs:4 dir).Job.o_campaign in
  check_int "j1 warm" 0 j1.Runner.c_executed;
  check_int "jn warm" 0 jn.Runner.c_executed;
  Alcotest.(check string) "-j1 = -jN on a warm cache" (Runner.signature j1)
    (Runner.signature jn);
  Alcotest.(check string) "warm = cold" (Runner.signature cold)
    (Runner.signature j1);
  rm_rf dir

let test_cache_fingerprint_invalidation () =
  let dir = tmpdir "fp" in
  ignore (execute ~jobs:2 dir);
  (* A changed code fingerprint must miss every entry it keys. *)
  let bumped name = Fingerprint.protocol name ^ "+patch" in
  let o = (execute ~fingerprint:bumped ~jobs:2 dir).Job.o_campaign in
  check_int "bumped fingerprint misses all" seeds o.Runner.c_executed;
  check_int "no stale hits" 0 o.Runner.c_cache_hits;
  (* ... and the re-executed results must agree with the originals. *)
  let warm = (execute ~jobs:2 dir).Job.o_campaign in
  Alcotest.(check string) "same results under both fingerprints"
    (Runner.signature o) (Runner.signature warm);
  rm_rf dir

(* Every registered protocol names the modules its [install] reaches:
   reduce runs Figure 3 (kset.ml) over a wheels or Psi-chain Omega_z. *)
let test_fingerprint_lists () =
  List.iter
    (fun name ->
      check (name ^ " has a source list") true
        (List.mem_assoc name Fingerprint.protocol_files))
    (Protocol.names ());
  let reduce = List.assoc "reduce" Fingerprint.protocol_files in
  List.iter
    (fun f -> check ("reduce covers " ^ f) true (List.mem f reduce))
    [ "lib/core/kset.ml"; "lib/core/wheels.ml"; "lib/core/psi_to_omega.ml" ]

let test_cache_key_sensitivity () =
  let key parts = Runner.Cache.key ~parts in
  let base = [ "1"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ] in
  check "params change the key" true
    (key base <> key [ "1"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":2}" ]);
  check "fingerprint changes the key" true
    (key base <> key [ "1"; "fp2"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  check "kind changes the key" true
    (key base <> key [ "1"; "fp"; "chaos"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  check "schema version changes the key" true
    (key base <> key [ "2"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  (* Concatenation ambiguity must not collide (NUL-joined parts). *)
  check "part boundaries matter" true
    (key [ "ab"; "c" ] <> key [ "a"; "bc" ])

(* The job keys a spec stores: its cold run into an empty cache under a
   fixed fingerprint, read back as the cache's entry names. *)
let cache_entries spec =
  let dir = tmpdir "keys" in
  ignore
    (Job.execute ~jobs:1 ~fingerprint:(fun p -> "fp-" ^ p)
       ~cache:(Runner.Cache.create ~dir ()) spec);
  let names =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun shard ->
           Array.to_list (Sys.readdir (Filename.concat dir shard)))
    |> List.map Filename.remove_extension
    |> List.sort compare
  in
  rm_rf dir;
  names

(* The key recipe is the cache's address space: one that drifts turns
   every warm cache cold.  The pinned keys were computed when the recipe
   was written once for all kinds. *)
let test_cache_keys_pinned () =
  let explore =
    Job.of_flags ~kind:`Explore ~protocol:"kset"
      ~bounds:{ Explorer.default_bounds with Explorer.depth = 4; delays = 1 }
      {
        Protocol.default with
        Protocol.n = 7;
        t = 2;
        z = 2;
        k = 1;
        crashes = Setagree_dsys.Crash.No_crashes;
      }
  in
  List.iter
    (fun (kind, spec, keys) ->
      Alcotest.(check (list string)) (kind ^ " keys") keys (cache_entries spec))
    [
      ( "run",
        Job.of_flags ~kind:`Run ~protocol:"kset" Protocol.default,
        [ "775851ef34c3b271aa617d44e4aa0767" ] );
      ( "campaign",
        Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"wheels" Protocol.default,
        [ "2f1c64aace934d0c9dfb5d336082fcf3"; "abfe1835a3a24ffa16cbcea5401994a7" ] );
      ( "chaos",
        Job.of_flags ~kind:`Chaos ~protocols:[ "kset" ] ~mixes:[ "none"; "drop" ]
          ~seeds:1 ~protocol:"" Protocol.default,
        [ "7be834ace8202d5c82373a4907365298"; "814f57a0d988e8c2410574438a4e7983" ] );
      ( "explore",
        explore,
        [
          "70e90fb3621e3826d986d41780be7d58";
          "7d286e67bb7ba4e39b20966363923878";
          "8e76f88cc0c65768ff7f8d5c9c4c3574";
          "a1b6003b489895eeabc51cb1860613f3";
          "e944d0806947d6a32edd845e1a84d9ea";
        ] );
    ]

let test_rt_jobs_never_cached () =
  let dir = tmpdir "rt" in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"kset"
      { Protocol.default with Protocol.backend = "rt-chan" }
  in
  (* No rt runner is installed in the test binary: jobs fail with a
     note, but the cache question is orthogonal — nothing may be
     stored or resolved for an rt backend. *)
  let cache = Runner.Cache.create ~dir () in
  let o = Job.execute ~jobs:1 ~cache spec in
  check_int "nothing cached" 0 (Runner.Cache.stores cache);
  check_int "nothing hit" 0 o.Job.o_campaign.Runner.c_cache_hits;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The fdkit command line                                              *)
(* ------------------------------------------------------------------ *)

(* Run the fdkit binary built beside this test; exit code and the
   merged stdout/stderr. *)
let fdkit args =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "fdkit.exe" ]
  in
  let out = Filename.temp_file "fdkit" ".out" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:out) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

(* Every artifact writer creates the whole --out path, however deep. *)
let test_cli_nested_out () =
  let dir = tmpdir "nested" in
  List.iter
    (fun (cmd, args, artifacts) ->
      let out = List.fold_left Filename.concat dir [ cmd; "a"; "b" ] in
      let code, text = fdkit ((cmd :: args) @ [ "--out"; out ]) in
      Alcotest.(check int) (cmd ^ " exit: " ^ text) 0 code;
      List.iter
        (fun a -> check (cmd ^ " wrote " ^ a) true (Sys.file_exists (Filename.concat out a)))
        artifacts)
    [
      ( "campaign",
        [ "--seeds"; "1" ],
        [ "BENCH_kset.json"; "campaign_summary.json"; "failures.json" ] );
      ( "chaos",
        [ "--seeds"; "1"; "--protocols"; "kset"; "--mixes"; "none" ],
        [ "BENCH_chaos.json"; "chaos_failures.json" ] );
      ( "explore",
        [ "-n"; "7"; "-t"; "2"; "--depth"; "2"; "--delays"; "1" ],
        [ "BENCH_explore.json"; "counterexamples.json" ] );
      ("trace", [ "--format"; "jsonl" ], [ "trace_kset_seed1.jsonl" ]);
    ];
  rm_rf dir

(* Parameters outside what the engine accepts end as a refused spec
   (exit 3: [Job.validate] says no, so the daemon refuses them at submit
   too) or as a failed job (exit 1), never as an uncaught exception.
   Oracle ranges (z, x, y, wheels admissibility) are refused like n and
   t. *)
let test_cli_bad_params () =
  List.iter
    (fun (args, expected) ->
      let line = String.concat " " ("run" :: args) in
      let code, text = fdkit ("run" :: args) in
      check (line ^ ": no uncaught exception") false
        (Strutil.contains text ~sub:"uncaught exception");
      Alcotest.(check int) (line ^ ": exit") expected code)
    [
      ([ "-n"; "3"; "-t"; "3" ], 3);
      ([ "-n"; "0" ], 3);
      ([ "-z"; "0" ], 3);
      ([ "-p"; "wheels"; "-x"; "0"; "-y"; "0" ], 3);
      ([ "-p"; "psi"; "-y"; "9" ], 3);
      ([ "-n"; "2000"; "-t"; "3"; "--horizon"; "1" ], 3);
      ([ "-p"; "reduce"; "--variant"; "bogus" ], 3);
    ];
  List.iter
    (fun (protocol, p) ->
      check "validate refuses" true
        (Result.is_error (Job.validate (Job.of_flags ~kind:`Run ~protocol p))))
    [
      ("kset", { Protocol.default with Protocol.n = 3; t = 3 });
      ("kset", { Protocol.default with Protocol.n = 0 });
      ("kset", { Protocol.default with Protocol.n = 2000 });
      ("reduce", { Protocol.default with Protocol.variant = "bogus" });
    ]

(* Theorem 5's explorer refuses an Ω_0 configuration instead of
   searching it: the adversarial kset wiring never builds the oracle
   that checks z, so [Job.validate] must. *)
let test_cli_oracle_ranges () =
  let code, text =
    fdkit
      [ "explore"; "-p"; "kset"; "-n"; "7"; "-t"; "2"; "-z"; "0"; "-k"; "1"; "--depth"; "6";
        "--delays"; "1"; "--walks"; "0" ]
  in
  check_int ("explore -z 0: exit\n" ^ text) 3 code;
  let code, text = fdkit [ "run"; "-p"; "kset"; "-n"; "8"; "-t"; "3"; "-z"; "1"; "-k"; "0" ] in
  check_int ("run -k 0: exit\n" ^ text) 3 code;
  List.iter
    (fun (protocol, p) ->
      check (protocol ^ ": validate refuses") true
        (Result.is_error (Job.validate (Job.of_flags ~kind:`Run ~protocol p))))
    [
      ("kset", { Protocol.default with Protocol.z = 9 });
      ("kset", { Protocol.default with Protocol.k = 0 });
      ("reduce", { Protocol.default with Protocol.variant = "es"; x = 5 });
      ("reduce", { Protocol.default with Protocol.variant = "wheels"; x = 3; y = 2 });
      ("strengthen", { Protocol.default with Protocol.x = 0 });
      ("impl", { Protocol.default with Protocol.variant = "phi"; n = 4; t = 1 });
      ("impl", { Protocol.default with Protocol.variant = "omega"; z = 0 });
    ];
  (* Theorem preconditions are swept, not refused: z > k (misuse),
     x + y < t + 1 for strengthen. *)
  List.iter
    (fun (protocol, p) ->
      check (protocol ^ ": validate accepts") true
        (Job.validate (Job.of_flags ~kind:`Run ~protocol p) = Ok ()))
    [
      ("kset", { Protocol.default with Protocol.z = 2; k = 1; adversarial = true });
      ("strengthen", { Protocol.default with Protocol.x = 1; y = 0 });
      ("impl", { Protocol.default with Protocol.variant = "phi" });
    ]

(* Theorem 5's tightness sweep at n = 7, t = 2, z = 2 > k = 1: seeds
   2..[seeds] break 1-set agreement. *)
let misuse_sweep seeds =
  [ "campaign"; "--exp"; "kset"; "-n"; "7"; "-t"; "2"; "-z"; "2"; "-k"; "1"; "--adversarial";
    "--crashes"; "0"; "--horizon"; "400"; "--seeds"; string_of_int seeds ]

let triage_seeds path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> (
      match Json.member "triage" j with
      | Some (Json.List l) ->
          List.map (fun r -> match Json.member "seed" r with Some (Json.Int s) -> s | _ -> -1) l
      | _ -> Alcotest.failf "%s has no triage list" path)
  | Error e -> Alcotest.failf "%s: %s" path e

(* --compare re-runs the sweep at -j 1 to check determinism; the triage
   file and the count still describe the one sweep. *)
let test_cli_compare_triage () =
  let dir = tmpdir "compare" in
  let code, text = fdkit (misuse_sweep 25 @ [ "--jobs"; "2"; "--compare"; "--out"; dir ]) in
  check_int ("exit\n" ^ text) 1 code;
  check "24 failing seeds printed" true (Strutil.contains text ~sub:"24 failing seed(s)");
  let seeds = triage_seeds (Filename.concat dir "failures.json") in
  check_int "24 records" 24 (List.length seeds);
  check_int "24 distinct seeds" 24 (List.length (List.sort_uniq compare seeds));
  rm_rf dir

(* --compare's -j 1 pass runs without the cache: it executes all 8 jobs
   whether the -j 2 pass found the cache cold or warm, so the
   determinism check never compares the cache with itself. *)
let test_cli_compare_uncached () =
  let dir = tmpdir "compare-cache" in
  let args =
    [ "campaign"; "--exp"; "kset"; "--seeds"; "8"; "--jobs"; "2"; "--cache"; "--compare";
      "--out"; dir ]
  in
  List.iter
    (fun (pass, hits) ->
      let code, text = fdkit args in
      check_int (pass ^ " exit\n" ^ text) 0 code;
      let summary =
        Json.of_string_exn
          (In_channel.with_open_bin (Filename.concat dir "campaign_summary.json")
             In_channel.input_all)
      in
      let count side field =
        match Option.bind (Json.member side summary) (Json.member field) with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "%s: campaign_summary.json has no %s.%s" pass side field
      in
      check_int (pass ^ ": -j 2 cache hits") hits (count "parallel" "cache_hits");
      check_int (pass ^ ": -j 2 executed") (8 - hits) (count "parallel" "executed");
      check_int (pass ^ ": -j 1 executed") 8 (count "sequential" "executed");
      check_int (pass ^ ": -j 1 cache hits") 0 (count "sequential" "cache_hits"))
    [ ("cold", 0); ("warm", 8) ];
  rm_rf dir

(* --compare's speedup compares domains only when the -j N sweep
   executed every job: cold it is a number, warm (8 cache hits) it is
   not measured, on stdout and as null in campaign_summary.json. *)
let test_cli_compare_speedup () =
  let dir = tmpdir "compare-speedup" in
  let args =
    [ "campaign"; "--exp"; "kset"; "--seeds"; "8"; "--jobs"; "2"; "--cache"; "--compare";
      "--out"; dir ]
  in
  List.iter
    (fun (pass, measured) ->
      let code, text = fdkit args in
      check_int (pass ^ " exit\n" ^ text) 0 code;
      let speedup =
        Json.member "speedup"
          (Json.of_string_exn
             (In_channel.with_open_bin (Filename.concat dir "campaign_summary.json")
                In_channel.input_all))
      in
      if measured then begin
        check (pass ^ ": speedup printed as a ratio\n" ^ text) true
          (Strutil.contains text ~sub:"x; deterministic merge: yes");
        check (pass ^ ": speedup recorded") true
          (match speedup with Some (Json.Float _) -> true | _ -> false)
      end
      else begin
        check (pass ^ ": speedup not measured\n" ^ text) true
          (Strutil.contains text
             ~sub:"speedup: not measured (8 job(s) served from the cache); deterministic merge: yes");
        check (pass ^ ": speedup null") true (speedup = Some Json.Null)
      end)
    [ ("cold", true); ("warm", false) ];
  rm_rf dir

(* trace refuses what run refuses, and an rt backend: it only simulates. *)
let test_cli_trace_validates () =
  List.iter
    (fun args ->
      let line = String.concat " " ("trace" :: args) in
      let code, text = fdkit ("trace" :: args) in
      check_int (line ^ ": exit\n" ^ text) 3 code)
    [
      [ "-z"; "0" ];
      [ "-n"; "3"; "-t"; "3" ];
      [ "-p"; "reduce"; "--variant"; "bogus" ];
      [ "--backend"; "rt-chan" ];
    ]

(* A bench or triage replay command is either absent, because no flags
   express the params, or reproduces through the built fdkit the verdict
   line and the metrics [Job.execute] gives the same params. *)
let test_cli_replay_commands () =
  let prefix = "dune exec bin/fdkit.exe -- " in
  let cases =
    List.concat_map
      (fun (protocol, (module P : Protocol.S)) ->
        List.map
          (fun variant -> (protocol, { Protocol.default with Protocol.variant }))
          (match P.variants with [] -> [ "es" ] | l -> l))
      Protocol.registry
    @ [
        ("kset", { Protocol.default with Protocol.gst = 12.3456789 });
        ("kset", { Protocol.default with Protocol.crashes = Setagree_dsys.Crash.No_crashes });
        ( "kset",
          { Protocol.default with Protocol.crashes = Setagree_dsys.Crash.Explicit [ (7, 0.0) ] } );
        ( "kset",
          {
            Protocol.default with
            Protocol.faults = { Setagree_dsys.Faults.none with Setagree_dsys.Faults.adversary = "calm" };
          } );
      ]
  in
  List.iter
    (fun (protocol, (p : Protocol.params)) ->
      let label = Printf.sprintf "%s/%s gst=%g" protocol p.Protocol.variant p.Protocol.gst in
      let expressible =
        Setagree_dsys.Faults.equal p.Protocol.faults Setagree_dsys.Faults.none
        && (match p.Protocol.crashes with Setagree_dsys.Crash.Explicit _ -> false | _ -> true)
      in
      match Job.replay_command protocol p with
      | None -> check (label ^ ": no replay only when inexpressible") false expressible
      | Some cmd ->
          check (label ^ ": replay when expressible") true expressible;
          check (label ^ ": fdkit command") true (String.starts_with ~prefix cmd);
          let args =
            String.split_on_char ' '
              (String.sub cmd (String.length prefix) (String.length cmd - String.length prefix))
          in
          let rec flag = function
            | "--gst" :: v :: _ -> float_of_string v
            | _ :: rest -> flag rest
            | [] -> nan
          in
          check (label ^ ": --gst parses back exactly") true (flag args = p.Protocol.gst);
          let code, text = fdkit args in
          let r =
            (Job.execute (Job.Run { protocol; params = p })).Job.o_campaign.Runner.c_results.(0)
          in
          let expected =
            Printf.sprintf "%s seed=%d: %s\n" protocol p.Protocol.seed
              (Format.asprintf "%a" Setagree_fd.Check.pp_verdict
                 { Setagree_fd.Check.ok = r.Runner.r_ok; notes = r.Runner.r_notes })
            ^ String.concat ""
                (List.map (fun (k, v) -> Printf.sprintf "  %-18s %g\n" k v) r.Runner.r_metrics)
          in
          Alcotest.(check string) (label ^ ": " ^ cmd) expected text;
          check_int (label ^ ": exit") (if r.Runner.r_ok then 0 else 1) code)
    cases

(* ------------------------------------------------------------------ *)
(* The serve daemon, end to end                                        *)
(* ------------------------------------------------------------------ *)

let daemon_config dir ~cache =
  {
    Serve.default_config with
    Serve.socket_path = Filename.concat dir "fdkit.sock";
    cache_dir = (if cache then Some (Filename.concat dir "cache") else None);
    jobs = Some 2;
    out_dir = dir;
    log = ignore;
  }

let start_daemon config =
  let d = Domain.spawn (fun () -> Serve.serve ~config ()) in
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if not (Sys.file_exists config.Serve.socket_path) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  d

let connect config =
  match Serve.Client.connect config.Serve.socket_path with
  | Ok conn -> conn
  | Error e -> Alcotest.fail e

let expect = function Ok v -> v | Error e -> Alcotest.fail e

let frame_type v =
  match Json.member "type" v with Some (Json.String s) -> s | _ -> "?"

(* A raw connection, for tests that write without reading replies. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* The next whole frame on a raw connection. *)
let read_frame fd dec =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Json.Stream.next dec with
    | `Value v -> v
    | `Error e -> Alcotest.failf "bad frame: %s" (Json.error_to_string e)
    | `Await -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "connection closed before a whole frame"
        | n ->
            Json.Stream.feed dec (Bytes.sub_string buf 0 n);
            go ())
  in
  go ()

let test_daemon_submit_stream_status_shutdown () =
  let dir = tmpdir "daemon" in
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let conn = connect config in
  (* ping *)
  check "pong" true (frame_type (expect (Serve.Client.ping conn)) = "pong");
  (* cold submit: ack, one progress frame per job, done *)
  let progress = ref 0 and cached = ref 0 in
  let on_event v =
    if frame_type v = "progress" then begin
      incr progress;
      if Json.member "cached" v = Some (Json.Bool true) then incr cached
    end
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "terminal frame is done" true (frame_type v = "done");
  check "exit 0" true (Json.member "exit" v = Some (Json.Int 0));
  check_int "one progress frame per job" seeds !progress;
  check_int "cold run hit nothing" 0 !cached;
  check "cold executed" true (Json.member "executed" v = Some (Json.Int seeds));
  let sig_cold = Json.member "signature" v in
  (* warm resubmit: same signature, zero executed, all frames cached *)
  progress := 0;
  cached := 0;
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "warm executed nothing" true
    (Json.member "executed" v = Some (Json.Int 0));
  check "warm hit everything" true
    (Json.member "cache_hits" v = Some (Json.Int seeds));
  check_int "warm frames all cached" seeds !cached;
  check "warm signature = cold signature" true
    (Json.member "signature" v = sig_cold);
  (* the daemon wrote the usual campaign artifact into out_dir *)
  check "artifact written" true
    (Sys.file_exists (Filename.concat dir "BENCH_kset.json"));
  (* a rejected spec acks accepted=false and does not kill the session *)
  let bad = Job.of_flags ~kind:`Run ~protocol:"nope" Protocol.default in
  let v = expect (Serve.Client.submit conn bad) in
  check "rejected ack" true
    (frame_type v = "ack"
    && Json.member "accepted" v = Some (Json.Bool false));
  (* status: 3 records (2 done, 1 rejected) + live cache counters *)
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List records) -> check_int "history length" 3 (List.length records)
  | _ -> Alcotest.fail "status has no jobs list");
  (match Json.member "cache" v with
  | Some (Json.Obj _ as cache) ->
      check "cache hits counted" true
        (match Json.member "hits" cache with
        | Some (Json.Int h) -> h >= seeds
        | _ -> false)
  | _ -> Alcotest.fail "status has no cache counters");
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  check "socket removed on shutdown" false
    (Sys.file_exists config.Serve.socket_path);
  rm_rf dir

(* Cancellation is consumed between job submissions, so the exact stop
   point is timing-dependent; the invariants are not: a done frame
   always arrives, its state is done or cancelled, and a cancelled
   campaign keeps (and counts) only completed jobs. *)
let test_daemon_cancel () =
  let dir = tmpdir "cancel" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let total = 40 in
  let spec = Job.of_flags ~kind:`Campaign ~seeds:total ~protocol:"kset" Protocol.default in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  Serve.Client.cancel conn;
  let rec drain () =
    let v = expect (Serve.Client.next_frame conn) in
    if frame_type v = "done" then v else drain ()
  in
  let v = drain () in
  let state =
    match Json.member "state" v with Some (Json.String s) -> s | _ -> "?"
  in
  check "terminal state" true (state = "cancelled" || state = "done");
  (match (Json.member "jobs" v, Json.member "executed" v) with
  | Some (Json.Int jobs), Some (Json.Int executed) ->
      check "kept = executed (no cache)" true (jobs = executed);
      if state = "cancelled" then
        check "cancelled kept a strict prefix" true (jobs < total)
      else check_int "finished everything" total jobs
  | _ -> Alcotest.fail "done frame missing jobs/executed");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Client hang-up while a campaign runs must cancel the remainder (the
   daemon survives and serves the next connection). *)
let test_daemon_eof_cancels () =
  let dir = tmpdir "eof" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let spec = Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  Serve.Client.close conn;
  (* The daemon must notice the hang-up, finish the record, and accept a
     fresh connection. *)
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no record of the abandoned job");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A client that submits and then floods status ops without reading its
   replies stalls only itself: it is dropped once its unread backlog
   passes the 8 MiB bound, and a second client is answered throughout. *)
let test_daemon_slow_consumer_shed () =
  let dir = tmpdir "slow" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn2 = connect config in
  let fd = raw_connect config.Serve.socket_path in
  write_all fd
    (Json.to_string ~minify:true
       (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json small_spec) ])
    ^ "\n");
  (* The largest status frame seen, once the flooder's job is listed. *)
  let status_bytes = ref 0 in
  let rec second_client_answers () =
    check "ping answered" true (frame_type (expect (Serve.Client.ping conn2)) = "pong");
    let v = expect (Serve.Client.status conn2) in
    check "status answered" true (frame_type v = "status");
    match Json.member "jobs" v with
    | Some (Json.List (_ :: _)) ->
        status_bytes :=
          max !status_bytes (String.length (Json.to_string ~minify:true v) + 1)
    | _ ->
        Unix.sleepf 0.01;
        second_client_answers ()
  in
  second_client_answers ();
  let block = String.concat "" (List.init 256 (fun _ -> "{\"op\":\"status\"}\n")) in
  let limit = 8 * 1024 * 1024 in
  let rec flood ops =
    if ops * !status_bytes > 20 * limit then Alcotest.fail "flooding client never shed"
    else
      match write_all fd block with
      | () ->
          if ops mod (64 * 256) = 0 then second_client_answers ();
          flood (ops + 256)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ops
  in
  let ops = flood 0 in
  second_client_answers ();
  (* Each op read yields one status frame, so the daemon cannot have
     buffered 8 MiB for the flooder before this many ops were written. *)
  check "shed only past the 8 MiB backlog" true
    (float_of_int ops *. float_of_int !status_bytes *. 1.1 >= float_of_int limit);
  Unix.close fd;
  ignore (expect (Serve.Client.shutdown conn2));
  Serve.Client.close conn2;
  Domain.join d;
  rm_rf dir

(* An unfinished inbound frame is held to the same 8 MiB bound: the
   daemon answers with an error frame and drops the connection, and
   keeps serving the others. *)
let test_daemon_oversized_frame () =
  let dir = tmpdir "oversized" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let fd = raw_connect config.Serve.socket_path in
  let limit = 8 * 1024 * 1024 in
  let chunk = String.make 65536 'x' in
  let rec push sent =
    if sent > 4 * limit then Alcotest.fail "oversized frame never dropped"
    else
      match write_all fd chunk with
      | () -> push (sent + String.length chunk)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> sent
  in
  check "dropped only past 8 MiB" true (push 0 > limit);
  check "error frame before the drop" true
    (frame_type (read_frame fd (Json.Stream.decoder ())) = "error");
  Unix.close fd;
  check "others still served" true
    (frame_type (expect (Serve.Client.ping conn)) = "pong");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Connections past the daemon's cap are refused with a "server busy"
   error frame, and every connection already open keeps being served. *)
let test_daemon_connection_cap () =
  let dir = tmpdir "cap" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  (* A refused connection may be closed before the ping lands; its
     error frame is then still readable. *)
  let ping_or_refusal c =
    match Serve.Client.ping c with
    | Ok v -> v
    | Error _ -> expect (Serve.Client.next_frame c)
  in
  let rec open_until_refused accepted n =
    if n > 256 then Alcotest.fail "no connection was ever refused"
    else
      let c = connect config in
      let v = ping_or_refusal c in
      match frame_type v with
      | "pong" -> open_until_refused (c :: accepted) (n + 1)
      | "error" -> (c, v, accepted)
      | t -> Alcotest.failf "unexpected %s frame" t
  in
  let refused, v, accepted = open_until_refused [] 0 in
  check "refusal says server busy" true
    (match Json.member "message" v with
    | Some (Json.String m) -> String.length m >= 11 && String.sub m 0 11 = "server busy"
    | _ -> false);
  check "some connections were served" true (accepted <> []);
  Serve.Client.close refused;
  List.iter
    (fun c ->
      check "open connection still served" true
        (frame_type (expect (Serve.Client.ping c)) = "pong"))
    accepted;
  (* A freed slot is reused once the daemon has seen the hang-up. *)
  Serve.Client.close (List.hd accepted);
  let rec reconnect n =
    if n = 0 then Alcotest.fail "freed slot never reused"
    else
      let c = connect config in
      match frame_type (ping_or_refusal c) with
      | "pong" -> c
      | _ ->
          Serve.Client.close c;
          Unix.sleepf 0.05;
          reconnect (n - 1)
  in
  let c = reconnect 100 in
  ignore (expect (Serve.Client.shutdown c));
  List.iter Serve.Client.close (c :: List.tl accepted);
  Domain.join d;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Live telemetry plane                                                *)
(* ------------------------------------------------------------------ *)

(* Telemetry is strictly read-side: a subscribed run must deliver at
   least one snapshot frame (the final flush after the joins is
   unconditional), stop delivering after unsubscribe, and leave the
   campaign signature untouched either way. *)
let test_daemon_telemetry_subscription () =
  let dir = tmpdir "telemetry" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  Serve.Client.subscribe conn;
  let telemetry = ref 0 and acked = ref false and complete = ref false in
  let on_event v =
    match frame_type v with
    | "subscribed" -> acked := true
    | "telemetry" ->
        incr telemetry;
        (match (Json.member "done" v, Json.member "total" v) with
        | Some (Json.Int dn), Some (Json.Int tot) ->
            check "done <= total" true (dn <= tot);
            if dn = tot then complete := true
        | _ -> Alcotest.fail "telemetry frame missing done/total");
        check "telemetry names the job" true (Json.member "id" v <> None);
        check "telemetry carries counters" true
          (match Json.member "counters" v with
          | Some (Json.Obj _) -> true
          | _ -> false)
    | _ -> ()
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "done" true (frame_type v = "done");
  check "subscription acked" true !acked;
  check "at least one snapshot" true (!telemetry >= 1);
  check "final snapshot is complete" true !complete;
  let sig_subscribed = Json.member "signature" v in
  (* unsubscribe: frames stop, the execution must not change *)
  Serve.Client.unsubscribe conn;
  telemetry := 0;
  let unsub_acked = ref false in
  let on_event v =
    match frame_type v with
    | "unsubscribed" -> unsub_acked := true
    | "telemetry" -> incr telemetry
    | _ -> ()
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "done again" true (frame_type v = "done");
  check "unsubscription acked" true !unsub_acked;
  check_int "no frames once unsubscribed" 0 !telemetry;
  check "telemetry left the signature alone" true
    (Json.member "signature" v = sig_subscribed);
  (* the freshness stamp is kept even for the unsubscribed run *)
  let v = expect (Serve.Client.status conn) in
  check "status has queue depth" true
    (Json.member "queue_depth" v = Some (Json.Int 0));
  (match Json.member "jobs" v with
  | Some (Json.List records) ->
      check "finished records carry phase + telemetry age" true
        (List.for_all
           (fun r ->
             Json.member "phase" r = Some (Json.String "finished")
             &&
             match Json.member "telemetry_age_s" r with
             | Some (Json.Float _) -> true
             | _ -> false)
           records)
  | _ -> Alcotest.fail "status has no jobs list");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Toggling the subscription while a campaign runs exercises the
   stop-hook poller: every toggle is eventually acked (mid-run by the
   poller, after the run by the main frame loop), the job finishes
   clean, and the daemon keeps serving. *)
let test_daemon_subscription_races () =
  let dir = tmpdir "races" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let toggles = 8 in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  for _ = 1 to toggles do
    Serve.Client.subscribe conn;
    Serve.Client.unsubscribe conn
  done;
  let acks = ref 0 in
  let count v =
    match frame_type v with
    | "subscribed" | "unsubscribed" -> incr acks
    | _ -> ()
  in
  let rec drain () =
    let v = expect (Serve.Client.next_frame conn) in
    count v;
    if frame_type v = "done" then v else drain ()
  in
  let v = drain () in
  check "finished clean" true (Json.member "exit" v = Some (Json.Int 0));
  (* toggles the poller missed are answered by the post-run frame loop *)
  while !acks < 2 * toggles do
    count (expect (Serve.Client.next_frame conn))
  done;
  check_int "every toggle acked" (2 * toggles) !acks;
  check "daemon still answers" true
    (frame_type (expect (Serve.Client.ping conn)) = "pong");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A subscriber that vanishes mid-telemetry-stream must not take the
   daemon down: writes to the dead socket are swallowed, the run is
   wound down through the usual EOF path, and the next connection is
   served normally. *)
let test_daemon_disconnect_mid_stream () =
  let dir = tmpdir "midstream" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  Serve.Client.subscribe conn;
  check "subscribed" true
    (frame_type (expect (Serve.Client.next_frame conn)) = "subscribed");
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  (* consume one in-flight frame, then hang up with the stream open *)
  ignore (expect (Serve.Client.next_frame conn));
  Serve.Client.close conn;
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no record of the abandoned job");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The decoder contract the daemon's [poll_frames] and every [--follow]
   client rely on: a connection that dies mid-telemetry-frame leaves a
   truncated line; on reconnect-resync the bad line is reported once and
   decoding continues with the next valid frame. *)
let test_stream_decoder_mid_telemetry_cut () =
  let frame seq dn =
    Printf.sprintf
      "{\"type\":\"telemetry\",\"id\":1,\"seq\":%d,\"done\":%d,\"total\":8}" seq dn
  in
  let dec = Json.Stream.decoder () in
  Json.Stream.feed dec (frame 0 2 ^ "\n");
  (match Json.Stream.next dec with
  | `Value v -> check "first frame" true (frame_type v = "telemetry")
  | _ -> Alcotest.fail "expected first telemetry frame");
  (* the peer dies mid-frame: half a telemetry line, no newline *)
  let cut = String.sub (frame 1 4) 0 20 in
  Json.Stream.feed dec cut;
  check "partial frame awaits" true (Json.Stream.next dec = `Await);
  check "partial bytes buffered" true (Json.Stream.pending dec > 0);
  (* resync: the rest of the stream starts at a fresh frame, so the
     spliced line is garbage — reported as one error, then recovery *)
  Json.Stream.feed dec ("\n" ^ frame 2 6 ^ "\n");
  (match Json.Stream.next dec with
  | `Error _ -> ()
  | _ -> Alcotest.fail "truncated line must surface as an error");
  (match Json.Stream.next dec with
  | `Value v ->
      check "decoder recovered" true
        (frame_type v = "telemetry"
        && Json.member "seq" v = Some (Json.Int 2))
  | _ -> Alcotest.fail "expected recovery after the bad line");
  check "decoder drained" true (Json.Stream.next dec = `Await)

(* ------------------------------------------------------------------ *)
(* Untrusted socket input                                              *)
(* ------------------------------------------------------------------ *)

let json_bytes = "{}[]\":,0123456789-+.eEtrufalsn\\ "

let gen_fuzz_char =
  QCheck.Gen.(
    frequency
      [
        (6, map (String.get json_bytes) (int_bound (String.length json_bytes - 1)));
        (1, return '\n');
        (1, char);
      ])

(* Feed [wire] in random chunks of 1..64 bytes, asking for frames after
   each one as the daemon does; [on_value] sees every decoded value and
   an [Error] offset outside the bytes fed so far fails the property. *)
let decode_chunked ~seed ~on_value wire =
  let rng = Rng.create seed in
  let d = Json.Stream.decoder () in
  let fed = ref 0 in
  let rec drain () =
    match Json.Stream.next d with
    | `Value v ->
        on_value v;
        drain ()
    | `Error e ->
        if e.Json.offset < 0 || e.Json.offset >= !fed then
          QCheck.Test.fail_reportf "error offset %d outside the %d bytes fed"
            e.Json.offset !fed;
        drain ()
    | `Await -> ()
  in
  while !fed < String.length wire do
    let len = 1 + Rng.int rng (min 64 (String.length wire - !fed)) in
    Json.Stream.feed d (String.sub wire !fed len);
    fed := !fed + len;
    drain ()
  done

(* Whatever the daemon reads — code that raises here would turn one
   client's bytes into an error path of the loop: the decoder never
   raises and keeps every error offset inside the bytes fed, a valid
   frame after the garbage still decodes, and no decoded value makes
   [Job.of_json] raise. *)
let qcheck_stream_fuzz =
  QCheck.Test.make ~count:500 ~name:"Stream: arbitrary bytes, random chunking"
    (QCheck.make
       ~print:(fun (s, seed) -> Printf.sprintf "seed=%d bytes=%S" seed s)
       QCheck.Gen.(pair (string_size ~gen:gen_fuzz_char (0 -- 400)) (int_range 1 1_000_000)))
    (fun (garbage, seed) ->
      let valid = Json.Obj [ ("op", Json.String "ping") ] in
      let last = ref None in
      decode_chunked ~seed
        ~on_value:(fun v ->
          ignore (Job.of_json v);
          last := Some v)
        (garbage ^ "\n" ^ Json.to_string ~minify:true valid ^ "\n");
      match !last with Some v -> Json.equal v valid | None -> false)

(* Valid spec JSON with random subtrees swapped for values of the wrong
   type or range, sent through the decoder: [Job.of_json] and, when it
   accepts, everything the daemon does with a spec before queueing it
   must return, not raise. *)
let gen_odd_json =
  QCheck.Gen.(
    oneofl
      [
        Json.Null;
        Json.Bool true;
        Json.Int 0;
        Json.Int (-7);
        Json.Int max_int;
        Json.Int min_int;
        Json.Float (-1e300);
        Json.Float 0.5;
        Json.String "";
        Json.String "nope";
        Json.List [];
        Json.List [ Json.Int 1; Json.String "x" ];
        Json.Obj [];
        Json.Obj [ ("kind", Json.String "crash") ];
      ])

let rec mutate_json choices v =
  match (choices, v) with
  | [], _ -> (v, [])
  | (0, odd) :: rest, _ -> (odd, rest)
  | _ :: rest, Json.Obj fields ->
      let rest = ref rest in
      let fields =
        List.map
          (fun (k, x) ->
            let x', r = mutate_json !rest x in
            rest := r;
            (k, x'))
          fields
      in
      (Json.Obj fields, !rest)
  | _ :: rest, Json.List items ->
      let rest = ref rest in
      let items =
        List.map
          (fun x ->
            let x', r = mutate_json !rest x in
            rest := r;
            x')
          items
      in
      (Json.List items, !rest)
  | _ :: rest, _ -> (v, rest)

let qcheck_spec_mutation_fuzz =
  QCheck.Test.make ~count:300 ~name:"Job: mutated spec JSON never raises"
    (QCheck.make
       ~print:(fun (s, _) -> Job.summary s)
       QCheck.Gen.(
         pair gen_spec
           (list_size (int_range 1 60) (pair (int_bound 6) gen_odd_json))))
    (fun (spec, choices) ->
      let mutated, _ = mutate_json choices (Job.to_json spec) in
      decode_chunked ~seed:(List.length choices)
        ~on_value:(fun v ->
          match Job.of_json v with
          | Ok s ->
              ignore (Job.validate s);
              ignore (Job.canonical s);
              ignore (Job.summary s)
          | Error _ -> ())
        (Json.to_string ~minify:true mutated ^ "\n");
      true)

(* ------------------------------------------------------------------ *)
(* Crash safety: journal replay, queueing, restart, watchdog           *)
(* ------------------------------------------------------------------ *)

let pool_specs =
  [|
    Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"kset" Protocol.default;
    Job.of_flags ~kind:`Campaign ~seeds:3 ~protocol:"wheels" Protocol.default;
    Job.of_flags ~kind:`Run ~protocol:"psi" Protocol.default;
  |]

type jevent =
  | Accept of int * int  (* id, pool spec index *)
  | Term of int * string  (* id, terminal state *)
  | Noise of int  (* non-terminal transitions and unknown entry types *)

let jevent_entry = function
  | Accept (id, s) -> Serve.Recovery.accepted_entry ~id pool_specs.(s)
  | Term (id, st) ->
      Serve.Recovery.state_entry ~id
        ~extra:
          [
            ("exit", Json.Int 0);
            ("signature", Json.String (Printf.sprintf "sig%d" id));
          ]
        st
  | Noise 0 -> Serve.Recovery.state_entry ~id:1 "running"
  | Noise 1 -> Serve.Recovery.state_entry ~id:1 "retrying"
  | Noise _ -> Json.Obj [ ("type", Json.String "wat") ]

(* Reference replay semantics, folded independently of the production
   loader: first accept per id wins, first terminal entry per accepted
   id wins, pending keeps acceptance order. *)
let expected_replay events =
  let accepted = Hashtbl.create 8 and order = ref [] in
  let finished = Hashtbl.create 8 and forder = ref [] in
  let next = ref 1 in
  List.iter
    (function
      | Accept (id, s) when not (Hashtbl.mem accepted id) ->
          Hashtbl.replace accepted id s;
          order := id :: !order;
          if id >= !next then next := id + 1
      | Term (id, st) when Hashtbl.mem accepted id && not (Hashtbl.mem finished id)
        ->
          Hashtbl.replace finished id st;
          forder := id :: !forder
      | _ -> ())
    events;
  let completed = List.rev_map (fun id -> (id, Hashtbl.find finished id)) !forder in
  let pending =
    List.rev !order
    |> List.filter (fun id -> not (Hashtbl.mem finished id))
    |> List.map (fun id -> (id, Job.canonical pool_specs.(Hashtbl.find accepted id)))
  in
  (completed, pending, !next)

let gen_jevent =
  QCheck.Gen.(
    let* id = int_range 1 6 in
    oneof
      [
        map (fun s -> Accept (id, s)) (int_range 0 2);
        map
          (fun st -> Term (id, st))
          (oneofl [ "done"; "cancelled"; "poisoned"; "rejected" ]);
        oneofl [ Noise 0; Noise 1; Noise 2 ];
      ])

(* The recovery invariant the restart path rests on: however the journal
   is cut (a crash can stop a write at any byte), the replayed view is
   exactly the reference fold over the surviving complete lines — no
   duplicated terminal records, no resurrected jobs, no exception. *)
let qcheck_recovery_replay =
  QCheck.Test.make ~count:60
    ~name:"Recovery: truncated journal replays a consistent prefix"
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 0 30) gen_jevent) (int_range 0 max_int)))
    (fun (events, cutraw) ->
      let dir = tmpdir "recovery_qc" in
      let jpath = Serve.journal_path dir in
      let t = Journal.append_open ~fsync:false jpath in
      List.iter (fun e -> Journal.append t (jevent_entry e)) events;
      Journal.close t;
      let contents = In_channel.with_open_bin jpath In_channel.input_all in
      let size = String.length contents in
      let cut = cutraw mod (size + 1) in
      let lines = ref 0 in
      String.iteri (fun i c -> if i < cut && c = '\n' then incr lines) contents;
      let surviving = max 0 (!lines - 1) in
      let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let r = Serve.Recovery.load jpath in
      let ecompleted, epending, enext =
        expected_replay (List.filteri (fun i _ -> i < surviving) events)
      in
      let got_completed =
        List.map
          (fun (f : Serve.Recovery.completed) ->
            (f.Serve.Recovery.f_id, Serve.state_to_string f.f_state))
          r.Serve.Recovery.completed
      in
      let got_pending =
        List.map
          (fun (p : Serve.Recovery.pending) ->
            (p.Serve.Recovery.p_id, Job.canonical p.p_spec))
          r.Serve.Recovery.pending
      in
      let ok =
        got_completed = ecompleted && got_pending = epending
        && r.Serve.Recovery.next_id = enext
      in
      rm_rf dir;
      ok)

(* The bounded FIFO: a second spec queues behind the running job, the
   same spec attaches instead of duplicating, a third spec is shed with
   an explicit queue-full rejection, and a queued job cancels
   immediately. *)
let test_daemon_queue_full_dedup_cancel () =
  let dir = tmpdir "queue" in
  let config =
    { (daemon_config dir ~cache:false) with Serve.queue_depth = 1; jobs = Some 1 }
  in
  let d = start_daemon config in
  let conn1 = connect config in
  let spec_a =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let spec_b =
    Job.of_flags ~kind:`Campaign ~seeds:41 ~protocol:"kset" Protocol.default
  in
  let spec_c =
    Job.of_flags ~kind:`Campaign ~seeds:42 ~protocol:"kset" Protocol.default
  in
  let submit_raw conn spec =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  let ack_a = submit_raw conn1 spec_a in
  check "A accepted" true (Json.member "accepted" ack_a = Some (Json.Bool true));
  (* Wait until A occupies the executor so B lands in the queue. *)
  let conn2 = connect config in
  let rec wait_running n =
    if n = 0 then Alcotest.fail "job A never started running";
    match Json.member "running" (expect (Serve.Client.status conn2)) with
    | Some (Json.Int _) -> ()
    | _ ->
        Unix.sleepf 0.02;
        wait_running (n - 1)
  in
  wait_running 200;
  let ack_b = submit_raw conn2 spec_b in
  check "B accepted" true (Json.member "accepted" ack_b = Some (Json.Bool true));
  check "B queued at position 1" true
    (Json.member "position" ack_b = Some (Json.Int 1));
  let b_id = match Json.member "id" ack_b with Some (Json.Int i) -> i | _ -> -1 in
  let conn3 = connect config in
  (* Same canonical spec: attach to B's record, no duplicate execution. *)
  let ack_b2 = submit_raw conn3 spec_b in
  check "resubmit attached" true
    (Json.member "attached" ack_b2 = Some (Json.Bool true));
  check "attached to the same id" true
    (Json.member "id" ack_b2 = Some (Json.Int b_id));
  (* Queue full (depth 1, B holds the slot): explicit shed, no record. *)
  let ack_c = submit_raw conn3 spec_c in
  check "C rejected" true
    (Json.member "accepted" ack_c = Some (Json.Bool false));
  check "C rejection names the queue" true
    (Json.member "rejected" ack_c = Some (Json.String "queue full"));
  (match Json.member "jobs" (expect (Serve.Client.status conn3)) with
  | Some (Json.List records) ->
      check_int "shed submission left no record" 2 (List.length records)
  | _ -> Alcotest.fail "status has no jobs list");
  (* Cancel B while queued: immediate done frame, state cancelled. *)
  Serve.Client.cancel conn2;
  let rec drain_done conn =
    let v = expect (Serve.Client.next_frame conn) in
    if frame_type v = "done" then v else drain_done conn
  in
  let v = drain_done conn2 in
  check "cancelled B" true (Json.member "id" v = Some (Json.Int b_id));
  check "queued cancel is immediate" true
    (Json.member "state" v = Some (Json.String "cancelled"));
  check "cancelled exit code" true (Json.member "exit" v = Some (Json.Int 4));
  (* A still runs to completion on conn1. *)
  let v = drain_done conn1 in
  check "A finished" true (Json.member "state" v = Some (Json.String "done"));
  ignore (expect (Serve.Client.shutdown conn3));
  Serve.Client.close conn1;
  Serve.Client.close conn2;
  Serve.Client.close conn3;
  Domain.join d;
  rm_rf dir

(* Restart resumes: a finished job is replayed into [status] from the
   journal; an interrupted (accepted+running, no terminal entry) job is
   re-enqueued and — with the cache intact — re-resolves to the same
   signature without executing anything; a stale socket file left by a
   crash is swept; a second daemon on a live socket is refused. *)
let test_daemon_restart_resume () =
  let dir = tmpdir "restart" in
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let conn = connect config in
  let v = expect (Serve.Client.submit conn small_spec) in
  check "cold run done" true (frame_type v = "done");
  let sig_cold = Json.member "signature" v in
  (* A second daemon pointed at the live socket must refuse, not steal. *)
  (try
     Serve.serve
       ~config:{ config with Serve.out_dir = Filename.concat dir "other" }
       ();
     Alcotest.fail "second daemon bound a live socket"
   with Failure e -> check "live socket refused" true (e <> ""));
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  (* Restart on the same journal: the finished job is replayed. *)
  let d = start_daemon config in
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List [ r ]) ->
      check "replayed record is done" true
        (Json.member "state" r = Some (Json.String "done"));
      check "replayed record keeps its signature" true
        (Json.member "signature" r = sig_cold)
  | _ -> Alcotest.fail "restart did not replay exactly one record");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  (* Crash scenario: fabricate the journal a kill -9 would leave —
     accepted + running, no terminal entry — plus a stale socket file,
     against the warm cache.  The restart must sweep the socket, requeue
     the job and resolve it entirely from the cache. *)
  let dir2 = Filename.concat dir "after_crash" in
  let config2 =
    {
      config with
      Serve.out_dir = dir2;
      socket_path = Filename.concat dir "fdkit2.sock";
    }
  in
  let t = Journal.append_open (Serve.journal_path dir2) in
  Journal.append t (Serve.Recovery.accepted_entry ~id:7 small_spec);
  Journal.append t (Serve.Recovery.state_entry ~id:7 "running");
  Journal.close t;
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX config2.Serve.socket_path);
  Unix.close stale;
  check "stale socket file present" true
    (Sys.file_exists config2.Serve.socket_path);
  let d = Domain.spawn (fun () -> Serve.serve ~config:config2 ()) in
  let conn =
    match
      Serve.Client.connect_retry ~attempts:8 ~backoff_s:0.05
        config2.Serve.socket_path
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let rec wait_done n =
    if n = 0 then Alcotest.fail "resumed job never finished";
    match Json.member "jobs" (expect (Serve.Client.status conn)) with
    | Some (Json.List [ r ]) when Json.member "state" r = Some (Json.String "done")
      ->
        r
    | _ ->
        Unix.sleepf 0.05;
        wait_done (n - 1)
  in
  let r = wait_done 200 in
  check "resumed job kept its id" true (Json.member "id" r = Some (Json.Int 7));
  check "resumed flag set" true
    (Json.member "resumed" r = Some (Json.Bool true));
  check "resumed entirely from cache" true
    (Json.member "executed" r = Some (Json.Int 0));
  check "every seed was a cache hit" true
    (Json.member "cache_hits" r = Some (Json.Int seeds));
  check "resumed signature = cold signature" true
    (Json.member "signature" r = sig_cold);
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The watchdog: a job that blows its per-attempt deadline is retried
   with backoff (announced with a retry frame) and, once the budget is
   spent, poisoned — exit 6, counted, and quarantined with a
   ready-to-paste resubmission spec on disk. *)
let test_daemon_deadline_retry_poison () =
  let dir = tmpdir "poison" in
  let config =
    {
      (daemon_config dir ~cache:false) with
      Serve.default_deadline_s = 0.05;
      retry_budget = 1;
      retry_backoff_s = 0.01;
    }
  in
  let d = start_daemon config in
  let conn = connect config in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:200 ~protocol:"kset" Protocol.default
  in
  let retries = ref 0 in
  let on_event v = if frame_type v = "retry" then incr retries in
  let v = expect (Serve.Client.submit ~on_event conn spec) in
  check "terminal frame is done" true (frame_type v = "done");
  check "poisoned" true (Json.member "state" v = Some (Json.String "poisoned"));
  check "poison exit code" true (Json.member "exit" v = Some (Json.Int 6));
  check_int "one retry before poisoning" 1 !retries;
  check "deadline named as the reason" true
    (match Json.member "reason" v with
    | Some (Json.String r) -> String.length r > 0
    | _ -> false);
  (match Json.member "replay" v with
  | Some (Json.String cmd) ->
      check "replay command present" true
        (String.length cmd > 0
        && String.length cmd > 13
        && String.sub cmd 0 13 = "fdkit submit ");
      (* the quarantined spec on disk round-trips to the original *)
      let path = String.sub cmd 20 (String.length cmd - 20) in
      check "poison spec round-trips" true
        (match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
        | Ok j -> (
            match Job.of_json j with
            | Ok s -> Job.equal s spec
            | Error _ -> false)
        | Error _ -> false)
  | _ -> Alcotest.fail "done frame has no replay command");
  let v = expect (Serve.Client.status conn) in
  (match Json.member "counters" v with
  | Some counters ->
      check "retry counted" true
        (Json.member "jobs_retried" counters = Some (Json.Int 1));
      check "poison counted" true
        (Json.member "jobs_poisoned" counters = Some (Json.Int 1))
  | None -> Alcotest.fail "status has no counters");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Interrupting a running job                                          *)
(* ------------------------------------------------------------------ *)

(* One kset Run at n = 256, t = 127: several seconds of simulation
   (about 7 s on a 2-vCPU host), so only the engine's poll can stop it
   within the bounds below. *)
let long_run ?(seed = 1) () =
  Job.of_flags ~kind:`Run ~protocol:"kset"
    { Protocol.default with Protocol.n = 256; t = 127; seed }

let interrupt_config dir =
  { (daemon_config dir ~cache:true) with Serve.retry_backoff_s = 0.01 }

let submit_raw conn spec =
  expect
    (Serve.Client.request conn
       (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))

let ack_id ack =
  match Json.member "id" ack with Some (Json.Int i) -> i | _ -> Alcotest.fail "ack has no id"

let status_records conn =
  match Json.member "jobs" (expect (Serve.Client.status conn)) with
  | Some (Json.List records) -> records
  | _ -> Alcotest.fail "status has no jobs list"

let record_of conn id =
  List.find_opt (fun r -> Json.member "id" r = Some (Json.Int id)) (status_records conn)

(* Poll [status] (on a connection of its own) until job [id] has left
   the queue. *)
let wait_started config id =
  let conn = connect config in
  let rec go n =
    if n = 0 then Alcotest.failf "job %d never started" id;
    match record_of conn id with
    | Some r when Json.member "state" r <> Some (Json.String "queued") -> ()
    | _ ->
        Unix.sleepf 0.01;
        go (n - 1)
  in
  go 500;
  Serve.Client.close conn

(* Submit [spec] on a subscribed connection; return its id once a
   telemetry frame shows it has run for a quarter second — past its
   set-up, mid-simulation. *)
let submit_midrun conn spec =
  Serve.Client.subscribe conn;
  let rec go id v =
    let id = if id = None && frame_type v = "ack" then Some (ack_id v) else id in
    match (frame_type v, id) with
    | "telemetry", Some id
      when match Json.member "wall_s" v with Some (Json.Float w) -> w >= 0.25 | _ -> false ->
        id
    | "done", _ ->
        Alcotest.failf "job ended before it could be interrupted: %s"
          (Json.to_string ~minify:true v)
    | _ -> go id (expect (Serve.Client.next_frame conn))
  in
  go None
    (expect
       (Serve.Client.request conn
          (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ])))

let rec next_done conn =
  let v = expect (Serve.Client.next_frame conn) in
  if frame_type v = "done" then v else next_done conn

let cache_stores conn =
  match Json.member "cache" (expect (Serve.Client.status conn)) with
  | Some c -> ( match Json.member "stores" c with Some (Json.Int n) -> n | _ -> -1)
  | None -> -1

(* The deadline stops each attempt mid-run: a retry frame within 1 s of
   the attempt's deadline, twice, then poison (exit 6). *)
let test_daemon_deadline_interrupts () =
  let dir = tmpdir "deadline_mid" in
  let config = interrupt_config dir in
  let d = start_daemon config in
  let conn = connect config in
  let deadline_s = 0.2 in
  let stops = ref [] in
  let on_event v =
    match frame_type v with
    | "retry" | "done" -> stops := Unix.gettimeofday () :: !stops
    | _ -> ()
  in
  let t0 = Unix.gettimeofday () in
  let v = expect (Serve.Client.submit ~deadline_s ~on_event conn (long_run ())) in
  check "poisoned" true (Json.member "state" v = Some (Json.String "poisoned"));
  check "poison exit code" true (Json.member "exit" v = Some (Json.Int 6));
  let stops = List.rev !stops in
  check_int "three attempts (two retries, then done)" 3 (List.length stops);
  (* An attempt starts at most a backoff (<= 0.02 s here) after the
     previous one stopped. *)
  ignore
    (List.fold_left
       (fun start stop ->
         check "attempt stopped within 1 s of its deadline" true
           (stop -. start <= deadline_s +. 1.0 +. 0.02);
         stop)
       t0 stops);
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A cancel stops the running job within 1 s; the interrupted job is
   not cached, so resubmitting the same spec hits nothing. *)
let test_daemon_cancel_interrupts () =
  let dir = tmpdir "cancel_mid" in
  let config = interrupt_config dir in
  let d = start_daemon config in
  let conn = connect config in
  let cancel_running spec =
    ignore (submit_midrun conn spec);
    let t_cancel = Unix.gettimeofday () in
    Serve.Client.cancel conn;
    let v = next_done conn in
    check "done within 1 s of the cancel" true (Unix.gettimeofday () -. t_cancel <= 1.0);
    v
  in
  let v = cancel_running (long_run ()) in
  check "cancelled" true (Json.member "state" v = Some (Json.String "cancelled"));
  check "cancel exit code" true (Json.member "exit" v = Some (Json.Int 4));
  check_int "the interrupted job was not stored" 0 (cache_stores conn);
  let v = cancel_running (long_run ()) in
  check "resubmission found nothing cached" true
    (Json.member "cache_hits" v = Some (Json.Int 0));
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Shutdown interrupts the running job: the daemon exits within 1 s,
   the journal keeps the job pending, and a restart resumes it. *)
let test_daemon_shutdown_interrupts () =
  let dir = tmpdir "shutdown_mid" in
  let config = interrupt_config dir in
  let d = start_daemon config in
  let conn = connect config in
  let id = submit_midrun conn (long_run ()) in
  let t_shutdown = Unix.gettimeofday () in
  ignore (Serve.Client.shutdown conn);
  Domain.join d;
  check "daemon exited within 1 s" true (Unix.gettimeofday () -. t_shutdown <= 1.0);
  Serve.Client.close conn;
  let recovered = Serve.Recovery.load (Serve.journal_path dir) in
  check "journal keeps the job pending" true
    (List.map (fun p -> p.Serve.Recovery.p_id) recovered.Serve.Recovery.pending = [ id ]);
  check_int "and finished nothing" 0 (List.length recovered.Serve.Recovery.completed);
  let d = start_daemon config in
  let conn = connect config in
  wait_started config id;
  (match record_of conn id with
  | Some r ->
      check "resumed" true (Json.member "resumed" r = Some (Json.Bool true));
      check "running again" true (Json.member "state" r = Some (Json.String "running"))
  | None -> Alcotest.fail "restart lost the job");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The daemon keeps every live record and the newest [128] finished
   ones in memory; the journal keeps everything. *)
let test_daemon_history_bound () =
  let dir = tmpdir "history" in
  let config = interrupt_config dir in
  let d = start_daemon config in
  let conn = connect config in
  let cap = 128 and extra = 20 in
  for seed = 1 to cap + extra do
    let v =
      expect
        (Serve.Client.submit conn
           (Job.of_flags ~kind:`Run ~protocol:"kset" { Protocol.default with Protocol.seed }))
    in
    check "fast job done" true (Json.member "state" v = Some (Json.String "done"))
  done;
  (* One running and one queued job. *)
  let running = ack_id (submit_raw conn (long_run ())) in
  wait_started config running;
  let conn2 = connect config in
  let queued_spec = long_run ~seed:2 () in
  let queued = ack_id (submit_raw conn2 queued_spec) in
  let ids_in records =
    List.filter_map
      (fun r -> match Json.member "id" r with Some (Json.Int i) -> Some i | _ -> None)
      records
  in
  let finished = List.init cap (fun i -> extra + 1 + i) in
  let expect_listing what records =
    let terminal =
      List.filter
        (fun r ->
          not
            (List.mem (Json.member "state" r)
               [ Some (Json.String "queued"); Some (Json.String "running") ]))
        records
    in
    check (what ^ ": exactly the newest finished records") true
      (List.sort compare (ids_in terminal) = finished);
    check (what ^ ": every live record") true
      (List.mem running (ids_in records) && List.mem queued (ids_in records));
    check_int (what ^ ": nothing else") (cap + 2) (List.length records)
  in
  expect_listing "status" (status_records conn2);
  (* A spec already queued still attaches. *)
  let conn3 = connect config in
  let ack = submit_raw conn3 queued_spec in
  check "resubmission attached" true (Json.member "attached" ack = Some (Json.Bool true));
  check_int "to the queued record" queued (ack_id ack);
  ignore (expect (Serve.Client.shutdown conn3));
  List.iter Serve.Client.close [ conn; conn2; conn3 ];
  Domain.join d;
  (* The journal has every job; a restart replays the same listing. *)
  let recovered = Serve.Recovery.load (Serve.journal_path dir) in
  check_int "journal keeps every finished job" (cap + extra)
    (List.length recovered.Serve.Recovery.completed);
  let d = start_daemon config in
  let conn = connect config in
  expect_listing "after restart" (status_records conn);
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A long job streams telemetry while it runs (from the engine's poll),
   not just at its start and end. *)
let test_daemon_long_job_streams () =
  let dir = tmpdir "long_stream" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  Serve.Client.subscribe conn;
  let frames = ref [] in
  let on_event v =
    if frame_type v = "telemetry" then
      match (Json.member "seq" v, Json.member "done" v, Json.member "total" v) with
      | Some (Json.Int seq), Some (Json.Int dn), Some (Json.Int tot) ->
          frames := (seq, dn, tot) :: !frames
      | _ -> Alcotest.fail "telemetry frame missing seq/done/total"
  in
  (* about 1.2 s on a 2-vCPU host *)
  let spec =
    Job.of_flags ~kind:`Run ~protocol:"kset" { Protocol.default with Protocol.n = 128; t = 63 }
  in
  let v = expect (Serve.Client.submit ~on_event conn spec) in
  check "done" true (Json.member "state" v = Some (Json.String "done"));
  let frames = List.rev !frames in
  check "at least two frames while the job ran" true
    (List.length (List.filter (fun (_, dn, tot) -> dn < tot) frames) >= 2);
  ignore
    (List.fold_left
       (fun prev (seq, dn, tot) ->
         check "seq increases" true (seq > prev);
         check "done <= total" true (dn <= tot);
         seq)
       0 frames);
  (match List.rev frames with
  | (_, dn, tot) :: _ -> check "last frame complete" true (dn = tot)
  | [] -> Alcotest.fail "no telemetry");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Random interleavings against the daemon's invariants                *)
(* ------------------------------------------------------------------ *)

type iop =
  | I_submit of int * int  (* connection slot, pool spec *)
  | I_cancel of int  (* bare cancel: the slot's latest submission *)
  | I_cancel_id of int  (* by the id of the slot's latest ack *)
  | I_subscribe of int
  | I_unsubscribe of int
  | I_status of int
  | I_reconnect of int  (* hang up, then open a fresh connection *)
  | I_pump  (* a short pause, then read what has arrived *)

(* [fdkit replay] and a daemon submit of the same replay spec agree: a
   spec whose index is out of range is rejected at submit with the
   message [fdkit replay] prints (exit 3), and the index-0 replay of a
   recorded counterexample ends done with exit 0. *)
let test_daemon_replay_paths_agree () =
  let dir = tmpdir "replay" in
  let misuse =
    Job.of_flags ~kind:`Explore ~protocol:"kset"
      ~bounds:{ Explorer.default_bounds with Explorer.depth = 4; delays = 1 }
      {
        Protocol.default with
        Protocol.n = 7;
        t = 2;
        z = 2;
        k = 1;
        crashes = Setagree_dsys.Crash.No_crashes;
      }
  in
  let ces = (Job.execute ~jobs:1 misuse).Job.o_ces in
  check "the misuse exploration records a counterexample" true (ces <> []);
  let path = Explorer.write_counterexamples ~dir ~protocol:"kset" ces in
  let replay index = Job.Replay { source = Job.Schedule_file; path; index } in
  let out_of_range =
    Printf.sprintf "--index 99 out of range (%d counterexample(s))" (List.length ces)
  in
  check "validate rejects with fdkit replay's message" true
    (Job.validate (replay 99) = Error [ out_of_range ]);
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let conn = connect config in
  let ack = expect (Serve.Client.submit conn (replay 99)) in
  check "rejected at submit" true
    (frame_type ack = "ack" && Json.member "accepted" ack = Some (Json.Bool false));
  check "with the message" true
    (Json.member "errors" ack = Some (Json.List [ Json.String out_of_range ]));
  (match record_of conn (ack_id ack) with
  | Some r -> check "exit 3" true (Json.member "exit" r = Some (Json.Int 3))
  | None -> Alcotest.fail "rejected record missing from status");
  let v = expect (Serve.Client.submit conn (replay 0)) in
  check "index 0 ends done" true
    (frame_type v = "done" && Json.member "state" v = Some (Json.String "done"));
  check "exit 0" true (Json.member "exit" v = Some (Json.Int 0));
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* [--index i] names the file's i-th record, whether or not the records
   before it decode: record 0 of each file below does not decode, record
   1 is a real one.  Index 0 is refused naming record 0 and why, index 1
   replays record 1 (a counterexample reproduces), and index 2 is out of
   range of both records.  The daemon validates a replay spec with
   [Job.validate], so it refuses the same. *)
let test_replay_by_position () =
  let dir = tmpdir "replaypos" in
  let ces =
    (Job.execute ~jobs:1
       (Job.of_flags ~kind:`Explore ~protocol:"kset"
          ~bounds:{ Explorer.default_bounds with Explorer.depth = 4; delays = 1 }
          {
            Protocol.default with
            Protocol.n = 7;
            t = 2;
            z = 2;
            k = 1;
            crashes = Setagree_dsys.Crash.No_crashes;
          }))
      .Job.o_ces
  in
  let good = Setagree_dsys.Schedule.to_json (List.hd ces) in
  let garbage =
    match good with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "choices" then (k, Json.String "garbage") else (k, v))
             fields)
    | _ -> Alcotest.fail "a schedule is an object"
  in
  let two name records =
    let path = Filename.concat dir name in
    Json.write_file path (Json.Obj [ ("counterexamples", Json.List records) ]);
    path
  in
  let sched = two "counterexamples.json" [ garbage; good ] in
  let fails =
    let f =
      {
        Chaos.f_protocol = "kset";
        f_mix = "none";
        f_kind = Chaos.Safety;
        f_notes = [];
        f_params = Protocol.default;
      }
    in
    let path = Chaos.write_failures ~dir [ f ] in
    let record =
      match Json.member "failures" (Result.get_ok (Json.of_string (In_channel.with_open_bin path In_channel.input_all))) with
      | Some (Json.List [ r ]) -> r
      | _ -> Alcotest.fail "write_failures writes one record"
    in
    Json.write_file path
      (Json.Obj
         [
           ( "failures",
             Json.List [ Json.Obj [ ("params", Json.Obj [ ("n", Json.String "four") ]) ]; record ] );
         ]);
    path
  in
  (match Explorer.load_counterexamples sched with
  | Ok [ Error _; Ok s ] ->
      check "record 1 is the counterexample" true (Setagree_dsys.Schedule.to_json s = good)
  | _ -> Alcotest.fail "load_counterexamples keeps both records in place");
  (match Chaos.load_failures fails with
  | Ok [ Error _; Ok f ] -> check "record 1 is the failure" true (f.Chaos.f_protocol = "kset")
  | _ -> Alcotest.fail "load_failures keeps both records in place");
  List.iter
    (fun (source, path, unit) ->
      let replay index = Job.Replay { source; path; index } in
      (match Job.validate (replay 0) with
      | Error [ e ] ->
          check ("names record 0: " ^ e) true
            (Strutil.contains e ~sub:(path ^ ": record 0 does not decode: "))
      | _ -> Alcotest.fail "index 0 must be refused");
      check "index 1 is accepted" true (Job.validate (replay 1) = Ok ());
      check "index 2 is out of range of both records" true
        (Job.validate (replay 2)
        = Error [ Printf.sprintf "--index 2 out of range (2 %s)" unit ]))
    [ (Job.Schedule_file, sched, "counterexample(s)"); (Job.Faults_file, fails, "failure(s)") ];
  let o = Job.execute ~jobs:1 (Job.Replay { source = Job.Schedule_file; path = sched; index = 1 }) in
  check_int "record 1 reproduces" 0 o.Job.o_exit;
  rm_rf dir

(* The daemon refuses at submit what [fdkit explore -z 0] refuses. *)
let test_daemon_refuses_oracle_range () =
  let dir = tmpdir "zrange" in
  let spec =
    Job.of_flags ~kind:`Explore ~protocol:"kset"
      ~bounds:{ Explorer.default_bounds with Explorer.depth = 6; delays = 1; walks = 0 }
      {
        Protocol.default with
        Protocol.n = 7;
        t = 2;
        z = 0;
        k = 1;
        crashes = Setagree_dsys.Crash.No_crashes;
      }
  in
  check "validate refuses z = 0" true (Result.is_error (Job.validate spec));
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let ack = expect (Serve.Client.submit conn spec) in
  check "rejected at submit" true
    (frame_type ack = "ack" && Json.member "accepted" ack = Some (Json.Bool false));
  (match record_of conn (ack_id ack) with
  | Some r -> check "exit 3" true (Json.member "exit" r = Some (Json.Int 3))
  | None -> Alcotest.fail "rejected record missing from status");
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* An unknown backend or trace level is a refused spec, at [validate] and
   at submit, instead of a simulator run whose replay line fdkit rejects.
   Every listed backend and every trace level passes. *)
let test_daemon_refuses_backend_trace () =
  let spec =
    match
      Job.of_json
        (Json.of_string_exn
           {|{"kind":"run","protocol":"kset","params":{"n":4,"t":1,"backend":"bogus","trace":"loud"}}|})
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (match Job.validate spec with
  | Error errs ->
      check_int "one error each" 2 (List.length errs);
      check "names the backend" true
        (List.exists (fun e -> Strutil.contains e ~sub:"bogus") errs);
      check "names the trace level" true
        (List.exists (fun e -> Strutil.contains e ~sub:"loud") errs)
  | Ok () -> Alcotest.fail "validate accepted backend bogus, trace loud");
  List.iter
    (fun (backend, trace) ->
      check (backend ^ "/" ^ trace ^ " accepted") true
        (Job.validate
           (Job.of_flags ~kind:`Run ~protocol:"kset"
              { Protocol.default with Protocol.backend; trace })
        = Ok ()))
    (List.concat_map (fun b -> List.map (fun l -> (b, l)) [ "off"; "default"; "full" ]) Job.backends);
  check "only rt backends are rt" true
    (List.filter Job.is_rt (Job.backends @ [ "rtx"; "rt-udp" ]) = [ "rt"; "rt-chan" ]);
  let dir = tmpdir "backend" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let ack = expect (Serve.Client.submit conn spec) in
  check "rejected at submit" true
    (frame_type ack = "ack" && Json.member "accepted" ack = Some (Json.Bool false));
  (match record_of conn (ack_id ack) with
  | Some r -> check "exit 3" true (Json.member "exit" r = Some (Json.Int 3))
  | None -> Alcotest.fail "rejected record missing from status");
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A spec field of the wrong JSON type, or a crash or fault spec its own
   decoder rejects, refuses the spec, naming the field, instead of
   running with a default in its place (no faults, two crashes, n = 8,
   32 seeds): [fdkit submit --spec] exits 3 and the daemon answers the
   submit with an error frame.  A crash spec that is not an object is
   refused as one, not for a missing "kind". *)
let test_daemon_refuses_malformed () =
  let specs =
    [
      ("links", {|{"kind":"run","protocol":"kset","params":{"n":4,"t":1,"faults":{"links":"bogus"}}}|});
      ( {|"crashes": Crash.spec_of_json: expected an object|},
        {|{"kind":"run","protocol":"kset","params":{"n":4,"t":1,"crashes":"three"}}|} );
      ({|"n"|}, {|{"kind":"run","protocol":"kset","params":{"n":"4","t":1}}|});
      ("seeds", {|{"kind":"campaign","protocol":"kset","seeds":"5"}|});
    ]
  in
  let dir = tmpdir "malformed" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let fd = raw_connect config.Serve.socket_path and dec = Json.Stream.decoder () in
  List.iter
    (fun (field, text) ->
      (match Job.of_json (Json.of_string_exn text) with
      | Ok s -> Alcotest.failf "decoded %s as %s" text (Job.canonical s)
      | Error e -> check ("error names " ^ field ^ ": " ^ e) true (Strutil.contains e ~sub:field));
      let path = Filename.concat dir "spec.json" in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let code, out = fdkit [ "submit"; "--socket"; config.Serve.socket_path; "--spec"; path ] in
      check_int ("submit --spec exit\n" ^ out) 3 code;
      write_all fd (Printf.sprintf {|{"op":"submit","spec":%s}|} text ^ "\n");
      let v = read_frame fd dec in
      check ("daemon error frame for " ^ field) true
        (frame_type v = "error"
        &&
        match Json.member "message" v with
        | Some (Json.String m) -> Strutil.contains m ~sub:field
        | _ -> false))
    specs;
  Unix.close fd;
  let conn = connect config in
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A trace level's spelling is not part of a spec: "OFF" decodes as
   "off", so both spellings have one canonical form and one job key, and
   a daemon that ran one serves the other from its cache. *)
let test_daemon_trace_spelling_cached () =
  let text level =
    Printf.sprintf
      {|{"kind":"campaign","protocol":"kset","seeds":2,"params":{"trace":"%s"}}|} level
  in
  let decode level = expect (Job.of_json (Json.of_string_exn (text level))) in
  let upper = decode "OFF" and lower = decode "off" in
  Alcotest.(check string) "one canonical form" (Job.canonical lower) (Job.canonical upper);
  Alcotest.(check (list string)) "one job key each" (cache_entries lower) (cache_entries upper);
  let dir = tmpdir "trace-spelling" in
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let submit level flags =
    let path = Filename.concat dir (level ^ ".json") in
    Out_channel.with_open_bin path (fun oc -> output_string oc (text level));
    fdkit ([ "submit"; "--socket"; config.Serve.socket_path; "--spec"; path ] @ flags)
  in
  let code, out = submit "OFF" [] in
  check_int ("cold submit exit\n" ^ out) 0 code;
  let code, out = submit "off" [ "--expect-cached" ] in
  check_int ("other spelling, --expect-cached exit\n" ^ out) 0 code;
  let conn = connect config in
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The daemon writes a finished spec's files with the CLI's writer:
   byte-identical triage files for a failing sweep and for a misuse
   exploration. *)
let test_daemon_artifacts_match_cli () =
  let dir = tmpdir "artifacts" in
  let cli = Filename.concat dir "cli" in
  (* Both sides stamp the artifacts with the same code fingerprint. *)
  let fp = Stamp.fingerprint () in
  Fingerprint.install ();
  Fun.protect ~finally:(fun () -> Stamp.set_fingerprint fp) @@ fun () ->
  let code, text = fdkit (misuse_sweep 5 @ [ "--jobs"; "2"; "--out"; cli ]) in
  check_int ("campaign exit\n" ^ text) 1 code;
  let code, text =
    fdkit
      [ "explore"; "-n"; "7"; "-t"; "2"; "-z"; "2"; "-k"; "1"; "--depth"; "4"; "--delays"; "1";
        "--jobs"; "2"; "--out"; cli ]
  in
  check_int ("explore exit\n" ^ text) 0 code;
  let params =
    {
      Protocol.default with
      Protocol.n = 7;
      t = 2;
      z = 2;
      k = 1;
      crashes = Setagree_dsys.Crash.No_crashes;
    }
  in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let campaign =
    Job.of_flags ~kind:`Campaign ~seeds:5 ~protocol:"kset"
      { params with Protocol.adversarial = true; horizon = 400.0 }
  in
  let v = expect (Serve.Client.submit conn campaign) in
  check "campaign ends done, exit 1" true
    (Json.member "state" v = Some (Json.String "done")
    && Json.member "exit" v = Some (Json.Int 1));
  let explore =
    Job.of_flags ~kind:`Explore ~protocol:"kset"
      ~bounds:{ Explorer.default_bounds with Explorer.depth = 4; delays = 1 }
      params
  in
  let v = expect (Serve.Client.submit conn explore) in
  check "explore ends done" true (Json.member "state" v = Some (Json.String "done"));
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  let read name d = In_channel.with_open_bin (Filename.concat d name) In_channel.input_all in
  check_int "4 triage records" 4 (List.length (triage_seeds (Filename.concat dir "failures.json")));
  List.iter
    (fun name -> Alcotest.(check string) (name ^ " byte-identical") (read name cli) (read name dir))
    [ "failures.json"; "counterexamples.json" ];
  rm_rf dir

(* [fdkit submit --kind explore] takes explore's bounds flags: CI's misuse
   search submitted by flags ends with the signature of the spec those
   flags describe, and the daemon writes its counterexamples. *)
let test_cli_submit_explore_bounds () =
  let dir = tmpdir "submit-explore" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let code, text =
    fdkit
      [ "submit"; "--socket"; config.Serve.socket_path; "--kind"; "explore"; "-n"; "7"; "-t";
        "2"; "-z"; "2"; "-k"; "1"; "--crashes"; "0"; "--depth"; "12"; "--delays"; "1";
        "--walks"; "20" ]
  in
  let conn = connect config in
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  check_int ("submit exit\n" ^ text) 0 code;
  let spec =
    Job.of_flags ~kind:`Explore ~protocol:"kset"
      ~bounds:{ Explorer.default_bounds with Explorer.depth = 12; delays = 1; walks = 20 }
      {
        Protocol.default with
        Protocol.n = 7;
        t = 2;
        z = 2;
        k = 1;
        crashes = Setagree_dsys.Crash.No_crashes;
      }
  in
  let o = Job.execute ~jobs:1 spec in
  let md5 = Digest.to_hex (Digest.string (Runner.signature o.Job.o_campaign)) in
  check ("the flags' spec signature\n" ^ text) true
    (Strutil.contains text ~sub:("signature=" ^ md5));
  check "the misuse search finds a counterexample" true (o.Job.o_ces <> []);
  (match
     Json.member "count"
       (Json.of_string_exn
          (In_channel.with_open_bin (Filename.concat dir "counterexamples.json")
             In_channel.input_all))
   with
  | Some (Json.Int n) ->
      check_int "the daemon wrote them all" (List.length o.Job.o_ces) n
  | _ -> Alcotest.fail "counterexamples.json has no count");
  rm_rf dir

let iop_to_string = function
  | I_submit (c, s) -> Printf.sprintf "submit(%d,%d)" c s
  | I_cancel c -> Printf.sprintf "cancel(%d)" c
  | I_cancel_id c -> Printf.sprintf "cancel_id(%d)" c
  | I_subscribe c -> Printf.sprintf "subscribe(%d)" c
  | I_unsubscribe c -> Printf.sprintf "unsubscribe(%d)" c
  | I_status c -> Printf.sprintf "status(%d)" c
  | I_reconnect c -> Printf.sprintf "reconnect(%d)" c
  | I_pump -> "pump"

let gen_iop =
  QCheck.Gen.(
    let slot = int_bound 2 in
    frequency
      [
        (5, map2 (fun c s -> I_submit (c, s)) slot (int_bound 2));
        (2, map (fun c -> I_cancel c) slot);
        (1, map (fun c -> I_cancel_id c) slot);
        (1, map (fun c -> I_subscribe c) slot);
        (1, map (fun c -> I_unsubscribe c) slot);
        (1, map (fun c -> I_status c) slot);
        (1, map (fun c -> I_reconnect c) slot);
        (3, return I_pump);
      ])

(* A raw connection: ops go out without waiting for replies, and every
   frame that comes back is logged. *)
type iconn = {
  ifd : Unix.file_descr;
  idec : Json.Stream.decoder;
  mutable frames : Json.t list;  (* newest first *)
  mutable submitted : int list;  (* pool spec per submit, newest first *)
}

let iconnect path =
  { ifd = raw_connect path; idec = Json.Stream.decoder (); frames = []; submitted = [] }

let isend c j = write_all c.ifd (Json.to_string ~minify:true j ^ "\n")

(* Log every frame that has arrived, waiting up to [timeout] for the
   first byte. *)
let ipump ?(timeout = 0.) c =
  let buf = Bytes.create 65536 in
  let rec drain () =
    match Json.Stream.next c.idec with
    | `Value v ->
        c.frames <- v :: c.frames;
        drain ()
    | `Error e -> Alcotest.failf "daemon sent a bad frame: %s" (Json.error_to_string e)
    | `Await -> ()
  in
  let rec go timeout =
    match Unix.select [ c.ifd ] [] [] timeout with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read c.ifd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Json.Stream.feed c.idec (Bytes.sub_string buf 0 n);
            drain ();
            go 0.)
  in
  go timeout

let int_field k v = match Json.member k v with Some (Json.Int i) -> Some i | _ -> None
let str_field k v = match Json.member k v with Some (Json.String s) -> s | _ -> ""

(* (ack frame, pool spec) for each ack on [c], oldest first: one submit
   draws exactly one ack, in order. *)
let acks_of c =
  let acks = List.rev (List.filter (fun v -> frame_type v = "ack") c.frames) in
  let specs = List.rev c.submitted in
  List.filteri (fun i _ -> i < List.length acks) specs |> List.combine acks

let accepted_id ack =
  if Json.member "accepted" ack = Some (Json.Bool true) then int_field "id" ack
  else None

let settled c =
  let frames = c.frames in
  List.length (List.filter (fun v -> frame_type v = "ack") frames)
  = List.length c.submitted
  && List.for_all
       (fun (ack, _) ->
         match accepted_id ack with
         | None -> true
         | Some id ->
             List.exists
               (fun v -> frame_type v = "done" && int_field "id" v = Some id)
               frames)
       (acks_of c)

(* Per job id on one connection: the ack comes first; progress frames
   count done = 1, 2, … (from wherever the job stood when an attach
   landed); telemetry only between the ack and the done frame; at most
   one done frame, and nothing for the id after it. *)
let check_frame_order c =
  let seen : (int, [ `Acked of int option | `Done ]) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun v ->
      match (frame_type v, int_field "id" v) with
      | "ack", Some id when accepted_id v <> None -> (
          match Hashtbl.find_opt seen id with
          | None ->
              let fresh = Json.member "attached" v <> Some (Json.Bool true) in
              Hashtbl.replace seen id (`Acked (if fresh then Some 0 else None))
          | Some (`Acked _) ->
              check "a repeated ack is an attach" true
                (Json.member "attached" v = Some (Json.Bool true))
          | Some `Done -> Alcotest.failf "job %d: ack after its done frame" id)
      | "progress", Some id -> (
          let dn = Option.get (int_field "done" v) in
          match Hashtbl.find_opt seen id with
          | Some (`Acked prev) ->
              (match prev with
              | Some p when dn <> p + 1 ->
                  Alcotest.failf "job %d: progress done=%d after %d" id dn p
              | _ -> ());
              Hashtbl.replace seen id (`Acked (Some dn))
          | _ -> Alcotest.failf "job %d: progress outside ack..done" id)
      | "telemetry", Some id -> (
          match Hashtbl.find_opt seen id with
          | Some (`Acked _) -> ()
          | _ -> Alcotest.failf "job %d: telemetry outside ack..done" id)
      | "done", Some id -> (
          match Hashtbl.find_opt seen id with
          | Some (`Acked _) -> Hashtbl.replace seen id `Done
          | _ -> Alcotest.failf "job %d: done without ack, or twice" id)
      | _ -> ())
    (List.rev c.frames)

(* Three connections drive random submit / cancel / subscribe / status /
   hang-up interleavings over a pool of three small specs (so repeats
   dedup-attach), then wait for every accepted job to finish.  Checked:
   frame order per job and connection, a done frame for every accepted
   ack on a connection still open, attaches naming an earlier accepted
   id of the same spec, and a restart on the same out_dir listing the
   ids, states and signatures the clients were told. *)
let qcheck_daemon_interleavings =
  QCheck.Test.make ~count:8 ~name:"daemon: random interleavings keep the invariants"
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map iop_to_string ops))
       QCheck.Gen.(list_size (int_range 5 25) gen_iop))
    (fun ops ->
      let dir = tmpdir "interleave" in
      let config = { (daemon_config dir ~cache:true) with Serve.jobs = Some 1 } in
      let path = config.Serve.socket_path in
      let d = start_daemon config in
      let slots = Array.init 3 (fun _ -> iconnect path) in
      let closed = ref [] in
      let op name extra = Json.Obj (("op", Json.String name) :: extra) in
      List.iter
        (fun o ->
          match o with
          | I_submit (c, s) ->
              slots.(c).submitted <- s :: slots.(c).submitted;
              isend slots.(c) (op "submit" [ ("spec", Job.to_json pool_specs.(s)) ])
          | I_cancel c -> isend slots.(c) (op "cancel" [])
          | I_cancel_id c -> (
              ipump slots.(c);
              match
                List.find_map
                  (fun v -> if frame_type v = "ack" then int_field "id" v else None)
                  slots.(c).frames
              with
              | Some id -> isend slots.(c) (op "cancel" [ ("id", Json.Int id) ])
              | None -> isend slots.(c) (op "cancel" []))
          | I_subscribe c -> isend slots.(c) (op "subscribe" [])
          | I_unsubscribe c -> isend slots.(c) (op "unsubscribe" [])
          | I_status c -> isend slots.(c) (op "status" [])
          | I_reconnect c ->
              ipump slots.(c);
              Unix.close slots.(c).ifd;
              closed := slots.(c) :: !closed;
              slots.(c) <- iconnect path
          | I_pump ->
              Unix.sleepf 0.01;
              Array.iter ipump slots)
        ops;
      let deadline = Unix.gettimeofday () +. 60. in
      while
        (not (Array.for_all settled slots)) && Unix.gettimeofday () < deadline
      do
        Array.iter (fun c -> ipump ~timeout:0.02 c) slots
      done;
      Array.iter (fun c -> check "every accepted ack gets its done" true (settled c)) slots;
      let conns = Array.to_list slots @ !closed in
      List.iter check_frame_order conns;
      (* What the clients were told. *)
      let all_acks = List.concat_map acks_of conns in
      let fresh = Hashtbl.create 8 in
      List.iter
        (fun (ack, s) ->
          match accepted_id ack with
          | Some id when Json.member "attached" ack <> Some (Json.Bool true) ->
              check "fresh ids are unique" false (Hashtbl.mem fresh id);
              Hashtbl.replace fresh id s
          | _ -> ())
        all_acks;
      let told = Hashtbl.create 8 in
      List.iter
        (fun c ->
          List.iter
            (fun v ->
              if frame_type v = "done" then begin
                let id = Option.get (int_field "id" v) in
                let st = (str_field "state" v, str_field "signature" v) in
                (match Hashtbl.find_opt told id with
                | Some st' -> check "watchers were told the same outcome" true (st = st')
                | None -> ());
                Hashtbl.replace told id st
              end)
            c.frames)
        conns;
      Array.iter (fun c -> Unix.close c.ifd) slots;
      let conn = connect config in
      check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
      Serve.Client.close conn;
      Domain.join d;
      let d = start_daemon config in
      let conn = connect config in
      let records =
        match Json.member "jobs" (expect (Serve.Client.status conn)) with
        | Some (Json.List rs) -> rs
        | _ -> Alcotest.fail "status has no jobs list"
      in
      let record id = List.find_opt (fun r -> int_field "id" r = Some id) records in
      (* An attach names an accepted record of the same spec. *)
      List.iter
        (fun (ack, s) ->
          match accepted_id ack with
          | Some id when Json.member "attached" ack = Some (Json.Bool true) ->
              (match Hashtbl.find_opt fresh id with
              | Some s' -> check "attached to the same spec" true (s = s')
              | None -> ());
              check "attached id is a known record of that spec" true
                (match record id with
                | Some r -> str_field "summary" r = Job.summary pool_specs.(s)
                | None -> false)
          | _ -> ())
        all_acks;
      Hashtbl.iter
        (fun id _ -> check "accepted job survives the restart" true (record id <> None))
        fresh;
      Hashtbl.iter
        (fun id (st, sg) ->
          check "restart keeps what the clients were told" true
            (match record id with
            | Some r -> str_field "state" r = st && str_field "signature" r = sg
            | None -> false))
        told;
      ignore (expect (Serve.Client.shutdown conn));
      Serve.Client.close conn;
      Domain.join d;
      rm_rf dir;
      true)

let () =
  let qc =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
      [ qcheck_spec_roundtrip; qcheck_canonical_text_roundtrip ]
  in
  Alcotest.run "job"
    [
      ( "spec",
        [
          Alcotest.test_case "canonical pinned" `Quick test_canonical_pinned;
          Alcotest.test_case "of_flags defaults" `Quick test_of_flags_defaults;
          Alcotest.test_case "validate" `Quick test_validate;
        ]
        @ qc
        @ [
            Alcotest.test_case "retired engine keys decode" `Quick test_retired_keys_decode;
            Alcotest.test_case "replay keeps backend" `Quick test_replay_keeps_backend;
            Alcotest.test_case "replay by record position" `Quick test_replay_by_position;
          ] );
      ( "cache",
        [
          Alcotest.test_case "cold/warm byte-identical" `Quick
            test_cache_cold_warm_identical;
          Alcotest.test_case "-j1 = -jN warm" `Quick test_cache_j1_equals_jn;
          Alcotest.test_case "fingerprint invalidation" `Quick
            test_cache_fingerprint_invalidation;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "fingerprint lists" `Quick test_fingerprint_lists;
          Alcotest.test_case "key recipe pinned" `Quick test_cache_keys_pinned;
          Alcotest.test_case "rt never cached" `Quick test_rt_jobs_never_cached;
        ] );
      ( "cli",
        [
          Alcotest.test_case "nested --out directories" `Quick test_cli_nested_out;
          Alcotest.test_case "bad params fail cleanly" `Quick test_cli_bad_params;
          Alcotest.test_case "oracle ranges refused" `Quick test_cli_oracle_ranges;
          Alcotest.test_case "replay commands reproduce" `Quick test_cli_replay_commands;
          Alcotest.test_case "compare keeps one triage" `Quick test_cli_compare_triage;
          Alcotest.test_case "compare runs -j 1 uncached" `Quick test_cli_compare_uncached;
          Alcotest.test_case "compare speedup not cached" `Quick test_cli_compare_speedup;
          Alcotest.test_case "submit takes explore bounds" `Quick test_cli_submit_explore_bounds;
          Alcotest.test_case "trace validates its spec" `Quick test_cli_trace_validates;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit/stream/status/shutdown" `Quick
            test_daemon_submit_stream_status_shutdown;
          Alcotest.test_case "cancel" `Quick test_daemon_cancel;
          Alcotest.test_case "eof cancels" `Quick test_daemon_eof_cancels;
          Alcotest.test_case "slow consumer shed" `Quick
            test_daemon_slow_consumer_shed;
          Alcotest.test_case "connection cap" `Quick test_daemon_connection_cap;
          Alcotest.test_case "oversized frame dropped" `Quick
            test_daemon_oversized_frame;
          Alcotest.test_case "history keeps the newest finished" `Quick
            test_daemon_history_bound;
          Alcotest.test_case "replay paths agree" `Quick test_daemon_replay_paths_agree;
          Alcotest.test_case "oracle range refused" `Quick test_daemon_refuses_oracle_range;
          Alcotest.test_case "backend/trace refused" `Quick test_daemon_refuses_backend_trace;
          Alcotest.test_case "artifacts match the CLI" `Quick test_daemon_artifacts_match_cli;
          Alcotest.test_case "malformed fields refused" `Quick test_daemon_refuses_malformed;
          Alcotest.test_case "trace spelling cached" `Quick test_daemon_trace_spelling_cached;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "subscribe/unsubscribe + inertness" `Quick
            test_daemon_telemetry_subscription;
          Alcotest.test_case "mid-run toggle races" `Quick
            test_daemon_subscription_races;
          Alcotest.test_case "disconnect mid-stream" `Quick
            test_daemon_disconnect_mid_stream;
          Alcotest.test_case "decoder survives mid-frame cut" `Quick
            test_stream_decoder_mid_telemetry_cut;
          Alcotest.test_case "long job streams mid-run" `Quick
            test_daemon_long_job_streams;
        ] );
      ( "untrusted",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
          [ qcheck_stream_fuzz; qcheck_spec_mutation_fuzz ] );
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            qcheck_recovery_replay;
          Alcotest.test_case "queue full / dedup attach / cancel queued" `Quick
            test_daemon_queue_full_dedup_cancel;
          Alcotest.test_case "restart replay + crash resume" `Quick
            test_daemon_restart_resume;
          Alcotest.test_case "deadline retry then poison" `Quick
            test_daemon_deadline_retry_poison;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            qcheck_daemon_interleavings;
          Alcotest.test_case "deadline stops a running job" `Quick
            test_daemon_deadline_interrupts;
          Alcotest.test_case "cancel stops a running job" `Quick
            test_daemon_cancel_interrupts;
          Alcotest.test_case "shutdown stops a running job" `Quick
            test_daemon_shutdown_interrupts;
        ] );
    ]
