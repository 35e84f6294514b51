(* Observability layer tests: the metrics registry (merge laws, histogram
   percentiles), trace spans (nesting per track), exporters (JSON
   round-trips, byte-stable determinism), and the trace-derived obs.*
   metrics surfaced by Protocol.run. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter_gauge () =
  let m = Metrics.create () in
  check_int "absent counter" 0 (Metrics.counter m "c");
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  check_int "counter" 5 (Metrics.counter m "c");
  check "absent gauge" true (Metrics.gauge m "g" = None);
  Metrics.set_gauge m "g" 2.5;
  Metrics.set_gauge m "g" 1.0;
  check "gauge keeps last" true (Metrics.gauge m "g" = Some 1.0);
  Alcotest.(check (list string)) "names sorted" [ "c"; "g" ] (Metrics.names m);
  (* Registered out of order, and the table's own fold order differs. *)
  Metrics.incr m "z.late";
  Metrics.incr m "a.early";
  Alcotest.(check (list string)) "names sorted, not in registration order"
    [ "a.early"; "c"; "g"; "z.late" ] (Metrics.names m)

let test_metrics_hist_basic () =
  let h = Metrics.hist_create ~bounds:[| 1.0; 2.0; 5.0 |] () in
  check_int "empty count" 0 (Metrics.hist_count h);
  check "empty min" true (Metrics.hist_min h = None);
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Metrics.hist_percentile h 0.5);
  List.iter (Metrics.hist_record h) [ 0.5; 1.5; 3.0; 7.0 ];
  check_int "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 12.0 (Metrics.hist_sum h);
  check "min" true (Metrics.hist_min h = Some 0.5);
  check "max" true (Metrics.hist_max h = Some 7.0);
  (* percentiles are bucket upper-bound estimates clamped to the
     observed range; the top rank lands in the overflow bucket, whose
     estimate is the exact max *)
  Alcotest.(check (float 1e-9)) "p100 = max" 7.0 (Metrics.hist_percentile h 1.0);
  let p0 = Metrics.hist_percentile h 0.0 in
  let p50 = Metrics.hist_percentile h 0.5 and p90 = Metrics.hist_percentile h 0.9 in
  check "p0 within range" true (p0 >= 0.5 && p0 <= 7.0);
  check "p50 within range" true (p50 >= 0.5 && p50 <= 7.0);
  check "monotone in p" true (p0 <= p50 && p50 <= p90)

let test_metrics_hist_bad_bounds () =
  check "non-increasing bounds raise" true
    (try
       ignore (Metrics.hist_create ~bounds:[| 1.0; 1.0 |] ());
       false
     with Invalid_argument _ -> true)

let test_metrics_merge_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "x";
  Metrics.set_gauge b "x" 1.0;
  check "kind mismatch raises" true
    (try
       ignore (Metrics.merge a b);
       false
     with Invalid_argument _ -> true);
  let c = Metrics.create () and d = Metrics.create () in
  Metrics.observe c ~bounds:[| 1.0; 2.0 |] "h" 0.5;
  Metrics.observe d ~bounds:[| 1.0; 3.0 |] "h" 0.5;
  check "bounds mismatch raises" true
    (try
       ignore (Metrics.merge c d);
       false
     with Invalid_argument _ -> true)

let test_metrics_merge_values () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:2 "c";
  Metrics.incr b ~by:3 "c";
  Metrics.set_gauge a "g" 1.0;
  Metrics.set_gauge b "g" 4.0;
  Metrics.observe a ~bounds:[| 1.0; 2.0 |] "h" 0.5;
  Metrics.observe b ~bounds:[| 1.0; 2.0 |] "h" 1.5;
  let m = Metrics.merge a b in
  check_int "counters add" 5 (Metrics.counter m "c");
  check "gauges max" true (Metrics.gauge m "g" = Some 4.0);
  (match Metrics.hist m "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
      check_int "hist count" 2 (Metrics.hist_count h);
      check "hist min" true (Metrics.hist_min h = Some 0.5);
      check "hist max" true (Metrics.hist_max h = Some 1.5));
  (* inputs unchanged *)
  check_int "a untouched" 2 (Metrics.counter a "c")

(* Merge must be associative and commutative so canonical-order folds in
   the campaign engine are interleaving-independent.  Samples are
   int-valued floats, so sums are exact and JSON renderings compare
   byte-for-byte. *)
let bounds = [| 1.0; 2.0; 5.0; 10.0 |]

let registry_of_ops ops =
  let m = Metrics.create () in
  List.iter
    (fun (kind, idx, v) ->
      let name = Printf.sprintf "%c%d" "cgh".[kind] idx in
      match kind with
      | 0 -> Metrics.incr m ~by:v name
      | 1 -> Metrics.set_gauge m name (float_of_int v)
      | _ -> Metrics.observe m ~bounds name (float_of_int v))
    ops;
  m

let json_str m = Json.to_string ~minify:true (Metrics.to_json m)

let ops_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 0 12)
    (QCheck.triple (QCheck.int_range 0 2) (QCheck.int_range 0 2) (QCheck.int_range 0 20))

(* Monotone instruments only (no gauges): kind 0 = counter, 2 = hist. *)
let mono_ops_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 0 12)
    (QCheck.triple
       (QCheck.map (fun b -> if b then 0 else 2) QCheck.bool)
       (QCheck.int_range 0 2) (QCheck.int_range 0 20))

let metrics_qcheck =
  [
    QCheck.Test.make ~count:300 ~name:"merge commutative"
      (QCheck.pair ops_gen ops_gen)
      (fun (o1, o2) ->
        let a = registry_of_ops o1 and b = registry_of_ops o2 in
        json_str (Metrics.merge a b) = json_str (Metrics.merge b a));
    QCheck.Test.make ~count:300 ~name:"merge associative"
      (QCheck.triple ops_gen ops_gen ops_gen)
      (fun (o1, o2, o3) ->
        let a = registry_of_ops o1 and b = registry_of_ops o2 and c = registry_of_ops o3 in
        json_str (Metrics.merge (Metrics.merge a b) c)
        = json_str (Metrics.merge a (Metrics.merge b c)));
    QCheck.Test.make ~count:300 ~name:"merge with empty is identity"
      ops_gen
      (fun ops ->
        let a = registry_of_ops ops in
        json_str (Metrics.merge a (Metrics.create ())) = json_str a
        && json_str (Metrics.merge (Metrics.create ()) a) = json_str a);
    (* The telemetry replay law: merge base (delta ~base cur) == cur when
       base is an earlier snapshot of cur.  Gauges are excluded on
       purpose — a gauge that moved {e down} is absorbed by max-merge, so
       the documented law only covers counters/histograms (and monotone
       gauges); the generator draws kinds {counter, hist} only. *)
    QCheck.Test.make ~count:300 ~name:"snapshot/delta replay law"
      (QCheck.pair mono_ops_gen mono_ops_gen)
      (fun (early, late) ->
        let base = Metrics.snapshot (registry_of_ops early) in
        let cur = registry_of_ops (early @ late) in
        json_str (Metrics.merge base (Metrics.delta ~base cur)) = json_str cur);
  ]

let test_metrics_snapshot_delta () =
  let m = Metrics.create () in
  Metrics.incr m ~by:3 "c";
  Metrics.observe m ~bounds "h" 2.0;
  let base = Metrics.snapshot m in
  Metrics.incr m ~by:4 "c";
  Metrics.observe m ~bounds "h" 7.0;
  Metrics.set_gauge m "g" 1.5;
  (* the snapshot is frozen: later writes must not leak into it *)
  check_int "snapshot frozen" 3 (Metrics.counter base "c");
  let d = Metrics.delta ~base m in
  check_int "counter delta" 4 (Metrics.counter d "c");
  check "gauge delta carries current" true (Metrics.gauge d "g" = Some 1.5);
  (match Metrics.hist d "h" with
  | None -> Alcotest.fail "hist delta missing"
  | Some h ->
      check_int "hist delta count" 1 (Metrics.hist_count h);
      check "hist delta keeps cumulative extrema" true
        (Metrics.hist_min h = Some 2.0 && Metrics.hist_max h = Some 7.0));
  check "replay reaches cur" true (json_str (Metrics.merge base d) = json_str m);
  (* an idle tick ships a merge-identity delta *)
  let idle = Metrics.delta ~base:(Metrics.snapshot m) m in
  check "idle delta is identity" true
    (json_str (Metrics.merge m idle) = json_str m)

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_spans_basic () =
  let tr = Trace.create () in
  let r1 = Trace.Round { pid = 0; round = 1 } in
  let r2 = Trace.Round { pid = 0; round = 2 } in
  let w = Trace.Wheel_phase { pid = 1; wheel = "lower"; pos = 3 } in
  Trace.begin_span tr ~time:1.0 r1;
  Trace.begin_span tr ~time:1.5 w;
  Trace.end_span tr ~time:2.0 r1;
  Trace.begin_span tr ~time:2.0 r2;
  Trace.end_span tr ~time:3.0 r2;
  check "nesting ok" true (Trace.nesting_ok tr);
  let sp = Trace.spans tr in
  check_int "two complete" 2 (List.length sp);
  (match sp with
  | (s, t0, t1) :: _ ->
      check "first is r1" true (s = r1);
      Alcotest.(check (float 0.0)) "t0" 1.0 t0;
      Alcotest.(check (float 0.0)) "t1" 2.0 t1
  | [] -> Alcotest.fail "no spans");
  (match Trace.open_spans tr with
  | [ (s, t0) ] ->
      check "open is wheel" true (s = w);
      Alcotest.(check (float 0.0)) "open t0" 1.5 t0
  | l -> Alcotest.failf "expected 1 open span, got %d" (List.length l))

let test_spans_nesting_violation () =
  let tr = Trace.create () in
  let a = Trace.Round { pid = 0; round = 1 } in
  let b = Trace.Round { pid = 0; round = 2 } in
  (* same track (pid 0, Round lane): ending [a] while [b] is on top is a
     LIFO violation *)
  Trace.begin_span tr ~time:0.0 a;
  Trace.begin_span tr ~time:1.0 b;
  Trace.end_span tr ~time:2.0 a;
  check "violated" false (Trace.nesting_ok tr);
  (* distinct pids are distinct tracks: interleaving is fine *)
  let tr2 = Trace.create () in
  let p0 = Trace.Round { pid = 0; round = 1 } in
  let p1 = Trace.Round { pid = 1; round = 1 } in
  Trace.begin_span tr2 ~time:0.0 p0;
  Trace.begin_span tr2 ~time:0.5 p1;
  Trace.end_span tr2 ~time:1.0 p0;
  Trace.end_span tr2 ~time:1.5 p1;
  check "cross-track ok" true (Trace.nesting_ok tr2);
  check_int "both complete" 2 (List.length (Trace.spans tr2))

let test_span_tracks_distinct () =
  (* every lane of one pid gets its own track, and pids never collide *)
  let spans_of pid =
    [
      Trace.Round { pid; round = 1 };
      Trace.Wheel_phase { pid; wheel = "lower"; pos = 0 };
      Trace.Wheel_phase { pid; wheel = "upper"; pos = 0 };
      Trace.Query_epoch { pid; seq = 0 };
      Trace.Wakeup { pid };
      Trace.Span { pid = Some pid; cat = "x"; name = "y" };
    ]
  in
  let tracks = List.concat_map (fun pid -> List.map Trace.span_track (spans_of pid)) [ 0; 1; 7 ] in
  let sorted = List.sort_uniq compare tracks in
  check_int "all distinct" (List.length tracks) (List.length sorted)

(* ------------------------------------------------------------------ *)
(* Protocol-level traces and obs.* metrics                             *)
(* ------------------------------------------------------------------ *)

let params ?(trace = "default") ?(seed = 5) () =
  {
    Protocol.default with
    Protocol.n = 6;
    t = 2;
    z = 2;
    k = 2;
    seed;
    crashes = Crash.No_crashes;
    trace;
  }

let run_kset ?trace ?seed () =
  Protocol.run (Option.get (Protocol.find "kset")) (params ?trace ?seed ())

let test_off_records_nothing () =
  let r = run_kset ~trace:"off" () in
  let tr = Sim.trace r.Protocol.rp_sim in
  check "verdict ok" true (Check.verdict_ok r.Protocol.rp_verdict);
  check_int "no entries" 0 (Trace.length tr);
  check "counters still work" true (Trace.counter tr "kset.sent" > 0);
  check "no obs metrics" true
    (List.for_all
       (fun (name, _) -> not (String.starts_with ~prefix:"obs." name))
       r.Protocol.rp_metrics)

let test_default_spans_and_obs_metrics () =
  let r = run_kset () in
  let tr = Sim.trace r.Protocol.rp_sim in
  check "verdict ok" true (Check.verdict_ok r.Protocol.rp_verdict);
  check "has entries" true (Trace.length tr > 0);
  check "nesting ok" true (Trace.nesting_ok tr);
  check "has round spans" true
    (List.exists (fun (s, _, _) -> Trace.span_cat s = "round") (Trace.spans tr));
  (* default level drops per-message traffic *)
  check "no sends at default" true
    (List.for_all
       (fun { Trace.entry; _ } ->
         match entry with Trace.Send _ | Trace.Deliver _ -> false | _ -> true)
       (Trace.entries tr));
  let get name = List.assoc_opt name r.Protocol.rp_metrics in
  (match get "obs.rounds_to_decide" with
  | Some v -> check "rounds_to_decide >= 1" true (v >= 1.0)
  | None -> Alcotest.fail "obs.rounds_to_decide missing");
  (match get "obs.msgs_per_decision" with
  | Some v -> check "msgs_per_decision > 0" true (v > 0.0)
  | None -> Alcotest.fail "obs.msgs_per_decision missing");
  check "omega stab time present" true (get "obs.omega_stab_time" <> None)

let test_full_has_traffic_and_wakeups () =
  let r = run_kset ~trace:"full" () in
  let tr = Sim.trace r.Protocol.rp_sim in
  check "has send" true
    (List.exists
       (fun { Trace.entry; _ } -> match entry with Trace.Send _ -> true | _ -> false)
       (Trace.entries tr));
  check "has deliver" true
    (List.exists
       (fun { Trace.entry; _ } -> match entry with Trace.Deliver _ -> true | _ -> false)
       (Trace.entries tr));
  check "has wakeup spans" true
    (List.exists (fun (s, _, _) -> Trace.span_cat s = "sched") (Trace.spans tr));
  check "nesting ok at full" true (Trace.nesting_ok tr)

let test_wheels_spans () =
  let pk = Option.get (Protocol.find "wheels") in
  let r = Protocol.run pk { (params ()) with Protocol.n = 8; t = 3; x = 2; y = 1 } in
  let tr = Sim.trace r.Protocol.rp_sim in
  check "nesting ok" true (Trace.nesting_ok tr);
  let cats = List.map (fun (s, _, _) -> Trace.span_cat s) (Trace.spans tr) in
  check "lower wheel spans" true (List.mem "wheel.lower" cats);
  check "upper wheel spans" true (List.mem "wheel.upper" cats);
  check "query epochs" true (List.mem "query" cats)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  let r = run_kset () in
  let tr = Sim.trace r.Protocol.rp_sim in
  let lines = Export.jsonl_lines tr in
  check "nonempty" true (List.length lines > 1);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "line %d unparseable: %s" i e)
    lines;
  (* format v2: the header carries the level and stamp only; the totals
     moved to the trailing "end" footer so the live stream can emit the
     identical format before the run knows how long it will be *)
  (match Json.of_string (List.hd lines) with
  | Ok j ->
      check "meta type" true (Json.member "type" j = Some (Json.String "meta"));
      check "meta version 2" true (Json.member "version" j = Some (Json.Int 2));
      check "meta carries no totals" true (Json.member "entries" j = None)
  | Error e -> Alcotest.failf "meta unparseable: %s" e);
  (match Json.of_string (List.nth lines (List.length lines - 1)) with
  | Ok j ->
      check "footer type" true (Json.member "type" j = Some (Json.String "end"));
      check "footer entries" true
        (Json.member "entries" j = Some (Json.Int (Trace.length tr)));
      check "footer counters" true
        (Json.member "counters" j
        = Some (Json.Int (List.length (Trace.counters tr))))
  | Error e -> Alcotest.failf "footer unparseable: %s" e);
  check "to_jsonl has trailing newline" true
    (let s = Export.to_jsonl tr in
     String.length s > 0 && s.[String.length s - 1] = '\n')

let test_trace_cursor_tail () =
  let tr = Trace.create () in
  let cur = Trace.cursor () in
  check_int "fresh cursor at 0" 0 (Trace.cursor_pos cur);
  check_int "nothing pending" 0 (Trace.pending tr cur);
  check "empty tail" true (Trace.tail tr cur = []);
  Trace.record tr ~time:1.0 (Trace.Crash 0);
  Trace.record tr ~time:2.0 (Trace.Crash 1);
  check_int "two pending" 2 (Trace.pending tr cur);
  (match Trace.tail tr cur with
  | [ a; b ] ->
      check "recording order" true
        (a.Trace.entry = Trace.Crash 0 && b.Trace.entry = Trace.Crash 1)
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  check_int "tail consumed" 0 (Trace.pending tr cur);
  check_int "pos advanced" 2 (Trace.cursor_pos cur);
  Trace.record tr ~time:3.0 (Trace.Crash 2);
  check_int "one new" 1 (Trace.pending tr cur);
  (match Trace.tail tr cur with
  | [ c ] -> check "only the new entry" true (c.Trace.entry = Trace.Crash 2)
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  (* an explicitly positioned cursor replays from there *)
  let mid = Trace.cursor ~from:1 () in
  check_int "from=1 sees the rest" 2 (Trace.pending tr mid)

let first_line s = match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let test_stream_error_paths () =
  let tr = Trace.create () in
  let stream = Export.Stream.create tr in
  (* nothing recorded yet: the header waits for the first non-empty
     frame, so an early flush emits no bytes at all *)
  Alcotest.(check string) "untouched flush is empty" "" (Export.Stream.flush stream);
  let buf = Buffer.create 256 in
  Trace.record tr ~time:0.5 (Trace.Crash 1);
  let frame = Export.Stream.flush stream in
  (match Json.of_string (first_line frame) with
  | Ok j ->
      check "header rides first non-empty frame" true
        (Json.member "type" j = Some (Json.String "meta"))
  | Error e -> Alcotest.failf "first streamed line unparseable: %s" e);
  Buffer.add_string buf frame;
  (* a flush with nothing new (header already out) is empty again *)
  Alcotest.(check string) "idle flush is empty" "" (Export.Stream.flush stream);
  Trace.incr tr "c";
  Buffer.add_string buf (Export.Stream.close stream);
  Alcotest.(check string) "frames concatenate to post-hoc export"
    (Export.to_jsonl tr) (Buffer.contents buf);
  (* the stream is dead after close: both operations must refuse, the
     disconnect-mid-stream contract the daemon relies on *)
  check "flush after close raises" true
    (try ignore (Export.Stream.flush stream); false
     with Invalid_argument _ -> true);
  check "second close raises" true
    (try ignore (Export.Stream.close stream); false
     with Invalid_argument _ -> true)

(* Whatever interleaving of recording and flushing happens — including
   flushes that catch the trace mid-burst or see nothing new — the
   concatenated frames must equal the post-hoc export byte-for-byte.
   Negative ops flush; the rest record entries or bump counters. *)
let stream_ops_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 0 40) (QCheck.int_range (-3) 20)

let stream_qcheck =
  QCheck.Test.make ~count:200 ~name:"streamed jsonl = post-hoc export"
    stream_ops_gen (fun ops ->
      let tr = Trace.create () in
      let stream = Export.Stream.create tr in
      let buf = Buffer.create 256 in
      List.iteri
        (fun i v ->
          if v < 0 then Buffer.add_string buf (Export.Stream.flush stream)
          else
            let time = float_of_int i in
            match v mod 4 with
            | 0 ->
                Trace.record tr ~time
                  (Trace.Note { pid = Some (v mod 3); text = "n" })
            | 1 ->
                Trace.record tr ~time
                  (Trace.Decide { pid = v mod 3; value = v; round = 1 + (v mod 5) })
            | 2 -> Trace.record tr ~time (Trace.Crash (v mod 3))
            | _ -> Trace.incr tr (Printf.sprintf "c%d" (v mod 3)))
        ops;
      Buffer.add_string buf (Export.Stream.close stream);
      Buffer.contents buf = Export.to_jsonl tr)

let test_chrome_roundtrip () =
  let r = run_kset () in
  let tr = Sim.trace r.Protocol.rp_sim in
  match Json.of_string (Export.to_chrome tr) with
  | Error e -> Alcotest.failf "chrome unparseable: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let count ph =
            List.length
              (List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) evs)
          in
          check "has complete spans" true (count "E" >= 1);
          check "B >= E" true (count "B" >= count "E");
          check_int "spans match trace" (List.length (Trace.spans tr)) (count "E");
          check "has counter samples" true (count "C" >= 1)
      | _ -> Alcotest.fail "no traceEvents array")

let test_exports_deterministic () =
  (* same (protocol, seed, level) twice -> byte-identical exports *)
  List.iter
    (fun level ->
      let t1 = Sim.trace (run_kset ~trace:level ()).Protocol.rp_sim in
      let t2 = Sim.trace (run_kset ~trace:level ()).Protocol.rp_sim in
      Alcotest.(check string)
        (Printf.sprintf "jsonl byte-identical (%s)" level)
        (Export.to_jsonl t1) (Export.to_jsonl t2);
      Alcotest.(check string)
        (Printf.sprintf "chrome byte-identical (%s)" level)
        (Export.to_chrome t1) (Export.to_chrome t2))
    [ "default"; "full" ]

let test_level_does_not_perturb () =
  (* the no-perturbation invariant: the execution is identical at every
     trace level — decisions, rounds and message counts all agree *)
  let runs = List.map (fun level -> run_kset ~trace:level ()) [ "off"; "default"; "full" ] in
  let key r =
    let tr = Sim.trace r.Protocol.rp_sim in
    ( List.assoc_opt "rounds" r.Protocol.rp_metrics,
      List.assoc_opt "msgs" r.Protocol.rp_metrics,
      Trace.counter tr "kset.sent" )
  in
  match runs with
  | base :: rest ->
      List.iter (fun r -> check "identical execution" true (key r = key base)) rest
  | [] -> ()

let () =
  let qc = List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])) metrics_qcheck in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram basics" `Quick test_metrics_hist_basic;
          Alcotest.test_case "bad bounds" `Quick test_metrics_hist_bad_bounds;
          Alcotest.test_case "merge mismatch" `Quick test_metrics_merge_mismatch;
          Alcotest.test_case "merge values" `Quick test_metrics_merge_values;
          Alcotest.test_case "snapshot/delta" `Quick test_metrics_snapshot_delta;
        ] );
      ("metrics-properties", qc);
      ( "spans",
        [
          Alcotest.test_case "begin/end" `Quick test_spans_basic;
          Alcotest.test_case "nesting violation" `Quick test_spans_nesting_violation;
          Alcotest.test_case "tracks distinct" `Quick test_span_tracks_distinct;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "off records nothing" `Quick test_off_records_nothing;
          Alcotest.test_case "default spans + obs metrics" `Quick test_default_spans_and_obs_metrics;
          Alcotest.test_case "full traffic + wakeups" `Quick test_full_has_traffic_and_wakeups;
          Alcotest.test_case "wheels spans" `Quick test_wheels_spans;
          Alcotest.test_case "level does not perturb" `Quick test_level_does_not_perturb;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "cursor tail" `Quick test_trace_cursor_tail;
          Alcotest.test_case "stream error paths" `Quick test_stream_error_paths;
          Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip;
          Alcotest.test_case "byte-identical" `Quick test_exports_deterministic;
        ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 42 |])
              stream_qcheck;
          ] );
    ]
