(* The repo benchmark's main program.

     fdbench --workload NAME --seed N --seconds S --trace 0|1 --fdkit PATH
     fdbench compare A B

   A run prints two lines on stdout: the stamped result record (every
   metric measured, with unit, sample count, median and quartiles), then
   the summary line {"correct", "attempted", "failed", "metrics"} whose
   metrics are BENCHMARK.json's end_to_end list (untraced) or its
   per_layer list (traced).  [compare] reads two files of such records
   and flags medians that moved beyond the declared bounds. *)

open Setagree_util
open Setagree_core

type declared = { name : string; unit_ : string; better : string; bound : float option }

let die code msg =
  prerr_endline ("fdbench: " ^ msg);
  exit code

let load_benchmark path =
  let j =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> die 2 e
    | s -> ( match Json.of_string s with Ok j -> j | Error e -> die 2 (path ^ ": " ^ e))
  in
  let str k o = match Json.member k o with Some (Json.String s) -> s | _ -> "" in
  let list k = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
  let metrics k =
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit_ = str "unit" m;
          better = str "better" m;
          bound = Option.bind (Json.member "bound" m) Json.to_float_opt;
        })
      (list k)
  in
  (metrics "end_to_end", metrics "per_layer", List.map (str "name") (list "workloads"))

let summary_line ~correct ~attempted ~failed metrics =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_, v) ->
                  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
                metrics) );
       ])

let unit_of declared name =
  match List.find_opt (fun d -> d.name = name) declared with Some d -> d.unit_ | None -> ""

let record (ctx : Workloads.ctx) ~declared ~started ~spans_file =
  let t = ctx.Workloads.tally in
  let spans = Book.spans ctx.Workloads.spans in
  Json.Obj
    ([
       ("perfbench", Json.Int 1);
       ("workload", Json.String ctx.Workloads.workload);
       ("seed", Json.Int ctx.Workloads.seed);
       ("traced", Json.Bool ctx.Workloads.traced);
       ("run_id", Json.String ctx.Workloads.run_id);
       ("seconds", Json.Float ctx.Workloads.seconds);
       ( "stamp",
         Json.Obj
           ([
              ("nproc", Json.Int (Domain.recommended_domain_count ()));
              ("ocaml", Json.String Sys.ocaml_version);
              ("host", Json.String (Unix.gethostname ()));
              ("started_at", Json.Float started);
            ]
           @ Stamp.fields ()) );
       ("attempted", Json.Int t.Book.attempted);
       ("failed", Json.Int t.Book.failed);
       ("fail_ratio", Json.Float (Book.fail_ratio t));
       ("failures", Json.List (List.map (fun s -> Json.String s) t.Book.reasons));
       ( "metrics",
         Json.Obj
           (List.map
              (fun (name, xs) -> (name, Book.summary_json (Book.summarize ~unit_:(unit_of declared name) xs)))
              ctx.Workloads.measured) );
     ]
    @ (if ctx.Workloads.ladder = [] then []
       else
         [
           ( "ladder",
             Json.List
               (List.map
                  (fun (rung, v) -> Json.Obj [ ("rung", Json.String rung); ("value", Json.Float v) ])
                  ctx.Workloads.ladder) );
         ])
    @
    if not ctx.Workloads.traced then []
    else
      [
        ( "spans",
          Json.Obj
            [
              ("count", Json.Int (List.length spans));
              ("file", Json.String spans_file);
              ( "self_s",
                Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (Book.self_by_name spans)) );
            ] );
      ])

let write_spans (ctx : Workloads.ctx) path =
  Workloads.mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string ~minify:true
               (Book.span_json ~workload:ctx.Workloads.workload ~run_id:ctx.Workloads.run_id s));
          output_char oc '\n')
        (Book.spans ctx.Workloads.spans))

let run_workload ~bench ~workload ~seed ~seconds ~traced ~fdkit ~spans_file =
  let e2e, layers, workloads = load_benchmark bench in
  if not (List.mem workload workloads) then
    die 2 (Printf.sprintf "unknown workload %S (known: %s)" workload (String.concat ", " workloads));
  let designated = List.sort_uniq compare (List.concat_map Workloads.layers_of workloads) in
  if designated <> List.sort_uniq compare (List.map (fun d -> d.name) layers) then
    die 2 "BENCHMARK.json per_layer does not match the metrics the workloads produce";
  if not (Sys.file_exists fdkit) then die 2 ("no fdkit binary at " ^ fdkit);
  Fingerprint.install ();
  let started = Unix.gettimeofday () in
  let run_id =
    Printf.sprintf "%s-s%d-%s-p%d" workload seed (if traced then "t" else "u") (Unix.getpid ())
  in
  let tmp = Filename.concat ".perfbench" (Filename.concat "tmp" run_id) in
  Workloads.rm_rf tmp;
  Workloads.mkdir_p tmp;
  let ctx = Workloads.make_ctx ~workload ~seed ~seconds ~traced ~run_id ~tmp ~fdkit in
  let kill_children () =
    List.iter (fun pid -> Workloads.kill_child ctx pid) ctx.Workloads.children
  in
  (* Stopped from outside: take the children down with the run. *)
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             kill_children ();
             Workloads.rm_rf tmp;
             Unix._exit 1)))
    Workloads.stop_signals;
  let declared = e2e @ layers in
  let emit ~record_json metrics =
    let t = ctx.Workloads.tally in
    print_endline (Json.to_string ~minify:true record_json);
    print_endline
      (summary_line ~correct:(t.Book.failed = 0) ~attempted:(max 1 t.Book.attempted)
         ~failed:t.Book.failed metrics);
    flush stdout
  in
  let value name = Option.map (fun xs -> (Book.summarize ~unit_:"" xs).Book.value) (List.assoc_opt name ctx.Workloads.measured) in
  let summary_metrics () =
    if not traced then
      List.map
        (fun d ->
          match value d.name with
          | Some v -> (d.name, d.unit_, v)
          | None ->
              Book.fail ctx.Workloads.tally (d.name ^ " was not measured");
              (d.name, d.unit_, 0.0))
        e2e
    else
      let mine = Workloads.layers_of workload in
      List.map
        (fun d ->
          match value d.name with
          | Some v -> (d.name, d.unit_, v)
          | None ->
              (* A layer this workload does not exercise reads 0. *)
              if List.mem d.name mine then Book.fail ctx.Workloads.tally (d.name ^ " was not measured");
              (d.name, d.unit_, 0.0))
        layers
  in
  (* The run's deadline turns a hang into a counted failure: daemons are
     killed (unblocking their clients), and if the run still has not
     finished, the result is printed from here.  A thread, not a domain:
     every extra domain joins each stop-the-world minor collection of the
     engine's workers and slows them measurably. *)
  let finished = Atomic.make false and printed = Atomic.make false in
  let deadline = Float.min 170.0 ((3.0 *. seconds) +. 60.0) in
  let watchdog =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let wait_until limit =
          while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < limit do
            Unix.sleepf 0.25
          done
        in
        wait_until deadline;
        if not (Atomic.get finished) then begin
          Book.fail ctx.Workloads.tally "run deadline exceeded";
          List.iter Workloads.signal_child ctx.Workloads.children;
          wait_until (deadline +. 8.0);
          if (not (Atomic.get finished)) && Atomic.compare_and_set printed false true then begin
            kill_children ();
            Workloads.rm_rf tmp;
            emit ~record_json:(record ctx ~declared ~started ~spans_file:"") (summary_metrics ());
            Unix._exit 0
          end
        end)
      ()
  in
  let outcome = try Ok (Workloads.run ctx) with e -> Error e in
  Atomic.set finished true;
  Thread.join watchdog;
  kill_children ();
  Workloads.rm_rf tmp;
  match outcome with
  | Error e ->
      die 1 (Printf.sprintf "%s failed: %s" workload (Printexc.to_string e))
  | Ok () ->
      if Atomic.compare_and_set printed false true then begin
        let spans_file = if traced then spans_file else "" in
        if traced then write_spans ctx spans_file;
        let metrics = summary_metrics () in
        emit ~record_json:(record ctx ~declared ~started ~spans_file) metrics
      end

(* [fdbench setup]: one timed set-up of [workload] in this fresh
   process (see [Workloads.timed_setups]).  The process leads its own
   process group, so killing the group also stops a daemon it started. *)
let setup_only ~workload ~seed ~fdkit ~dir =
  (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
  Workloads.mkdir_p dir;
  let ctx =
    Workloads.make_ctx ~workload ~seed ~seconds:0.0 ~traced:false ~run_id:"setup" ~tmp:dir ~fdkit
  in
  match Workloads.setup_only ctx with
  | () -> if ctx.Workloads.tally.Book.failed > 0 then die 1 (String.concat "; " ctx.Workloads.tally.Book.reasons)
  | exception e ->
      List.iter (Workloads.kill_child ctx) ctx.Workloads.children;
      die 1 (Printf.sprintf "%s set-up failed: %s" workload (Printexc.to_string e))

(* ---- compare ---- *)

let read_records path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> die 2 e
  | lines ->
      List.filter_map
        (fun l ->
          match Json.of_string l with
          | Ok j when Json.member "perfbench" j <> None -> Some j
          | _ -> None)
        lines

(* (workload, metric) -> medians of the runs, taking end-to-end metrics
   from untraced runs and per-layer metrics from traced ones. *)
let medians ~e2e ~layers records =
  let tbl = Hashtbl.create 64 in
  let keys = ref [] in
  List.iter
    (fun r ->
      let workload = match Json.member "workload" r with Some (Json.String s) -> s | _ -> "?" in
      let traced = Json.member "traced" r = Some (Json.Bool true) in
      let wanted = if traced then layers else e2e in
      match Json.member "metrics" r with
      | Some (Json.Obj ms) ->
          List.iter
            (fun (name, m) ->
              match Option.bind (Json.member "median" m) Json.to_float_opt with
              | Some v when List.exists (fun d -> d.name = name) wanted ->
                  let k = (workload, name) in
                  if not (Hashtbl.mem tbl k) then keys := k :: !keys;
                  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
              | _ -> ())
            ms
      | _ -> ())
    records;
  (tbl, List.rev !keys)

let compare_files ~bench a b =
  let e2e, layers, _ = load_benchmark bench in
  let ta, keys = medians ~e2e ~layers (read_records a) in
  let tb, _ = medians ~e2e ~layers (read_records b) in
  let worse = ref 0 in
  Printf.printf "%-13s %-32s %-8s %30s %30s %9s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3] (runs)" "B median [q1, q3] (runs)" "change" "verdict";
  List.iter
    (fun ((workload, name) as k) ->
      match Hashtbl.find_opt tb k with
      | None -> ()
      | Some bv ->
          let av = Hashtbl.find ta k in
          let d = List.find (fun d -> d.name = name) (e2e @ layers) in
          let sa = Book.side_of av and sb = Book.side_of bv in
          let v =
            Book.judge ~bound:d.bound ~lower_is_better:(d.better <> "higher") ~a_values:av
              ~b_values:bv
          in
          if v = Book.Worse then incr worse;
          let side s = Printf.sprintf "%.4g [%.4g, %.4g] (%d)" s.Book.med s.Book.lo s.Book.hi s.Book.n in
          let change =
            if sa.Book.med = 0. then "-"
            else Printf.sprintf "%+.1f%%" ((sb.Book.med -. sa.Book.med) /. Float.abs sa.Book.med *. 100.)
          in
          Printf.printf "%-13s %-32s %-8s %30s %30s %9s  %s\n" workload name d.unit_ (side sa)
            (side sb) change (Book.verdict_to_string v))
    keys;
  if !worse > 0 then exit 1

let usage () =
  die 2
    "usage: fdbench --workload NAME --seed N --seconds S --trace 0|1 [--fdkit PATH]\n\
    \       fdbench compare A B"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let fdkit o = Option.value ~default:"_build/default/bin/fdkit.exe" (List.assoc_opt "--fdkit" o) in
  match args with
  | [ "compare"; a; b ] -> compare_files ~bench:"BENCHMARK.json" a b
  | "setup" :: rest ->
      let o = opts [] rest in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let seed = match int_of_string_opt (get "--seed") with Some i -> i | None -> usage () in
      setup_only ~workload:(get "--workload") ~seed ~fdkit:(fdkit o) ~dir:(get "--dir")
  | _ ->
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
      let workload = get "--workload" in
      let seconds = float_of_int (int "--seconds") in
      if seconds <= 0. then usage ();
      let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
      run_workload ~bench:"BENCHMARK.json" ~workload ~seed:(int "--seed") ~seconds ~traced
        ~fdkit:(fdkit o)
        ~spans_file:(Filename.concat ".perfbench" ("spans-" ^ workload ^ ".jsonl"))
