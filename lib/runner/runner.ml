open Setagree_util

type body = {
  ok : bool;
  notes : string list;
  metrics : (string * float) list;
  row : string;
  extra : Json.t;
}

type job = {
  exp : string;
  label : string;
  params : (string * Json.t) list;
  seed : int;
  replay : string option;
  key : string option;
  run : unit -> body;
}

let job ?label ?(params = []) ?replay ?key ~exp ~seed run =
  let label = match label with Some l -> l | None -> Printf.sprintf "%s/seed=%d" exp seed in
  { exp; label; params; seed; replay; key; run }

let body ?(notes = []) ?(metrics = []) ?(row = "") ?(extra = Json.Null) ok =
  { ok; notes; metrics; row; extra }

type result = {
  r_exp : string;
  r_label : string;
  r_params : (string * Json.t) list;
  r_seed : int;
  r_replay : string option;
  r_ok : bool;
  r_notes : string list;
  r_metrics : (string * float) list;
  r_row : string;
  r_extra : Json.t;
  r_error : string option;
  r_wall_s : float;
}

type campaign = {
  c_exp : string;
  c_workers : int;
  c_results : result array;
  c_wall_s : float;
  c_throughput : float;
  c_cache_hits : int;
  c_executed : int;
  c_cache_skipped : int;
  c_cache_corrupt : int;
  c_cache_write_failed : int;
  c_cancelled : bool;
}

type progress = {
  pr_result : result;
  pr_cached : bool;
  pr_done : int;
  pr_total : int;
}

type telemetry = {
  te_seq : int;
  te_wall_s : float;
  te_done : int;
  te_total : int;
  te_cached : int;
  te_cache_skipped : int;
  te_last_label : string;
  te_rate_jobs_per_s : float;
  te_events_per_s : float;
  te_gc_minor_words : float;
  te_gc_promoted_words : float;
  te_counters : Metrics.t;
  te_delta : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Live board: an ambient, mutex-guarded registry that in-flight job
   bodies may publish to mid-run (the rt nodes push accrual phi and
   sample counts through it).  It is strictly write-only telemetry —
   nothing in the engine or any job reads it back — so publishing can
   never perturb a result.  Publishers check [is_active] first: when no
   telemetry consumer enabled the board, a publish is one bool read.   *)
(* ------------------------------------------------------------------ *)

module Live = struct
  let m = Mutex.create ()
  let reg = ref (Metrics.create ())
  let active = ref false

  let enable () =
    Mutex.lock m;
    reg := Metrics.create ();
    active := true;
    Mutex.unlock m

  let disable () =
    Mutex.lock m;
    active := false;
    reg := Metrics.create ();
    Mutex.unlock m

  let is_active () = !active

  let set_gauge name v =
    if !active then begin
      Mutex.lock m;
      if !active then Metrics.set_gauge !reg name v;
      Mutex.unlock m
    end

  let incr ?by name =
    if !active then begin
      Mutex.lock m;
      if !active then Metrics.incr !reg ?by name;
      Mutex.unlock m
    end

  let snapshot () =
    Mutex.lock m;
    let s = Metrics.snapshot !reg in
    Mutex.unlock m;
    s
end

(* ------------------------------------------------------------------ *)
(* Bounded work queue (indices into the job array).  The producer (the
   calling domain) blocks when the queue is full, workers block when it
   is empty; [close] wakes everyone up for shutdown.                   *)
(* ------------------------------------------------------------------ *)

module Bqueue = struct
  type 'a t = {
    items : 'a Queue.t;
    cap : int;
    mutex : Mutex.t;
    nonfull : Condition.t;
    nonempty : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    {
      items = Queue.create ();
      cap = max 1 cap;
      mutex = Mutex.create ();
      nonfull = Condition.create ();
      nonempty = Condition.create ();
      closed = false;
    }

  let push t v =
    Mutex.lock t.mutex;
    while Queue.length t.items >= t.cap && not t.closed do
      Condition.wait t.nonfull t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Bqueue.push: closed"
    end;
    Queue.push v t.items;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex

  (* [None] once the queue is closed and drained. *)
  let pop t =
    Mutex.lock t.mutex;
    let rec loop () =
      match Queue.take_opt t.items with
      | Some v ->
          Condition.signal t.nonfull;
          Mutex.unlock t.mutex;
          Some v
      | None ->
          if t.closed then begin
            Mutex.unlock t.mutex;
            None
          end
          else begin
            Condition.wait t.nonempty t.mutex;
            loop ()
          end
    in
    loop ()
end

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let default_jobs () =
  match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some j -> max 1 j | None -> 1)
  | None -> max 1 (Domain.recommended_domain_count ())

(* The poll of the job executing on this domain (see [run]). *)
let never () = false
let poll_key = Domain.DLS.new_key (fun () -> never)
let poll () = (Domain.DLS.get poll_key) ()

let run_job j =
  let t0 = Unix.gettimeofday () in
  let ok, notes, metrics, row, extra, error =
    match j.run () with
    | b -> (b.ok, b.notes, b.metrics, b.row, b.extra, None)
    | exception e ->
        let msg = Printexc.to_string e in
        (false, [ "raised: " ^ msg ], [], j.label ^ "  RAISED " ^ msg, Json.Null, Some msg)
  in
  {
    r_exp = j.exp;
    r_label = j.label;
    r_params = j.params;
    r_seed = j.seed;
    r_replay = j.replay;
    r_ok = ok;
    r_notes = notes;
    r_metrics = metrics;
    r_row = row;
    r_extra = extra;
    r_error = error;
    r_wall_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Result serialization (artifacts + cache entries)                    *)
(* ------------------------------------------------------------------ *)

let opt_string = function None -> Json.Null | Some s -> Json.String s

let result_json ?(timing = true) r =
  Json.Obj
    ([
       ("label", Json.String r.r_label);
       ("seed", Json.Int r.r_seed);
       ("params", Json.Obj r.r_params);
       ("ok", Json.Bool r.r_ok);
       ("notes", Json.List (List.map (fun n -> Json.String n) r.r_notes));
       ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.r_metrics));
       ("row", Json.String r.r_row);
       ("extra", r.r_extra);
       ("error", opt_string r.r_error);
       ("replay", opt_string r.r_replay);
     ]
    @ if timing then [ ("wall_s", Json.Float r.r_wall_s) ] else [])

(* Inverse of [result_json ~timing:false] plus the experiment id; the
   round-trip must be exact (the [signature] of a cache-replayed
   campaign is byte-identical to the cold one — test-pinned). *)
let result_of_json j =
  match j with
  | Json.Obj fields ->
      let find name = List.assoc_opt name fields in
      let str name d = match find name with Some (Json.String s) -> s | _ -> d in
      let opt name =
        match find name with Some (Json.String s) -> Some s | _ -> None
      in
      let notes =
        match find "notes" with
        | Some (Json.List l) ->
            List.filter_map (function Json.String s -> Some s | _ -> None) l
        | _ -> []
      in
      let metrics =
        match find "metrics" with
        | Some (Json.Obj l) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float_opt v))
              l
        | _ -> []
      in
      let params = match find "params" with Some (Json.Obj l) -> l | _ -> [] in
      Some
        {
          r_exp = str "exp" "";
          r_label = str "label" "";
          r_params = params;
          r_seed = (match find "seed" with Some (Json.Int i) -> i | _ -> 0);
          r_replay = opt "replay";
          r_ok = (match find "ok" with Some (Json.Bool b) -> b | _ -> false);
          r_notes = notes;
          r_metrics = metrics;
          r_row = str "row" "";
          r_extra = (match find "extra" with Some e -> e | None -> Json.Null);
          r_error = opt "error";
          r_wall_s = 0.0;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Content-addressed result cache.  Entries are keyed by an opaque hex
   digest the caller derives from everything the job's outcome depends
   on (code fingerprint, protocol, params, seed, fault spec, backend);
   the stored value is the interleaving-independent part of the result
   (no wall clock), so replaying from cache preserves [signature]
   byte-for-byte.  Entries are sharded two-hex-chars deep and written
   atomically (tmp + rename), so worker domains can store concurrently
   without locking the directory.                                      *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type t = {
    dir : string;
    mutable hits : int;
    mutable misses : int;
    mutable stores : int;
    mutable corrupt : int;
    mutable write_failed : int;
    m : Mutex.t;
  }

  let default_dir = Filename.concat "_results" "cache"

  let rec mkdir_p dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
    end

  let create ?(dir = default_dir) () =
    mkdir_p dir;
    {
      dir;
      hits = 0;
      misses = 0;
      stores = 0;
      corrupt = 0;
      write_failed = 0;
      m = Mutex.create ();
    }

  let dir t = t.dir
  let hits t = t.hits
  let misses t = t.misses
  let stores t = t.stores
  let corrupt t = t.corrupt
  let write_failed t = t.write_failed

  let reset_stats t =
    Mutex.lock t.m;
    t.hits <- 0;
    t.misses <- 0;
    t.stores <- 0;
    t.corrupt <- 0;
    t.write_failed <- 0;
    Mutex.unlock t.m

  let bump t field =
    Mutex.lock t.m;
    (match field with
    | `Hit -> t.hits <- t.hits + 1
    | `Miss -> t.misses <- t.misses + 1
    | `Store -> t.stores <- t.stores + 1
    | `Corrupt -> t.corrupt <- t.corrupt + 1
    | `WriteFailed -> t.write_failed <- t.write_failed + 1);
    Mutex.unlock t.m

  (* MD5 over the NUL-joined parts: stable, dependency-free, and not
     security-sensitive (the cache is a local build artifact). *)
  let key ~parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

  let path_of t k =
    let shard = if String.length k >= 2 then String.sub k 0 2 else "xx" in
    Filename.concat (Filename.concat t.dir shard) (k ^ ".json")

  (* Entries carry a content checksum so a truncated, bit-flipped, or
     otherwise mangled file is detected on read instead of being half
     trusted: the checksum is MD5 over the minified payload rendered
     WITHOUT the checksum field, and it is recomputed on every [find]. *)
  let payload_checksum fields =
    Digest.to_hex (Digest.string (Json.to_string ~minify:true (Json.Obj fields)))

  let entry_json k r =
    let payload =
      [ ("cache_key", Json.String k); ("exp", Json.String r.r_exp) ]
      @ Stamp.fields ()
      @
      match result_json ~timing:false r with
      | Json.Obj fields -> fields
      | j -> [ ("result", j) ]
    in
    Json.Obj (("checksum", Json.String (payload_checksum payload)) :: payload)

  (* A corrupt entry is a counted miss, never an exception: bump both
     counters, unlink the bad file so the slot heals on the next store,
     and let the caller re-execute the job. *)
  let corrupt_entry t path =
    bump t `Corrupt;
    bump t `Miss;
    (try Sys.remove path with Sys_error _ -> ());
    None

  let verify_checksum j =
    match j with
    | Json.Obj fields -> (
        match List.assoc_opt "checksum" fields with
        | Some (Json.String sum) ->
            let payload = List.filter (fun (k, _) -> k <> "checksum") fields in
            String.equal sum (payload_checksum payload)
        | _ -> false (* missing or non-string checksum: pre-checksum or mangled *))
    | _ -> false

  let find t k =
    let path = path_of t k in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ ->
        bump t `Miss;
        None
    | contents -> (
        match Json.of_string contents with
        | Error _ -> corrupt_entry t path
        | Ok j -> (
            if not (verify_checksum j) then corrupt_entry t path
            else
              match result_of_json j with
              | Some r ->
                  bump t `Hit;
                  Some r
              | None -> corrupt_entry t path))

  let store t k r =
    let path = path_of t k in
    mkdir_p (Filename.dirname path);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Domain.self () :> int)
    in
    (try
       Json.write_file tmp (entry_json k r);
       Sys.rename tmp path;
       bump t `Store
     with Sys_error _ ->
       bump t `WriteFailed;
       (try Sys.remove tmp with Sys_error _ -> ()))
end

let failures c = List.filter (fun r -> not r.r_ok) (Array.to_list c.c_results)

(* Failing results only, newest first: a long-lived process (the serve
   daemon) runs campaigns without end, and passing results are never
   read back from here. *)
let sink : result list ref = ref []
let sink_mutex = Mutex.create ()

let note_campaign c =
  Mutex.protect sink_mutex (fun () -> sink := List.rev_append (failures c) !sink)

let reset_sink () = Mutex.protect sink_mutex (fun () -> sink := [])

let run ?jobs ?cache ?on_progress ?on_telemetry ?(telemetry_every_s = 0.25)
    ?stop ~exp joblist =
  let workers = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs_a = Array.of_list joblist in
  let total = Array.length jobs_a in
  let workers = min workers (max 1 total) in
  let out = Array.make total None in
  let cached = Array.make total false in
  let done_count = ref 0 in
  let emit_mutex = Mutex.create () in
  let t0 = Unix.gettimeofday () in
  (* Robustness counters are reported per campaign as deltas over the
     (possibly shared) cache, so a long-lived daemon attributes corrupt
     reads / failed writes to the run that observed them. *)
  let corrupt0 = match cache with Some c -> Cache.corrupt c | None -> 0 in
  let write_failed0 =
    match cache with Some c -> Cache.write_failed c | None -> 0
  in
  (* Telemetry accumulators, all guarded by [emit_mutex].  The board
     collects counter-shaped r_metrics of completed jobs; snapshots go
     out as cumulative registry + since-last delta (Metrics.snapshot /
     Metrics.delta), so a subscriber can either read the latest frame or
     fold the deltas with the merge law.  Strictly read-side: telemetry
     observes results, it never feeds back into a job. *)
  let skipped = ref 0 in
  let last_label = ref "" in
  let gc_minor = ref 0.0 in
  let gc_promoted = ref 0.0 in
  let board = Metrics.create () in
  let te_prev = ref (Metrics.create ()) in
  let te_seq = ref 0 in
  let te_last = ref Float.neg_infinity in
  let counted_prefixes = [ "sched."; "net."; "fault."; "rt."; "obs." ] in
  let counted name =
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      counted_prefixes
  in
  (* Call with [emit_mutex] held.  Unless [force]d, a frame goes out only
     when [telemetry_every_s] has passed since the previous one. *)
  let emit_telemetry ?(force = false) () =
    match on_telemetry with
    | None -> ()
    | Some f ->
        let now = Unix.gettimeofday () in
        if force || now -. !te_last >= telemetry_every_s then begin
          te_last := now;
          let wall = now -. t0 in
          let cum = Metrics.merge (Metrics.snapshot board) (Live.snapshot ()) in
          let delta = Metrics.delta ~base:!te_prev cum in
          te_prev := cum;
          incr te_seq;
          let events =
            Metrics.counter cum "sched.events" + Metrics.counter cum "rt.events"
          in
          let cached_n = Array.fold_left (fun n b -> if b then n + 1 else n) 0 cached in
          try
            f
              {
                te_seq = !te_seq;
                te_wall_s = wall;
                te_done = !done_count;
                te_total = total;
                te_cached = cached_n;
                te_cache_skipped = !skipped;
                te_last_label = !last_label;
                te_rate_jobs_per_s = float_of_int !done_count /. Float.max wall 1e-9;
                te_events_per_s = float_of_int events /. Float.max wall 1e-9;
                te_gc_minor_words = !gc_minor;
                te_gc_promoted_words = !gc_promoted;
                te_counters = cum;
                te_delta = delta;
              }
          with _ -> ()
        end
  in
  (* Progress callbacks fire from worker domains too; serialize them and
     the completion counter under one lock. *)
  let emit i r was_cached =
    Mutex.lock emit_mutex;
    incr done_count;
    out.(i) <- Some r;
    cached.(i) <- was_cached;
    last_label := r.r_label;
    if on_telemetry <> None then
      List.iter
        (fun (k, v) ->
          if counted k then Metrics.incr board ~by:(int_of_float v) k)
        r.r_metrics;
    (match on_progress with
    | None -> ()
    | Some f ->
        f { pr_result = r; pr_cached = was_cached; pr_done = !done_count; pr_total = total });
    emit_telemetry ();
    Mutex.unlock emit_mutex
  in
  let stopped = match stop with None -> never | Some f -> f in
  let cancelled = Atomic.make false in
  if on_telemetry <> None then begin
    Live.enable ();
    Mutex.protect emit_mutex (fun () -> emit_telemetry ())
  end;
  (* Cache pre-pass on the calling domain: hits are resolved up front
     (and reported in job order), only misses are scheduled.  Keyless
     jobs bypass the cache entirely (rt outcomes are wall-clock
     dependent) — count them so campaign tables can surface the bypass
     instead of letting it read as a miss. *)
  let misses =
    match cache with
    | None -> List.init total Fun.id
    | Some cache ->
        let misses = ref [] in
        Array.iteri
          (fun i j ->
            match j.key with
            | None ->
                skipped := !skipped + 1;
                misses := i :: !misses
            | Some k -> (
                match Cache.find cache k with
                | Some r -> emit i { r with r_exp = j.exp } true
                | None -> misses := i :: !misses))
          jobs_a;
        List.rev !misses
  in
  (* Each executing job gets a poll, installed as this domain's [poll]:
     a rate-limited telemetry frame, then the [stop] hook.  A job whose
     poll returned [true] stopped early, so its result is discarded —
     neither cached nor reported — and the campaign is cancelled. *)
  let execute i =
    let j = jobs_a.(i) in
    let interrupted = ref false in
    let job_poll =
      if stop = None && on_telemetry = None then never
      else fun () ->
        if on_telemetry <> None then Mutex.protect emit_mutex (fun () -> emit_telemetry ());
        stopped () && (interrupted := true; true)
    in
    let outer = Domain.DLS.get poll_key in
    let g0 = Gc.quick_stat () in
    Domain.DLS.set poll_key job_poll;
    let r = run_job j in
    Domain.DLS.set poll_key outer;
    let g1 = Gc.quick_stat () in
    if !interrupted then Atomic.set cancelled true
    else begin
      (match (cache, j.key) with
      | Some cache, Some k when r.r_error = None -> Cache.store cache k r
      | Some _, Some _ (* raised: never cached *) ->
          Mutex.lock emit_mutex;
          skipped := !skipped + 1;
          Mutex.unlock emit_mutex
      | _ -> ());
      Mutex.lock emit_mutex;
      gc_minor := !gc_minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      gc_promoted := !gc_promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      Mutex.unlock emit_mutex;
      emit i r false
    end
  in
  (* [stop] is also checked before each job is handed out: once the
     campaign is cancelled, no further job starts. *)
  let go () =
    (not (Atomic.get cancelled))
    && not (stopped () && (Atomic.set cancelled true; true))
  in
  if workers <= 1 then List.iter (fun i -> if go () then execute i) misses
  else begin
    let q = Bqueue.create (2 * workers) in
    let worker () =
      let rec loop () =
        match Bqueue.pop q with
        | None -> ()
        | Some i ->
            (* Distinct slots per worker; the final read happens after
               [Domain.join], which synchronizes. *)
            if not (Atomic.get cancelled) then execute i;
            loop ()
      in
      loop ()
    in
    let domains = List.init workers (fun _ -> Domain.spawn worker) in
    List.iter (fun i -> if go () then Bqueue.push q i) misses;
    Bqueue.close q;
    List.iter Domain.join domains
  end;
  if on_telemetry <> None then begin
    Mutex.protect emit_mutex (fun () -> emit_telemetry ~force:true ());
    Live.disable ()
  end;
  let wall = Unix.gettimeofday () -. t0 in
  let results =
    Array.to_list out |> List.filter_map Fun.id |> Array.of_list
  in
  let hits = Array.fold_left (fun n b -> if b then n + 1 else n) 0 cached in
  let c =
    {
      c_exp = exp;
      c_workers = workers;
      c_results = results;
      c_wall_s = wall;
      c_throughput = (float_of_int (Array.length results) /. Float.max wall 1e-9);
      c_cache_hits = hits;
      c_executed = Array.length results - hits;
      c_cache_skipped = !skipped;
      c_cache_corrupt =
        (match cache with Some c -> Cache.corrupt c - corrupt0 | None -> 0);
      c_cache_write_failed =
        (match cache with
        | Some c -> Cache.write_failed c - write_failed0
        | None -> 0);
      c_cancelled = Atomic.get cancelled;
    }
  in
  note_campaign c;
  c

let rows c =
  Array.to_list c.c_results
  |> List.filter_map (fun r -> if r.r_row = "" then None else Some r.r_row)

let metric_summaries c =
  let names = ref [] in
  Array.iter
    (fun r ->
      List.iter
        (fun (k, _) -> if not (List.mem k !names) then names := k :: !names)
        r.r_metrics)
    c.c_results;
  List.rev !names
  |> List.filter_map (fun name ->
         let samples =
           Array.to_list c.c_results
           |> List.filter_map (fun r -> List.assoc_opt name r.r_metrics)
         in
         Option.map (fun s -> (name, s)) (Stats.summarize_opt samples))

(* Per-metric fixed-bucket histograms: one [Metrics.t] registry per
   result, merged in canonical job order.  [Metrics.merge] is
   associative and commutative, so the fold is independent of which
   domain produced which result — the [-j1] ≡ [-jN] contract extends to
   the histogram aggregates (the signature test pins it down). *)
let metric_histograms c =
  Array.to_list c.c_results
  |> List.map (fun r ->
         let m = Metrics.create () in
         List.iter (fun (name, v) -> Metrics.observe m name v) r.r_metrics;
         m)
  |> List.fold_left Metrics.merge (Metrics.create ())

(* ------------------------------------------------------------------ *)
(* JSON artifacts                                                      *)
(* ------------------------------------------------------------------ *)

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("min", Json.Float s.min);
      ("p50", Json.Float s.p50);
      ("p95", Json.Float s.p95);
      ("max", Json.Float s.max);
    ]

let campaign_json c =
  Json.Obj
    (Stamp.fields ()
    @ [
      ("experiment", Json.String c.c_exp);
      ("workers", Json.Int c.c_workers);
      ("jobs", Json.Int (Array.length c.c_results));
      ("failed", Json.Int (List.length (failures c)));
      ("cache_hits", Json.Int c.c_cache_hits);
      ("executed", Json.Int c.c_executed);
      ("cache_skipped", Json.Int c.c_cache_skipped);
      ("cache_corrupt", Json.Int c.c_cache_corrupt);
      ("cache_write_failed", Json.Int c.c_cache_write_failed);
      ("cancelled", Json.Bool c.c_cancelled);
      ("wall_s", Json.Float c.c_wall_s);
      ("throughput_jobs_per_s", Json.Float c.c_throughput);
      ( "aggregates",
        Json.Obj (List.map (fun (k, s) -> (k, summary_json s)) (metric_summaries c)) );
      ("histograms", Metrics.to_json (metric_histograms c));
      ("results", Json.List (Array.to_list (Array.map result_json c.c_results)));
    ])

(* Telemetry snapshots rendered for the wire (the daemon's "telemetry"
   frames reuse this verbatim, so clients and tests see one schema). *)
let telemetry_json te =
  Json.Obj
    [
      ("seq", Json.Int te.te_seq);
      ("wall_s", Json.Float te.te_wall_s);
      ("done", Json.Int te.te_done);
      ("total", Json.Int te.te_total);
      ("cached", Json.Int te.te_cached);
      ("cache_skipped", Json.Int te.te_cache_skipped);
      ("label", Json.String te.te_last_label);
      ("rate_jobs_per_s", Json.Float te.te_rate_jobs_per_s);
      ("events_per_s", Json.Float te.te_events_per_s);
      ("gc_minor_words", Json.Float te.te_gc_minor_words);
      ("gc_promoted_words", Json.Float te.te_gc_promoted_words);
      ("counters", Metrics.to_json te.te_counters);
      ("delta", Metrics.to_json te.te_delta);
    ]

let signature c =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("experiment", Json.String c.c_exp);
         ( "results",
           Json.List
             (Array.to_list (Array.map (fun r -> result_json ~timing:false r) c.c_results))
         );
       ])

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()

let write_artifact ?(dir = "_results") c =
  ensure_dir dir;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" c.c_exp) in
  Json.write_file path (campaign_json c);
  path

let failure_json r =
  Json.Obj
    [
      ("experiment", Json.String r.r_exp);
      ("label", Json.String r.r_label);
      ("seed", Json.Int r.r_seed);
      ("params", Json.Obj r.r_params);
      ("notes", Json.List (List.map (fun n -> Json.String n) r.r_notes));
      ("error", opt_string r.r_error);
      ("replay", opt_string r.r_replay);
    ]

let flush_failures ?(dir = "_results") () =
  ensure_dir dir;
  let all = Mutex.protect sink_mutex (fun () -> List.rev !sink) in
  Json.write_file
    (Filename.concat dir "failures.json")
    (Json.Obj
       (Stamp.fields ()
       @ [
           ("failures", Json.Int (List.length all));
           ("triage", Json.List (List.map failure_json all));
         ]));
  List.length all
