(* fdkit serve: the crash-safe campaign daemon.

   A long-running process listening on a Unix domain socket.  Frames in
   both directions are newline-delimited JSON (one value per line,
   decoded incrementally with Util.Json.Stream).  Clients submit
   Job.specs; the daemon validates, queues them on a bounded FIFO,
   executes them one at a time on the campaign engine (worker domains),
   streams progress events back live, and resolves warm jobs from the
   content-addressed result cache.

   Concurrency model: one [Unix.select] loop owns the listening socket,
   every connection and its outbound queue, the FIFO, the history, the
   subscriptions and the journal, so none of them is locked.  The only
   other domain is the executor.  It blocks on a pipe until the loop
   hands it a job, runs [Job.execute] — one job at a time: parallelism
   lives inside the campaign engine's worker domains, so two
   submissions never fight over domains or artifact files; a one-job
   run executes inline on the executor — and reports progress,
   telemetry, artifact errors and the outcome through the mailbox, a
   mutex-guarded queue plus a self-pipe that wakes the loop.  Its stop
   hook reads only atomics (shutdown, the record's cancel flag) and its
   own deadline; the campaign engine checks it before each job and from
   every running job's poll, so shutdown, cancel and the deadline stop
   a job mid-run.  The loop blocks until I/O arrives, the mailbox wakes
   it, or the earliest backoff release is due.

   Memory stays flat however long the daemon runs: the history keeps
   every queued or running record but only the newest [history_cap]
   finished ones (the journal keeps them all), and a finished record
   drops its watchers.

   Because one loop does everything in turn, a job's ack is queued
   before the job can start, so it precedes every progress and done
   frame, and each journal entry is appended before the frame that
   reports it.  Outbound frames never block: each client has a FIFO of
   pending frames drained by non-blocking writes, so a client that
   stops reading stalls only itself; once [max_outbound_bytes] pile up
   (or a partial inbound frame grows that large) it is dropped.
   [Unix.select] cannot watch descriptors >= 1024, so connections past
   [max_connections] are refused with an error frame.

   Crash safety (DESIGN.md §13): every accepted spec and every state
   transition is appended (fsync'd) to <out_dir>/serve_journal.jsonl
   via Util.Journal.  On start the journal is replayed: the newest
   completed jobs are reported in [status], interrupted ones are
   re-enqueued (cheap — their finished prefix is in the cache), and a
   stale socket left by a crashed daemon is probed and unlinked before
   bind.  Jobs that blow their wall-clock deadline or crash the executor
   are retried with capped exponential backoff up to a retry budget,
   then quarantined as poison with a ready-to-paste resubmission command
   in the journal.  *)

open Setagree_util
open Setagree_runner

type config = {
  socket_path : string;
  cache_dir : string option;  (* None = caching off *)
  jobs : int option;  (* worker domains; None = Runner.default_jobs *)
  out_dir : string;  (* artifact directory (and journal home) *)
  log : string -> unit;  (* daemon-side logging *)
  queue_depth : int;  (* max jobs waiting (running job not counted) *)
  default_deadline_s : float;  (* per-attempt wall clock; <= 0 = none *)
  retry_budget : int;  (* retries after the first attempt, then poison *)
  retry_backoff_s : float;  (* base of the capped exponential backoff *)
  resume : bool;  (* re-enqueue interrupted journal jobs on start *)
}

let default_config =
  {
    socket_path = Filename.concat "_results" "fdkit.sock";
    cache_dir = Some Runner.Cache.default_dir;
    jobs = None;
    out_dir = "_results";
    log = ignore;
    queue_depth = 16;
    default_deadline_s = 0.;
    retry_budget = 2;
    retry_backoff_s = 1.0;
    resume = true;
  }

let journal_path out_dir = Filename.concat out_dir "serve_journal.jsonl"

(* ---- job history ---- *)

type state = Queued | Running | Done | Cancelled | Rejected | Poisoned

(* Finished records kept in memory for [status]; older ones live on in
   the journal only. *)
let history_cap = 128

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"
  | Rejected -> "rejected"
  | Poisoned -> "poisoned"

let state_of_string = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "cancelled" -> Some Cancelled
  | "rejected" -> Some Rejected
  | "poisoned" -> Some Poisoned
  | _ -> None

let is_terminal = function
  | Done | Cancelled | Rejected | Poisoned -> true
  | Queued | Running -> false

(* One connected client.  [subscribed] gates telemetry frames only —
   progress/ack/done always flow.  [cl_last_submit] remembers the most
   recent job this client submitted (or attached to), so a bare
   {"op":"cancel"} can be routed without an id.

   Outbound frames go through [cl_outq], written with non-blocking
   writes only, so a client whose socket buffer is full (it stopped
   reading) never holds up the loop.  A client marked [cl_dead] is
   closed and detached at the end of the loop's turn. *)
type client = {
  cl_fd : Unix.file_descr;  (* non-blocking *)
  cl_dec : Json.Stream.decoder;
  cl_outq : string Queue.t;  (* whole frames (line included), oldest first *)
  mutable cl_out_pos : int;  (* bytes of the queue head already written *)
  mutable cl_out_bytes : int;  (* unwritten bytes across the whole queue *)
  mutable cl_dead : bool;  (* hung up, write error, or shed *)
  mutable subscribed : bool;
  mutable cl_last_submit : int;  (* 0 = none *)
}

type record = {
  id : int;
  spec : Job.spec option;  (* None for rejected frames that never parsed *)
  canonical : string;  (* Job.canonical; "" when spec is None *)
  deadline_s : float;  (* per-attempt wall-clock budget; <= 0 = none *)
  resumed : bool;  (* re-enqueued from the journal on daemon start *)
  mutable rstate : state;
  mutable phase : string;  (* finer-grained than rstate while running *)
  mutable exit_code : int;
  mutable cache_hits : int;
  mutable executed : int;
  mutable cache_skipped : int;
  mutable signature : string;  (* MD5 of the campaign signature *)
  mutable errors : string list;
  mutable last_telemetry_s : float;  (* Unix time of last snapshot; 0. = never *)
  mutable attempt : int;  (* 0-based execution attempt *)
  mutable not_before : float;  (* backoff gate (Unix time); 0. = ready *)
  cancel_req : bool Atomic.t;  (* read by the running job's stop hook *)
  mutable watchers : client list;  (* clients streaming this job *)
  mutable ever_watched : bool;  (* false only for journal-resumed jobs *)
}

(* ---- framing ---- *)

let max_outbound_bytes = 8 * 1024 * 1024
let max_connections = 32

let clear_outbound cl =
  cl.cl_dead <- true;
  Queue.clear cl.cl_outq;
  cl.cl_out_pos <- 0;
  cl.cl_out_bytes <- 0

(* Write as much queued outbound as the socket accepts right now; never
   blocks (the fd is non-blocking). *)
let rec flush_outbound cl =
  match Queue.peek_opt cl.cl_outq with
  | None -> ()
  | Some s -> (
      let remaining = String.length s - cl.cl_out_pos in
      match Unix.write_substring cl.cl_fd s cl.cl_out_pos remaining with
      | n ->
          cl.cl_out_bytes <- cl.cl_out_bytes - n;
          if n = remaining then begin
            ignore (Queue.pop cl.cl_outq);
            cl.cl_out_pos <- 0;
            flush_outbound cl
          end
          else cl.cl_out_pos <- cl.cl_out_pos + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
          (* Hung-up client (EPIPE et al., SIGPIPE is ignored while
             serving). *)
          clear_outbound cl)

let send_client cl j =
  if not cl.cl_dead then begin
    let s = Json.to_string ~minify:true j ^ "\n" in
    Queue.push s cl.cl_outq;
    cl.cl_out_bytes <- cl.cl_out_bytes + String.length s;
    flush_outbound cl;
    (* A reader that stopped draining its socket: shed it rather than
       buffer without bound. *)
    if cl.cl_out_bytes > max_outbound_bytes then clear_outbound cl
  end

let error_frame msg =
  Json.Obj [ ("type", Json.String "error"); ("message", Json.String msg) ]

let sig_md5 c = Digest.to_hex (Digest.string (Runner.signature c))

let record_json r =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ( "kind",
        Json.String (match r.spec with Some s -> Job.kind s | None -> "?") );
      ( "summary",
        Json.String (match r.spec with Some s -> Job.summary s | None -> "?") );
      ("state", Json.String (state_to_string r.rstate));
      ("phase", Json.String r.phase);
      ("exit", Json.Int r.exit_code);
      ("attempt", Json.Int r.attempt);
      ("resumed", Json.Bool r.resumed);
      ("cache_hits", Json.Int r.cache_hits);
      ("executed", Json.Int r.executed);
      ("cache_skipped", Json.Int r.cache_skipped);
      ("signature", Json.String r.signature);
      ( "telemetry_age_s",
        if r.last_telemetry_s <= 0. then Json.Null
        else Json.Float (Unix.gettimeofday () -. r.last_telemetry_s) );
      ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
    ]

let subscription_frame cl =
  Json.Obj
    [
      ("type", Json.String (if cl.subscribed then "subscribed" else "unsubscribed"));
    ]

let progress_frame r (p : Runner.progress) =
  Json.Obj
    [
      ("type", Json.String "progress");
      ("id", Json.Int r.id);
      ("done", Json.Int p.Runner.pr_done);
      ("total", Json.Int p.Runner.pr_total);
      ("cached", Json.Bool p.Runner.pr_cached);
      ("label", Json.String p.Runner.pr_result.Runner.r_label);
      ("ok", Json.Bool p.Runner.pr_result.Runner.r_ok);
    ]

let telemetry_frame id te =
  let fields =
    match Runner.telemetry_json te with
    | Json.Obj fields -> fields
    | j -> [ ("telemetry", j) ]
  in
  Json.Obj
    (("type", Json.String "telemetry") :: ("id", Json.Int id) :: fields)

(* ---- journal schema + recovery ---- *)

module Recovery = struct
  let accepted_entry ~id ?(deadline_s = 0.) spec =
    Json.Obj
      [
        ("type", Json.String "accepted");
        ("id", Json.Int id);
        ("deadline_s", Json.Float deadline_s);
        ("spec", Job.to_json spec);
      ]

  let state_entry ~id ?(attempt = 0) ?(extra = []) st =
    Json.Obj
      ([
         ("type", Json.String "state");
         ("id", Json.Int id);
         ("state", Json.String st);
         ("attempt", Json.Int attempt);
       ]
      @ extra)

  type pending = { p_id : int; p_spec : Job.spec; p_deadline_s : float }

  type completed = {
    f_id : int;
    f_spec : Job.spec;
    f_state : state;
    f_exit : int;
    f_signature : string;
  }

  type t = {
    completed : completed list;  (* terminal jobs, oldest first *)
    pending : pending list;  (* accepted, no terminal entry; FIFO order *)
    next_id : int;
    dropped_lines : int;
    dropped_bytes : int;
  }

  let int_member k j =
    match Json.member k j with
    | Some (Json.Int i) -> Some i
    | Some (Json.Float f) -> Some (int_of_float f)
    | _ -> None

  let float_member k j =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None

  (* Replay the journal into (completed, pending).  Tolerant by design:
     unknown entry types are skipped, an id's first terminal entry wins
     (a duplicate "done" from a half-compacted journal cannot re-run or
     double-report a job), and a truncated tail was already dropped by
     Journal.load — so the result is always a prefix-consistent view of
     what the dead daemon actually accepted and finished. *)
  let load path =
    let { Journal.entries; dropped_lines; dropped_bytes } = Journal.load path in
    let accepted : (int, pending) Hashtbl.t = Hashtbl.create 16 in
    let accept_order = ref [] in
    let finished : (int, completed) Hashtbl.t = Hashtbl.create 16 in
    let finish_order = ref [] in
    let next = ref 1 in
    List.iter
      (fun e ->
        match Json.member "type" e with
        | Some (Json.String "accepted") -> (
            match (int_member "id" e, Json.member "spec" e) with
            | Some id, Some sj when not (Hashtbl.mem accepted id) -> (
                match Job.of_json sj with
                | Ok spec ->
                    let p_deadline_s =
                      Option.value ~default:0. (float_member "deadline_s" e)
                    in
                    Hashtbl.replace accepted id { p_id = id; p_spec = spec; p_deadline_s };
                    accept_order := id :: !accept_order;
                    if id >= !next then next := id + 1
                | Error _ -> ())
            | _ -> ())
        | Some (Json.String "state") -> (
            match (int_member "id" e, Json.member "state" e) with
            | Some id, Some (Json.String st) -> (
                match state_of_string st with
                | Some s
                  when is_terminal s
                       && Hashtbl.mem accepted id
                       && not (Hashtbl.mem finished id) ->
                    let p = Hashtbl.find accepted id in
                    Hashtbl.replace finished id
                      {
                        f_id = id;
                        f_spec = p.p_spec;
                        f_state = s;
                        f_exit = Option.value ~default:0 (int_member "exit" e);
                        f_signature =
                          (match Json.member "signature" e with
                          | Some (Json.String s) -> s
                          | _ -> "");
                      };
                    finish_order := id :: !finish_order
                | _ -> ())
            | _ -> ())
        | _ -> ())
      entries;
    let completed = List.rev_map (Hashtbl.find finished) !finish_order in
    let pending =
      List.rev !accept_order
      |> List.filter (fun id -> not (Hashtbl.mem finished id))
      |> List.map (Hashtbl.find accepted)
    in
    { completed; pending; next_id = !next; dropped_lines; dropped_bytes }
end

(* ---- the executor and its mailbox ---- *)

(* How an attempt ended, as the executor reports it. *)
type outcome =
  | Finished of Job.outcome * state * string option
      (* Done, or Cancelled by a client; an artifact write error *)
  | Failed of string  (* deadline blown or the job raised: retry or poison *)
  | Interrupted  (* stopped by shutdown: stays pending in the journal *)

(* Executor → loop.  One attempt posts its progress and telemetry, then
   exactly one [Outcome]. *)
type msg =
  | Progress of record * Runner.progress
  | Telemetry of record * float * Runner.telemetry  (* received at (Unix time) *)
  | Outcome of record * outcome

type mailbox = {
  mb_lock : Mutex.t;  (* guards the two fields below *)
  mb_msgs : msg Queue.t;
  mutable mb_woken : bool;  (* a wake byte was written since the last [take] *)
  mb_wake_rd : Unix.file_descr;  (* self-pipe, selected by the loop *)
  mb_wake_wr : Unix.file_descr;
}

let mailbox () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wr;
  { mb_lock = Mutex.create (); mb_msgs = Queue.create (); mb_woken = false;
    mb_wake_rd = rd; mb_wake_wr = wr }

(* Callable from any domain.  Every message wakes the loop, so a frame
   leaves as soon as it is posted.  At most one wake byte is pending, so
   the pipe never fills. *)
let post mb msg =
  Mutex.protect mb.mb_lock (fun () ->
      Queue.push msg mb.mb_msgs;
      if not mb.mb_woken then begin
        mb.mb_woken <- true;
        try ignore (Unix.write_substring mb.mb_wake_wr "!" 0 1)
        with Unix.Unix_error _ -> ()
      end)

(* The loop's side, once [select] finds the pipe readable: swallow the
   wake byte, then take every message; a [post] racing this either
   lands in the batch or writes a fresh byte that wakes the next
   [select]. *)
let take mb =
  ignore (Unix.read mb.mb_wake_rd (Bytes.create 64) 0 64);
  let msgs = Queue.create () in
  Mutex.protect mb.mb_lock (fun () ->
      mb.mb_woken <- false;
      Queue.transfer mb.mb_msgs msgs);
  msgs

(* Campaign-shaped jobs leave their usual artifacts in [dir]. *)
let write_artifacts dir spec (o : Job.outcome) =
  match spec with
  | Job.Run _ | Job.Replay _ -> None
  | Job.Campaign _ | Job.Chaos _ | Job.Explore _ -> (
      try
        ignore (Runner.write_artifact ~dir o.Job.o_campaign);
        Option.iter
          (fun co -> ignore (Chaos.write_failures ~dir co.Chaos.o_failures))
          o.Job.o_chaos;
        (match spec with
        | Job.Explore { protocol; _ } ->
            ignore (Explorer.write_counterexamples ~dir ~protocol o.Job.o_ces)
        | _ -> ());
        None
      with Sys_error e -> Some ("artifact write failed: " ^ e))

(* ---- the daemon ---- *)

type t = {
  cfg : config;
  cache : Runner.Cache.t option;
  journal : Journal.t;
  mailbox : mailbox;
  shutdown : bool Atomic.t;  (* read by the executor's stop hook *)
  handoff : record option Atomic.t;  (* the job [hand_over] passes on *)
  exec_rd : Unix.file_descr;  (* the idle executor blocks reading here *)
  exec_wr : Unix.file_descr;
  mutable clients : client list;
  mutable history : record list;
      (* newest first: every queued or running record, and the newest
         [history_cap] finished ones *)
  mutable queue : record list;  (* FIFO, oldest first; subset of history *)
  mutable running : record option;
  mutable next_id : int;
  mutable jobs_retried : int;
  mutable jobs_poisoned : int;
}

(* One attempt of [r] on the executor domain, reported through the
   mailbox.  It reads only immutable fields ([t.cfg], [t.cache],
   [r.spec], [r.deadline_s]) and the atomics, never the loop's mutable
   state.  The stop hook folds in daemon shutdown, client cancels and
   orphaned jobs (both set [cancel_req]), and the per-job wall-clock
   deadline.  The campaign engine checks it before each job starts and
   from every running job's poll — possibly on a worker domain — and
   discards a job the poll stopped. *)
let execute_record t r =
  let spec = Option.get r.spec and mb = t.mailbox in
  let deadline =
    if r.deadline_s > 0. then Unix.gettimeofday () +. r.deadline_s
    else Float.infinity
  in
  let why = Atomic.make `Cancel in
  let stop () =
    let reason =
      if Atomic.get t.shutdown then Some `Shutdown
      else if Atomic.get r.cancel_req then Some `Cancel
      else if Unix.gettimeofday () > deadline then Some `Deadline
      else None
    in
    Option.iter (Atomic.set why) reason;
    reason <> None
  in
  let outcome =
    try
      let o =
        Job.execute ?jobs:t.cfg.jobs ?cache:t.cache
          ~on_progress:(fun p -> post mb (Progress (r, p)))
          ~on_telemetry:(fun te ->
            (* Always attached: the loop keeps the record's freshness
               stamp for [status] even when nobody is subscribed. *)
            post mb (Telemetry (r, Unix.gettimeofday (), te)))
          ~stop spec
      in
      match (o.Job.o_campaign.Runner.c_cancelled, Atomic.get why) with
      | true, `Deadline ->
          Failed (Printf.sprintf "deadline exceeded (%.3gs)" r.deadline_s)
      | true, `Shutdown -> Interrupted
      | cancelled, _ ->
          Finished
            ( o,
              (if cancelled then Cancelled else Done),
              write_artifacts t.cfg.out_dir spec o )
    with exn -> Failed ("raised: " ^ Printexc.to_string exn)
  in
  post mb (Outcome (r, outcome))

(* The executor domain: block until the loop hands over a job, run it,
   and wait again; a hand-over without a job ends it. *)
let rec executor t =
  match Unix.read t.exec_rd (Bytes.create 1) 0 1 with
  | exception Unix.Unix_error (EINTR, _, _) -> executor t
  | _ -> (
      match Atomic.exchange t.handoff None with
      | Some r ->
          execute_record t r;
          executor t
      | None -> ())

(* At most one hand-over is pending (the next waits for the outcome),
   so the write never blocks. *)
let hand_over t r =
  Atomic.set t.handoff r;
  ignore (Unix.write_substring t.exec_wr "!" 0 1)

(* Journal IO failures (disk full, …) must degrade durability, not
   availability: the daemon keeps serving, recovery just knows less. *)
let jlog t entry =
  try Journal.append t.journal entry
  with Sys_error _ | Unix.Unix_error _ -> ()

(* A new history record; [id] is given for journal-replayed jobs. *)
let fresh_record ?id ?(deadline_s = 0.) ?(resumed = false) t spec =
  let id =
    match id with
    | Some id -> id
    | None ->
        t.next_id <- t.next_id + 1;
        t.next_id - 1
  in
  let r =
    {
      id;
      spec;
      canonical = (match spec with Some s -> Job.canonical s | None -> "");
      deadline_s;
      resumed;
      rstate = Queued;
      phase = "queued";
      exit_code = 0;
      cache_hits = 0;
      executed = 0;
      cache_skipped = 0;
      signature = "";
      errors = [];
      last_telemetry_s = 0.;
      attempt = 0;
      not_before = 0.;
      cancel_req = Atomic.make false;
      watchers = [];
      ever_watched = false;
    }
  in
  t.history <- r :: t.history;
  r

let queue_depth t =
  List.length t.queue + (match t.running with Some _ -> 1 | None -> 0)

let dequeue t r = t.queue <- List.filter (fun x -> x.id <> r.id) t.queue

(* The records that are neither finished nor rejected: the running one
   and the queue. *)
let live t = Option.to_list t.running @ t.queue

(* Keep every live record and the newest [history_cap] finished ones. *)
let trim_history t =
  let finished = ref 0 in
  t.history <-
    List.filter
      (fun r -> (not (is_terminal r.rstate)) || (incr finished; !finished <= history_cap))
      t.history

(* [r] turned terminal and its done frame is out: nothing streams to it
   any more. *)
let retire t r =
  r.watchers <- [];
  trim_history t

let done_frame r ~jobs ~failed ~cancelled ~wall ~extra =
  Json.Obj
    ([
       ("type", Json.String "done");
       ("id", Json.Int r.id);
       ("state", Json.String (state_to_string r.rstate));
       ("exit", Json.Int r.exit_code);
       ("jobs", Json.Int jobs);
       ("failed", Json.Int failed);
       ("cache_hits", Json.Int r.cache_hits);
       ("executed", Json.Int r.executed);
       ("cache_skipped", Json.Int r.cache_skipped);
       ("cancelled", Json.Bool cancelled);
       ("wall_s", Json.Float wall);
       ("signature", Json.String r.signature);
     ]
    @ extra)

let send_watchers r frame = List.iter (fun cl -> send_client cl frame) r.watchers

(* Capped exponential backoff before retry [attempt] (1-based): the
   Fd.Timeout delay shape — base * 2^(attempt-1), capped — minus the
   jitter (a deterministic daemon is easier to test and to reason about
   after a crash). *)
let backoff_delay t attempt =
  Float.min 60. (t.cfg.retry_backoff_s *. (2. ** float_of_int (max 0 (attempt - 1))))

(* A failed attempt (deadline blown or the job raised): retry with
   backoff while budget remains, else quarantine as poison with a
   ready-to-paste resubmission command in the journal. *)
let conclude_failure t r note =
  r.errors <- r.errors @ [ note ];
  if r.attempt < t.cfg.retry_budget then begin
    r.attempt <- r.attempt + 1;
    let delay = backoff_delay t r.attempt in
    r.not_before <- Unix.gettimeofday () +. delay;
    r.rstate <- Queued;
    r.phase <-
      Printf.sprintf "backoff %.3gs (retry %d/%d)" delay r.attempt
        t.cfg.retry_budget;
    Atomic.set r.cancel_req false;
    t.jobs_retried <- t.jobs_retried + 1;
    t.queue <- t.queue @ [ r ];
    jlog t
      (Recovery.state_entry ~id:r.id ~attempt:r.attempt
         ~extra:
           [ ("backoff_s", Json.Float delay); ("reason", Json.String note) ]
         "retrying");
    t.cfg.log
      (Printf.sprintf "job %d: %s; retry %d/%d in %.3gs" r.id note r.attempt
         t.cfg.retry_budget delay);
    send_watchers r
      (Json.Obj
         [
           ("type", Json.String "retry");
           ("id", Json.Int r.id);
           ("attempt", Json.Int r.attempt);
           ("backoff_s", Json.Float delay);
           ("reason", Json.String note);
         ])
  end
  else begin
    r.rstate <- Poisoned;
    r.phase <- "poisoned";
    r.exit_code <- 6;
    t.jobs_poisoned <- t.jobs_poisoned + 1;
    let replay =
      match r.spec with
      | None -> ""
      | Some spec -> (
          match
            Job.write_spec ~dir:t.cfg.out_dir
              ~name:(Printf.sprintf "poison_job_%d.json" r.id)
              spec
          with
          | Some path -> Printf.sprintf "fdkit submit --spec %s" path
          | None -> "")
    in
    jlog t
      (Recovery.state_entry ~id:r.id ~attempt:r.attempt
         ~extra:
           [
             ("exit", Json.Int r.exit_code);
             ("reason", Json.String note);
             ("replay", Json.String replay);
           ]
         "poisoned");
    t.cfg.log
      (Printf.sprintf "job %d: poisoned after %d attempts (%s)" r.id
         (r.attempt + 1) note);
    send_watchers r
      (done_frame r ~jobs:0 ~failed:0 ~cancelled:false ~wall:0.
         ~extra:
           [ ("reason", Json.String note); ("replay", Json.String replay) ]);
    retire t r
  end

(* A finished attempt (the campaign ran to completion or was cancelled
   by a client/orphan stop). *)
let finalize t r (o : Job.outcome) final =
  let c = o.Job.o_campaign in
  r.rstate <- final;
  r.phase <- "finished";
  r.exit_code <- o.Job.o_exit;
  r.cache_hits <- c.Runner.c_cache_hits;
  r.executed <- c.Runner.c_executed;
  r.cache_skipped <- c.Runner.c_cache_skipped;
  r.signature <- sig_md5 c;
  jlog t
    (Recovery.state_entry ~id:r.id ~attempt:r.attempt
       ~extra:
         [
           ("exit", Json.Int r.exit_code);
           ("signature", Json.String r.signature);
         ]
       (state_to_string r.rstate));
  t.cfg.log
    (Printf.sprintf "job %d: %s exit=%d hits=%d executed=%d skipped=%d" r.id
       (state_to_string r.rstate) r.exit_code r.cache_hits r.executed
       r.cache_skipped);
  send_watchers r
    (done_frame r
       ~jobs:(Array.length c.Runner.c_results)
       ~failed:(List.length (Runner.failures c))
       ~cancelled:c.Runner.c_cancelled ~wall:c.Runner.c_wall_s ~extra:[]);
  retire t r

(* Start the first queued record whose backoff has elapsed, unless a job
   is running or the daemon is shutting down. *)
let start_next t =
  if t.running = None && not (Atomic.get t.shutdown) then
    let now = Unix.gettimeofday () in
    match List.find_opt (fun r -> r.not_before <= now) t.queue with
    | None -> ()
    | Some r ->
        dequeue t r;
        r.rstate <- Running;
        r.phase <- "running";
        jlog t (Recovery.state_entry ~id:r.id ~attempt:r.attempt "running");
        t.cfg.log
          (Printf.sprintf "job %d attempt %d: %s" r.id r.attempt
             (Job.summary (Option.get r.spec)));
        t.running <- Some r;
        hand_over t (Some r)

let handle_msg t = function
  | Progress (r, p) -> send_watchers r (progress_frame r p)
  | Telemetry (r, at, te) ->
      r.last_telemetry_s <- at;
      let frame = lazy (telemetry_frame r.id te) in
      List.iter
        (fun cl -> if cl.subscribed then send_client cl (Lazy.force frame))
        r.watchers
  | Outcome (r, outcome) -> (
      (* The running slot reads empty before the done frame hits the
         wire, so a status sent right after [done] no longer counts the
         job. *)
      t.running <- None;
      match outcome with
      | Finished (o, final, artifact_error) ->
          r.errors <- r.errors @ Option.to_list artifact_error;
          finalize t r o final
      | Failed note -> conclude_failure t r note
      | Interrupted ->
          (* Only during shutdown.  No terminal journal entry: the next
             daemon start re-enqueues it (its finished prefix is in the
             cache). *)
          ())

(* ---- ops ---- *)

let status_frame t =
  Json.Obj
    [
      ("type", Json.String "status");
      ("queue_depth", Json.Int (queue_depth t));
      ( "running",
        match t.running with None -> Json.Null | Some r -> Json.Int r.id );
      ("jobs", Json.List (List.rev_map record_json t.history));
      ( "counters",
        Json.Obj
          [
            ("jobs_retried", Json.Int t.jobs_retried);
            ("jobs_poisoned", Json.Int t.jobs_poisoned);
          ] );
      ( "cache",
        match t.cache with
        | None -> Json.Null
        | Some cache ->
            Json.Obj
              [
                ("dir", Json.String (Runner.Cache.dir cache));
                ("hits", Json.Int (Runner.Cache.hits cache));
                ("misses", Json.Int (Runner.Cache.misses cache));
                ("stores", Json.Int (Runner.Cache.stores cache));
                ("corrupt", Json.Int (Runner.Cache.corrupt cache));
                ("write_failed", Json.Int (Runner.Cache.write_failed cache));
              ] );
    ]

let handle_submit t cl v =
  match Json.member "spec" v with
  | None -> send_client cl (error_frame "submit: missing \"spec\"")
  | Some sj -> (
      match Job.of_json sj with
      | Error e -> send_client cl (error_frame ("submit: " ^ e))
      | Ok spec -> (
          match Job.validate spec with
          | Error errs ->
              let r = fresh_record t (Some spec) in
              r.rstate <- Rejected;
              r.phase <- "rejected";
              r.exit_code <- 3;
              r.errors <- errs;
              retire t r;
              send_client cl
                (Json.Obj
                   [
                     ("type", Json.String "ack");
                     ("id", Json.Int r.id);
                     ("accepted", Json.Bool false);
                     ("errors", Json.List (List.map (fun e -> Json.String e) errs));
                   ])
          | Ok () -> (
              let deadline_s =
                match Recovery.float_member "deadline_s" v with
                | Some d when d > 0. -> d
                | _ -> t.cfg.default_deadline_s
              in
              let canonical = Job.canonical spec in
              (* Dedup: a spec already queued or running gains a watcher
                 instead of a duplicate execution. *)
              match List.find_opt (fun r -> r.canonical = canonical) (live t) with
              | Some r ->
                  if not (List.memq cl r.watchers) then
                    r.watchers <- r.watchers @ [ cl ];
                  r.ever_watched <- true;
                  cl.cl_last_submit <- r.id;
                  send_client cl
                    (Json.Obj
                       [
                         ("type", Json.String "ack");
                         ("id", Json.Int r.id);
                         ("accepted", Json.Bool true);
                         ("attached", Json.Bool true);
                         ("state", Json.String (state_to_string r.rstate));
                         ("summary", Json.String (Job.summary spec));
                       ])
              | None ->
                  if List.length t.queue >= t.cfg.queue_depth then
                    (* Graceful shedding: an explicit rejection frame,
                       no record, no hang. *)
                    send_client cl
                      (Json.Obj
                         [
                           ("type", Json.String "ack");
                           ("id", Json.Int 0);
                           ("accepted", Json.Bool false);
                           ("rejected", Json.String "queue full");
                           ( "errors",
                             Json.List
                               [
                                 Json.String
                                   (Printf.sprintf
                                      "rejected: queue full (depth %d)"
                                      t.cfg.queue_depth);
                               ] );
                         ])
                  else begin
                    let r = fresh_record ~deadline_s t (Some spec) in
                    r.watchers <- [ cl ];
                    r.ever_watched <- true;
                    cl.cl_last_submit <- r.id;
                    t.queue <- t.queue @ [ r ];
                    jlog t (Recovery.accepted_entry ~id:r.id ~deadline_s spec);
                    send_client cl
                      (Json.Obj
                         [
                           ("type", Json.String "ack");
                           ("id", Json.Int r.id);
                           ("accepted", Json.Bool true);
                           ("position", Json.Int (List.length t.queue));
                           ("summary", Json.String (Job.summary spec));
                         ])
                  end)))

let cancel_queued t r =
  dequeue t r;
  r.rstate <- Cancelled;
  r.phase <- "cancelled while queued";
  r.exit_code <- 4;
  jlog t
    (Recovery.state_entry ~id:r.id ~attempt:r.attempt
       ~extra:[ ("exit", Json.Int 4) ]
       "cancelled");
  send_watchers r (done_frame r ~jobs:0 ~failed:0 ~cancelled:true ~wall:0. ~extra:[]);
  retire t r

let handle_cancel t cl v =
  let target =
    match Recovery.int_member "id" v with
    | Some id -> List.find_opt (fun r -> r.id = id) (live t)
    | None -> (
        match List.find_opt (fun r -> r.id = cl.cl_last_submit) (live t) with
        | Some r -> Some r
        | None -> (
            (* Fall back to the running job only when this connection
               watches it: a bare cancel from an unrelated client must
               not kill someone else's job. *)
            match t.running with
            | Some r when List.memq cl r.watchers -> Some r
            | _ -> None))
  in
  match target with
  | None -> send_client cl (error_frame "cancel: no cancellable job for this connection")
  | Some r when r.rstate = Queued -> cancel_queued t r
  | Some r ->
      (* Running: the stop hook sees the flag at the running job's next
         poll; that job is discarded, completed ones are kept (and
         cached). *)
      Atomic.set r.cancel_req true

let handle_frame t cl v =
  match Json.member "op" v with
  | Some (Json.String "ping") ->
      send_client cl (Json.Obj [ ("type", Json.String "pong") ])
  | Some (Json.String "status") -> send_client cl (status_frame t)
  | Some (Json.String "subscribe") ->
      cl.subscribed <- true;
      send_client cl (subscription_frame cl)
  | Some (Json.String "unsubscribe") ->
      cl.subscribed <- false;
      send_client cl (subscription_frame cl)
  | Some (Json.String "shutdown") ->
      Atomic.set t.shutdown true;
      send_client cl (Json.Obj [ ("type", Json.String "bye") ])
  | Some (Json.String "cancel") -> handle_cancel t cl v
  | Some (Json.String "submit") -> handle_submit t cl v
  | Some (Json.String op) -> send_client cl (error_frame ("unknown op " ^ op))
  | _ -> send_client cl (error_frame "frame has no \"op\"")

(* Handle every complete frame a client has sent.  Nothing more is
   handled once the client is dropped or the daemon is shutting down. *)
let rec handle_frames t cl =
  if not (cl.cl_dead || Atomic.get t.shutdown) then
    match Json.Stream.next cl.cl_dec with
    | `Value v ->
        (try handle_frame t cl v
         with exn ->
           send_client cl (error_frame ("internal error: " ^ Printexc.to_string exn)));
        handle_frames t cl
    | `Error e ->
        send_client cl (error_frame (Json.error_to_string e));
        handle_frames t cl
    | `Await ->
        if Json.Stream.pending cl.cl_dec > max_outbound_bytes then begin
          send_client cl
            (error_frame
               (Printf.sprintf "frame exceeds %d bytes; closing" max_outbound_bytes));
          cl.cl_dead <- true
        end

let read_client t buf cl =
  match Unix.read cl.cl_fd buf 0 (Bytes.length buf) with
  | 0 -> cl.cl_dead <- true
  | n ->
      Json.Stream.feed cl.cl_dec (Bytes.sub_string buf 0 n);
      handle_frames t cl
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> cl.cl_dead <- true

(* A client hung up or was dropped: detach it everywhere; a job whose
   every watcher is gone (and that was not resumed from the journal,
   which starts with none) is orphaned — cancelled if queued, stopped
   at its next poll if running.  Nothing is orphaned during shutdown:
   queued and running jobs stay pending in the journal.  Only live
   records have watchers. *)
let drop_client t cl =
  List.iter
    (fun r ->
      if List.memq cl r.watchers then begin
        r.watchers <- List.filter (fun c -> c != cl) r.watchers;
        if
          r.watchers = [] && r.ever_watched && (not r.resumed)
          && not (Atomic.get t.shutdown)
        then
          match r.rstate with
          | Queued -> cancel_queued t r
          | Running -> Atomic.set r.cancel_req true
          | _ -> ()
      end)
    (live t)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Close and detach every client marked dead this turn. *)
let reap t =
  let dead, alive = List.partition (fun cl -> cl.cl_dead) t.clients in
  t.clients <- alive;
  List.iter
    (fun cl ->
      drop_client t cl;
      close_fd cl.cl_fd)
    dead

let accept_client t sock =
  match Unix.accept ~cloexec:true sock with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let cl =
        {
          cl_fd = fd;
          cl_dec = Json.Stream.decoder ();
          cl_outq = Queue.create ();
          cl_out_pos = 0;
          cl_out_bytes = 0;
          cl_dead = false;
          subscribed = false;
          cl_last_submit = 0;
        }
      in
      if List.length t.clients >= max_connections then begin
        (* Refuse with an error frame ([reap] closes it) and keep serving. *)
        send_client cl
          (error_frame
             (Printf.sprintf "server busy: %d connections already open"
                max_connections));
        cl.cl_dead <- true
      end;
      t.clients <- cl :: t.clients

(* How long [select] may block: forever while a job runs (its outcome
   wakes the loop) or nothing waits, else until the earliest backoff
   release. *)
let select_timeout t =
  match (t.running, t.queue) with
  | Some _, _ | None, [] -> -1.
  | None, r :: rs ->
      let release = List.fold_left (fun a r -> Float.min a r.not_before) r.not_before rs in
      Float.max 0. (release -. Unix.gettimeofday ())

let run_loop t sock =
  let buf = Bytes.create 65536 in
  let rec loop () =
    if not (Atomic.get t.shutdown && t.running = None) then begin
      start_next t;
      let live = not (Atomic.get t.shutdown) in
      let reads =
        t.mailbox.mb_wake_rd
        :: (if live then sock :: List.map (fun cl -> cl.cl_fd) t.clients else [])
      in
      let writes =
        List.filter_map
          (fun cl -> if cl.cl_out_bytes > 0 then Some cl.cl_fd else None)
          t.clients
      in
      (match Unix.select reads writes [] (select_timeout t) with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | rd, wr, _ ->
          List.iter (fun cl -> if List.mem cl.cl_fd wr then flush_outbound cl) t.clients;
          if List.mem t.mailbox.mb_wake_rd rd then
            Queue.iter (handle_msg t) (take t.mailbox);
          List.iter
            (fun cl -> if List.mem cl.cl_fd rd then read_client t buf cl)
            t.clients;
          if List.mem sock rd then accept_client t sock);
      reap t;
      loop ()
    end
  in
  loop ();
  (* Best-effort final drain: the [bye] frame, or whatever the sockets
     still accept. *)
  List.iter
    (fun cl ->
      flush_outbound cl;
      close_fd cl.cl_fd)
    t.clients

(* ---- startup: recovery, stale socket, bind ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The daemon's exclusive per-out_dir lock, held for the whole run.
   Taken (with the socket probe) BEFORE the journal is loaded,
   compacted, or reopened: a second [fdkit serve] on the same out_dir
   must fail here — compacting first would rename-replace the live
   daemon's journal, leaving the incumbent fsync-appending to an
   unlinked inode and every subsequent entry silently lost.  An fcntl
   lock dies with the process, so kill -9 never leaves a stale one. *)
let acquire_daemon_lock out_dir =
  let path = Filename.concat out_dir "serve.lock" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith
        (Printf.sprintf "fdkit serve: another daemon holds %s" path)

(* A socket file can outlive a crashed daemon (kill -9 never unlinks).
   Probe it: a live daemon answers the connect — refuse to double-bind;
   a dead one leaves ECONNREFUSED — unlink and take over. *)
let probe_stale_socket path log =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "fdkit serve: %s is in use by a live daemon" path);
    log (Printf.sprintf "removing stale socket %s" path);
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  end

let bind_socket path =
  mkdir_p (Filename.dirname path);
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  sock

let serve ?(config = default_config) () =
  mkdir_p config.out_dir;
  (* Refuse a double start before anything under out_dir is touched:
     the lock catches a second daemon on the same out_dir, the probe a
     live daemon on the same socket.  Only then may the journal be
     loaded, compacted, and reopened. *)
  let lock_fd = acquire_daemon_lock config.out_dir in
  (try probe_stale_socket config.socket_path config.log
   with e ->
     close_fd lock_fd;
     raise e);
  (* Clients may hang up while the daemon streams progress; without
     this the first write to a dead socket kills the whole process. *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let cache = Option.map (fun dir -> Runner.Cache.create ~dir ()) config.cache_dir in
  let jpath = journal_path config.out_dir in
  let recovered = Recovery.load jpath in
  (* Compact before reopening: replayed history is rewritten as one
     accepted + one terminal entry per job (pending jobs keep just their
     accepted entry), so the journal stays proportional to the history
     rather than to the daemon's lifetime. *)
  (try
     Journal.rewrite jpath
       (List.concat_map
          (fun (f : Recovery.completed) ->
            [
              Recovery.accepted_entry ~id:f.f_id f.f_spec;
              Recovery.state_entry ~id:f.f_id
                ~extra:
                  [
                    ("exit", Json.Int f.f_exit);
                    ("signature", Json.String f.f_signature);
                  ]
                (state_to_string f.f_state);
            ])
          recovered.completed
       @ List.concat_map
           (fun (p : Recovery.pending) ->
             Recovery.accepted_entry ~id:p.p_id ~deadline_s:p.p_deadline_s
               p.p_spec
             ::
             (if config.resume then []
              else
                [
                  Recovery.state_entry ~id:p.p_id
                    ~extra:[ ("exit", Json.Int 4) ]
                    "cancelled";
                ]))
           recovered.pending)
   with Sys_error _ | Unix.Unix_error _ -> ());
  let journal = Journal.append_open jpath in
  let exec_rd, exec_wr = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg = config;
      cache;
      journal;
      mailbox = mailbox ();
      shutdown = Atomic.make false;
      clients = [];
      history = [];
      queue = [];
      running = None;
      handoff = Atomic.make None;
      exec_rd;
      exec_wr;
      next_id = recovered.next_id;
      jobs_retried = 0;
      jobs_poisoned = 0;
    }
  in
  (* Replay: completed jobs come back as history; interrupted ones are
     re-enqueued (resume) or closed out as cancelled (--no-resume). *)
  List.iter
    (fun (f : Recovery.completed) ->
      let r = fresh_record ~id:f.f_id t (Some f.f_spec) in
      r.rstate <- f.f_state;
      r.phase <- "finished";
      r.exit_code <- f.f_exit;
      r.signature <- f.f_signature)
    recovered.completed;
  List.iter
    (fun (p : Recovery.pending) ->
      let r =
        fresh_record ~id:p.p_id ~deadline_s:p.p_deadline_s ~resumed:true t
          (Some p.p_spec)
      in
      if config.resume then begin
        r.phase <- "requeued after restart";
        t.queue <- t.queue @ [ r ];
        config.log
          (Printf.sprintf "recovered job %d: %s" r.id (Job.summary p.p_spec))
      end
      else begin
        r.rstate <- Cancelled;
        r.phase <- "interrupted (restart without resume)";
        r.exit_code <- 4;
        r.errors <- [ "interrupted by daemon restart; resume disabled" ]
      end)
    recovered.pending;
  trim_history t;
  if recovered.dropped_lines > 0 || recovered.dropped_bytes > 0 then
    config.log
      (Printf.sprintf "journal: dropped %d garbage line(s), %d tail byte(s)"
         recovered.dropped_lines recovered.dropped_bytes);
  if recovered.completed <> [] || recovered.pending <> [] then
    config.log
      (Printf.sprintf "journal: replayed %d completed, %d pending job(s)"
         (List.length recovered.completed)
         (List.length recovered.pending));
  let sock = bind_socket config.socket_path in
  Unix.set_nonblock sock;
  config.log (Printf.sprintf "listening on %s" config.socket_path);
  let ex = Domain.spawn (fun () -> executor t) in
  run_loop t sock;
  hand_over t None;
  Domain.join ex;
  List.iter close_fd
    [ sock; t.mailbox.mb_wake_rd; t.mailbox.mb_wake_wr; exec_rd; exec_wr ];
  Journal.close journal;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  close_fd lock_fd;
  (match previous_sigpipe with
  | Some behavior -> (
      try Sys.set_signal Sys.sigpipe behavior
      with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  config.log "shut down"

(* ---- client ---- *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    coc : out_channel;
    cdec : Json.Stream.decoder;
  }

  let connect path =
    (* Mirror the daemon: a dying daemon must surface as an [Error],
       not SIGPIPE-terminate the client. *)
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; coc = Unix.out_channel_of_descr fd; cdec = Json.Stream.decoder () }
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

  (* Reconnect with the same capped-exponential shape the daemon uses
     for job retries: a daemon mid-restart (recovery replay, socket not
     yet bound) looks like a refused connect for well under a second. *)
  let connect_retry ?(attempts = 5) ?(backoff_s = 0.2) path =
    let rec go n =
      match connect path with
      | Ok c -> Ok c
      | Error e ->
          if n >= attempts then Error e
          else begin
            Unix.sleepf (Float.min 10. (backoff_s *. (2. ** float_of_int (n - 1))));
            go (n + 1)
          end
    in
    go 1

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let send_frame c j =
    output_string c.coc (Json.to_string ~minify:true j);
    output_char c.coc '\n';
    flush c.coc

  (* Blocking read of the next frame. *)
  let rec next_frame c =
    match Json.Stream.next c.cdec with
    | `Value v -> Ok v
    | `Error e -> Error (Json.error_to_string e)
    | `Await -> (
        let buf = Bytes.create 4096 in
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> Error "connection closed"
        | len ->
            Json.Stream.feed c.cdec (Bytes.sub_string buf 0 len);
            next_frame c
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

  let request c j =
    match send_frame c j with
    | () -> next_frame c
    | exception Sys_error e -> Error e

  let op name = Json.Obj [ ("op", Json.String name) ]
  let ping c = request c (op "ping")
  let status c = request c (op "status")
  let shutdown c = request c (op "shutdown")

  let cancel ?id c =
    let frame =
      match id with
      | None -> op "cancel"
      | Some i -> Json.Obj [ ("op", Json.String "cancel"); ("id", Json.Int i) ]
    in
    try send_frame c frame with Sys_error _ -> ()

  (* Fire-and-forget like [cancel]: mid-run the next inbound frame may
     be a progress or telemetry frame, not the acknowledgement, so a
     request/response pairing would mis-attribute frames.  The daemon's
     [subscribed]/[unsubscribed] ack arrives through the normal event
     stream. *)
  let subscribe c = try send_frame c (op "subscribe") with Sys_error _ -> ()
  let unsubscribe c = try send_frame c (op "unsubscribe") with Sys_error _ -> ()

  let submit ?deadline_s ?(on_event = ignore) c spec =
    match
      send_frame c
        (Json.Obj
           ([ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]
           @
           match deadline_s with
           | Some d -> [ ("deadline_s", Json.Float d) ]
           | None -> []))
    with
    | exception Sys_error e -> Error e
    | () ->
        (* With a shared daemon this connection may watch several jobs
           (dedup attach): latch the acked id and only treat that job's
           done frame as terminal.  Done frames arriving before the ack
           latches the id — an earlier watched job finishing — are
           handed to [on_event] and skipped, never mistaken for this
           submission's result. *)
        let job_id = ref None in
        let id_of v =
          match Json.member "id" v with Some (Json.Int i) -> Some i | _ -> None
        in
        let rec wait () =
          match next_frame c with
          | Error _ as e -> e
          | Ok v -> (
              on_event v;
              match Json.member "type" v with
              | Some (Json.String "error") -> Ok v
              | Some (Json.String "ack")
                when Json.member "accepted" v = Some (Json.Bool false) ->
                  Ok v
              | Some (Json.String "ack") ->
                  (if !job_id = None then
                     match id_of v with Some i -> job_id := Some i | None -> ());
                  wait ()
              | Some (Json.String "done")
                when (match (!job_id, id_of v) with
                     | Some a, Some b -> a = b
                     | _ -> false) ->
                  Ok v
              | _ -> wait ())
        in
        wait ()
end
