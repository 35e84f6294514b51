(** Multicore campaign engine for seeded simulator sweeps.

    Every experiment of the bench harness (DESIGN.md §4) has the same
    shape: a sweep of independent [(experiment, params, seed)] jobs,
    each of which builds its own simulator from its seed, runs it, and
    checks a class/agreement property.  This module shards such sweeps
    across OCaml 5 [Domain]s, each claiming the next job from a shared
    atomic cursor, while preserving byte-for-byte determinism:

    - a job closure must derive {e all} of its randomness from its own
      seed (build a fresh [Rng]/[Sim.t] inside [run]; never read
      ambient mutable state), and must not print — it returns a
      pre-rendered [row] instead;
    - results are merged into an array indexed by canonical job order
      (the order of the submitted list), so the merged output is
      independent of domain interleaving.  [signature] exposes exactly
      the interleaving-independent part; the sequential-vs-parallel
      equality test in [test/test_runner.ml] pins it down.

    A campaign also emits structured JSON artifacts
    ([_results/BENCH_<exp>.json]) so the perf trajectory accumulates
    per PR, and turns every failing job into a {e triage record} —
    seed, parameters and a ready-to-paste replay command — written
    from the campaign itself into [failures.json] ({!write_failures}). *)

open Setagree_util

(** {1 Jobs} *)

type body = {
  ok : bool;  (** the job's checker verdict *)
  notes : string list;  (** checker notes shown in triage records *)
  metrics : (string * float) list;
      (** named samples (rounds, msgs, latency, ...) aggregated across
          the campaign via [Util.Stats] *)
  row : string;  (** pre-rendered table row, printed in canonical order *)
  extra : Json.t;
      (** arbitrary structured payload carried verbatim into the result
          (e.g. [Explore] counterexamples); part of {!signature}, so it
          must be interleaving-independent — no timing *)
}

type job = {
  exp : string;  (** experiment id, e.g. ["e5"] — names the artifact *)
  label : string;  (** human-readable cell label *)
  params : (string * Json.t) list;  (** parameters recorded in artifacts *)
  seed : int;
  replay : string option;  (** ready-to-paste [fdkit] command reproducing it *)
  key : string option;
      (** content-address for the result cache ([None] = never cached,
          e.g. wall-clock-dependent rt-backend jobs); derive it with
          {!Cache.key} from everything the outcome depends on *)
  run : unit -> body;
      (** must be self-contained and re-runnable: fresh [Sim.t] from
          [seed] on every call *)
}

val job :
  ?label:string ->
  ?params:(string * Json.t) list ->
  ?replay:string ->
  ?key:string ->
  exp:string ->
  seed:int ->
  (unit -> body) ->
  job
(** [label] defaults to ["<exp>/seed=<seed>"]. *)

val body :
  ?notes:string list ->
  ?metrics:(string * float) list ->
  ?row:string ->
  ?extra:Json.t ->
  bool ->
  body
(** [extra] defaults to [Json.Null]. *)

(** {1 Results} *)

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
  r_extra : Json.t;  (** the body's structured payload ([Json.Null] if none) *)
  r_error : string option;  (** an escaped exception, if the job raised *)
  r_wall_s : float;  (** per-job wall clock (timing-dependent!) *)
}

type campaign = {
  c_exp : string;
  c_workers : int;  (** domains actually used *)
  c_results : result array;  (** canonical job order *)
  c_wall_s : float;
  c_throughput : float;  (** jobs per second of wall clock *)
  c_cache_hits : int;  (** jobs resolved from the result cache *)
  c_executed : int;
      (** misses executed to completion (an interrupted job is not
          counted) *)
  c_cache_skipped : int;
      (** jobs that bypassed the cache while one was in use: keyless
          jobs (rt-backend outcomes are wall-clock-dependent) plus jobs
          that raised (never stored); 0 when no cache was configured *)
  c_cache_corrupt : int;
      (** corrupt cache entries (truncated / garbage / bad checksum)
          detected during this run — each was unlinked and re-executed *)
  c_cache_write_failed : int;
      (** cache stores that failed (disk full, permissions, …) during
          this run; the campaign result itself is unaffected *)
  c_cancelled : bool;
      (** [stop] fired before every job completed: some jobs never
          started, or a running one was interrupted *)
}

type progress = {
  pr_result : result;
  pr_cached : bool;  (** came from the cache, not an execution *)
  pr_done : int;  (** completed so far, including this one *)
  pr_total : int;
}

(** {1 Live telemetry}

    Snapshots of an in-flight campaign, taken at its start, at job
    completions and from the job {!poll} during long jobs, at most one
    per 0.25 s, plus one final snapshot after the last job, so short
    campaigns still emit.  Telemetry is entirely read-side: it
    observes completed results and the {!Live} board, it never feeds
    anything back into a job — -j1 ≡ -jN signatures and replay
    fingerprints are byte-identical with telemetry on or off. *)

type telemetry = {
  te_seq : int;  (** 1-based snapshot sequence number *)
  te_wall_s : float;  (** since campaign start *)
  te_done : int;
  te_total : int;
  te_cached : int;
  te_cache_skipped : int;
  te_last_label : string;  (** most recently completed job; [""] if none *)
  te_rate_jobs_per_s : float;
  te_events_per_s : float;
      (** cumulative [sched.events] + [rt.events] per wall second *)
  te_gc_minor_words : float;
      (** summed over completed jobs (sampled per job on its worker
          domain); cache hits allocate nothing *)
  te_gc_promoted_words : float;
  te_counters : Metrics.t;
      (** cumulative [sched.*]/[net.*]/[fault.*]/[rt.*]/[obs.*] counters
          of completed jobs merged with the {!Live} board *)
  te_delta : Metrics.t;  (** since the previous snapshot ({!Metrics.delta}) *)
}

val telemetry_json : telemetry -> Json.t
(** The wire rendering used by the daemon's [telemetry] frames. *)

(** Ambient publish-only board for mid-run signals from inside job
    bodies (e.g. rt nodes pushing accrual phi while a single long job
    runs).  Enabled by {!run} only when a telemetry consumer is
    attached; publishing when inactive is one boolean read.  Nothing
    ever reads the board except telemetry snapshots, so publishing
    cannot perturb results. *)
module Live : sig
  val is_active : unit -> bool
  val set_gauge : string -> float -> unit
  val incr : ?by:int -> string -> unit

  val snapshot : unit -> Metrics.t
  (** Copy of the current board (empty when inactive). *)

  val enable : unit -> unit
  (** Reset and activate; {!run} manages this around telemetried
      campaigns — call it directly only in tests. *)

  val disable : unit -> unit
end

(** {1 Result cache}

    Content-addressed store under [_results/cache/] (sharded
    [ab/<hex>.json], atomic tmp+rename writes).  Keys are opaque hex
    digests over everything a job's outcome depends on — code
    fingerprint, protocol, canonical params, seed, fault spec, backend;
    [Core.Job] derives them.  The stored value is the
    interleaving-independent part of the result (no wall clock), so a
    warm campaign's {!signature} is byte-identical to the cold one. *)

module Cache : sig
  type t

  val default_dir : string
  (** [_results/cache] *)

  val create : ?dir:string -> unit -> t
  (** Creates [dir] (and parents) if missing. *)

  val dir : t -> string

  val key : parts:string list -> string
  (** MD5 hex over the NUL-joined parts; order-sensitive. *)

  val job_key : fingerprint:string -> kind:string -> string list -> string
  (** The key of one job: {!key} over the schema version, the code
      [fingerprint], the job [kind] (["run"], ["chaos"], ["explore"])
      and the job's own parts (label, canonical params, …). *)

  val find : t -> string -> result option
  (** [None] on absent, unreadable, or malformed entries (all counted
      as misses).  Entries carry a content checksum; a truncated,
      garbage, or checksum-mismatched entry is additionally counted via
      {!corrupt} and unlinked so the slot heals on the next store —
      corruption is never an exception.  Loaded results have
      [r_wall_s = 0.]. *)

  val store : t -> string -> result -> unit
  (** Atomic (tmp + rename); safe from concurrent worker domains.
      Entries are written with a content checksum over the minified
      payload.  A failed write is counted via {!write_failed} (and the
      temp file removed) rather than raised — the job's result is
      already in hand, only reuse is lost. *)

  val hits : t -> int
  val misses : t -> int
  val stores : t -> int

  val corrupt : t -> int
  (** Corrupt entries detected (and unlinked) by {!find}; each is also
      counted as a miss. *)

  val write_failed : t -> int
  (** Stores that failed with a filesystem error. *)

  val reset_stats : t -> unit
end

(** {1 Running} *)

val default_jobs : unit -> int
(** [BENCH_JOBS] env var if set, else [Domain.recommended_domain_count].
    Never below 1. *)

val poll : unit -> bool
(** The poll of the job executing on this domain; always [false] outside
    {!run}'s jobs.  Long job bodies call it now and then — [Protocol.run]
    every 4096 simulated events, [Explore.dfs] between executions — and
    stop early once it returns [true].  Each call may emit a rate-limited
    telemetry frame, then checks {!run}'s [stop] hook. *)

val run :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?on_progress:(progress -> unit) ->
  ?on_telemetry:(telemetry -> unit) ->
  ?stop:(unit -> bool) ->
  exp:string ->
  job list ->
  campaign
(** Execute every job and merge results in canonical order.  [jobs]
    (default {!default_jobs}) is the worker-domain count, the calling
    domain included; [jobs = 1] runs inline on the calling domain.  A
    job that raises is captured as a failed result ([r_error]), never
    aborting the campaign.  The returned campaign is the only record of
    its results: [run] keeps nothing once it returns, so a long-lived
    caller (the serve daemon) does not grow with every campaign.

    With [cache], jobs whose [key] is found are resolved up front, in
    job order, without executing ([pr_cached = true] in progress
    events); misses execute and are stored on success (jobs that raised
    are never cached).  With [on_progress], the callback fires once per
    completed job — possibly from a worker domain, serialized under an
    internal lock, in completion (not canonical) order.  With [stop],
    the predicate is checked before each job starts and by every running
    job's {!poll}, possibly from worker domains; once it returns [true],
    no further jobs start and a job whose poll saw it is discarded —
    neither cached nor reported ([c_cancelled = true]).  Completed slots
    are kept: [c_results] then holds fewer rows than were submitted,
    still in canonical order.

    With [on_telemetry], a {!telemetry} snapshot is delivered at the
    campaign's start, at job completions and from job polls, at most one
    per 0.25 s, plus one final snapshot, serialized under the same lock
    as [on_progress]; the {!Live} board
    is enabled for the campaign's duration.  No domain is spawned for
    telemetry: [jobs = 1], or a one-job campaign, runs entirely on the
    calling domain.  Telemetry is read-only — results, signatures and
    replay fingerprints are byte-identical with it on or off. *)

val failures : campaign -> result list

val signature : campaign -> string
(** Canonical rendering of everything interleaving-independent (labels,
    seeds, verdicts, notes, metrics, rows, errors — {e not} wall-clock
    fields).  Equal signatures at [-j 1] and [-j N] is the determinism
    contract. *)

val rows : campaign -> string list
(** The non-empty pre-rendered rows, in canonical order. *)

val metric_summaries : campaign -> (string * Stats.summary) list
(** Per-metric aggregates over all jobs that reported the metric, in
    order of first appearance.  Metrics with zero samples are dropped
    (via [Stats.summarize_opt]). *)

val metric_histograms : campaign -> Metrics.t
(** One fixed-bucket histogram per metric: per-result registries merged
    in canonical job order ([Metrics.merge] is associative/commutative,
    so the result is identical for [-j 1] and [-j N]).  Rendered into
    {!campaign_json} under ["histograms"] with p50/p90/p95/p99
    estimates per metric. *)

(** {1 JSON artifacts} *)

val result_json : ?timing:bool -> result -> Json.t
(** One result as an artifact object; [~timing:false] (default [true])
    drops the wall-clock field — the cache/signature form. *)

val result_of_json : Json.t -> result option
(** Inverse of [result_json ~timing:false] (plus the ["exp"] field as
    written in cache entries); [r_wall_s] loads as [0.]. *)

val campaign_json : campaign -> Json.t

val write_artifact : ?dir:string -> campaign -> string
(** Write [<dir>/BENCH_<exp>.json] (default dir [_results], created if
    missing) and return the path. *)

val failure_json : result -> Json.t
(** The triage record: experiment, label, seed, params, notes, error,
    and the replay command. *)

val write_failures : ?dir:string -> result list -> string
(** Write [results] in order to [<dir>/failures.json] (default
    [_results], created if missing) as triage records and return the
    path: the one writer of the triage file.  With no results the file
    is still written (an empty list), so a previous run's failures never
    linger. *)

(** {1 Triage sink}

    The bench harness's collector: each experiment hands its campaigns
    to {!note_campaign}, and the harness reports every failing seed at
    the end without threading campaign values through each experiment.
    {!run} never feeds it.  Only failing results are kept. *)

val note_campaign : campaign -> unit
(** Append the campaign's failing results to the sink. *)

val reset_sink : unit -> unit

val flush_failures : ?dir:string -> unit -> int
(** {!write_failures} of every result noted since start (or the last
    [reset_sink]), campaigns in the order they were noted, and return
    the failure count. *)
