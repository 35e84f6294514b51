(** Campaign-shaped schedule exploration.

    Wraps {!Explore} (the protocol-blind search kernel) and {!Protocol}
    (the registry) into {!Setagree_runner.Runner} jobs so an exploration
    shards across domains with the engine's determinism contract:

    - the search frontier is split by {e first-deviation point} — one job
      per choice point of the default execution that has unpruned
      alternatives, plus one job for the all-defaults run and one per
      batch of random walks.  Subtrees are disjoint and each job is
      self-contained (it re-derives its roots from a fresh instance), so
      jobs run on any domain in any order;
    - jobs are submitted in canonical order (base, points ascending, walk
      batches) and results merge in that order, so [-j 1] and [-j N]
      produce identical signatures and identical counterexample lists;
    - every violating execution is shrunk in-job (delta debugging) and
      shipped as a serialized {!Schedule.t} in the result's [extra]
      payload — no timing, interleaving-independent. *)

open Setagree_dsys
open Setagree_runner

type bounds = {
  depth : int;  (** choice points eligible for branching per run *)
  delays : int;  (** max deviations from FIFO per execution *)
  walks : int;  (** random walks (0 = DFS only) *)
  p_deviate : float;  (** per-point reorder probability (walks) *)
  p_crash : float;  (** per-point crash probability (walks) *)
  max_runs_per_job : int;  (** DFS execution budget per point job *)
  walk_batch : int;  (** walks per job *)
  shrink_budget : int;  (** shrink trial runs per counterexample *)
}

val default_bounds : bounds

val bounds_to_json : bounds -> (string * Setagree_util.Json.t) list
(** Fixed field order — the canonical form feeds exploration cache
    keys and [Job] specs. *)

val bounds_of_json : (string * Setagree_util.Json.t) list -> (bounds, string) result
(** Inverse of {!bounds_to_json}: a missing field takes its
    {!default_bounds} value, one of the wrong JSON type is an error
    naming the field. *)

val schedule_of :
  protocol:string ->
  p:Protocol.params ->
  Schedule.choice list * string list ->
  Schedule.t

val jobs :
  fingerprint:(string -> string) ->
  protocol:string ->
  Protocol.params ->
  bounds ->
  Runner.job list
(** The canonical job list (see above), under experiment name
    ["explore"]; [Job.execute] runs it.  Runs one sequential probe
    execution to discover branchable points.  Raises [Invalid_argument]
    on an unknown protocol name.  [fingerprint] (protocol name → code
    fingerprint) feeds each job's result-cache key, which covers the
    protocol fingerprint, params, bounds and subtree label. *)

val counterexamples : Runner.campaign -> Schedule.t list
(** All counterexamples of the campaign, in canonical result order,
    deduplicated by serialized content. *)

val write_counterexamples :
  ?dir:string -> protocol:string -> Schedule.t list -> string
(** Write [<dir>/counterexamples.json] (default [_results]) and return
    the path.  The artifact carries no timing, so it is byte-identical
    across worker counts. *)

val load_counterexamples : string -> ((Schedule.t, string) result list, string) result
(** Read a [counterexamples.json] artifact {e or} a bare schedule file
    (a single [Schedule.to_json] object): every record in file order,
    each decoded or the reason it does not decode, so the [i]-th element
    is the file's [i]-th record. *)

val replay : Schedule.t -> (Explore.exec * bool, string) result
(** Re-execute a schedule: protocol from the registry, params from the
    schedule (its crash spec wins), choices replayed verbatim.  The
    boolean is [true] iff the replay exhibits exactly the recorded
    violation notes. *)
