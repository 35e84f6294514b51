(** Adversarial schedule exploration.

    The explorer drives a {!Sim} chooser over a protocol-blind
    {!instance}: at every event boundary with pending deliveries (a
    {e choice point}) the adversary picks which message to deliver next
    or injects a crash.  An execution is then fully determined by the
    instance's construction parameters plus the {!Schedule.choice} list,
    so any violating run replays exactly and can be minimized by
    delta debugging.

    Two search modes:
    - {!dfs} — depth- and delay-bounded systematic search with a
      sleep-set-style reduction: a pending delivery is only reordered
      ahead of earlier ones when it overtakes a delivery to the {e same}
      destination (cross-destination deliveries commute), and crashes are
      only branched where they can change the next step.
    - {!random_walk} — seeded guided random walks for instances too large
      to enumerate; every walk records its choices and is replayable.

    All functions rebuild the instance from scratch via [make], so runs
    are independent and a fixed [(make, choices)] pair is deterministic. *)

open Setagree_util

type instance = {
  i_sim : Sim.t;
  i_stop : unit -> bool;  (** stop the run early (e.g. all decided) *)
  i_violation : unit -> string list;
      (** safety-only verdict on the (possibly partial) run; [[]] = none *)
  i_crashable : Pid.t list;  (** processes the adversary may crash *)
}

type options = {
  o_deliveries : (Pid.t * Pid.t) array;
      (** (src, dst) of each pending delivery, canonical order *)
  o_crashes : Pid.t list;  (** crash candidates still within budget *)
}

type exec = {
  ex_choices : Schedule.choice list;
      (** normalized choice made at every point — replays identically *)
  ex_options : options array;  (** options seen at the first [depth] points *)
  ex_points : int;
  ex_violation : string list;
  ex_outcome : Sim.outcome;
}

type stats = {
  mutable runs : int;
  mutable points : int;
  mutable prunes : int;  (** commuting delivery branches skipped *)
  mutable violations : int;
  mutable shrink_runs : int;
}

val new_stats : unit -> stats
val stats_metrics : stats -> (string * float) list

val run_schedule :
  make:(unit -> instance) -> ?depth:int -> Schedule.choice list -> exec
(** Run one controlled execution.  Choices are consumed one per choice
    point; when the list is exhausted the run continues under the default
    FIFO policy ([Deliver 0]).  Out-of-range delivery indices are clamped
    and ineligible crashes degrade to the default, so every choice list
    is valid.  [depth] (default 0) bounds how many points record their
    {!options} for branching.  The execution's simulator is
    {!Sim.release}d before this returns: its trace stays readable, but it
    cannot run again. *)

val random_walk :
  make:(unit -> instance) ->
  seed:int ->
  ?depth:int ->
  ?p_deviate:float ->
  ?p_crash:float ->
  unit ->
  exec
(** One seeded random walk: at each point, crash a random candidate with
    probability [p_crash], otherwise deviate from FIFO with probability
    [p_deviate].  Deterministic in [(make, seed)]; the recorded
    [ex_choices] replay it exactly. *)

val deviations : Schedule.choice list -> int
(** Number of non-default choices (reorderings and crashes). *)

val alternatives_at : stats -> exec -> int -> Schedule.choice list list
(** Branch prefixes deviating from [exec] first at point [q]: each is
    [exec]'s executed choices before [q] followed by one alternative
    (non-commuting delivery or eligible crash).  Commuting deliveries are
    counted in [stats.prunes] and skipped.  Empty if [q] is beyond the
    recorded depth. *)

val dfs :
  make:(unit -> instance) ->
  stats:stats ->
  ?depth:int ->
  ?delays:int ->
  ?max_runs:int ->
  ?poll:(unit -> bool) ->
  Schedule.choice list list ->
  (Schedule.choice list * string list) list
(** Systematic search from the given root prefixes.  Expands each
    non-violating run at points at or after its prefix (first-deviation
    discipline, so distinct roots explore disjoint subtrees), up to
    [delays] total deviations per run and [depth] points per run, and
    never expands below a violating run.  Returns (prefix, violation)
    pairs in discovery order; stops after [max_runs] executions, or
    early once [poll] (called before each execution; default never)
    returns [true]. *)

val ddmin : test:('a list -> bool) -> ?budget:int -> 'a list -> 'a list
(** Generic greedy delta debugging over a list of atoms: drop chunks of
    halving sizes (down to single atoms) while [test] keeps holding on
    the candidate, calling [test] at most [budget] times (default
    unbounded).  [test] must hold on the full input; the result is a
    sublist on which it still holds (the empty list if it holds there).
    This is the chunk-removal core of {!shrink}, exposed for minimizing
    other atom lists — the chaos campaign uses it over
    [Faults.elements] to minimize failing fault specifications. *)

val shrink :
  make:(unit -> instance) ->
  stats:stats ->
  ?budget:int ->
  Schedule.choice list * string list ->
  Schedule.choice list * string list
(** Greedy delta debugging of a violating choice list: chunk-removal
    passes with halving chunk sizes, then per-choice normalization back
    to the default, then a final single-choice pass — re-running the
    schedule after each candidate edit and keeping it only if the
    violation survives.  At most [budget] trial runs, plus one confirming
    run of the result.  The returned pair always violates. *)

val default_exec : make:(unit -> instance) -> stats:stats -> depth:int -> exec
(** The all-defaults (FIFO, no injected crashes) controlled run, with
    options recorded to [depth] — the root of a {!dfs}. *)
