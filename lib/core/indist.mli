(** Executable versions of the paper's impossibility arguments (§5).

    An impossibility theorem quantifies over {e all} transformation
    algorithms, which no finite experiment can do; what {e can} be executed
    is the indistinguishability construction each proof rests on, plus the
    refutation of concrete candidate transformations.  Each scenario below
    reproduces one proof's run(s) and reports whether the prediction held:

    - {!phi_blind_to_victims} — Observation O1 (used by Theorems 8, 10,
      11): with f <= t - y crashes, every φ_y / ◇φ_y answer is determined
      by |X| alone, so two runs with different victim sets produce
      {e identical} query histories.
    - {!omega_blind_to_crashes} — the analogous information cap behind
      Theorem 12: one Ω_z history is compatible with many crash patterns.
    - {!thm10_pair} — Theorem 10's two-run construction: a region E that
      crashes in R1 and is merely silent until τ1 in R2, with identical
      failure-detector outputs; any candidate ◇φ_y-builder must answer
      query(E) identically in both, so it violates liveness in R1 or
      (eventual) safety in R2.

    Theorem 5's z <= k tightness needs one run per seed, not a pair: it is
    the registry's kset with [adversarial] set (a constant Ω_z over z live
    processes, the [By_pid] tie-break), swept by bench E2. *)

open Setagree_util

type report = {
  title : string;
  ok : bool;  (** The theorem's prediction was confirmed on this run. *)
  details : string list;
}

val pp_report : Format.formatter -> report -> unit

val phi_blind_to_victims :
  n:int -> t:int -> y:int -> crashes:int -> seed:int -> report
(** Two runs, same seed, [crashes <= t - y] crashes each with disjoint
    victim sets; after stabilization, every subset of Π is queried in both
    runs: all answers must coincide. *)

val omega_blind_to_crashes : n:int -> t:int -> z:int -> seed:int -> report
(** Two runs whose crash patterns differ but whose Ω_z oracle is the same
    function of time (legal in both because the eventual set contains a
    process correct in both): outputs coincide, so Ω_z reveals nothing
    about which processes crashed beyond its eventual set. *)

type phi_candidate = {
  name : string;
  make :
    Setagree_dsys.Sim.t -> Setagree_fd.Iface.suspector -> y:int ->
    Setagree_fd.Iface.querier;
      (** Build a would-be ◇φ_y from a suspector (the transformation under
          refutation). *)
}

val suspicion_candidate : phi_candidate
(** The natural strawman: [query(X) = X ⊆ suspected_i].  (Theorem 10 shows
    every candidate fails; this one fails concretely here.) *)

val thm10_pair :
  n:int -> t:int -> x:int -> y:int -> ?candidate:phi_candidate -> seed:int ->
  unit -> report
(** The R1/R2 construction with E = the last [t - y + 1] processes,
    crash time τ0, observation time τ1. *)

val thm12_pair : n:int -> t:int -> z:int -> y:int -> seed:int -> report
(** Theorem 12's side of the same construction: a legal Ω_z history that
    never changes is used in two runs, one where a region E (|E| = t-y+1,
    disjoint from the trusted set) crashes and one where it does not; the
    natural candidate querier built from the Ω_z output answers query(E)
    identically in both, so it violates ◇φ_y liveness in the crashing run
    or eventual safety in the other. *)

val distinct_decisions : (Pid.t * int * int * float) list -> int
