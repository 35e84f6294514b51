(** Unified protocol API.

    Every runnable artifact of the reproduction — the k-set agreement
    algorithm, the ◇S-based consensus baseline, the two-wheels and Ψ-chain
    transformations, the generic reduction pipelines, the Figure 9
    strengthening and the heartbeat-implemented detectors — is exposed
    behind one module type {!S} and a by-name {!registry}.  This is the
    one place each paper stack is wired: the CLI
    ([fdkit run/campaign/explore/replay]), the daemon and the bench
    harness all run it through {!Job.execute} or {!run}.

    A protocol takes the flat {!params} record (unused fields are simply
    ignored by a given protocol), installs itself on a fresh simulator,
    and exposes a stop condition, a full-run checker, a {e safety-only}
    violation predicate (meaningful on partial runs — what {!Explore}
    hunts), and metrics. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd

type params = {
  n : int;
  t : int;
  seed : int;
  z : int;  (** Ω_z width (kset, impl) *)
  k : int;  (** agreement degree checked (kset) *)
  x : int;  (** ◇S_x scope (wheels, reduce, strengthen) *)
  y : int;  (** ◇φ_y / Ψ_y strength (wheels, psi, reduce, strengthen, impl) *)
  gst : float;  (** oracle (impl: network) stabilization time; 0 = perfect *)
  horizon : float;  (** virtual-time budget; 0 = the protocol's hint *)
  crashes : Crash.spec;
  faults : Faults.t;
      (** the unified fault spec: link faults, partitions, stalls, extra
          crashes, and the oracle adversary strategy.  [Faults.none] (the
          default) reproduces historical behaviour exactly; the adversary
          name feeds [Behavior.of_adversary] against [gst]. *)
  adversarial : bool;
      (** kset: constant Ω_z trusted set + [By_pid] tie-break — the E2
          mis-use configuration the explorer attacks (z > k violates);
          reduce/wheels: the [By_pid] tie-break *)
  variant : string;
      (** one of {!S.variants}: reduce's source class, strengthen's
          classes and substrate, impl's certificate *)
  trace : string;
      (** trace level: ["off"], ["default"] or ["full"] ([Job.validate]
          refuses other strings; {!run} reads them as ["default"]).  Pure
          observability — the level never changes the execution. *)
  backend : string;
      (** execution substrate, one of [Job.backends]: ["sim"] (the
          deterministic simulator — default), ["rt"] (real OCaml-5 domains
          over UDP loopback, see [Setagree_rt]) or ["rt-chan"] (the same
          over in-process channels).  {!run} itself always simulates; the
          CLI and bench dispatch on this field. *)
}

val default : params

val params_to_json : params -> (string * Json.t) list
val params_of_json : (string * Json.t) list -> params
(** Tolerant inverse of {!params_to_json}: missing or ill-typed fields
    fall back to {!default} — a schedule file only needs the fields its
    protocol reads. *)

module type S = sig
  type t

  val name : string

  val horizon_hint : float
  (** Default virtual-time budget when [params.horizon = 0]. *)

  val variants : string list
  (** The [params.variant]s its one table holds, the default (["es"])
      first; [[]] when it reads no variant. *)

  val validate : params -> string list
  (** Why {!install} would refuse [params] (a variant from {!variants}):
      one message per out-of-range field it reads, with the ranges of the
      constructors that raise on them.  Theorem preconditions (z <= k,
      x + y >= t + 1, ...) are not refused; n and t are
      {!Sim.check_size}'s. *)

  val degree : params -> int option
  (** The agreement degree [check] and [violation] hold the decisions
      to under [params] (a variant from {!variants}): [k] for kset, 1
      for consensus, the z of the Ω_z each reduce variant builds
      ([t + 2 − x − y] for the wheels), [z] for impl's kset.  [None]
      for the detector stacks, whose whole output is the detector
      history.  The rt backend checks its pooled decisions against
      it. *)

  val install : Sim.t -> params -> t
  (** Wire the protocol (and the oracles it consumes) onto the simulator.
      Call before [Sim.run]. *)

  val stop : t -> unit -> bool
  (** Early-stop condition for [Sim.run] (e.g. all correct decided). *)

  val check : t -> Check.verdict
  (** Full-run verdict, including liveness (termination, eventual
      leadership); evaluate after the run. *)

  val violation : t -> string list
  (** Safety-only violations exhibited so far ([[]] = none) — valid on a
      partial run, hence usable as {!Explore}'s predicate.  Liveness-only
      protocols return [[]]. *)

  val metrics : t -> (string * float) list
end

type packed = (module S)

val registry : (string * packed) list
val find : string -> packed option
val names : unit -> string list

(** {1 Running} *)

type report = {
  rp_sim : Sim.t;
  rp_outcome : Sim.outcome;
  rp_verdict : Check.verdict;
  rp_violations : string list;
      (** safety-only violations ([S.violation]) — unlike [rp_verdict],
          meaningful even on runs whose fault windows never healed, so
          the chaos campaign asserts it on {e every} run *)
  rp_metrics : (string * float) list;
      (** the protocol's metrics, plus trace-derived observability
          metrics ([obs.*], see {!run}), fault-layer counters
          ([fault.*], [net.retransmits], [net.backoff_resets]; omitted
          when zero), plus latency and scheduler counters *)
}

val fault_counters : string list
(** The fault-layer trace counters [rp_metrics] reports when nonzero. *)

val run : packed -> params -> report
(** Build a simulator from [params] (seeded crash generation under the
    ["crash"] RNG split, as the CLI always did), install, run to the stop
    condition, check.  Inside a {!Setagree_runner.Runner} job the run also
    stops once {!Setagree_runner.Runner.poll} (consulted every 4096
    events) returns [true]; the runner then discards the report.  The
    simulator is {!Sim.release}d before [run] returns: [rp_sim]'s trace and
    counters stay readable, but it cannot run again.

    Unless [params.trace = "off"], [rp_metrics] additionally carries
    metrics derived from the trace in a single forward pass:
    [obs.rounds_to_decide] and [obs.msgs_per_decision] (protocols that
    decide), [obs.omega_stab_time] / [obs.omega_stab_round] (last
    observed Ω output change, and the protocol round containing it when
    round spans exist), and [obs.es_stab_time] (◇S_x scope-convergence
    instant). *)

val explore_make : packed -> params -> unit -> Explore.instance
(** Instance factory for {!Explore}: every call builds a fresh simulator
    and installation, so controlled runs are independent and
    deterministic in [(params, choices)].  All [n] processes are offered
    as crashable; the explorer enforces the resilience budget. *)

val proposals_of : params -> int array
(** The canonical proposal vector every runner uses: process [i]
    proposes [100 + i] — distinct per process, so agreement degrees are
    sharp. *)

val kset_safety :
  k:int -> proposals:int array -> (Pid.t * int * int * float) list -> string list
(** The safety-only fragment of {!Check.k_set_agreement} (validity,
    agreement, single-decision — no termination), shared by the kset-like
    protocols' [violation]. *)
