(** Chaos campaigns: sweep fault mixes × seeds over registered
    protocols, asserting safety on {e every} run and liveness on every
    run whose faults heal before the horizon.

    Each job of the sweep builds a {!Protocol.params} from a named
    {e fault mix} (a [Faults.t] template instantiated for the system
    size), runs the protocol, and checks two things:

    - {b safety always}: [rp_violations = []] no matter what the faults
      did — dropping, partitioning, stalling and adversarial oracles may
      delay decisions but must never produce contradictory ones;
    - {b liveness after heal}: when the spec's fault windows close
      before the virtual-time horizon (all built-in mixes do, and the
      campaign widens the horizon past {!Setagree_dsys.Faults.heal_time}),
      the full verdict — including termination — must hold.

    A failing run is minimized on the spot: {!Setagree_dsys.Explore.ddmin}
    drops fault atoms ({!Setagree_dsys.Faults.elements}) while the
    failure persists, and the shrunken spec is recorded as a replayable
    counterexample ([_results/chaos_failures.json], one [fdkit replay
    --faults ... --index i] command per record).  Deliberately illegal
    specs never run at all: {!Setagree_dsys.Faults.legal} rejects them
    and {!minimize_illegal} shrinks them to the offending atoms — same
    artifact, [kind = "illegal"]. *)

open Setagree_dsys
open Setagree_runner

(** {1 Fault mixes} *)

val mixes : (string * (n:int -> t:int -> Faults.t)) list
(** The built-in sweep dimensions: ["none"] (fault-free control),
    ["drop"], ["dup_reorder"], ["inflate"] (link faults), ["partition"]
    (half/half split with a heal), ["stalls"] (two frozen-then-resumed
    processes), ["rotating"] / ["slander"] (legal adversary oracles),
    and ["combo"] (link faults + partition + stall + a crash + the
    late-stabilizing adversary).  Every mix is legal and heals. *)

val mix_names : string list
val find_mix : string -> (n:int -> t:int -> Faults.t) option
val default_protocols : string list
(** [["kset"; "consensus_s"; "wheels"]]. *)

(** {1 Failures} *)

type kind = Safety | Liveness | Illegal

val kind_to_string : kind -> string

type failure = {
  f_protocol : string;
  f_mix : string;
  f_kind : kind;
  f_notes : string list;
  f_params : Protocol.params;
      (** the failing configuration; [f_params.faults] is already the
          ddmin-minimized spec *)
}

val minimize_failure : Protocol.packed -> Protocol.params -> kind:kind -> Faults.t
(** Shrink [params.faults] by re-running the protocol on sub-specs
    (atoms dropped) while the failure of the given kind persists.
    Candidates that stop being legal are never accepted. *)

val minimize_illegal : n:int -> t:int -> Faults.t -> Faults.t option
(** [Some shrunk] when the spec is illegal: the smallest atom subset
    {!Setagree_dsys.Faults.legal} still rejects.  [None] if the spec is
    legal (nothing to catch). *)

val reproduce : failure -> (bool * string list) option
(** Deterministically re-run a recorded failure: [Some (reproduced,
    notes)], or [None] when the protocol name is unknown.  [Illegal]
    records re-check legality instead of running. *)

(** {1 Campaigns} *)

type outcome = {
  o_campaign : Runner.campaign;
  o_runs : int;
  o_safety : int;  (** runs with safety violations (must be 0) *)
  o_liveness : int;  (** healed runs that failed to decide *)
  o_failures : failure list;  (** minimized, canonical job order *)
}

val jobs :
  fingerprint:(string -> string) ->
  protocols:string list ->
  mixes:string list ->
  seeds:int ->
  Protocol.params ->
  Runner.job list
(** The sweep [protocols × mixes × seeds 1..seeds], in that order, under
    experiment name ["chaos"]; mixes run in {!mixes} order and unknown
    protocol or mix names are skipped.  The base params supply n, t, gst
    and sizing; each job overrides [seed] and [faults] and widens
    [horizon] beyond the mix's heal time.  Minimization happens inside
    the failing job, so the campaign is deterministic in its arguments
    regardless of the worker count.  [fingerprint] (protocol name →
    code fingerprint) feeds each job's result-cache key.  [Job.execute]
    runs the list. *)

val outcome : Runner.campaign -> outcome
(** Fold a campaign of {!jobs} into its safety and liveness counts and
    its minimized failures. *)

(** {1 Artifacts} *)

val write_failures : ?dir:string -> failure list -> string
(** Write [<dir>/chaos_failures.json] (always, even when empty — a
    previous run's counterexamples never linger) and return the path.
    Each record carries the ready-to-paste
    [fdkit replay --faults <dir>/chaos_failures.json --index i] command,
    naming the file written. *)

val load_failures : string -> (failure list, string) result
