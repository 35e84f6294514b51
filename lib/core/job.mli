(** The unified job API (DESIGN.md §11).

    One serializable [spec] describes everything fdkit can execute — a
    single protocol run, a seed-sweep campaign, a chaos campaign, a
    schedule exploration, or a counterexample replay.  The CLI
    subcommands elaborate their flags into a spec ({!of_flags}), the
    [fdkit serve] daemon receives specs as JSON frames over its socket
    ({!of_json}), and both execute through {!execute} and write the
    outcome through {!write_artifacts} — so a campaign launched either
    way produces byte-identical artifacts, triage files included, and
    shares one content-addressed result cache.

    {!canonical} is the stability contract: minified JSON with a fixed
    field order, pinned by tests.  Cache keys are derived from it plus
    the per-protocol code fingerprint, so "same spec under the same
    code" and "same cache entry" coincide by construction. *)

open Setagree_util
open Setagree_dsys
open Setagree_runner

type source = Schedule_file | Faults_file

type spec =
  | Run of { protocol : string; params : Protocol.params }
  | Campaign of { protocol : string; seeds : int; params : Protocol.params }
      (** sweep seeds [1..seeds], each job overriding [params.seed] *)
  | Chaos of {
      protocols : string list;
      mixes : string list;
      seeds : int;
      base : Protocol.params;
    }
  | Explore of {
      protocol : string;
      params : Protocol.params;
      bounds : Explorer.bounds;
    }
  | Replay of { source : source; path : string; index : int }

val kind : spec -> string
(** ["run" | "campaign" | "chaos" | "explore" | "replay"]. *)

val summary : spec -> string
(** One-line human description (daemon status listings). *)

(** {1 Serialization} *)

val to_json : spec -> Json.t
(** Fixed field order; [of_json ∘ to_json] is the identity on specs
    produced by {!of_flags} (qcheck-pinned). *)

val of_json : Json.t -> (spec, string) result
(** Tolerant on params/bounds (missing fields default); strict on
    [kind] and the identifying fields (protocol, path). *)

val canonical : spec -> string
(** [to_string ~minify:true ∘ to_json] — the canonical byte encoding;
    stable across sessions (test-pinned) and the basis of cache keys. *)

val equal : spec -> spec -> bool
(** Canonical-encoding equality. *)

val write_spec : dir:string -> name:string -> spec -> string option
(** Persist a spec as [dir/name] in the JSON shape
    [fdkit submit --spec <path>] accepts; returns the path, or [None]
    if the write failed.  Used by the daemon's poison quarantine. *)

(** {1 Flag elaboration} *)

val of_flags :
  ?seeds:int ->
  ?protocols:string list ->
  ?mixes:string list ->
  ?honest:bool ->
  ?bounds:Explorer.bounds ->
  kind:[ `Run | `Campaign | `Chaos | `Explore ] ->
  protocol:string ->
  Protocol.params ->
  spec
(** Elaborate CLI flags into a spec, centralizing the defaults the
    subcommands used to apply ad hoc: campaign [seeds] default 32;
    chaos [protocols]/[mixes] default to the built-in lists and [seeds]
    to 8 (pass [~seeds]); explore turns on the adversarial (mis-use)
    wiring unless [honest] and defaults the horizon to 300.  [protocol]
    is ignored by [`Chaos] (it has [protocols]). *)

val validate : spec -> (unit, string list) result
(** Static checks before running: protocol and mix names against the
    registries, n and t against {!Setagree_dsys.Sim.check_size}, the
    variant against the protocol's {!Protocol.S.variants}, the oracle
    parameters it reads against {!Protocol.S.validate} (for a chaos
    spec, every swept protocol's), fault-spec legality, the backend
    against {!backends} and the trace level against
    [Trace.level_of_string]; for a replay,
    that the file exists and loads, the index is in range and the
    recorded protocol is registered, with the messages [fdkit replay]
    prints. *)

(** {1 Execution} *)

val rt_runner : (Protocol.packed -> Protocol.params -> Runner.body) option ref
(** Hook for the real-runtime backend ([backend = "rt"/"rt-chan"]):
    [Setagree_rt] sits above this library, so the CLI installs its
    runner here at startup.  When unset, rt jobs fail with an
    explanatory note.  rt jobs are never cached (wall-clock
    nondeterministic). *)

val backends : string list
(** The [backend] names {!validate} accepts, the default first: ["sim"],
    ["rt"], ["rt-chan"]. *)

val is_rt : string -> bool
(** Whether a [backend] name is a real-runtime one (["rt"], ["rt-chan"]). *)

val replay_command : string -> Protocol.params -> string option
(** The ready-to-paste [fdkit run] command reproducing one job (goes
    into triage records and bench artifacts), naming the backend unless
    ["sim"]; [None] when no command line expresses [params]: a fault spec
    other than [Faults.none], or crashes other than none or [Exactly] in
    the CLI's window [(0, 20)].  Floats print exactly. *)

type outcome = {
  o_spec : spec;
  o_campaign : Runner.campaign;
  o_chaos : Chaos.outcome option;  (** chaos specs only *)
  o_ces : Schedule.t list;  (** explore specs only *)
  o_exit : int;
      (** CLI-convention exit code: 0 ok; 1 failing jobs (liveness for
          chaos); 2 chaos safety violation; 4 cancelled *)
}

val execute :
  ?jobs:int ->
  ?cache:Runner.Cache.t ->
  ?fingerprint:(string -> string) ->
  ?on_progress:(Runner.progress -> unit) ->
  ?on_telemetry:(Runner.telemetry -> unit) ->
  ?stop:(unit -> bool) ->
  spec ->
  outcome
(** Run a validated spec through the campaign engine: the only code that
    turns a spec into a {!Runner.run} call.  [fingerprint] (default
    {!Fingerprint.protocol}) keys the cache per protocol — override it
    only to test invalidation.  [Run] executes as a 1-job campaign;
    [Replay] as an unkeyed 1-job campaign, never cached, whose job
    succeeds iff the recorded violation reproduces and whose row is the
    report [fdkit replay] prints.  Raises [Invalid_argument] on an
    unknown protocol — call {!validate} first. *)

val write_artifacts : dir:string -> outcome -> ((string * string) option, string) result
(** Write the files of the outcome's kind into [dir] (created if
    missing) and return their paths, [(artifact, triage file)]; the
    one artifact writer of fdkit and the daemon.  A campaign writes
    [BENCH_<protocol>.json] and [failures.json], one triage record per
    failing result of this campaign ({!Runner.write_failures}); a chaos
    spec [BENCH_chaos.json] and [chaos_failures.json]; an exploration
    [BENCH_explore.json] and [counterexamples.json].  The triage file
    is written even when empty.  Run and Replay write nothing ([None]).  A
    filesystem error is [Error "artifact write failed: ..."]. *)
