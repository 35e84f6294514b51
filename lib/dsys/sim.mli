(** Deterministic discrete-event simulator of the asynchronous system
    AS_{n,t} (paper §2.1).

    A simulation owns a virtual clock, an event queue and [n] processes.
    Process code runs as OCaml-5 effect fibers: the paper's [wait until]
    statements map onto {!Cond.await}, and the implicit "a process keeps
    taking steps" assumption onto {!sleep} calls inside loops.  Everything
    is driven by one seeded {!Setagree_util.Rng.t}: two runs with the same
    seed and parameters are identical.

    {b Wakeups are event-driven.}  A blocked fiber subscribes to
    {!cond}itions; substrates (channels, broadcast layers) signal the
    conditions whose observable state they changed, and only then is the
    fiber's predicate re-evaluated.  Predicates with no signal discipline
    (waits that read oracle state derived from the clock) subscribe to the
    {!Cond.poll} condition and are re-evaluated after every event.  An
    engine that re-evaluated every blocked predicate after every event
    produced exactly the same executions; [test/test_sched.ml] checks the
    fingerprints it recorded ([test/engine_fingerprints.jsonl]).

    {b Crash semantics.}  A crash schedule is fixed before the run.  When a
    process crashes, none of its fibers is ever resumed again; events it had
    already scheduled (messages in flight) still fire.  A fiber interrupted
    between two effects never observes its own crash — exactly the "halts
    prematurely, behaves correctly until then" model. *)

open Setagree_util

type t

(** {1 Construction} *)

val check_size : n:int -> t:int -> (unit, string) result
(** {!create}'s precondition on the system size: [2 <= n <=
    Pidset.max_size] and [0 <= t < n].  [Error] names the violated
    bound. *)

val create :
  ?horizon:float ->
  ?max_events:int ->
  ?trace_level:Trace.level ->
  ?local:Pid.t ->
  n:int ->
  t:int ->
  seed:int ->
  unit ->
  t
(** [create ~n ~t ~seed ()] builds a system of [n] processes of which at most
    [t] may crash.  [horizon] (default [1e6]) is the virtual-time limit;
    [max_events] (default [10_000_000]) bounds the run.  [trace_level]
    (default [Trace.Default]) gates what the run records into {!trace}:
    tracing only ever writes to the trace log, so the level cannot change
    the execution (see {!Trace.level}).

    [local] (default [None]) puts the simulator in {e real-runtime} mode:
    it models exactly one process of a distributed deployment.  {!spawn}
    silently discards fibers for any other pid (they take their steps in
    their own domains, each with its own local simulator), and substrates
    route remote-bound sends through the {!set_router} hook instead of
    scheduling a local delivery.  See [Setagree_rt]. *)

val n : t -> int
val t_bound : t -> int
(** The resilience parameter [t] (max number of crashes). *)

val rng : t -> Rng.t
(** The root generator.  Subsystems should [Rng.split_named] it. *)

val trace : t -> Trace.t
val now : t -> float
val horizon : t -> float

val traffic_capacity : t -> int
(** The deliveries two all-to-all rounds put in flight, [2n^2], at most
    2048: the event queue's size from the first time its initial [2n]
    entries (the processes' own timers) fill, the chooser's pending pool
    at its first offer, and the in-flight store a substrate starts
    with. *)

(** {1 Real-runtime mode} *)

val local : t -> Pid.t option
(** [Some pid] iff the simulator models only that process (see {!create}'s
    [local]). *)

val set_router : t -> (tag:string -> src:Pid.t -> dst:Pid.t -> Bytes.t -> unit) -> unit
(** Install the outbound hook for real-runtime mode: substrates hand it
    every send whose destination is not the {!local} pid, as serialized
    bytes keyed by the substrate's tag.  The hook runs synchronously in
    the sending fiber. *)

val router : t -> (tag:string -> src:Pid.t -> dst:Pid.t -> Bytes.t -> unit) option

val register_inlet : t -> tag:string -> (src:Pid.t -> bytes:Bytes.t -> unit) -> unit
(** Register the inbound dispatch for a substrate: the runtime node calls
    the inlet matching an incoming datagram's tag, and the substrate
    decodes and delivers into its local mailboxes.  Raises
    [Invalid_argument] on a duplicate tag — tags identify the decoder, so
    two substrates of one simulator must not share one. *)

val inlet : t -> tag:string -> (src:Pid.t -> bytes:Bytes.t -> unit) option

val advance : t -> upto:float -> int
(** Real-runtime stepping: process every queued event with time <= [upto]
    (clamped to the horizon), then move the clock to [upto] even if no
    event fired, and finish with a scheduler drain so blocked predicates
    are re-evaluated at least once per call.  Returns the number of events
    processed.  The runtime node calls this once per wall-clock tick with
    [upto = elapsed_wall * timescale], slaving virtual time to the wall
    clock; {!run} and [advance] must not be mixed on one simulator. *)

(** {1 Ground truth (for oracles and checkers)} *)

val install_crashes : t -> (Pid.t * float) list -> unit
(** Schedule the given crashes.  Must be called before {!run}.  Raises
    [Invalid_argument] if more than [t] crashes are given. *)

val crash_now : t -> Pid.t -> unit
(** Reactive adversary: crash the process at the current instant (e.g.
    from a watcher fiber, the moment it takes some step).  Counts against
    the resilience bound; raises [Invalid_argument] if a [t+1]-th crash is
    attempted.  No-op on an already-crashed process. *)

val is_crashed : t -> Pid.t -> bool
(** Whether the process has crashed {e at the current virtual time}. *)

val crashed_set : t -> Pidset.t
(** Set of processes crashed at the current virtual time. *)

val crash_time : t -> Pid.t -> float option
(** The time at which the process is {e scheduled} to crash, if any — ground
    truth usable by oracles even before the crash occurs. *)

val correct_set : t -> Pidset.t
(** Processes with no scheduled crash: the correct processes of the run. *)

val alive_at : t -> float -> Pidset.t
(** Processes not crashed at the given time (per the schedule). *)

(** {1 Fault injection}

    Stall semantics: a stalled process is frozen, not crashed.  Sleep
    expiries, wakeups of blocked fibers and message deliveries addressed
    to it are deferred to the end of the stall window, in their original
    scheduling order — so the process resumes exactly where it left off
    and catches up, while heartbeat-style monitors falsely suspect it in
    the meantime.  Ground truth ({!is_crashed}, {!correct_set}, the
    oracles) is unaffected: a stalled process is a correct, slow process
    — legal behavior under asynchrony. *)

val install_stalls : t -> Faults.stall list -> unit
(** Schedule stall windows.  Must be called before {!run}.  Overlapping
    windows for the same process keep the latest end time. *)

val stall_end : t -> Pid.t -> float option
(** [Some end_time] iff the process is currently stalled — substrates
    (e.g. [Net.deliver]) use it to defer deliveries to frozen
    processes. *)

val set_faults : t -> Faults.t -> unit
(** Attach the run's fault specification.  [Sim] itself only stores it
    (and owns the stall windows via {!install_stalls}); the send-path
    effects are evaluated by [Net] against {!faults} on a dedicated rng
    stream. *)

val faults : t -> Faults.t
(** The attached specification; [Faults.none] unless {!set_faults} was
    called. *)

val faults_none : t -> bool
(** [Faults.is_none (faults t)] as a cached bool: the per-send fast-path
    check, with the structural compares paid once in {!set_faults}. *)

(** {1 Conditions} *)

type cond
(** A wakeup channel connecting state changes to blocked fibers. *)

module Cond : sig
  val create : t -> cond
  (** A fresh condition owned by the simulator. *)

  val signal : cond -> unit
  (** Mark the condition signalled.  Fibers blocked in {!await} on it have
      their predicate re-evaluated after the current event (and again after
      each round of same-instant wakeups).  Signalling is cheap and
      idempotent within an event; callers signal unconditionally whenever
      they changed state a predicate might read. *)

  val await : cond list -> (unit -> bool) -> unit
  (** [await conds pred] suspends the calling fiber until [pred ()] holds.
      The predicate is evaluated once immediately, then only when one of
      [conds] has been signalled — so it must depend exclusively on state
      whose writers signal one of [conds] (plus crash/decide state covered
      by the same conditions).  Include [Cond.poll sim] in [conds] for
      predicates that additionally read clock-derived state (oracle
      outputs): those are re-evaluated after every event.  Must be called
      from fiber context; raises [Invalid_argument] on a condition from
      another simulator. *)

  val poll : t -> cond
  (** The built-in condition that subscribes a waiter to every event, for
      predicates with no signal discipline. *)
end

(** {1 Process code (effects)} *)

val spawn : t -> pid:Pid.t -> (unit -> unit) -> unit
(** [spawn t ~pid body] starts a fiber for process [pid].  A process may have
    several fibers (the paper's tasks T1, T2, ...).  The fiber starts at the
    current virtual time and is silently discarded if [pid] is already
    crashed. *)

val sleep : float -> unit
(** Suspend the calling fiber for the given virtual duration.  Must be
    called from fiber context. *)

(** {1 Scheduling primitives (for substrates such as channels)} *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk after the given virtual delay.  Thunks run even if some
    process crashed meanwhile — guard inside if needed. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Run the thunk at an absolute virtual time (>= now). *)

val ticker : t -> every:float -> unit
(** Install heartbeat events up to the horizon so that poll-subscribed
    predicates depending only on the clock (e.g. pull-based oracles) are
    re-evaluated regularly.  A ticker is a single self-re-arming event
    carrying only its period id — zero allocation per tick. *)

(** {2 Batched dispatch (substrate internals)}

    [Net] batches all envelopes bound for one destination mailbox at one
    timestamp into a single event: it registers a dispatcher once, then
    schedules [k_net] events whose integer argument encodes the
    dispatcher id and a row index into the substrate's own flat store.
    A queued event always fires, so the substrate keeps appending rows to
    a batch it scheduled until the dispatcher is called with that batch's
    first row.  Controlled deliveries ({!offer}) name a dispatcher and a
    row the same way.  These hooks are for substrate implementations;
    protocol code never calls them. *)

val register_dispatcher : t -> (int -> unit) -> int
(** Register a dispatch function and return its id.  The function is
    called with the [row] the event (or {!offer}) was scheduled with.  At
    most 64 dispatchers per simulator (the id is packed into 6 bits of
    the event argument); raises [Invalid_argument] beyond that. *)

val schedule_dispatch : t -> time:float -> disp:int -> row:int -> unit
(** Queue a dispatch event at an absolute time (>= now, else
    [Invalid_argument]). *)

(** {1 Choice-point control (schedule exploration)}

    A {e chooser} takes over the simulator's nondeterminism: substrates
    route message deliveries through {!offer} instead of sampling a delay,
    and whenever the run loop reaches an {e event boundary} — no event left
    at the current instant — it asks the chooser what happens next.  The
    chooser either delivers one of the pending messages, injects a crash
    (quantized to the boundary: it takes effect at the current virtual
    time), or passes, letting virtual time advance to the next queued
    event.  Chosen deliveries execute immediately at the current time, so
    an execution is fully determined by [(params, seed, choice list)] —
    the basis of {!Explore}'s replayable schedules.

    The pending deliveries are ints, not closures: each packs a source,
    a destination and a substrate row into one int of a flat array kept
    in offer (canonical) order, so neither an offer nor a pick
    allocates. *)

type decision =
  | Deliver of int
      (** Index into the canonical (offer-ordered) pending deliveries;
          clamped into range, so any index is safe. *)
  | Inject_crash of Pid.t
      (** Crash the process now ({!crash_now} semantics: counts against
          [t], raises past the bound). *)
  | Pass  (** Let virtual time advance to the next queued event. *)

val set_chooser : t -> (t -> int -> decision) -> unit
(** Install the chooser.  From now on {!offer} is legal and the run loop
    consults the chooser at every event boundary with the number of
    pending deliveries (possibly 0).  The chooser reads them through
    {!pending_src} and {!pending_dst}, in place: the simulator keeps them
    in canonical order, appends each {!offer}, removes a delivered entry
    by shifting the later ones down, and compacts when a crash drops
    deliveries, so a choice point copies nothing. *)

val pending_src : t -> int -> Pid.t
(** [pending_src t i] is the sender of the [i]-th pending delivery in
    canonical order, for [0 <= i < pending_deliveries t] — what
    [Deliver i] would fire.  Raises [Invalid_argument] out of that
    range. *)

val pending_dst : t -> int -> Pid.t
(** The destination of the [i]-th pending delivery; as {!pending_src}. *)

val clear_chooser : t -> unit

val controlled : t -> bool
(** Whether a chooser is installed — substrates test this to decide
    between sampling a delay and calling {!offer}. *)

val offer : t -> src:Pid.t -> dst:Pid.t -> disp:int -> row:int -> unit
(** Hand a delivery to the chooser instead of scheduling it: when (and
    if) the chooser picks it, dispatcher [disp] ({!register_dispatcher})
    is called with [row], exactly as a [k_net] event would call it.  A
    crash drops the pending deliveries to the crashed process (a message
    to a dead process is indistinguishable from a lost one) and hands
    their rows back: each one's dispatcher is still called, once, at the
    crash and after the destination is marked crashed, so a substrate
    that drops deliveries to crashed processes just frees the row.
    Raises [Invalid_argument] if no chooser is installed. *)

val pending_deliveries : t -> int
(** The number of deliveries waiting for the chooser. *)

(** {1 Running} *)

type stop_reason = Quiescent | Horizon | Budget | Stopped

type outcome = { reason : stop_reason; events : int; end_time : float }

val run : ?stop_when:(unit -> bool) -> t -> outcome
(** Process events in (time, seq) order until the queue empties
    ([Quiescent]), the horizon or event budget is hit, or [stop_when]
    becomes true (checked after each event).  On return the scheduler
    counters are flushed into {!trace} under [sched.pred_evals],
    [sched.signals], [sched.wakeups] and [sched.events]. *)

val release : t -> unit
(** Discontinue every fiber still suspended after a run: blocked on a
    condition, sleeping past the horizon, parked by a stall, or belonging
    to a crashed process.  Each fiber is discontinued exactly once, and a
    second call does nothing.  It exists because OCaml 5.1 never frees the
    stack of a continuation that is dropped without being resumed or
    discontinued, so a process that runs many simulations (the daemon, a
    campaign) would otherwise grow with every run.  The trace, the
    counters and the processes' state stay readable; a released simulator
    must not run again ({!run} and {!advance} raise [Invalid_argument]). *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit

(** {1 Scheduler observability} *)

val pred_evals : t -> int
(** Blocked-predicate evaluations so far (including the immediate check at
    block time). *)

val cond_signals : t -> int
(** {!Cond.signal} calls so far. *)

val wakeups : t -> int
(** Fibers resumed from a blocked wait so far. *)
