(** Point-to-point asynchronous reliable channels (paper §2.1).

    Channels connect every pair of processes; they do not create, alter or
    lose messages, and are {e not} FIFO — each message gets an independent
    delay.  A message sent to a process that has crashed by delivery time is
    dropped (equivalently: delivered to a dead process).

    One ['m t] carries one protocol's message type; layered protocols (e.g.
    the two wheels under a k-set agreement) each create their own network
    over the same simulator, mirroring the paper's module structure.

    A delivery carries what the paper's channels carry: a sender, a
    destination and a content ({!envelope}).  Protocols observe it in
    two ways: {!on_deliver} handlers (the paper's "when m is delivered"
    tasks), and, when a {!create}-time [classify] function maps payloads
    to integer keys, a per-(destination, key) index maintained at
    delivery time — {!keyed_senders}, {!keyed_nsenders} and
    {!keyed_fold} are O(1)/O(matches) lookups, never mailbox rescans.
    Every delivery to [dst] signals {!cond}[ t dst], which is what
    {!Setagree_dsys.Sim.Cond.await} predicates over this network
    subscribe to. *)

open Setagree_util
open Setagree_dsys

type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }
(** One delivered message.  Its delivery time is the handler's
    [Sim.now]. *)

type 'm t

val create :
  Sim.t ->
  ?tag:string ->
  ?delay:Delay.t ->
  ?retain:bool ->
  ?classify:('m -> int) ->
  ?loss:float ->
  unit ->
  'm t
(** [create sim ~tag ~delay ()] — [tag] names the protocol in traces and
    counters (default ["net"]); [delay] defaults to {!Delay.default}.
    Delay draws come from an RNG split off the simulator's root with the
    tag as key, so adding another network does not perturb this one.
    [retain] (default false): also keep every delivered envelope in a
    per-destination mailbox for {!inbox}.  Without it, what a long run
    keeps is bounded by the keyed index's live rounds ({!keyed_drop}).
    [classify]: map each payload to an integer key maintained in the
    per-(destination, key) delivery index — the protocol's round/phase
    structure, typically.
    [loss]: when given, every {!send} travels through a stubborn reliable
    transport over a fair-lossy link dropping that fraction of copies
    ({!Lossy.Transport}) — same delivery guarantees between correct
    processes, higher latency and raw-link traffic.  {!send_at} stays
    direct (it is the adversary's injection primitive, not a channel). *)

val sim : 'm t -> Sim.t

val cond : 'm t -> Pid.t -> Sim.cond
(** The destination's delivery condition: signalled on every delivery to
    the process.  Subscribe {!Sim.Cond.await} predicates that read this
    process's keyed index, or state its {!on_deliver} handlers update, to
    it. *)

val quorum_cond : 'm t -> Pid.t -> key:int -> q:int -> Sim.cond
(** Threshold form of {!cond} for the quorum waits that dominate round
    structure: registers (replacing the process's previous registration)
    a watch on the keyed delivery index and returns a condition signalled
    {e only} when the distinct-sender count for [key] at the process
    crosses [q].  A predicate of the shape
    [decided || keyed_nsenders t pid key >= q] subscribed to this (plus
    whatever signals [decided]) is re-evaluated once at the crossing
    delivery instead of at every delivery — same wakeup instant, since
    the count is monotone and only grows at deliveries of [key].  One
    watch per process per net: registering for a new round supersedes the
    old watch, matching protocols that hold at most one quorum wait at a
    time. *)

val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit
(** Asynchronous send; returns immediately.  No-op if [src] already
    crashed (a dead process takes no step).  When a {!Sim} chooser is
    installed ([Sim.controlled]) and the net has no lossy transport, the
    delivery is offered to the chooser's pending pool instead of being
    scheduled after a sampled delay — the explorer picks the order.  The
    offer is a row of the net's flat in-flight store ({!Sim.offer}), the
    same rows timed deliveries batch on: a pick dispatches it like a
    one-row batch, and a crash that drops it hands the row back.

    {b Fault injection.}  When the simulator carries a fault spec
    ([Sim.faults] not [Faults.none]) and the net is neither controlled
    nor transport-backed, each send is evaluated against the spec
    ([Faults.send_plan], on a dedicated rng stream): partitioned or
    dropped messages are parked until their fault window closes and then
    take a normal hop, duplicated messages get extra copies with
    independent delays, and reorder/inflation faults stretch the sampled
    delay.  Deliveries to a currently {e stalled} destination are held by
    the channel and re-presented when the stall window ends (applies on
    every path, including {!send_at} and transport-backed nets).
    Controlled runs skip the spec — the chooser owns nondeterminism —
    and transport-backed nets already model their own link faults. *)

val send_at : 'm t -> src:Pid.t -> dst:Pid.t -> deliver_at:float -> 'm -> unit
(** Adversarial variant: deliver at an absolute virtual time. *)

val broadcast : 'm t -> src:Pid.t -> 'm -> unit
(** The paper's [Broadcast m]: send to every process including the sender.
    Executes atomically at the current instant (each copy still gets its own
    delay); use {!broadcast_staggered} when crash-interrupted partial
    broadcasts must be possible. *)

val broadcast_staggered : 'm t -> src:Pid.t -> step:float -> 'm -> unit
(** Sends to destinations one by one, [step] time units apart, stopping if
    the sender crashes in between — the failure mode reliable broadcast
    exists to mask. *)

val inbox : 'm t -> Pid.t -> 'm envelope list
(** All messages delivered to the process so far, in delivery order, on a
    net created with [~retain:true]; [[]] otherwise. *)

(** {1 Keyed delivery index} (requires [classify] at {!create}) *)

val keyed_senders : 'm t -> Pid.t -> int -> Pidset.t
(** Distinct senders of the deliveries to the process whose payload
    classified to the key — the O(1) form of the "received PHASE1(r)
    from n-t processes" readiness checks. *)

val keyed_nsenders : 'm t -> Pid.t -> int -> int
(** [cardinal (keyed_senders t pid key)] without the popcount — an int
    maintained at delivery, for quorum predicates evaluated per event. *)

val keyed_fold :
  'm t -> Pid.t -> int -> init:'a -> f:('a -> 'm envelope -> 'a) -> 'a
(** Fold over the matching envelopes, newest first — no copy.  For the
    per-wakeup scans on the protocol hot path whose result is
    order-independent (tallies, minima, quorum contents). *)

val keyed_drop : 'm t -> Pid.t -> int -> unit
(** Retire the key at the process for good: the protocol will never read
    it again (a finished round).  Its envelopes become garbage instead of
    retained history, keeping a long run's live heap bounded by the round
    window, and a late delivery for the key is still delivered (counted,
    handed to {!on_deliver} handlers, and it signals {!cond}) but indexes
    nothing: {!keyed_nsenders}, {!keyed_senders} and {!keyed_fold} read
    the key as empty from the drop on, and no {!quorum_cond} watch on it
    fires.  A key may be retired before any delivery for it. *)

val inject : 'm t -> src:Pid.t -> 'm -> unit
(** Real-runtime ingress: deliver a message that already traveled the
    wire to the {!Setagree_dsys.Sim.local} pid, as an immediate delivery
    event of the local simulator (keyed index, handlers and condition
    signal all happen inside the next [Sim.advance] tick).
    Raises [Invalid_argument] on a simulator without [local].  The
    inverse direction is automatic: on a [local] simulator, {!create}
    registers an inlet under the net's tag that decodes and injects, and
    {!send} routes remote-bound messages through [Sim.set_router]. *)

val on_deliver : 'm t -> ('m envelope -> unit) -> unit
(** Register a callback run at each delivery (after the keyed index is
    updated, and only if the destination is alive and not stalled).
    Callbacks run in registration order.  Used for the paper's "when m is
    delivered" tasks. *)

val sent_count : 'm t -> int
(** Total messages sent through this network. *)

val delivered_count : 'm t -> int
(** Total messages delivered by this network. *)
