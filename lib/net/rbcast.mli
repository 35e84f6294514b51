(** Reliable broadcast (paper §2.1), implemented — not assumed — over the
    point-to-point channels, by echo relay:

    - to R-broadcast [m], the origin tags it with a fresh uid and sends it to
      everybody (possibly staggered, so a crash can cut the loop short);
    - on first receipt of a tagged message, a process first relays it to
      everybody and then R-delivers it.

    This yields Validity (no spurious messages), Integrity (at most one
    delivery per message, via the uid), and Termination (a correct process
    that R-delivers has already relayed, so every correct process
    R-delivers).  Non-FIFO, as required: uids order nothing. *)

open Setagree_util
open Setagree_dsys

type 'm delivery = { origin : Pid.t; body : 'm }
(** One R-delivery: the R-broadcasting process and its message.  Its
    delivery time is the handler's [Sim.now]. *)

type 'm t

val create :
  Sim.t -> ?tag:string -> ?delay:Delay.t -> ?stagger:float -> ?loss:float -> unit -> 'm t
(** [stagger] (default [None] ⇒ atomic send loops) spaces the individual
    sends of the origin's initial broadcast and of relays, making partial
    broadcasts (crash mid-loop) possible — the case the relay masks.
    [loss] routes the underlying channels over the lossy-link transport
    (see {!Net.create}). *)

val sim : 'm t -> Sim.t

val cond : 'm t -> Pid.t -> Sim.cond
(** The process's R-delivery condition: signalled at each of its
    R-deliveries.  Subscribe {!Sim.Cond.await} predicates that read state
    updated by this process's {!on_deliver} callbacks (e.g. a "decided"
    flag) to it. *)

val broadcast : 'm t -> src:Pid.t -> 'm -> unit
(** R-broadcast.  No-op if [src] has crashed. *)

val on_deliver : 'm t -> (Pid.t -> 'm delivery -> unit) -> unit
(** Callback at each R-delivery (pid is the delivering process), in
    registration order.  R-deliveries are observed only here: the module
    keeps no delivery log. *)

val underlying_sent : 'm t -> int
(** Point-to-point messages consumed by the implementation. *)
