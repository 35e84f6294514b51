(** Ground-truth oracle implementations of every failure-detector class in
    the paper's grid (Figure 1).

    An oracle reads the simulator's crash schedule (the run's ground truth)
    and a {!Behavior.t}, and produces a history that provably belongs to the
    class — including, when the behaviour says so, the nastiest histories
    the class admits.  This is the honest substitute for "a failure detector
    module of class C": the classes are axiomatic, and any real
    implementation's history is one of the histories these oracles can
    produce (checkers in {!Check} verify membership independently). *)

open Setagree_util
open Setagree_dsys

type scope_info = {
  scope : Pidset.t;  (** The set Q of the limited-scope accuracy property. *)
  protected : Pid.t;  (** The correct process of Q never suspected by Q. *)
}

(** {1 Real-runtime override}

    A runtime node (one OCaml domain per process, [Setagree_rt]) extracts
    its failure detector from message timing.  Installing the extraction
    as this domain's {!external_source} makes every oracle constructor
    below return ifaces backed by it — same protocol [install] code on
    both substrates.  The hook is {e domain-local} ([Domain.DLS]): the
    simulator-driven main domain, with no source installed, keeps the
    ground-truth oracles byte-identically. *)

type external_source = {
  ext_suspected : Pid.t -> Pidset.t;  (** suspector classes (◇S_x, ◇P) *)
  ext_trusted : z:int -> Pid.t -> Pidset.t;  (** leader classes (Ω_z) *)
  ext_query : y:int -> Pid.t -> Pidset.t -> bool;  (** query classes (φ_y) *)
}

val set_external : external_source option -> unit
(** Install ([Some]) or clear ([None]) the calling domain's override. *)

val external_source : unit -> external_source option

(** {1 Parameter ranges}

    ◇S_x / S_x scope [1 <= x <= n], Ω_z width [1 <= z <= n], φ_y / ◇φ_y /
    Ψ_y strength [0 <= y <= t].  The constructors below raise
    [Invalid_argument] exactly when these return [Error]. *)

val check_x : n:int -> x:int -> (unit, string) result
val check_z : n:int -> z:int -> (unit, string) result
val check_y : t:int -> y:int -> (unit, string) result

(** {1 Suspector classes} *)

val es_x :
  Sim.t -> x:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.suspector * scope_info
(** ◇S_x: strong completeness + limited-scope {e eventual} weak accuracy.
    Pre-gst output is arbitrary; post-gst, crashed processes are suspected,
    the x processes of [scope] never suspect [protected], and every other
    correct process may still be slandered (legal!).  [x = n] gives ◇S. *)

val s_x :
  Sim.t -> x:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.suspector * scope_info
(** S_x: as {!es_x} but the accuracy protection holds from time 0
    (perpetual); completeness remains eventual. *)

val perfect_p : Sim.t -> Iface.suspector
(** P: suspects exactly the currently crashed processes. *)

val eventually_p :
  Sim.t -> ?behavior:Behavior.t -> ?seed:int -> unit -> Iface.suspector
(** ◇P: arbitrary pre-gst, exact afterwards. *)

(** {1 Leader classes} *)

val omega_z :
  Sim.t -> z:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.leader * Pidset.t
(** Ω_z: eventually all correct processes trust the same set of at most [z]
    processes, at least one of them correct.  Returns the eventual set (it
    may legally contain crashed processes alongside a correct one).
    Pre-gst, each process sees churning arbitrary sets.  [z = 1] is Ω. *)

(** {1 Query classes} *)

type query_event = {
  q_time : float;
  q_pid : Pid.t;
  q_set : Pidset.t;
  q_result : bool;
}

type query_log = query_event list ref
(** Chronological once reversed; {!Check} consumes it. *)

val phi_y :
  Sim.t -> y:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.querier * query_log
(** φ_y: triviality (|X| <= t-y ⇒ true; |X| > t ⇒ false), perpetual safety
    (true ⇒ all of X crashed, in the meaningful window), liveness (all
    crashed ⇒ eventually always true; pre-gst noise may delay it). *)

val ephi_y :
  Sim.t -> y:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.querier * query_log
(** ◇φ_y: safety is only eventual — pre-gst the oracle may claim a region
    crashed while it still contains correct processes. *)

exception Psi_containment_violation of Pidset.t * Pidset.t

val psi_y :
  Sim.t -> y:int -> ?behavior:Behavior.t -> ?seed:int -> unit ->
  Iface.querier * query_log
(** Ψ_y: φ_y restricted to nested query arguments; raises
    {!Psi_containment_violation} if a client ever queries two incomparable
    sets (that would be a mis-use of the class, i.e. a client bug). *)
