(** The assembled two-wheels transformation (paper §4):

    ◇S_x + ◇φ_y  →  Ω_z   with   z = t + 2 - x - y,

    optimal by Theorem 8 (no construction exists when x + y + z < t + 2).

    Special cases (paper §4.4 and Corollaries 6-7):
    - [y = 0] (querier = the no-information φ_0): ◇S_x → Ω_{t+2-x};
    - [x = 1] (suspector = the no-information ◇S_1): ◇φ_y → Ω_{t+1-y}.

    Both are obtained by passing the corresponding no-information module —
    the code path is uniform; see {!Reduce} for these compositions. *)

open Setagree_dsys
open Setagree_net
open Setagree_fd

type t

val check : n:int -> t:int -> x:int -> y:int -> (unit, string) result
(** {!Bounds.wheels_admissible}, with the bounds {!install} refuses. *)

val install :
  Sim.t ->
  suspector:Iface.suspector ->
  querier:Iface.querier ->
  x:int ->
  y:int ->
  ?step:float ->
  ?delay:Delay.t ->
  unit ->
  t
(** Requires {!Bounds.wheels_admissible}; raises [Invalid_argument]
    otherwise.  The suspector must belong to ◇S_x and the querier to ◇φ_y
    for the output to belong to Ω_z. *)

val z : t -> int
(** The achieved leadership width [t + 2 - x - y]. *)

val omega : t -> Iface.leader
(** The constructed Ω_z module. *)

val lower : t -> Wheels_lower.t
val upper : t -> Wheels_upper.t

val total_messages : t -> int
(** Point-to-point cost of both wheels so far. *)

val stabilized_since : t -> float
(** Latest ring movement in either wheel — the transformation has converged
    if this is well before the end of the run. *)
