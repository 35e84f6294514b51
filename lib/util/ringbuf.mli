(** Fixed-capacity ring buffer that overwrites the oldest element when
    full — a bounded history window for a time series (the runtime
    node's phi samples).

    Distinct from {!Ring}, which is the combinatorial wheels ring of the
    protocol layer; this module is a plain container. *)

type 'a t

val create : cap:int -> 'a t
(** [cap >= 1] or [Invalid_argument]. *)

val push : 'a t -> 'a -> unit
(** Append in O(1); overwrites (and counts) the oldest element when
    full. *)

val dropped : 'a t -> int
(** Elements overwritten since creation — lets a consumer report
    "window covers the last [n] of [n + dropped] samples" instead of
    silently truncating. *)

val to_list : 'a t -> 'a list
(** The live elements, oldest first. *)
