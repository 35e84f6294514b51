(** Flat int-indexed event arena: the discrete-event scheduler's queue.

    Struct-of-arrays storage: each {e slot} carries
    [(time, seq, kind, arg)] where [seq] is an internal monotonic
    insertion counter, so entries are ordered by [(time, seq)] — ties at
    one instant resolve in insertion order, the invariant every
    deterministic replay in this repository rests on.

    Internally a timing wheel fronts an overflow 4-ary min-heap: events
    landing inside the wheel's moving window hash to a bucket in O(1)
    and the next event is found by a bitmap scan from the frontier;
    everything else (far future, huge or negative times) takes the
    O(log n) heap.  The wheel narrows its bucket width adaptively when
    chains pile up, so ordering stays {e exact} — the wheel is an index,
    never an approximation.

    [kind]/[arg] are opaque ints owned by the caller (the simulator's
    event-kind table).  Slots are recycled through a free list, so a
    simulation in steady state pushes and pops events without allocating.

    A queued event is never removed before it fires: the model's sent
    messages are never withdrawn, and a crashed process simply takes no
    further steps.  [pop] is the only removal, so the arena keeps no map
    from a slot to its place in the wheel or the heap. *)

type t

val create : ?initial:int -> unit -> t
(** Empty arena sized for [initial] (default 64) pending entries: the
    starting slot capacity (it grows by doubling past that), and the
    timing wheel's bucket count, 16 per entry rounded up to a power of
    two and kept within [32, 16384] — so [initial >= 1024] gets the
    full 16384 buckets and [initial <= 2] the 32 buckets of one bitmap
    word.  The size changes only cost, never the pop order. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> time:float -> kind:int -> arg:int -> unit
(** Queue an event, sequenced after every earlier [add]. *)

val pop : t -> int
(** Remove the earliest event and return its slot id, or [-1] when
    empty.  The popped slot's fields ({!time_of}, {!kind_of},
    {!arg_of}) remain readable {b until the next [add] or [pop]} — the
    slot is recycled lazily (the free list is threaded through the arg
    field). *)

val peek_time : t -> float
(** Time of the earliest event; [infinity] when empty (no option
    allocation on the hot path). *)

val time_of : t -> int -> float
val kind_of : t -> int -> int
val arg_of : t -> int -> int

val capacity : t -> int
(** Current slot capacity (sizing diagnostics). *)

val buckets : t -> int
(** The timing wheel's bucket count, fixed at {!create} (sizing
    diagnostics). *)
