(** Metrics registry: counters, gauges, and fixed-bucket histograms.

    Everything records in O(1) (histograms via binary search over a
    fixed bound array) and merges associatively/commutatively, so the
    campaign engine can fold per-job registries in canonical job order
    and get identical aggregates for [-j1] and [-jN]:

    - counters merge by addition;
    - gauges merge by [max] (order-insensitive, used for high-water
      marks);
    - histograms merge bucket-wise (same bounds required).

    No wall-clock anywhere: callers decide what a sample means
    (sim-time, a count, a ratio).  JSON rendering goes through
    [Util.Json] and is byte-stable. *)

type t
type hist

(** {1 Registry} *)

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Bump a counter (created at 0 on first use).  [by] defaults to 1. *)

val counter : t -> string -> int
(** Current counter value; 0 when absent. *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge.  Merging keeps the max, so use gauges for
    high-water-mark style readings. *)

val gauge : t -> string -> float option

val observe : t -> ?bounds:float array -> string -> float -> unit
(** Record a sample into the named histogram, creating it with
    [bounds] (default {!default_bounds}) on first use.  [bounds]
    is ignored on later calls. *)

val hist : t -> string -> hist option

val names : t -> string list
(** All registered instrument names, sorted ({e never} raw Hashtbl fold
    order), so exports and debug dumps stay deterministic without
    callers re-sorting. *)

val merge : t -> t -> t
(** Pointwise merge (see above); inputs are not mutated.
    @raise Invalid_argument when the same name maps to different
    instrument kinds or histograms with different bounds. *)

val to_json : t -> Json.t
(** Object keyed by sorted instrument name: counters render as [Int],
    gauges as [Float], histograms via {!hist_json}. *)

(** {1 Snapshot/delta encoding (live telemetry)}

    [snapshot] freezes a registry; [delta ~base cur] encodes what
    happened since, such that

    {[ merge base (delta ~base cur) == cur ]}

    exactly for counters and histogram bucket counts whenever [base] is
    an earlier snapshot of [cur] (all instruments monotone in between);
    gauges carry the current reading, which the max-merge law absorbs
    for monotone gauges.  Telemetry publishers snapshot on each tick
    and ship only the delta; subscribers replay by folding [merge]. *)

val snapshot : t -> t
(** Deep copy; later updates to the source do not affect it. *)

val delta : base:t -> t -> t
(** [delta ~base cur]: per instrument of [cur], counters subtract,
    histogram buckets/counts/sums subtract (extrema are carried from
    [cur], or the merge-identity sentinels when the delta is empty),
    gauges carry [cur]'s value.  Instruments absent from [base] are
    copied whole.
    @raise Invalid_argument on instrument-kind or bound mismatches. *)

(** {1 Histograms} *)

val default_bounds : float array
(** 1–2–5 series upper bounds spanning 1e-3 … 1e6 (30 buckets plus
    overflow): coarse but monotone, fits round counts, message counts
    and sim-time latencies alike. *)

val hist_create : ?bounds:float array -> unit -> hist
(** [bounds] must be strictly increasing.
    @raise Invalid_argument otherwise. *)

val hist_record : hist -> float -> unit

val hist_count : hist -> int
val hist_sum : hist -> float

val hist_min : hist -> float option
(** Smallest recorded sample ([None] when empty); exact, not
    bucket-quantized.  Same for {!hist_max}. *)

val hist_max : hist -> float option

val hist_percentile : hist -> float -> float
(** Nearest-rank percentile estimated from bucket upper bounds, clamped
    to the exact [min]/[max]; [p] in [0,1].  0 on an empty histogram. *)

val hist_merge : hist -> hist -> hist
(** @raise Invalid_argument on differing bounds. *)

val hist_json : hist -> Json.t
(** [{count, sum, min, max, p50, p90, p95, p99, buckets}] with
    [buckets] a list of [{le, n}] (overflow bucket has [le: null]);
    empty buckets are omitted to keep artifacts small. *)
