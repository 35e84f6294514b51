(** Deterministic pseudo-random number generation (splitmix64).

    Every source of randomness in a simulation run — message delays, failure
    detector noise, crash schedules, workload generation — is derived from a
    single seed through this module, so a run is reproducible from its seed
    alone.  [split] derives statistically independent child generators, which
    keeps subsystems decoupled: adding one more draw in the delay model does
    not perturb the crash schedule. *)

type t
(** A mutable generator. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed. *)

val copy : t -> t

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    independent of [t]'s subsequent output. *)

val split_named : t -> string -> t
(** [split_named t name] derives a child keyed by [name]; unlike {!split} it
    does not depend on call order, only on the parent seed and [name]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound-1].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] is uniform in [lo, hi). *)

val fill_uniform : t -> float array -> int -> float -> float -> unit
(** [fill_uniform t row len lo hi] stores [len] successive
    [uniform_in t lo hi] draws into [row.(0)] .. [row.(len - 1)]: the
    same values in the same order, without boxing each one on its way
    out of this module. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation. *)
