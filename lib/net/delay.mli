(** Message-delay models.

    The asynchronous model puts no bound on transfer delays; a delay model is
    simply the (deterministic, seeded) adversary choosing them.  [Fn] gives
    experiments complete control — e.g. the indistinguishability scenarios
    of the irreducibility theorems delay all messages from a region [E]
    until a chosen time. *)

open Setagree_util

type t =
  | Constant of float
  | Uniform of float * float  (** [Uniform (lo, hi)], uniform in [lo, hi). *)
  | Exponential of float  (** Mean delay; heavy spread stresses asynchrony. *)
  | Psync of { gst : float; bound : float; pre_spread : float }
      (** Partial synchrony: before [gst] delays are uniform in
          [0, pre_spread) (arbitrarily bad, adversary's pick); from [gst]
          on, every delay is uniform in (0, bound] — the model under which
          timeout-based failure detectors are implementable. *)
  | Fn of (rng:Rng.t -> src:Pid.t -> dst:Pid.t -> now:float -> float)
      (** Arbitrary adversary. *)

val sample : t -> rng:Rng.t -> src:Pid.t -> dst:Pid.t -> now:float -> float
(** Draw a delay (>= 0, clamped). *)

val sample_row :
  t -> rng:Rng.t -> src:Pid.t -> now:float -> float array -> int -> unit
(** [sample_row t ~rng ~src ~now row len] stores
    [sample t ~rng ~src ~dst ~now] for [dst = 0 .. len-1] into
    [row.(dst)]: the draws one broadcast makes, in the same order, with
    the same values.  For the uniform models ([Uniform], [Psync]) no
    draw is boxed. *)

val default : t
(** [Uniform (0.5, 1.5)] — a mild spread around 1 time unit. *)

val backoff_interval :
  base:float ->
  factor:float ->
  cap:float ->
  jitter:float ->
  rng:Rng.t ->
  attempt:int ->
  float
(** Capped exponential backoff with deterministic jitter:
    [min cap (base * factor^attempt)], then perturbed multiplicatively by
    a uniform draw in [±jitter] (e.g. [jitter = 0.2] gives ±20%), clamped
    away from zero.  Shared by the stubborn transport's resend schedule
    and the adaptive failure-detector timeouts, so both stay reproducible
    from the run seed. *)
