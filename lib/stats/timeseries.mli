(** Time-series primitives for the SNR telemetry model.

    The SNR of a quiet optical wavelength wanders slowly around a stable
    baseline; an AR(1) (Ornstein-Uhlenbeck in discrete time) process is
    the standard minimal model for such mean-reverting noise and is what
    keeps the generated 95% highest-density regions narrow, matching the
    paper's observation that SNR stays within < 2 dB bands. *)

type ar1 = {
  mean : float;  (** Long-run level the process reverts to. *)
  phi : float;  (** Persistence in [0, 1); higher = slower reversion. *)
  sigma : float;  (** Per-step innovation standard deviation. *)
}

val ar1_stationary_sigma : ar1 -> float
(** Standard deviation of the stationary distribution,
    [sigma /. sqrt (1 - phi^2)]. *)

val ar1_generate : Rng.t -> ar1 -> n:int -> float array
(** [ar1_generate rng p ~n] draws [n] steps starting from the stationary
    distribution. *)

val downsample : float array -> every:int -> float array
(** Keep every [every]-th element (first always kept); [every >= 1]. *)

val rolling_min : float array -> window:int -> float array
(** Sliding-window minimum (same length as input; the window looks
    backwards and is truncated at the start). *)
