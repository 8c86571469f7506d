(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction draw from this module so
    that every figure and test is reproducible from a seed.  The generator
    is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast,
    well-distributed 64-bit generator that supports cheap stream
    splitting, which we use to give every link in a 2000-link fleet an
    independent substream derived from the fleet seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val raw_state : t -> int64
(** Current internal 64-bit state, for checkpointing.  A generator
    given it back with {!set_raw_state} continues [t]'s stream exactly. *)

val set_raw_state : t -> int64 -> unit
(** Overwrite a generator's state in place (restore after a crash). *)

val split : t -> t
(** [split t] derives a new generator whose future output is independent
    of [t]'s (in the splitmix sense), advancing [t] once. *)

val substream : t -> int -> t
(** [substream t i] derives the [i]-th child stream of [t] without
    advancing [t].  Used to give entity [i] of a population its own
    reproducible stream. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]; requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via the Marsaglia polar method. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1. /. rate]);
    requires [rate > 0.]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal deviate: [exp] of a normal with parameters [mu], [sigma]
    (parameters of the underlying normal, not of the lognormal mean). *)

val lognormal_of_mean : t -> mean:float -> cv:float -> float
(** Lognormal deviate parameterized by its own mean and coefficient of
    variation (stddev / mean), which is how the paper's latency and
    duration targets are stated. *)

val poisson : t -> mean:float -> int
(** Poisson deviate (Knuth's method for small means, normal approximation
    above 60). *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto deviate [>= scale] with tail index [shape]. *)

val categorical : t -> (float * 'a) array -> 'a
(** [categorical t weighted] picks an element with probability
    proportional to its weight.  Requires a non-empty array with
    positive total weight. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
