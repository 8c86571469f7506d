(** Descriptive statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator). *)
  min : float;
  max : float;
}

val of_array : float array -> t
(** Summary of a non-empty sample. *)

val mean : float array -> float
val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100]: linear interpolation between
    order statistics (the same convention as numpy's default).  The input
    need not be sorted; it is not modified.  Requires a non-empty
    array. *)

val median : float array -> float

val pp : Format.formatter -> t -> unit
