(** Empirical cumulative distribution functions.

    Every CDF figure in the paper (Fig. 2a, 2b, 4c, 6b) is reproduced by
    building one of these from generated samples and printing it as
    (value, cumulative probability) rows. *)

type t
(** An empirical CDF; immutable once built. *)

val of_samples : float array -> t
(** Build from an unsorted sample; the input is copied.  Requires a
    non-empty array. *)

val eval : t -> float -> float
(** [eval t x] is the fraction of samples [<= x]. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0, 1] is the smallest sample value [v]
    with [eval t v >= q]. *)

val count : t -> int
(** Number of underlying samples. *)

val points : t -> ?max_points:int -> unit -> (float * float) list
(** [points t ()] renders the CDF as an increasing list of
    (value, probability) pairs, down-sampled to at most [max_points]
    (default 100) for printing. *)
