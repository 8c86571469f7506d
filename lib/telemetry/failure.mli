(** Failure-episode extraction from SNR traces.

    Present-day networks declare a link down when its SNR dips below
    the threshold of its (fixed) modulation.  A failure episode is a
    maximal run of consecutive samples below threshold.  Counting and
    timing these episodes at each candidate capacity reproduces
    Figures 3a and 3b; recording each episode's minimum SNR reproduces
    Figure 4c. *)

type episode = {
  start : int;  (** First below-threshold sample index. *)
  samples : int;  (** Length of the run; at least 1. *)
  min_snr_db : float;  (** Lowest SNR seen during the episode. *)
}

val duration_hours : episode -> float

val episodes : float array -> threshold_db:float -> episode list
(** All failure episodes of a trace at the given SNR threshold, in
    time order. *)

val count_at_capacity : float array -> gbps:int -> int
(** Number of failure episodes the trace would suffer if statically
    modulated at [gbps].  Raises [Invalid_argument] for an unknown
    denomination. *)

val durations_at_capacity : float array -> gbps:int -> float list
(** Episode durations (hours) at the given static capacity. *)

val min_snrs : float array -> threshold_db:float -> float list
(** Minimum SNR of each failure episode — the Figure 4c population. *)
