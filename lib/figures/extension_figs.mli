(** Experiments beyond the paper's figures.  Neither depends on the
    fleet scale. *)

val detection : unit -> unit
(** [ext-E1]: samples CUSUM and EWMA need to flag SNR degradations of
    0.5-4 dB, and their false-alarm rate on quiet traces. *)

val europe : unit -> unit
(** [ext-E2]: max-concurrent TE on static vs adaptive capacities on
    the Europe backbone — the NA throughput gain on a second
    topology. *)
