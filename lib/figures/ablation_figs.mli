(** Ablations of the design choices DESIGN.md calls out: each runs one
    knob over a fixed, seeded workload and prints a table.  None depends
    on the fleet scale. *)

val hysteresis : unit -> unit
(** [ablation-A1]: adaptation up-margin x hold-time over twelve
    one-year traces — capacity captured vs reconfigurations. *)

val penalties : unit -> unit
(** [ablation-A2]: the upgrade set min-cost flow picks NY->LA under
    each of Section 4.2's penalty variants. *)

val epsilon : unit -> unit
(** [ablation-A3]: Garg-Konemann epsilon vs lambda and wall time on
    the NA backbone.  The wall-ms column is the only non-deterministic
    output of {!Paper_figs.run}. *)

val te_algorithms : unit -> unit
(** [ablation-A4]: global MCF vs greedy k-shortest-paths, on the
    physical and the augmented topology. *)

val granularity : unit -> unit
(** [ablation-A5]: per-wavelength vs per-duct controllers as the
    wavelengths' SNR correlation varies. *)
