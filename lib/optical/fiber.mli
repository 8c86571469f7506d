(** Multi-span amplified fiber-line model.

    Long-haul links are chains of fiber spans, each followed by an EDFA
    that restores the launch power while adding amplified-spontaneous-
    emission (ASE) noise.  The standard link-budget approximation gives
    the received OSNR as

      OSNR[dB] = 58 + P_launch[dBm] - L_span[dB] - NF[dB] - 10 log10 N

    (58 dB folds h*nu*B_ref for a 0.1 nm reference bandwidth at
    1550 nm).  This is what grounds the telemetry generator: a link's
    baseline SNR is not an arbitrary constant but the OSNR of a
    physically-plausible route of a given length, so longer routes
    naturally support lower capacities — the heterogeneity the paper's
    fleet-wide CDFs rest on. *)

type span = {
  length_km : float;
  attenuation_db_per_km : float;  (** Typically 0.2-0.25 for SMF-28. *)
  amp_noise_figure_db : float;  (** EDFA noise figure, typically 4.5-6. *)
}

type line = {
  spans : span list;
  launch_power_dbm : float;  (** Per-channel launch power, typically ~0. *)
}

val default_span : float -> span
(** [default_span km] with typical attenuation (0.22 dB/km) and noise
    figure (5.0 dB). *)

val line_of_route_km : ?span_km:float -> float -> line
(** Break a route of the given length into ~[span_km] (default 80 km)
    spans with default parameters and 0 dBm launch power. *)

val osnr_db : line -> float
(** Received OSNR of the line per the formula above, with per-span loss
    and noise accumulated in linear units (exact even when spans are
    heterogeneous).  Requires at least one span. *)

val snr_margin_db : line -> gbps:int -> float option
(** OSNR margin above the modulation threshold for the given capacity;
    [None] for an unknown denomination. *)
