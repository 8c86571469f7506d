(** The Section 2 measurement-analysis pipeline.

    Streams every link of a fleet once and accumulates everything the
    paper's evaluation figures need: per-link SNR variation (Fig. 2a),
    feasible capacities and the fleet-wide gain (Fig. 2b), failure
    counts and durations at each static capacity (Fig. 3a/3b), and the
    distribution of the lowest SNR at 100 Gbps failure events
    (Fig. 4c). *)

type link_report = {
  link : Fleet.link;
  hdr : Rwc_stats.Hdr.t;  (** 95% highest-density region of the SNR. *)
  range_db : float;  (** max - min over the whole period. *)
  feasible_gbps : int;
      (** Highest denomination whose threshold the HDR lower edge
          meets (paper: "feasible capacity ... based on the lower SNR
          limit of its highest density region"). *)
  failures_at : (int * int) list;
      (** (capacity Gbps, episode count) for every denomination. *)
  failure_durations_at : (int * float list) list;
      (** (capacity Gbps, episode durations in hours). *)
  min_snr_at_100g_failures : float list;
      (** Lowest SNR of each failure episode at the deployed 100 Gbps
          threshold. *)
}

val link_report_of_samples :
  ?max_fill:int ->
  Fleet.link ->
  Collector.sample list ->
  n:int ->
  link_report option
(** Analyze a lossy polled stream: gap-fill via
    {!Collector.fill_gaps}[ ~max_fill] (default 4 slots = one hour at
    15-minute polling) and analyze the reconstruction.  [None] when
    the stream is empty or its longest gap exceeds [max_fill] — LOCF
    over longer gaps would contaminate failure and HDR statistics with
    fabricated flat SNR. *)

type fleet_report = {
  fleet : Fleet.t;
  reports : link_report list;
  hdr_widths : float array;
  ranges : float array;
  feasible : int array;
  total_gain_tbps : float;
      (** Sum over links of (feasible - 100 Gbps), in Tbps — the
          paper's "+145 Tbps" headline. *)
  share_at_least_175 : float;
      (** Fraction of links whose feasible capacity is >= 175 Gbps —
          the paper's "80% of links". *)
  share_hdr_below_2db : float;
      (** Fraction of links with HDR width < 2 dB — the paper's
          "83%". *)
  failure_min_snrs : float array;
      (** Pooled Figure 4c population. *)
  salvageable_failure_fraction : float;
      (** Fraction of 100 Gbps failure events with lowest SNR >= 3 dB
          (the 50 Gbps threshold) — the paper's "25%". *)
}

val fleet_report : Fleet.t -> fleet_report
(** Stream the whole fleet.  Memory stays O(links), not O(samples). *)
