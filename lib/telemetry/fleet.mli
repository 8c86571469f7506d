(** Fleet generation: the synthetic stand-in for the paper's WAN.

    The paper studies >2000 IP links — optical wavelengths multiplexed
    40 to a fiber cable — over 2.5 years.  We generate 50 cables x 40
    wavelengths.  Each cable gets a physical route length; the cable's
    baseline OSNR follows from the {!Rwc_optical.Fiber} span model, is
    converted to the DSP-reported SNR the paper plots (bandwidth
    conversion + implementation penalty), and receives per-cable and
    per-wavelength quality offsets.  Traces are produced link-by-link
    from per-link RNG substreams so the full fleet never has to sit in
    memory and any single link is reproducible in isolation. *)

type link = {
  cable : int;
  index : int;  (** Wavelength index within the cable, 0-39. *)
  route_km : float;
  params : Snr_model.params;
}

type t = {
  seed : int;
  n_cables : int;
  lambdas_per_cable : int;
  years : float;
}

val default : t
(** 50 cables x 40 wavelengths for 2.5 years, seed 2017 — the paper's
    scale. *)

val scaled : t -> factor:int -> t
(** Fleet with [n_cables / factor] cables (at least 1); used by tests
    that cannot afford the full 2000-link generation. *)

val n_links : t -> int

val osnr_to_snr_penalty_db : float
(** Gap between the 0.1 nm-referenced OSNR of the fiber model and the
    DSP-reported SNR the paper plots: ~4.4 dB of bandwidth conversion
    to a ~34 GBaud signal plus ~4 dB of transceiver implementation
    penalty. *)

val baseline_of_route : route_km:float -> offset_db:float -> float
(** Baseline DSP-reported SNR of a wavelength on a route of the given
    length: multi-span OSNR minus {!osnr_to_snr_penalty_db} plus the
    quality offset. *)

val links : t -> link array
(** All links, deterministic from the seed, grouped by cable. *)

val cable_links : t -> int -> link array
(** The 40 wavelengths of one cable. *)

val trace : t -> link -> float array
(** This link's full SNR trace (deterministic: depends only on the
    fleet seed and the link's identity). *)

val iter_traces : t -> (link -> float array -> unit) -> unit
(** Stream every link's trace through [f], generating and discarding
    one at a time. *)

val high_quality_cable : t -> link array
(** A 40-wavelength cable on which every link's SNR keeps all capacity
    denominations feasible (baseline above the 200 Gbps threshold) —
    the selection used for the paper's Figure 3a. *)
