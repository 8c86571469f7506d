(** Mutable WAN state for the simulation: per-duct SNR, configured
    capacity and up/down status.

    Each backbone duct carries [wavelengths] IP links; all wavelengths
    of a duct share its fiber, so they share one SNR process (the
    paper's Figure 1 shows exactly this: 40 wavelengths of one cable
    moving together).  A duct's IP capacity is
    [wavelengths x per-wavelength capacity]; when the duct is down or
    reconfiguring its capacity is 0. *)

type duct_state = {
  duct_index : int;
  duct : Rwc_topology.Backbone.duct;
  snr_params : Rwc_telemetry.Snr_model.params;
  wavelengths : int;
  mutable per_lambda_gbps : int;  (** Current modulation; 0 = dark. *)
  mutable up : bool;  (** False while failed or reconfiguring. *)
  mutable current_snr_db : float;
}

type t = {
  backbone : Rwc_topology.Backbone.t;
  ducts : duct_state array;
}

val make :
  ?wavelengths:int ->
  seed:int ->
  Rwc_topology.Backbone.t ->
  t
(** Initialize every duct at the default 100 Gbps per wavelength
    (default 4 wavelengths per duct), up, with SNR parameters derived
    from its route length exactly as the telemetry fleet derives
    link baselines. *)

val capacity_gbps : duct_state -> float
(** Usable IP capacity right now (0 when down). *)

val graph : t -> int Rwc_flow.Graph.t
(** Current-capacity directed graph (edge tag = duct index), two
    directed edges per duct. *)

val headroom : duct_state -> float
(** Extra IP capacity (Gbps) the duct's SNR would allow over its
    current configuration. *)
