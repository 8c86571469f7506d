type link_report = {
  link : Fleet.link;
  hdr : Rwc_stats.Hdr.t;
  range_db : float;
  feasible_gbps : int;
  failures_at : (int * int) list;
  failure_durations_at : (int * float list) list;
  min_snr_at_100g_failures : float list;
}

let capacities =
  List.map (fun m -> m.Rwc_optical.Modulation.gbps) Rwc_optical.Modulation.all

let link_report_of_trace link trace =
  let hdr = Rwc_stats.Hdr.of_samples ~mass:0.95 trace in
  let lo = Array.fold_left Float.min trace.(0) trace in
  let hi = Array.fold_left Float.max trace.(0) trace in
  let feasible_gbps = Rwc_optical.Modulation.feasible_gbps hdr.Rwc_stats.Hdr.lo in
  let failures_at =
    List.map (fun c -> (c, Failure.count_at_capacity trace ~gbps:c)) capacities
  in
  let failure_durations_at =
    List.map (fun c -> (c, Failure.durations_at_capacity trace ~gbps:c)) capacities
  in
  let min_snr_at_100g_failures =
    Failure.min_snrs trace ~threshold_db:Rwc_optical.Modulation.threshold_100g
  in
  {
    link;
    hdr;
    range_db = hi -. lo;
    feasible_gbps;
    failures_at;
    failure_durations_at;
    min_snr_at_100g_failures;
  }

(* One hour at the paper's 15-minute polling cadence: longer gaps are
   too much invented signal for failure/HDR statistics. *)
let default_max_fill = 4

let link_report_of_samples ?(max_fill = default_max_fill) link samples ~n =
  Option.map
    (link_report_of_trace link)
    (Collector.fill_gaps ~max_fill samples ~n)

type fleet_report = {
  fleet : Fleet.t;
  reports : link_report list;
  hdr_widths : float array;
  ranges : float array;
  feasible : int array;
  total_gain_tbps : float;
  share_at_least_175 : float;
  share_hdr_below_2db : float;
  failure_min_snrs : float array;
  salvageable_failure_fraction : float;
}

let m_fleet_report = Rwc_obs.Metrics.histogram "analyze/fleet_report"

let fleet_report fleet =
  Rwc_obs.Trace.with_span "analyze/fleet_report" @@ fun () ->
  Rwc_obs.Metrics.time m_fleet_report @@ fun () ->
  let reports = ref [] in
  Fleet.iter_traces fleet (fun link trace ->
      reports := link_report_of_trace link trace :: !reports);
  let reports = List.rev !reports in
  let hdr_widths =
    Array.of_list (List.map (fun r -> Rwc_stats.Hdr.width r.hdr) reports)
  in
  let ranges = Array.of_list (List.map (fun r -> r.range_db) reports) in
  let feasible = Array.of_list (List.map (fun r -> r.feasible_gbps) reports) in
  let n = Array.length feasible in
  let gain_gbps =
    Array.fold_left
      (fun acc f -> acc + max 0 (f - Rwc_optical.Modulation.default_gbps))
      0 feasible
  in
  let count pred a =
    Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 a
  in
  let failure_min_snrs =
    Array.of_list (List.concat_map (fun r -> r.min_snr_at_100g_failures) reports)
  in
  let salvageable =
    count (fun s -> s >= 3.0) failure_min_snrs
  in
  {
    fleet;
    reports;
    hdr_widths;
    ranges;
    feasible;
    total_gain_tbps = float_of_int gain_gbps /. 1000.0;
    share_at_least_175 =
      float_of_int (count (fun f -> f >= 175) feasible) /. float_of_int n;
    share_hdr_below_2db =
      float_of_int (count (fun w -> w < 2.0) hdr_widths) /. float_of_int n;
    failure_min_snrs;
    salvageable_failure_fraction =
      (if Array.length failure_min_snrs = 0 then 0.0
       else
         float_of_int salvageable /. float_of_int (Array.length failure_min_snrs));
  }
