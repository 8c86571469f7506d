(* Extension experiments beyond the paper's figures:

   E1. Early-warning detection: how many samples CUSUM/EWMA need to
       flag SNR degradations of different depths — the operational
       heads-up that lets run/walk/crawl act before a threshold
       crossing.
   E2. Europe backbone: the headline throughput comparison replayed on
       a second topology, checking nothing is NA-specific. *)

let note = Report.note
let section = Report.section

let detection () =
  section "ext-E1" "early-warning detection delay vs degradation depth";
  note "  shift(dB)  cusum-delay(samples)  ewma-delay(samples)  false-alarms/yr";
  List.iter
    (fun shift ->
      (* Average over an ensemble of onset times and noise seeds. *)
      let delays kind =
        let ds = ref [] in
        for seed = 1 to 20 do
          let rng = Rwc_stats.Rng.create (1000 + seed) in
          let onset = 400 + (seed * 13) in
          let trace =
            Array.init 2000 (fun i ->
                let mu = if i >= onset then 15.0 -. shift else 15.0 in
                Rwc_stats.Rng.gaussian rng ~mu ~sigma:0.33)
          in
          let alarms =
            List.filter
              (fun a -> a.Rwc_telemetry.Detect.kind = kind)
              (Rwc_telemetry.Detect.scan ~baseline_db:15.0 ~sigma_db:0.33 trace)
          in
          match Rwc_telemetry.Detect.detection_delay alarms ~event_start:onset with
          | Some d -> ds := float_of_int d :: !ds
          | None -> ()
        done;
        if !ds = [] then nan else Rwc_stats.Summary.mean (Array.of_list !ds)
      in
      (* False alarms on quiet traces, scaled to per-year. *)
      let false_alarms =
        let total = ref 0 in
        for seed = 1 to 10 do
          let rng = Rwc_stats.Rng.create (2000 + seed) in
          let trace =
            Array.init 10_000 (fun _ ->
                Rwc_stats.Rng.gaussian rng ~mu:15.0 ~sigma:0.33)
          in
          total :=
            !total
            + List.length
                (Rwc_telemetry.Detect.scan ~baseline_db:15.0 ~sigma_db:0.33 trace)
        done;
        float_of_int !total /. 100_000.0
        *. float_of_int Rwc_telemetry.Snr_model.samples_per_year
      in
      note
        (Printf.sprintf "  %8.1f  %20.1f  %19.1f  %15.2f" shift
           (delays `Cusum) (delays `Ewma) false_alarms))
    [ 0.5; 1.0; 2.0; 4.0 ];
  note "  (a 15-minute sample cadence: delay 4 = one hour of warning before";
  note "   the drift would have been an outage)"

let europe () =
  section "ext-E2" "throughput comparison on the Europe backbone";
  let bb = Rwc_topology.Backbone.europe in
  let net = Rwc_sim.Netstate.make ~seed:12 bb in
  let g = Rwc_sim.Netstate.graph net in
  let commodities =
    Rwc_topology.Traffic.to_commodities
      (Rwc_topology.Traffic.top_k
         (Rwc_topology.Traffic.gravity bb ~total_gbps:20_000.0)
         24)
  in
  let static = Rwc_core.Te.mcf ~epsilon:0.12 g commodities in
  let adaptive_graph =
    Rwc_flow.Graph.map_edges g (fun e ->
        ( e.Rwc_flow.Graph.capacity
          +. Rwc_sim.Netstate.headroom
               net.Rwc_sim.Netstate.ducts.(e.Rwc_flow.Graph.tag),
          e.Rwc_flow.Graph.cost,
          e.Rwc_flow.Graph.tag ))
  in
  let adaptive = Rwc_core.Te.mcf ~epsilon:0.12 adaptive_graph commodities in
  Report.row ~label:"throughput gain on Europe"
    ~paper:"75-100% (NA result should transfer)"
    ~measured:
      (Printf.sprintf "+%.0f%% (%.0f -> %.0f Gbps)"
         (100.0
         *. ((adaptive.Rwc_core.Te.total_gbps /. static.Rwc_core.Te.total_gbps)
            -. 1.0))
         static.Rwc_core.Te.total_gbps adaptive.Rwc_core.Te.total_gbps)
