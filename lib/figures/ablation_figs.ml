(* Ablation studies for the design choices DESIGN.md calls out:

   A1. Adaptation hysteresis (up-margin x hold-time): how much capacity
       the controller captures vs how often it touches the transceiver.
   A2. Penalty function: what the TE layer decides to upgrade under
       each of Section 4.2's penalty variants.
   A3. Multicommodity epsilon: approximation quality vs runtime of the
       Garg-Konemann TE substrate.
   A4. TE algorithm: global MCF vs greedy k-shortest-paths, on both the
       physical and the augmented topology.
   A5. Adaptation granularity: per-wavelength controllers vs one
       per-duct controller tracking the worst wavelength. *)

module Graph = Rwc_flow.Graph
module Adapt = Rwc_core.Adapt
module Availability = Rwc_core.Availability

let section = Report.section
let note = Report.note

(* --- A1: hysteresis ---------------------------------------------------- *)

let hysteresis () =
  section "ablation-A1" "adaptation hysteresis: capacity captured vs churn";
  (* An ensemble of realistic links, one trace each. *)
  let traces =
    List.init 12 (fun i ->
        let baseline = 11.0 +. (0.7 *. float_of_int i) in
        let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:baseline () in
        fst (Rwc_telemetry.Snr_model.generate (Rwc_stats.Rng.create (100 + i)) p ~years:1.0))
  in
  note "  up-margin  hold   mean-Gbps  reconfigs  failures   flaps";
  List.iter
    (fun (margin, hold) ->
      let config = { Adapt.up_margin_db = margin; hold_samples = hold } in
      let policy =
        Availability.Adaptive { config; reconfig_downtime_s = 0.035 }
      in
      let totals =
        List.fold_left
          (fun (cap, rc, fl, fp) trace ->
            let o = Availability.evaluate policy trace in
            ( cap +. o.Availability.mean_capacity_gbps,
              rc + o.Availability.flaps + o.Availability.upshifts,
              fl + o.Availability.failures,
              fp + o.Availability.flaps ))
          (0.0, 0, 0, 0) traces
      in
      let cap, reconfigs, failures, flaps = totals in
      note
        (Printf.sprintf "  %9.1f  %4d  %10.1f  %9d  %8d  %6d" margin hold
           (cap /. float_of_int (List.length traces))
           reconfigs failures flaps))
    [
      (0.0, 1); (0.0, 4); (0.5, 1); (0.5, 4); (0.5, 16); (1.0, 4); (2.0, 4);
    ];
  note "  (tight hysteresis captures slightly more capacity but multiplies";
  note "   reconfigurations; the defaults 0.5 dB / 4 samples sit at the knee)"

(* --- A2: penalty functions ---------------------------------------------- *)

let penalties () =
  section "ablation-A2" "penalty functions: upgrade decisions under each variant";
  let bb = Rwc_topology.Backbone.north_america in
  let net = Rwc_sim.Netstate.make ~seed:5 bb in
  let g = Rwc_sim.Netstate.graph net in
  let headroom e =
    Rwc_sim.Netstate.headroom
      net.Rwc_sim.Netstate.ducts.((Graph.edge g e).Graph.tag)
  in
  (* Current traffic from one TE round is the penalty basis. *)
  let commodities =
    Rwc_topology.Traffic.to_commodities
      (Rwc_topology.Traffic.top_k
         (Rwc_topology.Traffic.gravity bb ~total_gbps:14_000.0)
         30)
  in
  let current = Rwc_core.Te.mcf ~epsilon:0.15 g commodities in
  let src = Rwc_topology.Backbone.city_index bb "NewYork" in
  let dst = Rwc_topology.Backbone.city_index bb "LosAngeles" in
  let variants =
    [
      ("zero", Rwc_core.Penalty.Zero);
      ("uniform-10", Rwc_core.Penalty.Uniform 10.0);
      ("traffic-proportional", Rwc_core.Penalty.Traffic_proportional current.Rwc_core.Te.flow);
      ( "disruption-stock-68s",
        Rwc_core.Penalty.Disruption_aware
          { traffic = current.Rwc_core.Te.flow; downtime_s = 68.0 } );
      ( "disruption-efficient-35ms",
        Rwc_core.Penalty.Disruption_aware
          { traffic = current.Rwc_core.Te.flow; downtime_s = 0.035 } );
    ]
  in
  note "  penalty                      routed   upgrades  extra-Gbps     penalty-paid";
  List.iter
    (fun (name, penalty) ->
      let aug = Rwc_core.Augment.build ~headroom ~penalty g in
      let r =
        Rwc_flow.Mincost.solve ~limit:2000.0 aug.Rwc_core.Augment.graph ~src ~dst
      in
      let ds = Rwc_core.Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
      note
        (Printf.sprintf "  %-26s  %6.0f  %9d  %10.0f  %15.0f" name
           r.Rwc_flow.Mincost.value (List.length ds)
           (Rwc_core.Translate.total_extra ds)
           (Rwc_core.Translate.total_penalty ds)))
    variants;
  note "  (the routed value is penalty-independent - Theorem 1's guarantee -";
  note "   while the upgrade set shrinks as penalties grow more informative)"

(* --- A3: epsilon --------------------------------------------------------- *)

let epsilon () =
  section "ablation-A3" "Garg-Konemann epsilon: approximation vs runtime";
  let bb = Rwc_topology.Backbone.north_america in
  let g =
    Rwc_topology.Backbone.to_graph bb
      ~capacity_of:(fun _ -> 400.0)
      ~cost_of:(fun _ -> 1.0)
  in
  let commodities =
    Rwc_topology.Traffic.to_commodities
      (Rwc_topology.Traffic.top_k
         (Rwc_topology.Traffic.gravity bb ~total_gbps:25_000.0)
         30)
  in
  note "  epsilon    lambda   total-Gbps   wall-ms";
  List.iter
    (fun eps ->
      let t0 = Sys.time () in
      let r = Rwc_flow.Multicommodity.solve ~epsilon:eps g commodities in
      let ms = 1000.0 *. (Sys.time () -. t0) in
      note
        (Printf.sprintf "  %7.2f  %8.4f  %11.0f  %8.1f" eps
           r.Rwc_flow.Multicommodity.lambda
           (Rwc_flow.Multicommodity.total_throughput r)
           ms))
    [ 0.4; 0.3; 0.2; 0.1; 0.05 ];
  note "  (lambda converges from below as epsilon shrinks; runtime grows ~1/eps^2)"

(* --- A4: TE algorithm ------------------------------------------------------ *)

let te_algorithms () =
  section "ablation-A4" "TE algorithm on physical vs augmented topology";
  let bb = Rwc_topology.Backbone.north_america in
  let net = Rwc_sim.Netstate.make ~seed:5 bb in
  let g = Rwc_sim.Netstate.graph net in
  let headroom e =
    Rwc_sim.Netstate.headroom
      net.Rwc_sim.Netstate.ducts.((Graph.edge g e).Graph.tag)
  in
  (* Fake twins must inherit the real edges' routing weight, otherwise
     cost-based path selection (greedy-ksp) sees free fake edges and
     routes nonsense. *)
  let aug =
    Rwc_core.Augment.build
      ~weight:(fun e -> (Graph.edge g e).Graph.cost)
      ~headroom ~penalty:Rwc_core.Penalty.Zero g
  in
  let commodities =
    Rwc_topology.Traffic.to_commodities
      (Rwc_topology.Traffic.top_k
         (Rwc_topology.Traffic.gravity bb ~total_gbps:25_000.0)
         30)
  in
  let algorithms =
    [
      ("mcf eps=0.1", fun g -> (Rwc_core.Te.mcf ~epsilon:0.1 g commodities).Rwc_core.Te.total_gbps);
      ("greedy-ksp k=2", fun g -> (Rwc_core.Te.greedy_ksp ~k:2 g commodities).Rwc_core.Te.total_gbps);
      ("greedy-ksp k=4", fun g -> (Rwc_core.Te.greedy_ksp ~k:4 g commodities).Rwc_core.Te.total_gbps);
      ("greedy-ksp k=8", fun g -> (Rwc_core.Te.greedy_ksp ~k:8 g commodities).Rwc_core.Te.total_gbps);
    ]
  in
  note "  algorithm        physical-Gbps   augmented-Gbps   gain";
  List.iter
    (fun (name, solve) ->
      let phys = solve (Graph.map_edges g (fun e -> (e.Graph.capacity, e.Graph.cost, ()))) in
      let augm =
        solve
          (Graph.map_edges aug.Rwc_core.Augment.graph (fun e ->
               (e.Graph.capacity, e.Graph.cost, ())))
      in
      note
        (Printf.sprintf "  %-15s  %13.0f  %15.0f  %+.0f%%" name phys augm
           (100.0 *. ((augm /. phys) -. 1.0))))
    algorithms;
  note "  (every algorithm is oblivious to the augmentation and still profits:";
  note "   the paper's central layering claim)"

(* --- A5: control granularity --------------------------------------------- *)

let granularity () =
  section "ablation-A5"
    "adaptation granularity: per-wavelength vs per-duct controllers";
  note "  correlation   per-lambda Gbps  per-duct Gbps  captured  reconfigs (l / d)";
  List.iter
    (fun corr ->
      let per_lambda, per_duct =
        Rwc_sim.Lambda_sim.compare_granularities ~seed:17 ~baseline_db:13.0
          ~n_lambdas:8 ~correlation:corr ~years:1.0 ()
      in
      note
        (Printf.sprintf "  %11.2f  %15.1f  %13.1f  %7.1f%%  %6d / %d" corr
           per_lambda.Rwc_sim.Lambda_sim.mean_capacity_gbps
           per_duct.Rwc_sim.Lambda_sim.mean_capacity_gbps
           (100.0
           *. per_duct.Rwc_sim.Lambda_sim.mean_capacity_gbps
           /. per_lambda.Rwc_sim.Lambda_sim.mean_capacity_gbps)
           per_lambda.Rwc_sim.Lambda_sim.reconfigurations
           per_duct.Rwc_sim.Lambda_sim.reconfigurations))
    [ 0.0; 0.5; 0.9; 1.0 ];
  note "  (wavelengths of one cable move together - paper Fig. 1 - so the";
  note "   simple per-duct controller captures nearly all of the capacity)"
