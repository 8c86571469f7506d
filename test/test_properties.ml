(* Cross-module property tests beyond the per-module suites: solver
   contracts under random inputs, controller invariants over random SNR
   traces, and ordering invariants of the simulation plumbing. *)

module Graph = Rwc_flow.Graph

(* Reuse the random-graph machinery shape from Test_flow, specialised
   where the properties need extra structure. *)
let graph_gen =
  QCheck.Gen.(
    let* n = int_range 2 7 in
    let* edges =
      list_size (int_range 1 14)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
           (pair (int_range 1 15) (int_range 0 9)))
    in
    return (n, edges))

let arbitrary_graph =
  QCheck.make
    ~print:(fun (n, e) ->
      Printf.sprintf "n=%d m=%d" n (List.length e))
    graph_gen

let build (n, edges) =
  let g = Graph.create ~n in
  List.iter
    (fun (s, d, (c, w)) ->
      if s <> d then
        ignore
          (Graph.add_edge g ~src:s ~dst:d ~capacity:(float_of_int c)
             ~cost:(float_of_int w) ()))
    edges;
  g

(* --- mincost limit contract ------------------------------------------ *)

let prop_mincost_limit_respected =
  QCheck.Test.make ~name:"mincost: value <= limit and <= maxflow" ~count:200
    (QCheck.pair arbitrary_graph (QCheck.int_range 0 20))
    (fun (spec, limit) ->
      let g = build spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let limit = float_of_int limit in
      let r = Rwc_flow.Mincost.solve ~limit g ~src ~dst in
      let mf = Rwc_flow.Maxflow.solve g ~src ~dst in
      r.Rwc_flow.Mincost.value <= limit +. 1e-6
      && r.Rwc_flow.Mincost.value <= mf.Rwc_flow.Maxflow.value +. 1e-6
      && r.Rwc_flow.Mincost.value
         >= Float.min limit mf.Rwc_flow.Maxflow.value -. 1e-6)

(* --- multicommodity contracts ------------------------------------------ *)

let commodity_gen =
  QCheck.Gen.(
    let* spec = graph_gen in
    let n = fst spec in
    let* k = int_range 1 4 in
    let* pairs =
      list_repeat k
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 25))
    in
    return (spec, pairs))

let arbitrary_mc =
  QCheck.make
    ~print:(fun ((n, e), pairs) ->
      Printf.sprintf "n=%d m=%d k=%d" n (List.length e) (List.length pairs))
    commodity_gen

let build_mc (spec, pairs) =
  let g = build spec in
  let commodities =
    List.filter_map
      (fun (s, d, dem) ->
        if s <> d then
          Some { Rwc_flow.Multicommodity.src = s; dst = d; demand = float_of_int dem }
        else None)
      pairs
    |> Array.of_list
  in
  (g, commodities)

let prop_mc_feasible_and_capped =
  QCheck.Test.make
    ~name:"multicommodity: capacities respected, demands never over-served"
    ~count:150 arbitrary_mc (fun input ->
      let g, commodities = build_mc input in
      if Array.length commodities = 0 then true
      else begin
        let r = Rwc_flow.Multicommodity.solve ~epsilon:0.2 g commodities in
        let cap_ok =
          Graph.fold_edges
            (fun acc e ->
              acc && r.Rwc_flow.Multicommodity.flow.(e.Graph.id)
                     <= e.Graph.capacity +. 1e-6)
            true g
        in
        let demand_ok =
          Array.for_all2
            (fun routed c ->
              routed <= c.Rwc_flow.Multicommodity.demand +. 1e-6 && routed >= -1e-9)
            r.Rwc_flow.Multicommodity.routed commodities
        in
        cap_ok && demand_ok && r.Rwc_flow.Multicommodity.lambda <= 1.0 +. 1e-9
      end)

let prop_mc_lambda_bounded_by_maxflow =
  QCheck.Test.make
    ~name:"multicommodity: single commodity cannot beat maxflow" ~count:150
    arbitrary_graph (fun spec ->
      let g = build spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let demand = 30.0 in
      let r =
        Rwc_flow.Multicommodity.solve ~epsilon:0.15 g
          [| { Rwc_flow.Multicommodity.src; dst; demand } |]
      in
      let mf = Rwc_flow.Maxflow.solve g ~src ~dst in
      r.Rwc_flow.Multicommodity.routed.(0) <= mf.Rwc_flow.Maxflow.value +. 1e-6)

(* --- the multicommodity certificate ------------------------------------- *)

(* Garg-Könemann's dual bound must sit above the lambda the solve
   reaches, and within the scheme's guarantee of it: the bound is at
   least lambda*, and lambda >= (1 - eps)^3 / (1 + eps) * lambda* (the
   (1 + eps) for paths reused while within (1 + eps) of shortest).
   [lambda] is capped at 1, so the gap is measured against the bound
   capped at 1 too.  The gap property leaves out eps = 0.05: there
   the initial lengths sit far below the shortest-path search's
   absolute 1e-12 slack for most of the solve, the search keeps the
   first label it finds, and about one small instance in 40,000
   misses the guarantee (DESIGN.md, "TE kernel"). *)
let arbitrary_mc_eps epsilons =
  QCheck.pair arbitrary_mc (QCheck.oneofl ~print:string_of_float epsilons)

let certified input epsilon =
  let g, commodities = build_mc input in
  (g, commodities, Rwc_flow.Multicommodity.solve_certified ~epsilon g commodities)

let prop_mc_certificate_bounds_lambda =
  QCheck.Test.make ~name:"multicommodity: lambda <= lambda_upper" ~count:200
    (arbitrary_mc_eps [ 0.05; 0.1; 0.2; 0.3; 0.5 ])
    (fun (input, epsilon) ->
      let _, _, c = certified input epsilon in
      let module Mc = Rwc_flow.Multicommodity in
      c.Mc.result.Mc.lambda <= c.Mc.lambda_upper *. (1.0 +. 1e-9))

let prop_mc_certificate_gap =
  QCheck.Test.make
    ~name:"multicommodity: lambda_upper / lambda <= (1+eps)/(1-eps)^3" ~count:200
    (arbitrary_mc_eps [ 0.1; 0.2; 0.3; 0.5 ])
    (fun (input, epsilon) ->
      let _, commodities, c = certified input epsilon in
      let module Mc = Rwc_flow.Multicommodity in
      let lambda = c.Mc.result.Mc.lambda and upper = Float.min 1.0 c.Mc.lambda_upper in
      Array.length commodities = 0
      || (if lambda = 0.0 then upper = 0.0
          else upper /. lambda <= (1.0 +. epsilon) /. ((1.0 -. epsilon) ** 3.0)))

(* For one commodity the optimum is the max flow, which Maxflow
   computes exactly: routed <= max flow <= lambda_upper * demand. *)
let prop_mc_certificate_single_maxflow =
  QCheck.Test.make
    ~name:"multicommodity: routed <= maxflow <= lambda_upper * demand" ~count:200
    (QCheck.pair arbitrary_graph (QCheck.int_range 1 40)) (fun (spec, demand) ->
      let g = build spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let demand = float_of_int demand in
      let module Mc = Rwc_flow.Multicommodity in
      let c = Mc.solve_certified ~epsilon:0.15 g [| { Mc.src; dst; demand } |] in
      let mf = (Rwc_flow.Maxflow.solve g ~src ~dst).Rwc_flow.Maxflow.value in
      c.Mc.result.Mc.routed.(0) <= mf +. 1e-6
      && mf <= (c.Mc.lambda_upper *. demand *. (1.0 +. 1e-9)) +. 1e-9)

(* The runner's solve memo rests on this: a solve is a pure function of
   its input, so no state (a reused Dijkstra workspace, say) leaks from
   one solve into the next.  Solving A, then B, then A again must give
   A's result bit for bit, through the flow layer and the TE wrapper. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let prop_mc_solve_pure =
  QCheck.Test.make ~name:"multicommodity: solve A, B, A gives A's bits twice"
    ~count:150 (QCheck.pair arbitrary_mc arbitrary_mc) (fun (a, b) ->
      let ga, ca = build_mc a and gb, cb = build_mc b in
      let epsilon = 0.2 in
      let module Mc = Rwc_flow.Multicommodity in
      let mc g c = Mc.solve ~epsilon g c in
      let te g c = Rwc_core.Te.mcf ~epsilon g c in
      let mc1 = mc ga ca in
      ignore (mc gb cb);
      let mc2 = mc ga ca in
      let te1 = te ga ca in
      ignore (te gb cb);
      let te2 = te ga ca in
      bits_equal [| mc1.Mc.lambda |] [| mc2.Mc.lambda |]
      && bits_equal mc1.Mc.flow mc2.Mc.flow
      && bits_equal mc1.Mc.routed mc2.Mc.routed
      && bits_equal te1.Rwc_core.Te.flow te2.Rwc_core.Te.flow
      && bits_equal te1.Rwc_core.Te.routed te2.Rwc_core.Te.routed
      && bits_equal
           [| te1.Rwc_core.Te.total_gbps |]
           [| te2.Rwc_core.Te.total_gbps |])

(* --- adaptation controller invariants ----------------------------------- *)

let trace_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* baseline10 = int_range 100 200 in
    return (seed, float_of_int baseline10 /. 10.0))

let arbitrary_trace =
  QCheck.make
    ~print:(fun (seed, b) -> Printf.sprintf "seed=%d baseline=%.1f" seed b)
    trace_gen

let prop_adapt_always_feasible =
  QCheck.Test.make
    ~name:"adapt: configured capacity is always a feasible denomination"
    ~count:60 arbitrary_trace (fun (seed, baseline) ->
      let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:baseline () in
      let trace, _ =
        Rwc_telemetry.Snr_model.generate (Rwc_stats.Rng.create seed) p
          ~years:0.1
      in
      let ctl = Rwc_core.Adapt.create ~initial_gbps:100 () in
      Array.for_all
        (fun snr ->
          ignore (Rwc_core.Adapt.step ctl ~snr_db:snr);
          let cap = Rwc_core.Adapt.capacity_gbps ctl in
          (* After the step, the configured rate never exceeds what the
             just-seen SNR supports (hysteresis only delays going UP,
             never staying too high). *)
          cap <= Rwc_optical.Modulation.feasible_gbps snr
          && (cap = 0 || Rwc_optical.Modulation.of_gbps cap <> None))
        trace)

let prop_availability_bounded =
  QCheck.Test.make
    ~name:"availability: delivered <= configured capacity x time, and static
           never flaps"
    ~count:60 arbitrary_trace (fun (seed, baseline) ->
      let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:baseline () in
      let trace, _ =
        Rwc_telemetry.Snr_model.generate (Rwc_stats.Rng.create seed) p
          ~years:0.1
      in
      let adaptive =
        Rwc_core.Availability.evaluate
          (Rwc_core.Availability.Adaptive
             {
               config = Rwc_core.Adapt.default_config;
               reconfig_downtime_s = 68.0;
             })
          trace
      in
      let static = Rwc_core.Availability.evaluate (Rwc_core.Availability.Static 100) trace in
      let horizon_s = float_of_int (Array.length trace) *. 900.0 in
      adaptive.Rwc_core.Availability.delivered_pbit
      <= 200.0 *. horizon_s /. 1e6 +. 1e-9
      && static.Rwc_core.Availability.flaps = 0
      && adaptive.Rwc_core.Availability.availability <= 1.0 +. 1e-9
      && adaptive.Rwc_core.Availability.availability >= 0.0)

(* --- event queue vs reference sort ---------------------------------------- *)

let prop_event_queue_sorts =
  QCheck.Test.make ~name:"event queue: pops in (time, insertion) order"
    ~count:200
    QCheck.(list (float_bound_inclusive 100.0))
    (fun times ->
      let q = Rwc_sim.Event_queue.create () in
      List.iteri (fun i t -> Rwc_sim.Event_queue.add q ~time:t i) times;
      let rec drain acc =
        match Rwc_sim.Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, i) -> drain ((t, i) :: acc)
      in
      let popped = drain [] in
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      in
      popped = expected)

(* --- translate/augment contracts ------------------------------------------- *)

let prop_decisions_within_headroom =
  QCheck.Test.make ~name:"translate: upgrade never exceeds declared headroom"
    ~count:150 arbitrary_graph (fun spec ->
      let g = build spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let headroom e = float_of_int ((e * 3 mod 7) + 1) in
      let aug =
        Rwc_core.Augment.build ~headroom ~penalty:(Rwc_core.Penalty.Uniform 1.0) g
      in
      let r = Rwc_flow.Mincost.solve aug.Rwc_core.Augment.graph ~src ~dst in
      let ds = Rwc_core.Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
      List.for_all
        (fun d ->
          d.Rwc_core.Translate.extra_gbps
          <= headroom d.Rwc_core.Translate.phys_edge +. 1e-6
          && d.Rwc_core.Translate.extra_gbps > 0.0)
        ds)

let prop_phys_flow_conserved =
  QCheck.Test.make
    ~name:"translate: physical flow view conserves at interior vertices"
    ~count:150 arbitrary_graph (fun spec ->
      let g = build spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let aug =
        Rwc_core.Augment.build
          ~headroom:(fun _ -> 5.0)
          ~penalty:Rwc_core.Penalty.Zero g
      in
      let r = Rwc_flow.Mincost.solve aug.Rwc_core.Augment.graph ~src ~dst in
      let pf = Rwc_core.Translate.phys_flow aug ~flow:r.Rwc_flow.Mincost.flow in
      let balance = Array.make (Graph.n_vertices g) 0.0 in
      Graph.iter_edges
        (fun e ->
          balance.(e.Graph.src) <- balance.(e.Graph.src) -. pf.(e.Graph.id);
          balance.(e.Graph.dst) <- balance.(e.Graph.dst) +. pf.(e.Graph.id))
        g;
      let ok = ref true in
      Array.iteri
        (fun v b -> if v <> src && v <> dst && Float.abs b > 1e-6 then ok := false)
        balance;
      !ok)

(* --- snr model output contract --------------------------------------------- *)

let prop_snr_trace_bounded =
  QCheck.Test.make ~name:"snr model: trace within [0, baseline + 8 sigma]"
    ~count:60 arbitrary_trace (fun (seed, baseline) ->
      let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:baseline () in
      let trace, dips =
        Rwc_telemetry.Snr_model.generate (Rwc_stats.Rng.create seed) p
          ~years:0.1
      in
      let sigma =
        Rwc_stats.Timeseries.ar1_stationary_sigma
          p.Rwc_telemetry.Snr_model.wander
      in
      Array.for_all
        (fun s -> s >= 0.0 && s <= baseline +. (8.0 *. sigma))
        trace
      && List.for_all
           (fun d ->
             d.Rwc_telemetry.Snr_model.start >= 0
             && d.Rwc_telemetry.Snr_model.start < Array.length trace
             && d.Rwc_telemetry.Snr_model.duration >= 1
             && d.Rwc_telemetry.Snr_model.floor_db >= 0.0)
           dips)

(* --- fault injection / retry machinery ------------------------------------ *)

let prop_backoff_monotone_and_capped =
  QCheck.Test.make
    ~name:"retry: backoff delays monotone non-decreasing and capped"
    ~count:200
    QCheck.(
      quad (int_range 1 600) (int_range 10 40) (int_range 1 6000)
        (int_range 1 20))
    (fun (base10, factor10, cap10, attempts) ->
      (* base in [0.1, 60], factor in [1.0, 4.0], cap in [0.1, 600]. *)
      let p =
        {
          Rwc_fault.max_attempts = attempts;
          base_s = float_of_int base10 /. 10.0;
          factor = float_of_int factor10 /. 10.0;
          cap_s = float_of_int cap10 /. 10.0;
        }
      in
      let delays =
        List.init attempts (fun i ->
            Rwc_fault.backoff_delay p ~attempt:(i + 1))
      in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone delays
      && List.for_all (fun d -> d > 0.0 && d <= p.Rwc_fault.cap_s) delays)

let bvt_fail_plan ~seed ~prob =
  {
    Rwc_fault.seed;
    rules =
      [
        {
          Rwc_fault.component = Rwc_fault.Bvt_reconfig;
          prob;
          param = 0.0;
          window = None;
        };
      ];
  }

let prop_degraded_bvt_never_active =
  QCheck.Test.make
    ~name:"bvt: health tracks the last real change (degraded never active)"
    ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 9))
    (fun (seed, prob10) ->
      let faults =
        Rwc_fault.compile
          (bvt_fail_plan ~seed ~prob:(float_of_int prob10 /. 10.0))
      in
      let rng = Rwc_stats.Rng.create (seed + 1) in
      let t = Rwc_optical.Bvt.create Rwc_optical.Modulation.Qpsk in
      let targets =
        [| Rwc_optical.Modulation.Qam8; Rwc_optical.Modulation.Qam16;
           Rwc_optical.Modulation.Qpsk |]
      in
      let ok = ref (Rwc_optical.Bvt.health t = Rwc_optical.Bvt.Active) in
      for i = 0 to 29 do
        let previous = Rwc_optical.Bvt.health t in
        let scheme_before = Rwc_optical.Bvt.scheme t in
        match
          Rwc_optical.Bvt.try_change_modulation t rng ~faults
            ~target:targets.(i mod 3) ~procedure:Rwc_optical.Bvt.Efficient ()
        with
        | Ok c ->
            if c.Rwc_optical.Bvt.steps = [] then
              (* Same-scheme no-op: commits nothing, recovers nothing. *)
              ok :=
                !ok
                && Rwc_optical.Bvt.health t = previous
                && Rwc_optical.Bvt.scheme t = scheme_before
            else
              ok :=
                !ok
                && Rwc_optical.Bvt.health t = Rwc_optical.Bvt.Active
                && Rwc_optical.Bvt.scheme t = targets.(i mod 3)
        | Error f ->
            ok :=
              !ok
              && Rwc_optical.Bvt.health t = Rwc_optical.Bvt.Degraded
              && Rwc_optical.Bvt.scheme t = scheme_before
              && f.Rwc_optical.Bvt.attempted = targets.(i mod 3)
      done;
      !ok)

let prop_fill_gaps_respects_max_fill =
  QCheck.Test.make
    ~name:"collector: fill_gaps never reconstructs across a gap > max_fill"
    ~count:150
    QCheck.(
      quad (int_range 0 10_000) (int_range 0 30) (int_range 0 50)
        (int_range 1 10))
    (fun (seed, outage100, loss100, max_fill) ->
      (* Injected collector outages and corruption on top of ordinary
         poll loss: however the gaps arise, a reconstruction must never
         paper over a hole longer than max_fill slots. *)
      let faults =
        Rwc_fault.compile
          {
            Rwc_fault.seed;
            rules =
              [
                {
                  Rwc_fault.component = Rwc_fault.Collector_outage;
                  prob = float_of_int outage100 /. 100.0;
                  param = 0.0;
                  window = None;
                };
                {
                  Rwc_fault.component = Rwc_fault.Collector_corrupt;
                  prob = 0.2;
                  param = 1.5;
                  window = None;
                };
              ];
          }
      in
      let n = 120 in
      let trace = Array.make n 14.0 in
      let rng = Rwc_stats.Rng.create (seed + 1) in
      let samples =
        (* Several sweeps so an outage can blank one sweep but not the
           others, building realistic multi-scale gap structure. *)
        List.concat
          (List.init 3 (fun sweep ->
               let sub =
                 Rwc_telemetry.Collector.poll ~faults
                   ~now:(float_of_int sweep)
                   rng
                   (Array.sub trace (sweep * 40) 40)
                   ~loss_prob:(float_of_int loss100 /. 100.0)
               in
               List.map
                 (fun s ->
                   {
                     s with
                     Rwc_telemetry.Collector.index =
                       s.Rwc_telemetry.Collector.index + (sweep * 40);
                   })
                 sub))
      in
      let gap = Rwc_telemetry.Collector.max_gap samples ~n in
      match Rwc_telemetry.Collector.fill_gaps ~max_fill samples ~n with
      | Some filled ->
          gap <= max_fill
          && Array.length filled = n
          (* Corruption perturbs by <= param, LOCF copies values: the
             reconstruction stays within the corruption envelope. *)
          && Array.for_all (fun v -> Float.abs (v -. 14.0) <= 1.5 +. 1e-9) filled
      | None -> samples = [] || gap > max_fill)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mincost_limit_respected;
      prop_mc_feasible_and_capped;
      prop_mc_lambda_bounded_by_maxflow;
      prop_mc_certificate_bounds_lambda;
      prop_mc_certificate_gap;
      prop_mc_certificate_single_maxflow;
      prop_mc_solve_pure;
      prop_adapt_always_feasible;
      prop_availability_bounded;
      prop_event_queue_sorts;
      prop_decisions_within_headroom;
      prop_phys_flow_conserved;
      prop_snr_trace_bounded;
      prop_backoff_monotone_and_capped;
      prop_degraded_bvt_never_active;
      prop_fill_gaps_respects_max_fill;
    ]
