module Graph = Rwc_flow.Graph
module Mc = Rwc_flow.Multicommodity

type result = {
  flow : float array;
  routed : float array;
  total_gbps : float;
  lambda_upper : float;
}

let m_mcf_solve = Rwc_obs.Metrics.histogram "te/mcf_solve"

let mcf ?epsilon g commodities =
  Rwc_perf.record Rwc_perf.Te_solve (fun () ->
  Rwc_obs.Trace.with_span "te/mcf" (fun () ->
      Rwc_obs.Metrics.time m_mcf_solve (fun () ->
          let { Mc.result = r; lambda_upper } =
            Mc.solve_certified ?epsilon g commodities
          in
          {
            flow = r.Mc.flow;
            routed = r.Mc.routed;
            total_gbps = Array.fold_left ( +. ) 0.0 r.Mc.routed;
            lambda_upper;
          })))

let greedy_ksp ?(k = 4) g commodities =
  let m = Graph.n_edges g in
  let residual = Array.make m 0.0 in
  Graph.iter_edges (fun e -> residual.(e.Graph.id) <- e.Graph.capacity) g;
  let flow = Array.make m 0.0 in
  let routed = Array.make (Array.length commodities) 0.0 in
  (* Largest demands first, as B4 allocates high-priority/elephant
     flows before the long tail. *)
  let order = Array.init (Array.length commodities) Fun.id in
  Array.sort
    (fun a b ->
      Float.compare commodities.(b).Mc.demand commodities.(a).Mc.demand)
    order;
  Array.iter
    (fun j ->
      let c = commodities.(j) in
      let paths = Rwc_flow.Shortest.k_shortest g ~src:c.Mc.src ~dst:c.Mc.dst ~k in
      let remaining = ref c.Mc.demand in
      List.iter
        (fun path ->
          if !remaining > 1e-9 then begin
            let bottleneck =
              List.fold_left
                (fun acc eid -> Float.min acc residual.(eid))
                infinity path
            in
            let send = Float.min bottleneck !remaining in
            if send > 1e-9 then begin
              List.iter
                (fun eid ->
                  residual.(eid) <- residual.(eid) -. send;
                  flow.(eid) <- flow.(eid) +. send)
                path;
              routed.(j) <- routed.(j) +. send;
              remaining := !remaining -. send
            end
          end)
        paths)
    order;
  {
    flow;
    routed;
    total_gbps = Array.fold_left ( +. ) 0.0 routed;
    lambda_upper = infinity;
  }

let utilization g result =
  Graph.fold_edges
    (fun acc e ->
      if e.Graph.capacity > 0.0 then
        Float.max acc (result.flow.(e.Graph.id) /. e.Graph.capacity)
      else acc)
    0.0 g
