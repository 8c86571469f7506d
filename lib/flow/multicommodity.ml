type commodity = { src : int; dst : int; demand : float }

type result = {
  lambda : float;
  flow : float array;
  routed : float array;
}

let total_throughput r = Array.fold_left ( +. ) 0.0 r.routed

let m_phases = Rwc_obs.Metrics.counter "mcf/phases"
let m_paths = Rwc_obs.Metrics.counter "mcf/augmenting_paths"
let m_phase_cap_hits = Rwc_obs.Metrics.counter "mcf/phase_cap_hits"
let m_dual_rechecks = Rwc_obs.Metrics.counter "mcf/dual_rechecks"

let max_phases = 10_000

(* The dual objective sum_e length(e) * c(e) over usable edges, summed
   in edge-id order, compared with 1.  The sum is also stored in
   [dual.(0)], which resyncs the running estimate; a bool, not the
   float sum, is returned so the call allocates nothing. *)
let dual_below_one length cap dual =
  Rwc_obs.Metrics.incr m_dual_rechecks;
  let acc = ref 0.0 in
  for e = 0 to Array.length length - 1 do
    if cap.(e) > 0.0 then acc := !acc +. (length.(e) *. cap.(e))
  done;
  dual.(0) <- !acc;
  !acc < 1.0

(* Between exact sums, [dual.(0)] is kept up to date by adding
   (new - old) * c(e) for each length update.  Its rounding error is a
   few ulps per update, orders of magnitude below [margin], so an
   estimate under 1 - margin proves the exact sum is under 1 too; any
   other estimate is settled by the exact sum.  Every test thus
   answers as the exact sum would. *)
let margin = 1e-6

(* Fleischer's phase variant of Garg-Könemann.  Edge lengths start at
   delta / capacity and are multiplied by (1 + eps * f / c) whenever f
   units are pushed; phases route each commodity's full demand along
   successively longer paths.  On termination the accumulated flow is
   scaled down by the worst congestion so it becomes feasible, and
   lambda is the resulting common fraction of demand shipped.

   No augmenting path allocates: lengths and capacities live in float
   arrays and every shortest path reuses one Dijkstra workspace, whose
   view holds the positive-capacity edges.  The dual objective is
   summed exactly at each phase head; within a phase the running
   estimate answers the per-path test, and the O(m) sum runs only when
   the estimate comes within [margin] of 1. *)
let solve ?(epsilon = 0.1) g commodities =
  assert (epsilon > 0.0 && epsilon <= 0.5);
  Array.iter
    (fun c -> assert (c.demand > 0.0 && c.src <> c.dst))
    commodities;
  let m = Graph.n_edges g in
  let n_com = Array.length commodities in
  if n_com = 0 then { lambda = infinity; flow = Array.make m 0.0; routed = [||] }
  else begin
    let delta =
      (float_of_int (max m 2) /. (1.0 -. epsilon)) ** (-1.0 /. epsilon)
    in
    let length = Array.make m 0.0 in
    let usable_cap = Array.make m 0.0 in
    Graph.iter_edges
      (fun e ->
        usable_cap.(e.Graph.id) <- e.Graph.capacity;
        (* Zero-capacity edges are left out of the workspace's view,
           so their length is irrelevant. *)
        length.(e.Graph.id) <-
          (if e.Graph.capacity > 0.0 then delta /. e.Graph.capacity else 0.0))
      g;
    (* Per-commodity per-edge flow, so each commodity can be rescaled
       to its own demand independently at the end. *)
    let com_flow = Array.make_matrix n_com m 0.0 in
    let routed_raw = Array.make n_com 0.0 in
    let ws = Shortest.Workspace.create ~usable:(fun eid -> usable_cap.(eid) > 0.0) g in
    let dual = [| 0.0 |] in
    let phases = ref 0 in
    (* A phase that finds no path changes no state, so every later
       phase would repeat it: stop instead of spinning to the cap. *)
    let stalled = ref false in
    while
      (not !stalled) && dual_below_one length usable_cap dual && !phases < max_phases
    do
      incr phases;
      Rwc_obs.Metrics.incr m_phases;
      let routed_any = ref false in
      for j = 0 to n_com - 1 do
        let c = commodities.(j) and cf = com_flow.(j) in
        let remaining = ref c.demand in
        while
          !remaining > 1e-12
          && (dual.(0) < 1.0 -. margin || dual_below_one length usable_cap dual)
        do
          if not (Shortest.Workspace.dijkstra ws ~length ~src:c.src ~dst:c.dst)
          then remaining := 0.0
          else begin
            Rwc_obs.Metrics.incr m_paths;
            routed_any := true;
            let hops = Shortest.Workspace.path_length ws in
            (* Capacities on a path are positive and finite, so plain
               comparisons pick the same values Float.min would. *)
            let bottleneck = ref infinity in
            for i = 0 to hops - 1 do
              let cap = usable_cap.(Shortest.Workspace.path_edge ws i) in
              if cap < !bottleneck then bottleneck := cap
            done;
            let f = if !remaining < !bottleneck then !remaining else !bottleneck in
            for i = 0 to hops - 1 do
              let eid = Shortest.Workspace.path_edge ws i in
              let cap = usable_cap.(eid) and old = length.(eid) in
              let grown = old *. (1.0 +. (epsilon *. f /. cap)) in
              cf.(eid) <- cf.(eid) +. f;
              length.(eid) <- grown;
              dual.(0) <- dual.(0) +. ((grown -. old) *. cap)
            done;
            routed_raw.(j) <- routed_raw.(j) +. f;
            remaining := !remaining -. f
          end
        done
      done;
      stalled := not !routed_any
    done;
    if (not !stalled) && dual_below_one length usable_cap dual then
      Rwc_obs.Metrics.incr m_phase_cap_hits;
    (* Scale to feasibility: first a global factor bringing the worst
       edge back within capacity, then a per-commodity cap so nobody
       ships more than its demand (phases over-route when the network
       has slack).  Per-commodity shrinking preserves edge feasibility
       and flow conservation. *)
    let accumulated = Array.make m 0.0 in
    Array.iter
      (fun cf -> Array.iteri (fun e f -> accumulated.(e) <- accumulated.(e) +. f) cf)
      com_flow;
    let congestion =
      Graph.fold_edges
        (fun acc e ->
          if e.Graph.capacity > 0.0 then
            Float.max acc (accumulated.(e.Graph.id) /. e.Graph.capacity)
          else acc)
        0.0 g
    in
    let scale = if congestion > 1.0 then 1.0 /. congestion else 1.0 in
    let flow = Array.make m 0.0 in
    let routed = Array.make n_com 0.0 in
    Array.iteri
      (fun j cf ->
        let shipped = routed_raw.(j) *. scale in
        let cap_j =
          if shipped > commodities.(j).demand then
            commodities.(j).demand /. shipped
          else 1.0
        in
        let factor = scale *. cap_j in
        Array.iteri (fun e f -> flow.(e) <- flow.(e) +. (f *. factor)) cf;
        routed.(j) <- routed_raw.(j) *. factor)
      com_flow;
    let lambda =
      Array.to_list (Array.mapi (fun j r -> r /. commodities.(j).demand) routed)
      |> List.fold_left Float.min infinity
    in
    { lambda; flow; routed }
  end
