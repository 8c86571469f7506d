module Graph = Rwc_flow.Graph
module Mc = Rwc_flow.Multicommodity

type klass = Interactive | Elastic | Background

let klass_name = function
  | Interactive -> "interactive"
  | Elastic -> "elastic"
  | Background -> "background"

type class_demand = { src : int; dst : int; gbps : float; klass : klass }

type allocation = {
  flow : float array;
  per_class : (klass * Te.result) list;
  routed_gbps : float;
}

let commodities_of demands =
  Array.of_list
    (List.map (fun d -> { Mc.src = d.src; dst = d.dst; demand = d.gbps }) demands)

let residual_graph g used =
  Graph.map_edges g (fun e ->
      ( Float.max 0.0 (e.Graph.capacity -. used.(e.Graph.id)),
        e.Graph.cost,
        e.Graph.tag ))

let allocate ?epsilon ?(interactive_k = 2) g demands =
  let m = Graph.n_edges g in
  let used = Array.make m 0.0 in
  let allocate_class klass =
    let mine = List.filter (fun d -> d.klass = klass) demands in
    let commodities = commodities_of mine in
    let residual = residual_graph g used in
    let result =
      if Array.length commodities = 0 then
        {
          Te.flow = Array.make m 0.0;
          routed = [||];
          total_gbps = 0.0;
          lambda_upper = infinity;
        }
      else
        match klass with
        | Interactive -> Te.greedy_ksp ~k:interactive_k residual commodities
        | Elastic | Background -> Te.mcf ?epsilon residual commodities
    in
    Array.iteri (fun i f -> used.(i) <- used.(i) +. f) result.Te.flow;
    (klass, result)
  in
  let per_class = List.map allocate_class [ Interactive; Elastic; Background ] in
  {
    flow = used;
    per_class;
    routed_gbps =
      List.fold_left (fun acc (_, r) -> acc +. r.Te.total_gbps) 0.0 per_class;
  }

(* -- congestion-free updates -- *)

type update_plan = { steps : float array list; slack : float }

let transient_load from_cfg to_cfg =
  Array.mapi
    (fun i f -> f +. Float.max 0.0 (to_cfg.(i) -. f))
    from_cfg

let fits ~capacity ~headroom cfg =
  let ok = ref true in
  Array.iteri
    (fun i f -> if f > (capacity.(i) *. headroom) +. 1e-6 then ok := false)
    cfg;
  !ok

let update_plan ~slack ~capacity ~old_flow ~new_flow =
  if not (slack > 0.0 && slack < 1.0) then Error "slack must be in (0, 1)"
  else if not (fits ~capacity ~headroom:(1.0 -. slack) old_flow) then
    Error "old configuration exceeds (1 - slack) * capacity on some link"
  else if not (fits ~capacity ~headroom:(1.0 -. slack) new_flow) then
    Error "new configuration exceeds (1 - slack) * capacity on some link"
  else begin
    (* ceil(1/s) - 1 intermediate configurations plus the final one:
       k transitions, each moving at most a 1/k fraction of the flow
       delta, which the s-slack absorbs even under asynchronous
       application. *)
    let k = max 1 (int_of_float (ceil (1.0 /. slack))) in
    let steps =
      List.init k (fun j ->
          let t = float_of_int (j + 1) /. float_of_int k in
          Array.mapi
            (fun i f_old -> f_old +. (t *. (new_flow.(i) -. f_old)))
            old_flow)
    in
    Ok { steps; slack }
  end

let plan_is_congestion_free ~capacity ~old_flow plan =
  let rec check prev = function
    | [] -> true
    | step :: rest ->
        let transient = transient_load prev step in
        let ok = ref true in
        Array.iteri
          (fun i t -> if t > capacity.(i) +. 1e-6 then ok := false)
          transient;
        !ok && check step rest
  in
  check old_flow plan.steps
