(* Capacity planning on the North-American backbone.

   Derives each duct's upgrade headroom from its physical route length
   (long routes have less SNR margin), augments the backbone, asks the
   TE layer where extra traffic between the largest metro pairs should
   go, and prints the upgrade plan (Algorithm 1 on the backbone).

   Run with:  dune exec examples/capacity_planning.exe *)

module Graph = Rwc_flow.Graph
module Backbone = Rwc_topology.Backbone

let () =
  let bb = Backbone.north_america in
  let net = Rwc_sim.Netstate.make ~seed:2024 bb in
  let g = Rwc_sim.Netstate.graph net in
  let duct_of e = (Graph.edge g e).Graph.tag in
  let headroom e =
    Rwc_sim.Netstate.headroom net.Rwc_sim.Netstate.ducts.(duct_of e)
  in
  Printf.printf "backbone: %d cities, %d ducts\n" (Backbone.n_cities bb)
    (Array.length bb.Backbone.ducts);
  let upgradable =
    Graph.fold_edges
      (fun acc e -> if headroom e.Graph.id > 0.0 then acc + 1 else acc)
      0 g
  in
  Printf.printf "%d of %d directed edges have SNR headroom\n" upgradable
    (Graph.n_edges g);

  (* Traffic currently on the network (a routed gravity matrix) becomes
     the penalty: upgrading a busy link disrupts more traffic. *)
  let demands =
    Rwc_topology.Traffic.top_k
      (Rwc_topology.Traffic.gravity bb ~total_gbps:14_000.0)
      30
  in
  let commodities = Rwc_topology.Traffic.to_commodities demands in
  let current = Rwc_core.Te.mcf ~epsilon:0.15 g commodities in
  Printf.printf "current TE round routes %.0f Gbps\n"
    current.Rwc_core.Te.total_gbps;

  (* Plan on the RESIDUAL network: what is left after the current
     traffic, so the answer reflects the network as it is running. *)
  let residual =
    Graph.map_edges g (fun e ->
        ( Float.max 0.0 (e.Graph.capacity -. current.Rwc_core.Te.flow.(e.Graph.id)),
          e.Graph.cost,
          e.Graph.tag ))
  in
  let aug =
    Rwc_core.Augment.build ~headroom
      ~penalty:(Rwc_core.Penalty.Traffic_proportional current.Rwc_core.Te.flow)
      residual
  in

  (* Where would the network put 1200 extra Gbps between NY and LA? *)
  let src = Backbone.city_index bb "NewYork" in
  let dst = Backbone.city_index bb "LosAngeles" in
  let r =
    Rwc_flow.Mincost.solve ~limit:1200.0 aug.Rwc_core.Augment.graph ~src ~dst
  in
  Printf.printf "\nplanning +1200 Gbps NewYork -> LosAngeles: routed %.0f Gbps\n"
    r.Rwc_flow.Mincost.value;
  let decisions = Rwc_core.Translate.decisions aug ~flow:r.Rwc_flow.Mincost.flow in
  if decisions = [] then
    print_endline "no upgrades needed: existing capacity absorbs the demand"
  else begin
    Printf.printf "upgrade plan (%d links, +%.0f Gbps, penalty %.0f):\n"
      (List.length decisions)
      (Rwc_core.Translate.total_extra decisions)
      (Rwc_core.Translate.total_penalty decisions);
    List.iter
      (fun d ->
        let duct = bb.Backbone.ducts.(duct_of d.Rwc_core.Translate.phys_edge) in
        Printf.printf "  %-14s - %-14s  +%.0f Gbps (route %.0f km)\n"
          bb.Backbone.cities.(duct.Backbone.a).Backbone.name
          bb.Backbone.cities.(duct.Backbone.b).Backbone.name
          d.Rwc_core.Translate.extra_gbps duct.Backbone.route_km)
      decisions
  end
