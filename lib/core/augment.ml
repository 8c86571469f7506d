module Graph = Rwc_flow.Graph

type tag = Real of Graph.edge_id | Fake of Graph.edge_id

type 'a t = {
  physical : 'a Graph.t;
  graph : tag Graph.t;
  fake_of_phys : Graph.edge_id option array;
}

let build ?(weight = fun _ -> 0.0) ~headroom ~penalty g =
  let g' = Graph.create ~n:(Graph.n_vertices g) in
  let fake_of_phys = Array.make (max 1 (Graph.n_edges g)) None in
  (* Real edges first so their ids are stable and dense. *)
  Graph.iter_edges
    (fun e ->
      let w = weight e.Graph.id in
      assert (w >= 0.0);
      ignore
        (Graph.add_edge g' ~src:e.Graph.src ~dst:e.Graph.dst
           ~capacity:e.Graph.capacity ~cost:w (Real e.Graph.id)))
    g;
  Graph.iter_edges
    (fun e ->
      let u = headroom e.Graph.id in
      assert (u >= 0.0);
      if u > 0.0 then begin
        let p = Penalty.evaluate penalty ~phys_edge_id:e.Graph.id in
        let id =
          Graph.add_edge g' ~src:e.Graph.src ~dst:e.Graph.dst ~capacity:u
            ~cost:(weight e.Graph.id +. p)
            (Fake e.Graph.id)
        in
        fake_of_phys.(e.Graph.id) <- Some id
      end)
    g;
  { physical = g; graph = g'; fake_of_phys }

let drop_fake t ~phys =
  let doomed =
    List.filter_map (fun p -> t.fake_of_phys.(p)) phys
  in
  let graph =
    Graph.filter t.graph (fun e -> not (List.mem e.Graph.id doomed))
  in
  (* Edge ids were reassigned by [filter]; rebuild the twin table. *)
  let fake_of_phys = Array.make (Array.length t.fake_of_phys) None in
  Graph.iter_edges
    (fun e ->
      match e.Graph.tag with
      | Real _ -> ()
      | Fake p -> fake_of_phys.(p) <- Some e.Graph.id)
    graph;
  { t with graph; fake_of_phys }
