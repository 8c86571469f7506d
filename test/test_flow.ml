open Rwc_flow

(* --- helpers ------------------------------------------------------- *)

let diamond () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, plus a cross edge 1 -> 2. *)
  let g = Graph.create ~n:4 in
  let e01 = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10.0 ~cost:1.0 () in
  let e02 = Graph.add_edge g ~src:0 ~dst:2 ~capacity:5.0 ~cost:1.0 () in
  let e13 = Graph.add_edge g ~src:1 ~dst:3 ~capacity:7.0 ~cost:1.0 () in
  let e23 = Graph.add_edge g ~src:2 ~dst:3 ~capacity:8.0 ~cost:1.0 () in
  let e12 = Graph.add_edge g ~src:1 ~dst:2 ~capacity:4.0 ~cost:1.0 () in
  (g, (e01, e02, e13, e23, e12))

let check_conservation g ~src ~dst flow =
  let n = Graph.n_vertices g in
  let balance = Array.make n 0.0 in
  Graph.iter_edges
    (fun e ->
      balance.(e.Graph.src) <- balance.(e.Graph.src) -. flow.(e.Graph.id);
      balance.(e.Graph.dst) <- balance.(e.Graph.dst) +. flow.(e.Graph.id))
    g;
  for v = 0 to n - 1 do
    if v <> src && v <> dst then
      if Float.abs balance.(v) > 1e-6 then
        Alcotest.failf "conservation violated at %d: %f" v balance.(v)
  done

let check_capacities g flow =
  Graph.iter_edges
    (fun e ->
      if flow.(e.Graph.id) > e.Graph.capacity +. 1e-6 then
        Alcotest.failf "capacity violated on edge %d" e.Graph.id;
      if flow.(e.Graph.id) < -1e-6 then
        Alcotest.failf "negative flow on edge %d" e.Graph.id)
    g

(* --- graph --------------------------------------------------------- *)

let test_graph_basics () =
  let g, (e01, _, _, _, _) = diamond () in
  Alcotest.(check int) "vertices" 4 (Graph.n_vertices g);
  Alcotest.(check int) "edges" 5 (Graph.n_edges g);
  let e = Graph.edge g e01 in
  Alcotest.(check int) "src" 0 e.Graph.src;
  Alcotest.(check int) "dst" 1 e.Graph.dst;
  Alcotest.(check (float 1e-9)) "cap" 10.0 e.Graph.capacity;
  Alcotest.(check (list int)) "out 0" [ 0; 1 ] (Graph.out_edges g 0);
  Alcotest.(check (list int)) "in 3" [ 2; 3 ] (Graph.in_edges g 3)

let test_graph_parallel_edges () =
  let g = Graph.create ~n:2 in
  let a = Graph.add_edge g ~src:0 ~dst:1 ~capacity:1.0 ~cost:0.0 "real" in
  let b = Graph.add_edge g ~src:0 ~dst:1 ~capacity:2.0 ~cost:5.0 "fake" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "tag a" "real" (Graph.edge g a).Graph.tag;
  Alcotest.(check string) "tag b" "fake" (Graph.edge g b).Graph.tag;
  Alcotest.(check int) "both leave 0" 2 (List.length (Graph.out_edges g 0))

let test_graph_filter () =
  let g, _ = diamond () in
  let g' = Graph.filter g (fun e -> e.Graph.capacity > 5.0) in
  Alcotest.(check int) "kept" 3 (Graph.n_edges g');
  Alcotest.(check int) "vertices preserved" 4 (Graph.n_vertices g')

let test_graph_map_edges () =
  let g, _ = diamond () in
  let g' = Graph.map_edges g (fun e -> (e.Graph.capacity *. 2.0, 9.0, e.Graph.tag)) in
  Graph.iter_edges
    (fun e -> Alcotest.(check (float 1e-9)) "cost set" 9.0 e.Graph.cost)
    g';
  Alcotest.(check (float 1e-9)) "cap doubled" 20.0 (Graph.edge g' 0).Graph.capacity

(* --- max flow ------------------------------------------------------ *)

let test_maxflow_diamond () =
  let g, _ = diamond () in
  let r = Maxflow.solve g ~src:0 ~dst:3 in
  (* Cut {0}: 15; cut {3}: 15; actual bottleneck: e13 + e23 = 15 but
     e01=10 feeds e13(7)+e12(4), e02=5 feeds e23; max is 7+4+5 capped by
     e23=8: flow = 7 + min(8, 5+4) = 15.  Known answer: 15. *)
  Alcotest.(check (float 1e-6)) "value" 15.0 r.Maxflow.value;
  check_conservation g ~src:0 ~dst:3 r.Maxflow.flow;
  check_capacities g r.Maxflow.flow

let test_maxflow_disconnected () =
  let g = Graph.create ~n:3 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:5.0 ~cost:0.0 () in
  let r = Maxflow.solve g ~src:0 ~dst:2 in
  Alcotest.(check (float 1e-9)) "no path" 0.0 r.Maxflow.value

let test_maxflow_single_edge () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:3.5 ~cost:0.0 () in
  let r = Maxflow.solve g ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "value" 3.5 r.Maxflow.value

let test_maxflow_parallel () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:3.0 ~cost:0.0 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:4.0 ~cost:0.0 () in
  let r = Maxflow.solve g ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "parallel edges sum" 7.0 r.Maxflow.value

let test_maxflow_zero_capacity () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:0.0 ~cost:0.0 () in
  let r = Maxflow.solve g ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "zero" 0.0 r.Maxflow.value

let test_min_cut_matches_value () =
  let g, _ = diamond () in
  let r = Maxflow.solve g ~src:0 ~dst:3 in
  let side = Maxflow.min_cut g ~src:0 ~dst:3 r in
  Alcotest.(check bool) "src in cut" true side.(0);
  Alcotest.(check bool) "dst not in cut" false side.(3);
  let cut_cap =
    Graph.fold_edges
      (fun acc e ->
        if side.(e.Graph.src) && not side.(e.Graph.dst) then
          acc +. e.Graph.capacity
        else acc)
      0.0 g
  in
  Alcotest.(check (float 1e-6)) "cut capacity = flow value" r.Maxflow.value cut_cap

(* --- min cost ------------------------------------------------------ *)

let test_mincost_prefers_cheap_path () =
  let g = Graph.create ~n:3 in
  let cheap = Graph.add_edge g ~src:0 ~dst:2 ~capacity:5.0 ~cost:1.0 () in
  let _via1 = Graph.add_edge g ~src:0 ~dst:1 ~capacity:5.0 ~cost:10.0 () in
  let _via2 = Graph.add_edge g ~src:1 ~dst:2 ~capacity:5.0 ~cost:10.0 () in
  let r = Mincost.solve g ~src:0 ~dst:2 ~limit:5.0 in
  Alcotest.(check (float 1e-6)) "value" 5.0 r.Mincost.value;
  Alcotest.(check (float 1e-6)) "all on cheap edge" 5.0 r.Mincost.flow.(cheap);
  Alcotest.(check (float 1e-6)) "cost" 5.0 r.Mincost.cost

let test_mincost_limit () =
  let g, _ = diamond () in
  let r = Mincost.solve g ~src:0 ~dst:3 ~limit:6.0 in
  Alcotest.(check (float 1e-6)) "limited value" 6.0 r.Mincost.value;
  check_conservation g ~src:0 ~dst:3 r.Mincost.flow;
  check_capacities g r.Mincost.flow

let test_mincost_value_equals_maxflow () =
  let g, _ = diamond () in
  let mf = Maxflow.solve g ~src:0 ~dst:3 in
  let mc = Mincost.solve g ~src:0 ~dst:3 in
  Alcotest.(check (float 1e-6)) "same value" mf.Maxflow.value mc.Mincost.value

let test_mincost_spills_to_expensive () =
  (* Cheap path saturates; remainder must take the expensive one. *)
  let g = Graph.create ~n:2 in
  let cheap = Graph.add_edge g ~src:0 ~dst:1 ~capacity:3.0 ~cost:1.0 () in
  let dear = Graph.add_edge g ~src:0 ~dst:1 ~capacity:10.0 ~cost:4.0 () in
  let r = Mincost.solve g ~src:0 ~dst:1 ~limit:8.0 in
  Alcotest.(check (float 1e-6)) "cheap full" 3.0 r.Mincost.flow.(cheap);
  Alcotest.(check (float 1e-6)) "dear remainder" 5.0 r.Mincost.flow.(dear);
  Alcotest.(check (float 1e-6)) "cost 3*1+5*4" 23.0 r.Mincost.cost

let test_cycle_cancel_agrees_diamond () =
  let g, _ = diamond () in
  let a = Mincost.solve g ~src:0 ~dst:3 in
  let b = Cycle_cancel.solve g ~src:0 ~dst:3 in
  Alcotest.(check (float 1e-6)) "value" a.Mincost.value b.Mincost.value;
  Alcotest.(check (float 1e-5)) "cost" a.Mincost.cost b.Mincost.cost

(* --- shortest paths ------------------------------------------------ *)

let test_dijkstra_shortest () =
  let g, (e01, e02, e13, e23, _) = diamond () in
  ignore (e02, e23);
  match Shortest.dijkstra g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "two hops" 2 (List.length p);
      Alcotest.(check (float 1e-9)) "cost 2" 2.0 (Shortest.path_cost g p);
      Alcotest.(check bool) "starts at src" true
        (List.hd p = e01 || List.hd p = e02);
      ignore (e13)

let test_dijkstra_unreachable () =
  let g = Graph.create ~n:2 in
  Alcotest.(check bool) "none" true (Shortest.dijkstra g ~src:0 ~dst:1 = None)

let test_dijkstra_respects_usable () =
  let g = Graph.create ~n:3 in
  let direct = Graph.add_edge g ~src:0 ~dst:2 ~capacity:1.0 ~cost:1.0 () in
  let _a = Graph.add_edge g ~src:0 ~dst:1 ~capacity:1.0 ~cost:1.0 () in
  let _b = Graph.add_edge g ~src:1 ~dst:2 ~capacity:1.0 ~cost:1.0 () in
  match Shortest.dijkstra ~usable:(fun e -> e <> direct) g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "detour exists"
  | Some p -> Alcotest.(check int) "takes detour" 2 (List.length p)

let test_bellman_ford_matches_dijkstra () =
  let g, _ = diamond () in
  let dist = Shortest.bellman_ford g ~src:0 in
  Alcotest.(check (float 1e-9)) "dist to 3" 2.0 dist.(3);
  Alcotest.(check (float 1e-9)) "dist to 0" 0.0 dist.(0)

let test_bellman_ford_negative_edge () =
  let g = Graph.create ~n:3 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:1.0 ~cost:5.0 () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:1.0 ~cost:(-3.0) () in
  let dist = Shortest.bellman_ford g ~src:0 in
  Alcotest.(check (float 1e-9)) "negative edge ok" 2.0 dist.(2)

let test_bellman_ford_negative_cycle () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:1.0 ~cost:(-1.0) () in
  let _ = Graph.add_edge g ~src:1 ~dst:0 ~capacity:1.0 ~cost:(-1.0) () in
  Alcotest.check_raises "detects cycle"
    (Invalid_argument "Shortest.bellman_ford: negative-cost cycle")
    (fun () -> ignore (Shortest.bellman_ford g ~src:0))

let test_yen_k_shortest () =
  let g, _ = diamond () in
  let paths = Shortest.k_shortest g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three loopless paths" 3 (List.length paths);
  let costs = List.map (Shortest.path_cost g) paths in
  Alcotest.(check (list (float 1e-9))) "sorted costs" [ 2.0; 2.0; 3.0 ] costs;
  (* All paths distinct. *)
  let distinct = List.sort_uniq compare paths in
  Alcotest.(check int) "distinct" 3 (List.length distinct)

let test_yen_k_larger_than_paths () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:1.0 ~cost:1.0 () in
  let paths = Shortest.k_shortest g ~src:0 ~dst:1 ~k:5 in
  Alcotest.(check int) "only one exists" 1 (List.length paths)

(* --- multicommodity ------------------------------------------------- *)

let test_gk_single_commodity_matches_maxflow () =
  let g, _ = diamond () in
  let r =
    Multicommodity.solve ~epsilon:0.05 g
      [| { Multicommodity.src = 0; dst = 3; demand = 100.0 } |]
  in
  (* Max flow is 15, demand 100 -> lambda ~ 0.15. *)
  Alcotest.(check (float 0.01)) "lambda" 0.15 r.Multicommodity.lambda;
  check_capacities g r.Multicommodity.flow

let test_gk_two_commodities_share () =
  (* Two commodities share a single 10-unit link. *)
  let g = Graph.create ~n:4 in
  let _ = Graph.add_edge g ~src:0 ~dst:2 ~capacity:10.0 ~cost:1.0 () in
  let _ = Graph.add_edge g ~src:1 ~dst:2 ~capacity:10.0 ~cost:1.0 () in
  let _ = Graph.add_edge g ~src:2 ~dst:3 ~capacity:10.0 ~cost:1.0 () in
  let r =
    Multicommodity.solve ~epsilon:0.05 g
      [|
        { Multicommodity.src = 0; dst = 3; demand = 10.0 };
        { Multicommodity.src = 1; dst = 3; demand = 10.0 };
      |]
  in
  (* Shared 10-capacity edge 2->3 splits: lambda = 0.5. *)
  Alcotest.(check (float 0.05)) "fair split" 0.5 r.Multicommodity.lambda;
  check_capacities g r.Multicommodity.flow

let test_gk_feasible_demands () =
  let g, _ = diamond () in
  let r =
    Multicommodity.solve ~epsilon:0.05 g
      [| { Multicommodity.src = 0; dst = 3; demand = 5.0 } |]
  in
  Alcotest.(check bool) "lambda >= ~1" true (r.Multicommodity.lambda >= 0.9);
  check_capacities g r.Multicommodity.flow

let test_gk_no_commodities () =
  let g, _ = diamond () in
  let r = Multicommodity.solve g [||] in
  Alcotest.(check int) "no routed entries" 0 (Array.length r.Multicommodity.routed)

(* --- TE kernel: bytes, stalls, caps, allocation ------------------------ *)

(* MD5 of lambda, flow and routed as IEEE-754 bit patterns. *)
let solve_digest (r : Multicommodity.result) =
  let b = Buffer.create 1024 in
  let add x = Buffer.add_string b (Printf.sprintf "%016Lx" (Int64.bits_of_float x)) in
  add r.Multicommodity.lambda;
  Buffer.add_char b '|';
  Array.iter add r.Multicommodity.flow;
  Buffer.add_char b '|';
  Array.iter add r.Multicommodity.routed;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The first TE solve of a run on a synthetic fleet, built the way the
   runner builds it: the day-one capacity graph, the top gravity
   demands scaled to the offered load, and the default epsilon. *)
let first_solve ?(config = Rwc_sim.Runner.default_config) backbone =
  let module Runner = Rwc_sim.Runner in
  let module Traffic = Rwc_topology.Traffic in
  let c = config in
  let net =
    Rwc_sim.Netstate.make ~wavelengths:c.Runner.wavelengths ~seed:c.Runner.seed
      backbone
  in
  let static_total =
    float_of_int
      (Array.length net.Rwc_sim.Netstate.ducts * c.Runner.wavelengths
     * Rwc_optical.Modulation.default_gbps)
  in
  let demands =
    Traffic.gravity_top_k backbone ~total_gbps:1.0 ~k:c.Runner.top_demands
  in
  let kept = List.fold_left (fun acc d -> acc +. d.Traffic.gbps) 0.0 demands in
  let scale = c.Runner.demand_fraction *. static_total /. kept in
  ( Rwc_sim.Netstate.graph net,
    Traffic.to_commodities
      (List.map (fun d -> { d with Traffic.gbps = d.Traffic.gbps *. scale }) demands),
    c.Runner.epsilon )

let day_one ~ducts = first_solve (Rwc_topology.Backbone.synthetic ~ducts ~seed:7)

(* Small seeded instance [i]: 2-9 vertices, parallel and zero-capacity
   edges, 1-5 commodities (some unreachable), a random epsilon. *)
let random_instance i =
  let module Rng = Rwc_stats.Rng in
  let rng = Rng.substream (Rng.create 2017) i in
  let n = 2 + Rng.int rng 8 in
  let g = Graph.create ~n in
  (* Each ordered pair gets an edge with probability 2/3, sometimes a
     parallel twin; one edge in eight has zero capacity. *)
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d && Rng.int rng 3 > 0 then
        for _ = 0 to Rng.int rng 6 / 5 do
          let capacity =
            match Rng.int rng 8 with
            | 0 -> 0.0
            | 1 | 2 -> Rng.uniform rng ~lo:0.1 ~hi:30.0
            | _ -> float_of_int (1 + Rng.int rng 20)
          in
          ignore (Graph.add_edge g ~src:s ~dst:d ~capacity ~cost:1.0 ())
        done
    done
  done;
  let coms =
    Array.init (1 + Rng.int rng 5) (fun _ ->
        let s = Rng.int rng n in
        let d = (s + 1 + Rng.int rng (n - 1)) mod n in
        { Multicommodity.src = s; dst = d; demand = Rng.uniform rng ~lo:0.5 ~hi:40.0 })
  in
  let epsilon = [| 0.05; 0.1; 0.2; 0.3; 0.5 |].(Rng.int rng 5) in
  (g, coms, epsilon)

(* Seeded instance [i] of a wider family than {!random_instance}:
   20-80 vertices at a mean out-degree of 2-5, edges drawn with
   replacement (so parallel edges occur), one in eight with zero
   capacity, in one instance in four a vertex cut off from every edge
   (so commodities touching it are unreachable), and every epsilon
   from 0.05 to 0.5. *)
let wide_instance i =
  let module Rng = Rwc_stats.Rng in
  let rng = Rng.substream (Rng.create 2024) i in
  let n = 20 + Rng.int rng 61 in
  let cut = if Rng.int rng 4 = 0 then Rng.int rng n else -1 in
  let g = Graph.create ~n in
  for _ = 1 to n * (2 + Rng.int rng 4) do
    let s = Rng.int rng n in
    let d = (s + 1 + Rng.int rng (n - 1)) mod n in
    let capacity =
      match Rng.int rng 8 with
      | 0 -> 0.0
      | 1 | 2 -> Rng.uniform rng ~lo:0.1 ~hi:30.0
      | _ -> float_of_int (1 + Rng.int rng 100)
    in
    if s <> cut && d <> cut then
      ignore (Graph.add_edge g ~src:s ~dst:d ~capacity ~cost:1.0 ())
  done;
  let coms =
    Array.init (1 + Rng.int rng 5) (fun _ ->
        let s = Rng.int rng n in
        let d = (s + 1 + Rng.int rng (n - 1)) mod n in
        { Multicommodity.src = s; dst = d; demand = Rng.uniform rng ~lo:1.0 ~hi:300.0 })
  in
  (* Weighted towards the large epsilons: one solve at 0.05 costs as
     much as ~50 at 0.5. *)
  let epsilon =
    match Rng.int rng 32 with
    | 0 -> 0.05
    | 1 | 2 | 3 -> 0.1
    | k when k < 12 -> 0.2
    | k when k < 22 -> 0.3
    | _ -> 0.5
  in
  (g, coms, epsilon)

(* Digests captured when the source-grouped kernel (one tree per
   source, (1 + eps) path reuse, whole-phase result) landed; any
   change to the order of floating-point operations in the kernel
   shows up here. *)
let test_mcf_golden_day_one ducts expected () =
  let g, coms, epsilon = day_one ~ducts in
  Alcotest.(check string)
    (Printf.sprintf "day-one %d ducts" ducts)
    expected
    (solve_digest (Multicommodity.solve ~epsilon g coms))

let test_mcf_golden_random () =
  let digests =
    List.init 200 (fun i ->
        let g, coms, epsilon = random_instance i in
        let r = Multicommodity.solve ~epsilon g coms in
        let m = Graph.n_edges g in
        Alcotest.(check int) "one flow entry per edge" m (Array.length r.Multicommodity.flow);
        (* The digest was captured when the flow of an edge-less graph
           (instances 6, 22, 62, 74 and 192) held one spurious zero;
           digest that entry back so every other bit stays pinned. *)
        solve_digest
          (if m = 0 then { r with Multicommodity.flow = [| 0.0 |] } else r))
  in
  Alcotest.(check string) "200 random instances" "7e4fb5066c3f00e12e3ce03d353ba419"
    (Digest.to_hex (Digest.string (String.concat "" digests)))

(* This digest and the next were captured with the ones above. *)
let test_mcf_golden_wide () =
  let digests =
    List.init 1000 (fun i ->
        let g, coms, epsilon = wide_instance i in
        solve_digest (Multicommodity.solve ~epsilon g coms))
  in
  Alcotest.(check string) "1,000 wide instances" "26bdf02b4fe49babc2bb44bdc8e646f6"
    (Digest.to_hex (Digest.string (String.concat "" digests)))

(* The North America solve at durable_na's knobs: top 10 demands,
   epsilon 0.3. *)
let test_mcf_golden_na () =
  let g, coms, epsilon =
    first_solve
      ~config:{ Rwc_sim.Runner.default_config with top_demands = 10; epsilon = 0.3 }
      Rwc_topology.Backbone.north_america
  in
  Alcotest.(check string) "north america" "751e451fc6cf27ce44ce428aefe9c7e1"
    (solve_digest (Multicommodity.solve ~epsilon g coms))

(* Every TE result carries exactly one flow entry per edge, also on a
   graph with no edges at all. *)
let test_te_flow_one_entry_per_edge () =
  let coms = [| { Multicommodity.src = 0; dst = 1; demand = 5.0 } |] in
  let bare = Graph.create ~n:2 and diamond, _ = diamond () in
  List.iter
    (fun (name, g) ->
      let m = Graph.n_edges g in
      let entries what flow =
        Alcotest.(check int) (Printf.sprintf "%s, %s" what name) m (Array.length flow)
      in
      entries "solve" (Multicommodity.solve g coms).Multicommodity.flow;
      entries "solve, no commodities" (Multicommodity.solve g [||]).Multicommodity.flow;
      entries "Te.mcf" (Rwc_core.Te.mcf g coms).Rwc_core.Te.flow;
      entries "Te.greedy_ksp" (Rwc_core.Te.greedy_ksp g coms).Rwc_core.Te.flow)
    [ ("no edges", bare); ("diamond", diamond) ]

(* Runs [f] with metrics on and zeroed; returns its result and the
   values of the named counters afterwards. *)
let with_counters names f =
  let module M = Rwc_obs.Metrics in
  let was = M.enabled () in
  M.enable ();
  M.reset ();
  Fun.protect
    ~finally:(fun () -> if not was then M.disable ())
    (fun () ->
      let r = f () in
      (r, List.map (fun n -> M.value (M.counter n)) names))

let mcf_counters = [ "mcf/phases"; "mcf/augmenting_paths"; "mcf/phase_cap_hits" ]

let test_mcf_stops_when_nothing_routable () =
  (* Two 30-vertex halves with 290 edges each and no edge between them;
     every commodity crosses the cut. *)
  let rng = Rwc_stats.Rng.create 60 in
  let g = Graph.create ~n:60 in
  for k = 0 to 579 do
    let base = 30 * (k mod 2) in
    let s = Rwc_stats.Rng.int rng 30 in
    let d = (s + 1 + Rwc_stats.Rng.int rng 29) mod 30 in
    ignore
      (Graph.add_edge g ~src:(base + s) ~dst:(base + d)
         ~capacity:(float_of_int (1 + Rwc_stats.Rng.int rng 100))
         ~cost:1.0 ())
  done;
  let coms =
    Array.init 40 (fun j ->
        let a = Rwc_stats.Rng.int rng 30 and b = 30 + Rwc_stats.Rng.int rng 30 in
        let src, dst = if j mod 2 = 0 then (a, b) else (b, a) in
        { Multicommodity.src; dst; demand = 10.0 })
  in
  let r, counts = with_counters mcf_counters (fun () -> Multicommodity.solve g coms) in
  Alcotest.(check (float 0.0)) "lambda" 0.0 r.Multicommodity.lambda;
  Alcotest.(check (list int)) "one phase, no paths, no cap hit" [ 1; 0; 0 ] counts

let test_mcf_counts_phase_cap () =
  (* A demand a millionth of the capacity would need millions of phases
     to lift the dual objective to 1, so the phase cap ends the solve. *)
  let g = Graph.create ~n:2 in
  ignore (Graph.add_edge g ~src:0 ~dst:1 ~capacity:1e6 ~cost:1.0 ());
  let r, counts =
    with_counters mcf_counters (fun () ->
        Multicommodity.solve ~epsilon:0.5 g
          [| { Multicommodity.src = 0; dst = 1; demand = 1.0 } |])
  in
  Alcotest.(check (float 1e-9)) "lambda" 1.0 r.Multicommodity.lambda;
  Alcotest.(check (list int)) "capped" [ 10_000; 10_000; 1 ] counts

let test_mcf_dual_rechecks_rare () =
  let g, coms, epsilon = day_one ~ducts:200 in
  let _, counts =
    with_counters [ "mcf/augmenting_paths"; "mcf/dual_rechecks"; "mcf/phases" ]
      (fun () -> Multicommodity.solve ~epsilon g coms)
  in
  match counts with
  | [ paths; rechecks; phases ] ->
      (* phases + 1 exact sums at the loop head (the last one ends
         the loop) and one after it, plus the fallbacks taken near 1,
         which this instance does reach; all far fewer than the
         paths. *)
      Alcotest.(check bool)
        (Printf.sprintf "%d phases + 2 < %d rechecks < %d paths / 100" phases rechecks
           paths)
        true
        (phases + 2 < rechecks && rechecks < paths / 100)
  | _ -> assert false

let test_mcf_alloc_independent_of_paths () =
  (* A tighter epsilon takes many more augmenting paths on the same
     instance; with an allocation-free path loop the words allocated
     per solve stay put, up to a few boxed floats in the final
     scaling. *)
  let g, coms, epsilon = day_one ~ducts:50 in
  (* Builds the graph's cached edge array and adjacency. *)
  ignore (Multicommodity.solve ~epsilon g coms);
  let measure epsilon =
    let words, counts =
      with_counters [ "mcf/augmenting_paths" ] (fun () ->
          let w0 = Gc.minor_words () in
          ignore (Multicommodity.solve ~epsilon g coms);
          Gc.minor_words () -. w0)
    in
    (List.hd counts, words)
  in
  let few_paths, few_words = measure 0.3 and many_paths, many_words = measure 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%d vs %d paths" few_paths many_paths)
    true
    (many_paths > 5 * few_paths);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f vs %.0f words" few_words many_words)
    true
    (Float.abs (many_words -. few_words) < float_of_int (many_paths - few_paths) /. 100.0)

(* Six edges: 0 -> 1, 2, 3, 4 at cost 1, then 2 -> 5 and 4 -> 5 at cost
   1.  Vertex 1 is finalized first; the heap then moves its last entry,
   vertex 4, to the root, and an equal-priority child never displaces
   it, so 4 is finalized before 2 and the path enters 5 from 4. *)
let test_dijkstra_tie_break () =
  let g = Graph.create ~n:6 in
  List.iter
    (fun (s, d) -> ignore (Graph.add_edge g ~src:s ~dst:d ~capacity:1.0 ~cost:1.0 ()))
    [ (0, 1); (0, 2); (0, 3); (0, 4); (2, 5); (4, 5) ];
  Alcotest.(check (option (list int))) "via 4" (Some [ 3; 5 ])
    (Shortest.dijkstra g ~src:0 ~dst:5);
  (* Within the 1e-12 slack a later, cheaper path does not replace the
     first one found. *)
  let cost e = if e = 4 then 1.0 -. 1e-13 else 1.0 in
  Alcotest.(check (option (list int))) "slack keeps 4" (Some [ 3; 5 ])
    (Shortest.dijkstra ~cost g ~src:0 ~dst:5)

let test_workspace_allocates_nothing () =
  let g, _, _ = day_one ~ducts:50 in
  let n = Graph.n_vertices g in
  let length = Graph.costs g in
  let ws = Shortest.Workspace.create g in
  let all_pairs () =
    (* Re-filtering the view in place allocates nothing either. *)
    Shortest.Workspace.filter ws ~usable:(fun e -> e mod 7 <> 0);
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        ignore (Shortest.Workspace.dijkstra ws ~length ~src ~dst)
      done
    done;
    Shortest.Workspace.filter ws ~usable:(fun _ -> true);
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        ignore (Shortest.Workspace.dijkstra ws ~length ~src ~dst)
      done
    done
  in
  all_pairs ();
  let w0 = Gc.minor_words () in
  all_pairs ();
  Alcotest.(check (float 0.0)) "words" 0.0 (Gc.minor_words () -. w0)

(* --- property tests -------------------------------------------------- *)

let random_graph_gen =
  QCheck.Gen.(
    sized_size (int_range 2 7) (fun n ->
        let* m = int_range 1 (n * (n - 1)) in
        let* edges =
          list_repeat m
            (triple (int_range 0 (n - 1)) (int_range 0 (n - 1))
               (pair (int_range 1 20) (int_range 0 10)))
        in
        return (n, edges)))

let build_random (n, edges) =
  let g = Graph.create ~n in
  List.iter
    (fun (s, d, (cap, cost)) ->
      if s <> d then
        ignore
          (Graph.add_edge g ~src:s ~dst:d ~capacity:(float_of_int cap)
             ~cost:(float_of_int cost) ()))
    edges;
  g

let arbitrary_graph =
  QCheck.make ~print:(fun (n, e) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map
              (fun (s, d, (c, w)) -> Printf.sprintf "%d->%d c%d w%d" s d c w)
              e)))
    random_graph_gen

let prop_maxflow_valid =
  QCheck.Test.make ~name:"maxflow: conservation + capacities + cut bound"
    ~count:200 arbitrary_graph (fun spec ->
      let g = build_random spec in
      let n = Graph.n_vertices g in
      let src = 0 and dst = n - 1 in
      let r = Maxflow.solve g ~src ~dst in
      check_conservation g ~src ~dst r.Maxflow.flow;
      check_capacities g r.Maxflow.flow;
      (* Max-flow = min-cut. *)
      let side = Maxflow.min_cut g ~src ~dst r in
      let cut =
        Graph.fold_edges
          (fun acc e ->
            if side.(e.Graph.src) && not side.(e.Graph.dst) then
              acc +. e.Graph.capacity
            else acc)
          0.0 g
      in
      Float.abs (cut -. r.Maxflow.value) < 1e-5)

let prop_mincost_value_is_maxflow =
  QCheck.Test.make ~name:"mincost: value equals maxflow" ~count:200
    arbitrary_graph (fun spec ->
      let g = build_random spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let mf = Maxflow.solve g ~src ~dst in
      let mc = Mincost.solve g ~src ~dst in
      check_conservation g ~src ~dst mc.Mincost.flow;
      check_capacities g mc.Mincost.flow;
      Float.abs (mf.Maxflow.value -. mc.Mincost.value) < 1e-5)

let prop_mincost_agrees_with_cycle_cancel =
  QCheck.Test.make ~name:"mincost: two independent solvers agree" ~count:100
    arbitrary_graph (fun spec ->
      let g = build_random spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let a = Mincost.solve g ~src ~dst in
      let b = Cycle_cancel.solve g ~src ~dst in
      Float.abs (a.Mincost.value -. b.Mincost.value) < 1e-5
      && Float.abs (a.Mincost.cost -. b.Mincost.cost) < 1e-4)

let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on non-negative costs"
    ~count:200 arbitrary_graph (fun spec ->
      let g = build_random spec in
      let dist = Shortest.bellman_ford g ~src:0 in
      let ok = ref true in
      for v = 1 to Graph.n_vertices g - 1 do
        match Shortest.dijkstra g ~src:0 ~dst:v with
        | None -> if Float.is_finite dist.(v) then ok := false
        | Some p ->
            if Float.abs (Shortest.path_cost g p -. dist.(v)) > 1e-6 then
              ok := false
      done;
      !ok)

(* One workspace serves a run of searches with different endpoints,
   length functions and edge filters; each must return exactly what a
   fresh search returns, so nothing may leak from one run into the
   next.  Lengths come from a small set so that ties are common. *)
let prop_workspace_reuse =
  let queries =
    QCheck.Gen.(list_size (int_range 1 12) (triple nat nat (int_bound 1_000_000)))
  in
  QCheck.Test.make ~name:"dijkstra: reused workspace = fresh search" ~count:200
    (QCheck.pair arbitrary_graph (QCheck.make queries))
    (fun (spec, qs) ->
      let g = build_random spec in
      let n = Graph.n_vertices g and m = Graph.n_edges g in
      let ws = Shortest.Workspace.create g in
      List.for_all
        (fun (a, b, seed) ->
          let rng = Rwc_stats.Rng.create seed in
          let length =
            Array.init m (fun _ -> [| 0.0; 0.5; 1.0; 1.0; 2.0 |].(Rwc_stats.Rng.int rng 5))
          in
          let banned = Array.init m (fun _ -> Rwc_stats.Rng.int rng 4 = 0) in
          let usable e = not banned.(e) in
          let src = a mod n and dst = b mod n in
          let fresh = Shortest.dijkstra ~usable ~cost:(Array.get length) g ~src ~dst in
          Shortest.Workspace.filter ws ~usable;
          let reused =
            if Shortest.Workspace.dijkstra ws ~length ~src ~dst then
              Some (Shortest.Workspace.path ws)
            else None
          in
          fresh = reused)
        qs)

let prop_yen_sorted_and_loopless =
  QCheck.Test.make ~name:"yen: sorted, distinct, loopless" ~count:100
    arbitrary_graph (fun spec ->
      let g = build_random spec in
      let dst = Graph.n_vertices g - 1 in
      let paths = Shortest.k_shortest g ~src:0 ~dst ~k:4 in
      let costs = List.map (Shortest.path_cost g) paths in
      let sorted = List.sort compare costs = costs in
      let distinct =
        List.length (List.sort_uniq compare paths) = List.length paths
      in
      let loopless =
        List.for_all
          (fun p ->
            let vs =
              0 :: List.map (fun e -> (Graph.edge g e).Graph.dst) p
            in
            List.length (List.sort_uniq compare vs) = List.length vs)
          paths
      in
      sorted && distinct && loopless)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_maxflow_valid;
      prop_mincost_value_is_maxflow;
      prop_mincost_agrees_with_cycle_cancel;
      prop_dijkstra_matches_bellman_ford;
      prop_workspace_reuse;
      prop_yen_sorted_and_loopless;
    ]

let suite =
  [
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph parallel edges" `Quick test_graph_parallel_edges;
    Alcotest.test_case "graph filter" `Quick test_graph_filter;
    Alcotest.test_case "graph map_edges" `Quick test_graph_map_edges;
    Alcotest.test_case "maxflow diamond" `Quick test_maxflow_diamond;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    Alcotest.test_case "maxflow single edge" `Quick test_maxflow_single_edge;
    Alcotest.test_case "maxflow parallel edges" `Quick test_maxflow_parallel;
    Alcotest.test_case "maxflow zero capacity" `Quick test_maxflow_zero_capacity;
    Alcotest.test_case "min cut matches value" `Quick test_min_cut_matches_value;
    Alcotest.test_case "mincost prefers cheap" `Quick test_mincost_prefers_cheap_path;
    Alcotest.test_case "mincost limit" `Quick test_mincost_limit;
    Alcotest.test_case "mincost value = maxflow" `Quick test_mincost_value_equals_maxflow;
    Alcotest.test_case "mincost spills to expensive" `Quick test_mincost_spills_to_expensive;
    Alcotest.test_case "cycle-cancel agrees" `Quick test_cycle_cancel_agrees_diamond;
    Alcotest.test_case "dijkstra shortest" `Quick test_dijkstra_shortest;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "dijkstra usable filter" `Quick test_dijkstra_respects_usable;
    Alcotest.test_case "bellman-ford basics" `Quick test_bellman_ford_matches_dijkstra;
    Alcotest.test_case "bellman-ford negative edge" `Quick test_bellman_ford_negative_edge;
    Alcotest.test_case "bellman-ford negative cycle" `Quick test_bellman_ford_negative_cycle;
    Alcotest.test_case "yen 3 paths" `Quick test_yen_k_shortest;
    Alcotest.test_case "yen k too large" `Quick test_yen_k_larger_than_paths;
    Alcotest.test_case "gk single = maxflow" `Quick test_gk_single_commodity_matches_maxflow;
    Alcotest.test_case "gk shared bottleneck" `Quick test_gk_two_commodities_share;
    Alcotest.test_case "gk feasible demands" `Quick test_gk_feasible_demands;
    Alcotest.test_case "gk no commodities" `Quick test_gk_no_commodities;
    Alcotest.test_case "mcf golden day-one 50" `Quick
      (test_mcf_golden_day_one 50 "ce8fa4d6111ea39b4f2f1baf7f332168");
    Alcotest.test_case "mcf golden day-one 200" `Quick
      (test_mcf_golden_day_one 200 "e6944e062ed1a7c4945b0aadd8f0d87d");
    Alcotest.test_case "mcf golden random" `Quick test_mcf_golden_random;
    Alcotest.test_case "mcf golden wide" `Quick test_mcf_golden_wide;
    Alcotest.test_case "mcf golden north america" `Quick test_mcf_golden_na;
    Alcotest.test_case "te flow one entry per edge" `Quick
      test_te_flow_one_entry_per_edge;
    Alcotest.test_case "mcf stops when nothing routable" `Quick
      test_mcf_stops_when_nothing_routable;
    Alcotest.test_case "mcf counts phase cap" `Quick test_mcf_counts_phase_cap;
    Alcotest.test_case "mcf dual rechecks rare" `Quick test_mcf_dual_rechecks_rare;
    Alcotest.test_case "mcf alloc independent of paths" `Quick
      test_mcf_alloc_independent_of_paths;
    Alcotest.test_case "dijkstra tie-break" `Quick test_dijkstra_tie_break;
    Alcotest.test_case "dijkstra workspace allocates nothing" `Quick
      test_workspace_allocates_nothing;
  ]
  @ props

(* --- push-relabel cross-check ----------------------------------------- *)

let test_push_relabel_diamond () =
  let g, _ = diamond () in
  let r = Push_relabel.solve g ~src:0 ~dst:3 in
  Alcotest.(check (float 1e-6)) "value" 15.0 r.Maxflow.value;
  check_conservation g ~src:0 ~dst:3 r.Maxflow.flow;
  check_capacities g r.Maxflow.flow

let test_push_relabel_disconnected () =
  let g = Graph.create ~n:3 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:5.0 ~cost:0.0 () in
  let r = Push_relabel.solve g ~src:0 ~dst:2 in
  Alcotest.(check (float 1e-9)) "no path" 0.0 r.Maxflow.value

let test_push_relabel_parallel () =
  let g = Graph.create ~n:2 in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:3.0 ~cost:0.0 () in
  let _ = Graph.add_edge g ~src:0 ~dst:1 ~capacity:4.0 ~cost:0.0 () in
  let r = Push_relabel.solve g ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "sum" 7.0 r.Maxflow.value

let prop_push_relabel_agrees_with_dinic =
  QCheck.Test.make ~name:"push-relabel = dinic on random graphs" ~count:300
    arbitrary_graph (fun spec ->
      let g = build_random spec in
      let src = 0 and dst = Graph.n_vertices g - 1 in
      let a = Maxflow.solve g ~src ~dst in
      let b = Push_relabel.solve g ~src ~dst in
      check_conservation g ~src ~dst b.Maxflow.flow;
      check_capacities g b.Maxflow.flow;
      Float.abs (a.Maxflow.value -. b.Maxflow.value) < 1e-5)

let push_relabel_cases =
  [
    Alcotest.test_case "push-relabel diamond" `Quick test_push_relabel_diamond;
    Alcotest.test_case "push-relabel disconnected" `Quick test_push_relabel_disconnected;
    Alcotest.test_case "push-relabel parallel" `Quick test_push_relabel_parallel;
    QCheck_alcotest.to_alcotest prop_push_relabel_agrees_with_dinic;
  ]

let suite = suite @ push_relabel_cases
