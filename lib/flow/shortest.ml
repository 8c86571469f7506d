type path = Graph.edge_id list

let path_cost g p =
  List.fold_left (fun acc e -> acc +. (Graph.edge g e).Graph.cost) 0.0 p

let path_capacity g p =
  List.fold_left
    (fun acc e -> Float.min acc (Graph.edge g e).Graph.capacity)
    infinity p

(* Dijkstra over a reusable workspace.  The heap is a binary min-heap
   of (priority, vertex) stored as two parallel arrays, so pushing and
   popping allocate nothing; its sift-up/sift-down discipline and the
   1e-12 slack in the pop and relax tests fix the pop order, and with it
   which of several equal-cost paths is returned.  Each vertex is
   finalized once and relaxes each of its out-edges at most once, so the
   heap never holds more than m + 1 entries.  It starts at n + 1 slots
   and doubles when full, which keeps a one-shot search off the major
   heap; a reused workspace stops growing after its first searches. *)
module Workspace = struct
  type t = {
    dist : float array;
    prev : Graph.edge_id array;  (* edge into each vertex on its best path *)
    visited : bool array;
    mutable prio : float array;  (* heap *)
    mutable vertex : int array;
    mutable size : int;
    path : Graph.edge_id array;
    mutable path_len : int;
  }

  let create g =
    let n = max 1 (Graph.n_vertices g) in
    {
      dist = Array.make n infinity;
      prev = Array.make n (-1);
      visited = Array.make n false;
      prio = Array.make (n + 1) 0.0;
      vertex = Array.make (n + 1) 0;
      size = 0;
      path = Array.make n 0;
      path_len = 0;
    }

  let grow ws =
    let slots = 2 * Array.length ws.vertex in
    let prio = Array.make slots 0.0 and vertex = Array.make slots 0 in
    Array.blit ws.prio 0 prio 0 ws.size;
    Array.blit ws.vertex 0 vertex 0 ws.size;
    ws.prio <- prio;
    ws.vertex <- vertex

  let[@inline] swap ws i j =
    let p = ws.prio.(i) and v = ws.vertex.(i) in
    ws.prio.(i) <- ws.prio.(j);
    ws.vertex.(i) <- ws.vertex.(j);
    ws.prio.(j) <- p;
    ws.vertex.(j) <- v

  let[@inline] push ws p v =
    if ws.size = Array.length ws.vertex then grow ws;
    let i = ref ws.size in
    ws.prio.(!i) <- p;
    ws.vertex.(!i) <- v;
    ws.size <- ws.size + 1;
    while !i > 0 && ws.prio.((!i - 1) / 2) > ws.prio.(!i) do
      let parent = (!i - 1) / 2 in
      swap ws parent !i;
      i := parent
    done

  (* Drops the minimum; read it from slot 0 first. *)
  let[@inline] pop ws =
    ws.size <- ws.size - 1;
    ws.prio.(0) <- ws.prio.(ws.size);
    ws.vertex.(0) <- ws.vertex.(ws.size);
    let i = ref 0 and looping = ref true in
    while !looping do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < ws.size && ws.prio.(l) < ws.prio.(!s) then s := l;
      if r < ws.size && ws.prio.(r) < ws.prio.(!s) then s := r;
      if !s = !i then looping := false
      else begin
        swap ws !i !s;
        i := !s
      end
    done

  let dijkstra ws g ~usable ~length ~src ~dst =
    let n = Graph.n_vertices g in
    let adj = Graph.out_csr g in
    assert (n <= Array.length ws.dist);
    assert (Graph.n_edges g <= Array.length length);
    Array.fill ws.dist 0 n infinity;
    Array.fill ws.prev 0 n (-1);
    Array.fill ws.visited 0 n false;
    ws.size <- 0;
    ws.path_len <- 0;
    ws.dist.(src) <- 0.0;
    push ws 0.0 src;
    while ws.size > 0 && not ws.visited.(dst) do
      let d = ws.prio.(0) and v = ws.vertex.(0) in
      pop ws;
      if (not ws.visited.(v)) && d <= ws.dist.(v) +. 1e-12 then begin
        ws.visited.(v) <- true;
        if v <> dst then
          for i = adj.Graph.offsets.(v) to adj.Graph.offsets.(v + 1) - 1 do
            let eid = adj.Graph.edge_ids.(i) in
            if usable eid then begin
              let c = length.(eid) in
              assert (c >= 0.0);
              let w = adj.Graph.dsts.(i) in
              let nd = ws.dist.(v) +. c in
              if nd < ws.dist.(w) -. 1e-12 then begin
                ws.dist.(w) <- nd;
                ws.prev.(w) <- eid;
                push ws nd w
              end
            end
          done
      end
    done;
    if not (ws.dist.(dst) < infinity) then false
    else begin
      (* Walk back once to count the hops, again to fill the buffer. *)
      let v = ref dst in
      while !v <> src do
        ws.path_len <- ws.path_len + 1;
        v := (Graph.edge g ws.prev.(!v)).Graph.src
      done;
      v := dst;
      for i = ws.path_len - 1 downto 0 do
        let eid = ws.prev.(!v) in
        ws.path.(i) <- eid;
        v := (Graph.edge g eid).Graph.src
      done;
      true
    end

  let path_length ws = ws.path_len

  let path_edge ws i =
    assert (i >= 0 && i < ws.path_len);
    ws.path.(i)

  let path ws = Array.to_list (Array.sub ws.path 0 ws.path_len)
end

let dijkstra ?(usable = fun _ -> true) ?cost g ~src ~dst =
  let length =
    match cost with Some f -> Array.init (Graph.n_edges g) f | None -> Graph.costs g
  in
  let ws = Workspace.create g in
  if Workspace.dijkstra ws g ~usable ~length ~src ~dst then
    Some (Workspace.path ws)
  else None

let bellman_ford g ~src =
  let n = Graph.n_vertices g in
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n then
      invalid_arg "Shortest.bellman_ford: negative-cost cycle";
    Graph.iter_edges
      (fun e ->
        if Float.is_finite dist.(e.Graph.src) then begin
          let nd = dist.(e.Graph.src) +. e.Graph.cost in
          if nd < dist.(e.Graph.dst) -. 1e-12 then begin
            dist.(e.Graph.dst) <- nd;
            changed := true
          end
        end)
      g
  done;
  dist

(* Yen's k-shortest loopless paths. *)
let k_shortest g ~src ~dst ~k =
  assert (k >= 0);
  let ws = Workspace.create g and length = Graph.costs g in
  let shortest ~usable ~src =
    if Workspace.dijkstra ws g ~usable ~length ~src ~dst then Some (Workspace.path ws)
    else None
  in
  match shortest ~usable:(fun _ -> true) ~src with
  | None -> []
  | Some first ->
      let vertices_of p =
        src :: List.map (fun eid -> (Graph.edge g eid).Graph.dst) p
      in
      let accepted = ref [ first ] in
      let candidates = ref [] in
      (* Candidate paths, deduplicated by edge-id list. *)
      let add_candidate p =
        let cost = path_cost g p in
        if not (List.exists (fun (_, q) -> q = p) !candidates) then
          candidates := (cost, p) :: !candidates
      in
      let rec take_prefix p i =
        if i = 0 then [] else match p with
          | [] -> []
          | e :: rest -> e :: take_prefix rest (i - 1)
      in
      let finished = ref false in
      while List.length !accepted < k && not !finished do
        let last = List.hd !accepted in
        let last_vertices = Array.of_list (vertices_of last) in
        (* Branch at every spur node of the previous path. *)
        for i = 0 to Array.length last_vertices - 2 do
          let spur = last_vertices.(i) in
          let root = take_prefix last i in
          (* Edges removed: any edge that some accepted path with the
             same root uses to leave the spur node, plus edges into
             root vertices (looplessness). *)
          let banned_edges =
            List.filter_map
              (fun p ->
                let prefix = take_prefix p i in
                if prefix = root then List.nth_opt p i else None)
              !accepted
          in
          let root_vertices = Array.to_list (Array.sub last_vertices 0 (i + 1)) in
          let root_interior = List.filter (fun v -> v <> spur) root_vertices in
          let usable eid =
            let e = Graph.edge g eid in
            (not (List.mem eid banned_edges))
            && (not (List.mem e.Graph.dst root_interior))
            && not (List.mem e.Graph.src root_interior)
          in
          match shortest ~usable ~src:spur with
          | None -> ()
          | Some spur_path -> add_candidate (root @ spur_path)
        done;
        (* Pull the cheapest unused candidate. *)
        let unused =
          List.filter (fun (_, p) -> not (List.mem p !accepted)) !candidates
        in
        match List.sort (fun (a, _) (b, _) -> compare a b) unused with
        | [] -> finished := true
        | (_, best) :: _ -> accepted := best :: !accepted
      done;
      let sorted =
        List.sort (fun a b -> compare (path_cost g a) (path_cost g b)) !accepted
      in
      take_prefix sorted k
