type path = Graph.edge_id list

let path_cost g p =
  List.fold_left (fun acc e -> acc +. (Graph.edge g e).Graph.cost) 0.0 p

let path_capacity g p =
  List.fold_left
    (fun acc e -> Float.min acc (Graph.edge g e).Graph.capacity)
    infinity p

(* Dijkstra over a reusable workspace.  The workspace holds a view of
   the graph: the out-edges that passed the [usable] filter when the
   view was taken, as flat arrays in {!Graph.out_csr} order, and the
   CSR's per-edge tail array for the path walk, so a search reads
   neither a filter closure nor an edge record.  The heap is a
   binary min-heap of (priority, vertex) stored as two parallel arrays,
   so pushing and popping allocate nothing; its sift-up/sift-down
   discipline and the 1e-12 slack in the pop and relax tests fix the pop
   order, and with it which of several equal-cost paths is returned.
   Sifting moves a hole rather than swapping, but makes the same
   comparisons, so the order is the one a swapping heap gives.  Each
   vertex is finalized once and relaxes each of its out-edges at most
   once, so the heap never holds more than m + 1 entries.  It starts at
   n + 1 slots and doubles when full, which keeps a one-shot search off
   the major heap; a reused workspace stops growing after its first
   searches. *)
module Workspace = struct
  type t = {
    csr : Graph.csr;
    n : int;
    m : int;
    (* The view: usable out-edges of vertex [v] in slots [offsets.(v)]
       to [offsets.(v + 1) - 1].  Unfiltered, these are the graph's
       cached CSR arrays, which must not be written; [filter] gives
       the workspace arrays of its own first. *)
    mutable shared : bool;
    mutable offsets : int array;
    mutable edge_ids : Graph.edge_id array;
    mutable heads : int array;
    dist : float array;
    prev : Graph.edge_id array;  (* edge into each vertex on its best path *)
    finalized : int array;  (* = [stamp] once finalized in this search *)
    target : int array;  (* = [stamp] for the targets of this search *)
    order : int array;  (* vertices in the order this search finalized them *)
    mutable n_order : int;
    one : int array;  (* the lone target of {!dijkstra} *)
    mutable stamp : int;
    mutable prio : float array;  (* heap *)
    mutable vertex : int array;
    mutable size : int;
    path : Graph.edge_id array;
    mutable path_len : int;
  }

  let filter ws ~usable =
    if ws.shared then begin
      ws.shared <- false;
      ws.offsets <- Array.make (ws.n + 1) 0;
      ws.edge_ids <- Array.make ws.m 0;
      ws.heads <- Array.make ws.m 0
    end;
    let csr = ws.csr and k = ref 0 in
    for v = 0 to ws.n - 1 do
      ws.offsets.(v) <- !k;
      for i = csr.Graph.offsets.(v) to csr.Graph.offsets.(v + 1) - 1 do
        let eid = csr.Graph.edge_ids.(i) in
        if usable eid then begin
          ws.edge_ids.(!k) <- eid;
          ws.heads.(!k) <- csr.Graph.dsts.(i);
          incr k
        end
      done
    done;
    ws.offsets.(ws.n) <- !k

  let create ?usable g =
    let n = Graph.n_vertices g and csr = Graph.out_csr g in
    let slots = max 1 n in
    let ws =
      {
        csr;
        n;
        m = Graph.n_edges g;
        shared = true;
        offsets = csr.Graph.offsets;
        edge_ids = csr.Graph.edge_ids;
        heads = csr.Graph.dsts;
        dist = Array.make slots infinity;
        prev = Array.make slots (-1);
        finalized = Array.make slots 0;
        target = Array.make slots 0;
        order = Array.make slots 0;
        n_order = 0;
        one = [| 0 |];
        stamp = 0;
        prio = Array.make (slots + 1) 0.0;
        vertex = Array.make (slots + 1) 0;
        size = 0;
        path = Array.make slots 0;
        path_len = 0;
      }
    in
    Option.iter (fun usable -> filter ws ~usable) usable;
    ws

  let grow ws =
    let slots = 2 * Array.length ws.vertex in
    let prio = Array.make slots 0.0 and vertex = Array.make slots 0 in
    Array.blit ws.prio 0 prio 0 ws.size;
    Array.blit ws.vertex 0 vertex 0 ws.size;
    ws.prio <- prio;
    ws.vertex <- vertex

  let[@inline] push ws p v =
    if ws.size = Array.length ws.vertex then grow ws;
    let prio = ws.prio and vertex = ws.vertex in
    let i = ref ws.size in
    ws.size <- ws.size + 1;
    while !i > 0 && prio.((!i - 1) / 2) > p do
      let parent = (!i - 1) / 2 in
      prio.(!i) <- prio.(parent);
      vertex.(!i) <- vertex.(parent);
      i := parent
    done;
    prio.(!i) <- p;
    vertex.(!i) <- v

  (* Drops the minimum; read it from slot 0 first.  The last entry
     sinks from the root: at each level the smaller child, the left one
     on a tie, moves up if it is strictly smaller than the entry. *)
  let[@inline] pop ws =
    let prio = ws.prio and vertex = ws.vertex in
    let size = ws.size - 1 in
    ws.size <- size;
    let p = prio.(size) and v = vertex.(size) in
    let i = ref 0 and looping = ref true in
    while !looping do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let s = if l < size && prio.(l) < p then l else !i in
      let s = if r < size && prio.(r) < (if s = l then prio.(l) else p) then r else s in
      if s = !i then looping := false
      else begin
        prio.(!i) <- prio.(s);
        vertex.(!i) <- vertex.(s);
        i := s
      end
    done;
    prio.(!i) <- p;
    vertex.(!i) <- v

  let tree ws ~length ~src ~dsts ~n_dsts =
    let dist = ws.dist and prev = ws.prev and finalized = ws.finalized in
    let target = ws.target and order = ws.order in
    let offsets = ws.offsets and edge_ids = ws.edge_ids and heads = ws.heads in
    assert (ws.m <= Array.length length && n_dsts <= Array.length dsts);
    Array.fill dist 0 ws.n infinity;
    ws.stamp <- ws.stamp + 1;
    let stamp = ws.stamp in
    ws.size <- 0;
    ws.path_len <- 0;
    (* Targets still to finalize, a repeated one counted once, and
       vertices finalized so far. *)
    let pending = ref 0 and n_order = ref 0 in
    for i = 0 to n_dsts - 1 do
      let v = dsts.(i) in
      if target.(v) <> stamp then begin
        target.(v) <- stamp;
        incr pending
      end
    done;
    dist.(src) <- 0.0;
    push ws 0.0 src;
    while ws.size > 0 && !pending > 0 do
      let d = ws.prio.(0) and v = ws.vertex.(0) in
      pop ws;
      if finalized.(v) <> stamp && d <= dist.(v) +. 1e-12 then begin
        finalized.(v) <- stamp;
        order.(!n_order) <- v;
        incr n_order;
        if target.(v) = stamp then decr pending;
        if !pending > 0 then begin
          (* Relaxing [v]'s out-edges cannot lower [dist.(v)]. *)
          let dv = dist.(v) in
          for i = offsets.(v) to offsets.(v + 1) - 1 do
            let eid = edge_ids.(i) in
            let c = length.(eid) in
            assert (c >= 0.0);
            let w = heads.(i) in
            let nd = dv +. c in
            if nd < dist.(w) -. 1e-12 then begin
              dist.(w) <- nd;
              prev.(w) <- eid;
              push ws nd w
            end
          done
        end
      end
    done;
    ws.n_order <- !n_order

  (* A target is finalized exactly when it is reachable: the search
     stops early only once every target is finalized, and otherwise
     runs until every reachable vertex is. *)
  let reached ws v = ws.finalized.(v) = ws.stamp

  let distance ws v = if reached ws v then ws.dist.(v) else infinity

  let parents ws = ws.prev

  let order ws = ws.order

  let n_finalized ws = ws.n_order

  let dijkstra ws ~length ~src ~dst =
    ws.one.(0) <- dst;
    tree ws ~length ~src ~dsts:ws.one ~n_dsts:1;
    if not (reached ws dst) then false
    else begin
      (* Walk back once to count the hops, again to fill the buffer.
         Only vertices reached in this search are on the walk, so
         [prev] needs no reset between searches. *)
      let tails = ws.csr.Graph.srcs and prev = ws.prev in
      let v = ref dst in
      while !v <> src do
        ws.path_len <- ws.path_len + 1;
        v := tails.(prev.(!v))
      done;
      v := dst;
      for i = ws.path_len - 1 downto 0 do
        let eid = prev.(!v) in
        ws.path.(i) <- eid;
        v := tails.(eid)
      done;
      true
    end

  let path_length ws = ws.path_len

  let path_edge ws i =
    assert (i >= 0 && i < ws.path_len);
    ws.path.(i)

  let path ws = Array.to_list (Array.sub ws.path 0 ws.path_len)
end

let dijkstra ?usable ?cost g ~src ~dst =
  let length =
    match cost with Some f -> Array.init (Graph.n_edges g) f | None -> Graph.costs g
  in
  let ws = Workspace.create ?usable g in
  if Workspace.dijkstra ws ~length ~src ~dst then Some (Workspace.path ws) else None

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
  let shortest ~src =
    if Workspace.dijkstra ws ~length ~src ~dst then Some (Workspace.path ws) else None
  in
  match shortest ~src with
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
          Workspace.filter ws ~usable;
          match shortest ~src:spur with
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
