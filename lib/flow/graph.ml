type edge_id = int

type 'tag edge = {
  id : edge_id;
  src : int;
  dst : int;
  capacity : float;
  cost : float;
  tag : 'tag;
}

type csr = {
  offsets : int array;
  edge_ids : edge_id array;
  dsts : int array;
  srcs : int array;
}

type 'tag t = {
  n : int;
  mutable edges_rev : 'tag edge list;  (* newest first *)
  mutable count : int;
  in_adj : edge_id list array;  (* newest first; reversed on read *)
  (* Built lazily and dropped by [add_edge]. *)
  mutable cache : 'tag edge array option;  (* id-indexed *)
  mutable csr : csr option;
  mutable costs : float array option;  (* id-indexed *)
}

let create ~n =
  assert (n >= 0);
  {
    n;
    edges_rev = [];
    count = 0;
    in_adj = Array.make (max n 1) [];
    cache = None;
    csr = None;
    costs = None;
  }

let add_edge t ~src ~dst ~capacity ~cost tag =
  assert (src >= 0 && src < t.n && dst >= 0 && dst < t.n);
  assert (capacity >= 0.0 && Float.is_finite capacity);
  assert (Float.is_finite cost);
  let id = t.count in
  let e = { id; src; dst; capacity; cost; tag } in
  t.edges_rev <- e :: t.edges_rev;
  t.count <- t.count + 1;
  t.in_adj.(dst) <- id :: t.in_adj.(dst);
  t.cache <- None;
  t.csr <- None;
  t.costs <- None;
  id

let n_vertices t = t.n
let n_edges t = t.count

let edges t = List.rev t.edges_rev

(* Ids are dense and assigned in insertion order, so the insertion-order
   list is already id-indexed. *)
let edge_array t =
  match t.cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (edges t) in
      t.cache <- Some a;
      a

let edge t id =
  assert (id >= 0 && id < t.count);
  (edge_array t).(id)

(* Counting sort by source.  Walking the newest-first list and filling
   each vertex's slots from the back leaves them in insertion order. *)
let out_csr t =
  match t.csr with
  | Some c -> c
  | None ->
      let offsets = Array.make (t.n + 1) 0 in
      List.iter (fun e -> offsets.(e.src + 1) <- offsets.(e.src + 1) + 1) t.edges_rev;
      for v = 1 to t.n do
        offsets.(v) <- offsets.(v) + offsets.(v - 1)
      done;
      let edge_ids = Array.make t.count 0 and dsts = Array.make t.count 0 in
      let srcs = Array.make t.count 0 in
      let next = Array.sub offsets 1 t.n in
      List.iter
        (fun e ->
          let i = next.(e.src) - 1 in
          next.(e.src) <- i;
          edge_ids.(i) <- e.id;
          dsts.(i) <- e.dst;
          srcs.(e.id) <- e.src)
        t.edges_rev;
      let c = { offsets; edge_ids; dsts; srcs } in
      t.csr <- Some c;
      c

let costs t =
  match t.costs with
  | Some c -> c
  | None ->
      let c = Array.map (fun e -> e.cost) (edge_array t) in
      t.costs <- Some c;
      c

let out_edges t v =
  let c = out_csr t in
  List.init (c.offsets.(v + 1) - c.offsets.(v)) (fun i -> c.edge_ids.(c.offsets.(v) + i))

let in_edges t v = List.rev t.in_adj.(v)
let iter_edges f t = Array.iter f (edge_array t)
let fold_edges f acc t = Array.fold_left f acc (edge_array t)

let filter t pred =
  let g = create ~n:t.n in
  iter_edges
    (fun e ->
      if pred e then
        ignore
          (add_edge g ~src:e.src ~dst:e.dst ~capacity:e.capacity ~cost:e.cost
             e.tag))
    t;
  g

let map_edges t f =
  let g = create ~n:t.n in
  iter_edges
    (fun e ->
      let capacity, cost, tag = f e in
      ignore (add_edge g ~src:e.src ~dst:e.dst ~capacity ~cost tag))
    t;
  g

let pp pp_tag fmt t =
  Format.fprintf fmt "graph n=%d m=%d@." t.n t.count;
  iter_edges
    (fun e ->
      Format.fprintf fmt "  #%d %d->%d cap=%.2f cost=%.2f tag=%a@." e.id e.src
        e.dst e.capacity e.cost pp_tag e.tag)
    t
