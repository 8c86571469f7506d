(** Directed multigraphs with float capacities and per-unit costs.

    This is the flow-network substrate under the paper's graph
    abstraction.  It is a multigraph on purpose: Algorithm 1 adds a
    *parallel* fake edge next to each upgradable physical edge, so two
    edges between the same node pair must coexist and stay
    distinguishable.  Edges carry an arbitrary [tag] so higher layers can
    mark which edges are fake and map them back to physical links. *)

type edge_id = int
(** Dense identifier, assigned in insertion order starting at 0. *)

type 'tag edge = {
  id : edge_id;
  src : int;
  dst : int;
  capacity : float;
  cost : float;  (** Per-unit-of-flow cost (the paper's penalty P). *)
  tag : 'tag;
}

type 'tag t

val create : n:int -> 'tag t
(** Empty graph on vertices [0 .. n-1]. *)

val add_edge :
  'tag t -> src:int -> dst:int -> capacity:float -> cost:float -> 'tag -> edge_id
(** Adds a directed edge; returns its id.  Capacity and cost must be
    non-negative and finite. *)

val n_vertices : _ t -> int
val n_edges : _ t -> int
val edge : 'tag t -> edge_id -> 'tag edge
val out_edges : 'tag t -> int -> edge_id list
(** Edge ids leaving a vertex, in insertion order. *)

type csr = private {
  offsets : int array;
      (** Length [n + 1]; vertex [v]'s out-edges occupy slots
          [offsets.(v)] to [offsets.(v + 1) - 1]. *)
  edge_ids : edge_id array;  (** Edge id in each slot. *)
  dsts : int array;  (** Head vertex of each slot's edge. *)
  srcs : int array;  (** Tail vertex of each edge, indexed by edge id. *)
}
(** Flat out-adjacency (compressed sparse rows): the same edges, in
    the same order, as {!out_edges}, but readable without allocating.
    Callers must not write to the arrays. *)

val out_csr : 'tag t -> csr
(** Built on first use and cached until the next {!add_edge}. *)

val costs : 'tag t -> float array
(** Every edge's [cost], indexed by id; cached like {!out_csr}, and
    likewise read-only. *)

val in_edges : 'tag t -> int -> edge_id list
val edges : 'tag t -> 'tag edge list
(** All edges in insertion order. *)

val iter_edges : ('tag edge -> unit) -> 'tag t -> unit
val fold_edges : ('acc -> 'tag edge -> 'acc) -> 'acc -> 'tag t -> 'acc

val filter : 'tag t -> ('tag edge -> bool) -> 'tag t
(** Copy of the graph keeping only edges satisfying the predicate.
    Edge ids are {e reassigned}; vertex numbering is preserved. *)

val map_edges :
  'tag t -> ('tag edge -> float * float * 'tag2) -> 'tag2 t
(** Copy with each edge's (capacity, cost, tag) rewritten; ids and
    structure preserved. *)

val pp : (Format.formatter -> 'tag -> unit) -> Format.formatter -> 'tag t -> unit
