(** Shortest-path algorithms over {!Graph} edge costs.

    Used by the SWAN-style TE allocator (k-shortest candidate paths, as
    in Hong et al., SIGCOMM 2013) and by the "short paths at all costs"
    penalty variant of Section 4.2 where every link gets unit weight. *)

type path = Graph.edge_id list
(** A path as the list of edge ids traversed, in order. *)

val path_cost : 'tag Graph.t -> path -> float
val path_capacity : 'tag Graph.t -> path -> float
(** Bottleneck (minimum) capacity along the path; [infinity] for the
    empty path. *)

val dijkstra :
  ?usable:(Graph.edge_id -> bool) ->
  ?cost:(Graph.edge_id -> float) ->
  'tag Graph.t ->
  src:int ->
  dst:int ->
  path option
(** Least-cost path using non-negative edge costs; [usable] filters
    edges (default: all).  [None] when unreachable.  [cost] overrides
    the per-edge cost (default: the edge's [cost]).  Both are read
    once for every edge before the search.  A one-shot {!Workspace.dijkstra};
    callers that search the same graph repeatedly should keep a
    workspace instead.  The search stops as soon as [dst] is
    finalized. *)

(** Scratch space for repeated searches over one graph.  The
    multicommodity solver re-runs Dijkstra under a length function
    that changes after every augmenting path; with a workspace those
    runs allocate nothing.  A workspace holds a view of the graph: its
    out-edges that passed a [usable] filter, in {!Graph.out_csr} order,
    taken when the workspace is made or re-filtered.  Ties between
    equal-cost paths are broken exactly as {!dijkstra} breaks them,
    because {!dijkstra} is this same search. *)
module Workspace : sig
  type t

  val create : ?usable:(Graph.edge_id -> bool) -> 'tag Graph.t -> t
  (** A view of [g] keeping the edges that pass [usable] (default:
      all), plus O(n) words of scratch.  [usable] is called once per
      edge, now; edges added to [g] later are not seen.  Without
      [usable] the view is [g]'s cached {!Graph.out_csr} itself; with
      it, the view takes O(n + m) words of its own.  The heap grows to
      fit during the first searches; after that a search allocates
      nothing. *)

  val filter : t -> usable:(Graph.edge_id -> bool) -> unit
  (** Re-takes the view in place, keeping the edges of the graph the
      workspace was made for that pass [usable].  Allocates only the
      first time on a workspace made without [usable]. *)

  val tree :
    t -> length:float array -> src:int -> dsts:int array -> n_dsts:int -> unit
  (** Grows a least-[length] tree ([length] is indexed by edge id,
      entries non-negative) from [src] over the edges in the view, and
      stops as soon as every vertex in [dsts.(0 .. n_dsts - 1)] is
      finalized, or once every vertex reachable from [src] is.  A
      single target gives exactly {!dijkstra}'s search.  The tree is
      left in the workspace until the next search. *)

  val reached : t -> int -> bool
  (** Whether the last search finalized the vertex.  For one of its
      targets that means reachable from its source. *)

  val distance : t -> int -> float
  (** The last search's distance to a vertex it finalized;
      [infinity] for any other. *)

  val parents : t -> Graph.edge_id array
  (** The last search's tree, read in place: for a vertex it
      finalized other than its source, the entry is the edge into that
      vertex on its path from the source.  Other entries are left from
      earlier searches.  Valid until the next search. *)

  val order : t -> int array
  (** The vertices the last search finalized, in the order it
      finalized them (its source first), in the first
      {!n_finalized} entries; a vertex's tree edge comes from one
      finalized before it.  Valid until the next search. *)

  val n_finalized : t -> int

  val dijkstra : t -> length:float array -> src:int -> dst:int -> bool
  (** Least-[length] path over the edges in the view: a {!tree} with
      the one target [dst], and the path to it.  [false] when [dst] is
      unreachable.  On [true] the path is left in the workspace until
      the next run. *)

  val path_length : t -> int
  (** Edges on the last path found. *)

  val path_edge : t -> int -> Graph.edge_id
  (** [path_edge ws i] is the [i]-th edge from the source. *)

  val path : t -> path
  (** The last path found, as a list. *)
end

val bellman_ford : 'tag Graph.t -> src:int -> float array
(** Distances from [src] to every vertex (infinity if unreachable);
    handles negative costs; raises [Invalid_argument] on a
    negative-cost cycle reachable from [src]. *)

val k_shortest : 'tag Graph.t -> src:int -> dst:int -> k:int -> path list
(** Yen's algorithm: up to [k] loopless least-cost paths in
    non-decreasing cost order.  Requires non-negative costs. *)
