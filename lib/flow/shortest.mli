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
    the per-edge cost (default: the edge's [cost]); it is read once for
    every edge before the search.  A one-shot {!Workspace.dijkstra};
    callers that search the same graph repeatedly should keep a
    workspace instead.  The search stops as soon as [dst] is
    finalized. *)

(** Scratch space for repeated searches over one graph.  The
    multicommodity solver re-runs Dijkstra under a length function
    that changes after every augmenting path; with a workspace those
    runs allocate nothing.  Ties between equal-cost paths are broken
    exactly as {!dijkstra} breaks them, because {!dijkstra} is this
    same search. *)
module Workspace : sig
  type t

  val create : 'tag Graph.t -> t
  (** Sized for the graph: reusable for any graph with at most as many
      vertices.  The heap grows to fit during the first searches;
      after that a search allocates nothing. *)

  val dijkstra :
    t ->
    'tag Graph.t ->
    usable:(Graph.edge_id -> bool) ->
    length:float array ->
    src:int ->
    dst:int ->
    bool
  (** Least-[length] path ([length] is indexed by edge id, entries
      non-negative) over the edges passing [usable]; [false] when
      [dst] is unreachable.  On [true] the path is left in the
      workspace until the next run. *)

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
