(** Traffic-engineering algorithms, deliberately topology-oblivious.

    The whole point of the paper's abstraction is that production TE
    controllers (SWAN, B4, MPLS-TE) run {e unmodified}: they see a
    graph with capacities and costs and return a flow.  Accordingly,
    every algorithm here takes a plain ['a Graph.t] — callers feed it
    either the physical topology or the {!Augment}ed one and the code
    cannot tell the difference.

    Two allocator families are provided, mirroring the controllers the
    paper names: an approximate max-concurrent multicommodity solver
    (SWAN-style global optimization) and a greedy k-shortest-paths
    water-filler (B4-style progressive allocation). *)

type result = {
  flow : float array;
      (** Per edge of the graph it was given: exactly
          [Graph.n_edges g] entries. *)
  routed : float array;  (** Per commodity. *)
  total_gbps : float;
  lambda_upper : float;
      (** {!mcf}'s certificate: an upper bound on the optimal
          concurrent fraction of demand, as
          {!Rwc_flow.Multicommodity.certified} documents it.
          [infinity] from the allocators that give no bound. *)
}

val mcf :
  ?epsilon:float ->
  'a Rwc_flow.Graph.t ->
  Rwc_flow.Multicommodity.commodity array ->
  result
(** SWAN-style: maximize concurrent demand satisfaction
    (Garg-Könemann under the hood). *)

val greedy_ksp :
  ?k:int ->
  'a Rwc_flow.Graph.t ->
  Rwc_flow.Multicommodity.commodity array ->
  result
(** B4-style: commodities in decreasing demand order, each allocated
    greedily over its [k] (default 4) shortest paths against residual
    capacity.  Fast and suboptimal, like the real thing. *)

val single_mincost :
  'a Rwc_flow.Graph.t -> src:int -> dst:int -> demand:float -> result
(** One-commodity min-cost routing of up to [demand]; this is the
    solver Theorem 1 speaks about when run on the augmented graph. *)

val utilization : 'a Rwc_flow.Graph.t -> result -> float
(** Max link utilization (flow / capacity) over edges with positive
    capacity. *)
