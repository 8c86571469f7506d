(** Approximate maximum concurrent multicommodity flow
    (Garg-Könemann, in Fleischer's width-independent phase variant).

    WAN traffic engineering controllers such as SWAN and B4 solve
    multicommodity flow problems; production systems use an LP solver.
    We substitute the classic fully-polynomial approximation scheme,
    which needs nothing but repeated shortest-path computations and
    converges to within (1 - 3 epsilon) of the optimum.  This keeps the
    TE layer self-contained — and, exactly as the paper requires, the
    algorithm is oblivious to whether the topology it is fed is the
    physical one or the fake-edge-augmented one.

    Each phase routes every commodity's demand once, one source at a
    time.  A step grows one shortest-path tree from the source and
    sends each of its commodities the same fraction of its remaining
    demand along its tree path, as much as keeps every edge within its
    capacity in that step; later steps reuse those paths without a
    search while each stays within (1 + epsilon) of its length when the
    tree was grown.  The result holds the flow of the completed phases
    only, and comes with Garg-Könemann's dual bound as a certificate
    ({!solve_certified}). *)

type commodity = { src : int; dst : int; demand : float }

type result = {
  lambda : float;
      (** Concurrent throughput fraction: every commodity can ship
          [lambda *. demand] simultaneously.  At most 1.0 — demands
          are never over-served — except with no commodities at all,
          where it is [infinity]. *)
  flow : float array;
      (** Feasible per-edge flow after scaling, indexed by edge id:
          exactly [Graph.n_edges g] entries, none on a graph without
          edges. *)
  routed : float array;
      (** Per-commodity shipped amount; never exceeds the commodity's
          demand. *)
}

type certified = {
  result : result;
  lambda_upper : float;
      (** An upper bound on the optimal concurrent fraction lambda*, so
          [result.lambda <= lambda_upper], and the ratio bounds how far
          from optimal [result.lambda] is.  It is Garg-Könemann's dual
          bound D(l)/alpha(l) at the solve's final edge lengths l: D(l)
          sums length times capacity over the usable edges, alpha(l)
          sums demand times shortest-path distance over the
          commodities, with one shortest-path tree per source, grown on
          the lengths times an exact power of two so that the search's
          absolute 1e-12 slack cannot bias it.  Unlike [lambda] it is
          not capped at 1.  0.0 when a commodity is unreachable;
          [infinity] with no commodities. *)
}
(** A solve's result with its certificate, kept beside [result] rather
    than in it so that [result] keeps its three fields. *)

val solve :
  ?epsilon:float -> 'tag Graph.t -> commodity array -> result
(** [solve ?epsilon g commodities] with [epsilon] in (0, 0.5], default
    0.1.  Commodities must have positive demand and distinct
    [src <> dst].  Smaller epsilon = tighter approximation, more
    shortest-path trees.  The solve stops once the dual objective
    sum_e length(e) * c(e) reaches 1, and returns the flow of the
    phases completed by then, scaled to feasibility.  When even the
    first phase cannot complete, it starts over with phases that route
    half of every demand, halving until one completes.  A phase that
    routes nothing (every commodity unreachable) ends the solve, since
    every later phase would repeat it.

    Counters: [mcf/phases]; [mcf/trees], the shortest-path trees
    grown, including the one per source that the certificate takes;
    [mcf/augmenting_paths], the augmentations (one per commodity per
    step); [mcf/path_reuses], the augmentations along a path reused
    from an earlier tree; [mcf/phase_cap_hits], which counts solves
    cut short by the 10,000-phase cap before the dual objective
    reached 1; and [mcf/dual_rechecks], which counts the exact O(m)
    sums of the dual objective: one at each phase-head test and one
    after the last, plus one for each step test made while the
    running estimate of the sum was within 1e-6 of 1.  It stays far
    below the augmentation count. *)

val solve_certified :
  ?epsilon:float -> 'tag Graph.t -> commodity array -> certified
(** {!solve} with its certificate; [solve] is this solve with the
    certificate dropped.  The certificate costs one tree per source. *)

val total_throughput : result -> float
(** Sum of shipped amounts over commodities. *)
