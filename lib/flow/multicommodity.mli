(** Approximate maximum concurrent multicommodity flow
    (Garg-Könemann / Fleischer width-independent scheme).

    WAN traffic engineering controllers such as SWAN and B4 solve
    multicommodity flow problems; production systems use an LP solver.
    We substitute the classic fully-polynomial approximation scheme,
    which needs nothing but repeated shortest-path computations and
    converges to within (1 - 3 epsilon) of the optimum.  This keeps the
    TE layer self-contained — and, exactly as the paper requires, the
    algorithm is oblivious to whether the topology it is fed is the
    physical one or the fake-edge-augmented one. *)

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

val solve :
  ?epsilon:float -> 'tag Graph.t -> commodity array -> result
(** [solve ?epsilon g commodities] with [epsilon] in (0, 0.5], default
    0.1.  Commodities must have positive demand and distinct
    [src <> dst].  Smaller epsilon = tighter approximation, more
    shortest-path iterations.

    Counters: [mcf/phases], [mcf/augmenting_paths],
    [mcf/phase_cap_hits], which counts solves cut short by the
    10,000-phase cap before the dual objective reached 1, and
    [mcf/dual_rechecks], which counts the exact O(m) sums of the dual
    objective: one at each phase-head test and one after the last,
    plus one for each path test made while the running estimate of
    the sum was within 1e-6 of 1.  It stays far below the path
    count.  A phase that finds no augmenting path (every commodity
    unreachable) ends the solve, since every later phase would repeat
    it. *)

val total_throughput : result -> float
(** Sum of shipped amounts over commodities. *)
