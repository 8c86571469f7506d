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
  flow : float array;  (** Feasible per-edge flow after scaling. *)
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

    Counters: [mcf/phases], [mcf/augmenting_paths], and
    [mcf/phase_cap_hits], which counts solves cut short by the
    10,000-phase cap before the dual objective reached 1.  A phase
    that finds no augmenting path (every commodity unreachable) ends
    the solve, since every later phase would repeat it. *)

val total_throughput : result -> float
(** Sum of shipped amounts over commodities. *)
