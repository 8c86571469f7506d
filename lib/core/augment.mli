(** Algorithm 1: topology augmentation with fake links.

    Given the physical topology — where each edge carries its current
    configured capacity — plus each edge's upgrade headroom U(e) (how
    much extra capacity its SNR allows) and a penalty P(e), build the
    augmented topology G': every physical edge appears unchanged (with
    a base routing weight), and every edge with positive headroom gains
    a {e parallel fake edge} of capacity U(e) and per-unit cost
    P(e).  An unmodified TE algorithm run on G' uses fake edges exactly
    when upgrading pays off; {!Translate} turns its flow back into
    upgrade decisions.

    Theorem 1 (verified by the property-test suite): solving min-cost
    max-flow on G' yields the max-flow value of the fully-upgraded
    physical topology, while the fake-edge usage identifies a cheapest
    upgrade set achieving it. *)

type tag = Real of Rwc_flow.Graph.edge_id | Fake of Rwc_flow.Graph.edge_id
(** Augmented-edge provenance: the physical edge id it descends from. *)

type 'a t = {
  physical : 'a Rwc_flow.Graph.t;
  graph : tag Rwc_flow.Graph.t;  (** The augmented topology G'. *)
  fake_of_phys : Rwc_flow.Graph.edge_id option array;
      (** For each physical edge, the id of its fake twin in [graph]
          (if it has headroom). *)
}

val build :
  ?weight:(Rwc_flow.Graph.edge_id -> float) ->
  headroom:(Rwc_flow.Graph.edge_id -> float) ->
  penalty:Penalty.t ->
  'a Rwc_flow.Graph.t ->
  'a t
(** [build ~headroom ~penalty g] runs Algorithm 1.  [weight] is the
    base routing cost applied to BOTH the real edge and its fake twin
    (default: 0 everywhere; use [fun _ -> 1.0] for the paper's
    "short paths at all costs" variant of Fig. 7c).  Headroom must be
    non-negative; edges with zero headroom get no twin. *)

val drop_fake :
  'a t -> phys:Rwc_flow.Graph.edge_id list -> 'a t
(** Section 4.2's handling of SNR degradation: capacity {e reductions}
    are expressed by removing the corresponding fake edges, after which
    the TE controller reacts exactly as it would to a real edge
    removal.  Physical edges without a twin are ignored. *)

