(** SSE-style push stream: topics, per-subscriber bounded queues, drop
    accounting.

    The hub is single-threaded plumbing between the simulation's hook
    sites (which {!publish}) and the transport pump (which {!drain}s
    each subscriber's queue into its socket buffer).  Backpressure
    policy: a subscriber whose queue is full {b drops the new event}
    (drop-newest) rather than stalling the simulation or evicting
    already-queued history — the drop is counted on the subscriber and
    on the [serve/dropped_events] metric, and the per-topic [seq] lets
    the client see the gap and re-subscribe from its high-water mark
    (decision events replay from the journal, the catch-up log; metric
    deltas are ephemeral and the next delta re-baselines). *)

type topic = Decision | Metrics | Slo | Lifecycle

val all_topics : topic list
val topic_name : topic -> string
val topic_of_name : string -> topic option

type subscriber

type hub

val hub : unit -> hub

val subscribe : hub -> ?max_queue:int -> topics:topic list -> unit -> subscriber
(** [max_queue] defaults to 256 queued events. *)

val unsubscribe : hub -> subscriber -> unit

val publish : hub -> topic:topic -> seq:int -> Rwc_obs.Json.t -> unit
(** Enqueue an event envelope [{topic; seq; data}] on every subscriber
    whose filter includes [topic]. *)

val push_direct : subscriber -> topic:topic -> seq:int -> Rwc_obs.Json.t -> unit
(** Enqueue on one subscriber only — the catch-up replay path.  Not
    subject to [max_queue]: the burst is bounded by the journal's
    length and dropping it would discard the history being replayed;
    the cap (and drop accounting) applies to live {!publish} only. *)

val next_seq : hub -> topic -> int
(** Post-increment the hub's own counter for topics without an external
    ordinal (decision events use the journal ordinal instead). *)

val drain : subscriber -> Rwc_obs.Json.t list
(** Dequeue everything, oldest first. *)

val pending : subscriber -> int
val dropped : subscriber -> int
val subscriber_id : subscriber -> int
val subscribers : hub -> int
val published : hub -> int
(** Events offered to the hub so far (counted once per {!publish},
    regardless of subscriber count) — the heartbeat's event rate. *)

val total_dropped : hub -> int
