(** Deterministic, seed-driven fault injection.

    The paper's measurement study is a study of failures: over 90% of
    observed outage events are not fiber cuts, and a quarter of the
    hard downs had enough residual SNR to have survived as capacity
    flaps (Section 2.2, Figure 4).  A simulator that only exercises
    the happy path — every BVT reconfiguration succeeds, every
    surviving poll is well-formed — cannot say anything about how the
    adaptive policy degrades when the infrastructure misbehaves.

    This module is the controlled way to break the system.  A
    declarative {!plan} names, per component, a probability, an
    optional component-specific parameter and an optional active
    window; {!compile} turns the plan into an {!injector} whose
    decisions are drawn from the plan's own seeded RNG, one
    independent substream per component.  The pipeline threads the
    injector through its hook points ({!Rwc_optical.Bvt},
    {!Rwc_telemetry.Collector}, {!Rwc_core.Adapt}, the simulation
    runner), each of which asks {!fires} at its injection
    opportunity.  A failed BVT reconfiguration is retried on a
    {!retry_policy}.

    Two properties the rest of the system relies on:

    - {b disarmed is free}: the {!disarmed} injector (and any plan
      with no rule for the queried component) answers without drawing
      any randomness or touching any state, so a run with faults off
      is bit-identical to a build without the fault layer;
    - {b determinism}: the injector never reads the clock or any
      global; the same plan against the same deterministic call
      sequence yields the same faults, so chaos runs are replayable
      from the plan alone. *)

type component =
  | Bvt_reconfig  (** A modulation change fails at commit. *)
  | Bvt_timeout
      (** A modulation change times out: [param] extra seconds are
          lost, then the change fails. *)
  | Collector_outage
      (** A whole poll sweep is lost (collector restart). *)
  | Collector_corrupt
      (** A delivered sample's value is perturbed by up to ±[param] dB. *)
  | Adapt_stuck
      (** A controller transition is suppressed: the device keeps its
          current modulation (stuck firmware / lost command). *)
  | Te_delay
      (** A due TE recomputation is postponed by [param] seconds. *)
  | Crash
      (** The controller process dies at a sample boundary and must be
          restarted from its last checkpoint (see {!Rwc_recover}). *)
  | Io_short
      (** A buffered write reaches the disk torn: only the first half
          of the flushed chunk lands (see {!Rwc_storm}). *)
  | Io_torn_rename
      (** An atomic-replace rename is lost: the temp file stays, the
          destination is never updated. *)
  | Io_enospc
      (** A flushed chunk is dropped entirely, as if the device
          returned ENOSPC and the writer could not retry. *)
  | Io_bitflip
      (** One bit of the flushed chunk is inverted in flight
          (simulated media corruption). *)

val all_components : component list
val component_name : component -> string

val io_components : component list
(** The storage-fault components, in index order — the subset a
    [--storm] plan may use (see {!Rwc_storm.plan_of_string}). *)

val is_io : component -> bool
(** True exactly for members of {!io_components}. *)

type window = { start_s : float; stop_s : float }
(** Half-open activity interval in simulation seconds. *)

type rule = {
  component : component;
  prob : float;  (** Per-opportunity firing probability, in [0, 1). *)
  param : float;  (** Component-specific magnitude (see {!component}). *)
  window : window option;  (** [None]: active for the whole run. *)
}

type plan = { seed : int; rules : rule list }

val none : plan
(** The empty plan: compiles to an injector that never fires. *)

val default : plan
(** A representative chaos plan: moderate BVT failure and timeout
    rates, occasional collector outages and corruption, rare stuck
    transitions, and TE recomputation delays. *)

val is_none : plan -> bool
(** True when the plan has no rules (regardless of seed). *)

val scaled : plan -> factor:float -> plan
(** Every rule's probability multiplied by [factor] (clamped to
    [\[0, 0.999\]]); params and windows unchanged.  [factor] must be
    >= 0.  Used by the chaos sweep. *)

val of_string : string -> (plan, string) result
(** Parse a plan specification.  The grammar is a comma-separated
    list of tokens:

    - ["none"] (alone): the empty plan;
    - ["default"] (alone, or first): start from {!default};
    - ["seed=N"]: set the plan seed;
    - ["NAME=PROB"], ["NAME=PROB:PARAM"], each optionally suffixed
      with ["@START..STOP"] (seconds): one rule, where [NAME] is one
      of [bvt-fail], [bvt-timeout], [collector-outage],
      [collector-corrupt], [adapt-stuck], [te-delay], [crash],
      [io_short], [io_torn_rename], [io_enospc], [io_bitflip] (the
      [io_*] components drive the {!Rwc_storm} storage layer; their
      window positions are boundary ordinals, not seconds).

    Example: ["bvt-fail=0.3,te-delay=0.1:1800,seed=99"], or
    ["bvt-fail=0.5@86400..172800"] for day-two-only failures. *)

val to_string : plan -> string
(** Round-trips through {!of_string}. *)

type injector

val disarmed : injector
(** Never fires, draws nothing, counts nothing. *)

val compile : plan -> injector
(** Fresh injector for the plan; each component gets its own RNG
    substream of the plan seed, so the fault pattern seen by one
    component is independent of how often the others are queried. *)

val armed : injector -> bool
(** False for {!disarmed} and for compiled empty plans. *)

val fires : injector -> component -> now:float -> bool
(** One injection opportunity: true when the component has a rule
    whose window contains [now] and whose probability draw fires.
    Counts every firing in the [fault/injected_total] metric, the
    per-component [fault/<name>] metric, and the injector's own
    counters.  Without a rule for the component this returns false
    without drawing. *)

val param : injector -> component -> float
(** The rule's magnitude parameter; 0 when the component has no
    rule. *)

val jitter : injector -> component -> float
(** Deterministic perturbation draw in [-param, +param], from the
    component's own stream (used for corrupt sample values). *)

val draw : injector -> component -> float
(** Deterministic uniform draw in [\[0, 1)] from the component's own
    stream; 0 without drawing when the component has no rule.  Used by
    {!Rwc_storm} to pick corruption positions. *)

val injected : injector -> int
(** Total faults this injector has fired, across components. *)

val injected_for : injector -> component -> int

type snapshot
(** Frozen injector state: per-component RNG positions and firing
    counts.  Only meaningful against an injector compiled from the
    same plan. *)

val snapshot : injector -> snapshot
val restore : injector -> snapshot -> unit
(** [restore t snap] rewinds [t] to the captured positions.  Raises
    [Invalid_argument] if [t] was compiled from a plan with a
    different rule shape. *)

val snapshot_to_list : snapshot -> int * (int64 * int) option list
(** [(total, per-component slot states)] for serialization. *)

val snapshot_of_list : int * (int64 * int) option list -> snapshot
(** Inverse of {!snapshot_to_list}. *)

(** {1 Retrying a failed operation} *)

type retry_policy = {
  max_attempts : int;  (** Total attempts, >= 1. *)
  base_s : float;  (** Backoff after the first failure. *)
  factor : float;  (** Multiplier per subsequent failure. *)
  cap_s : float;  (** Upper bound on any single backoff delay. *)
}
(** Capped exponential backoff: the schedule the runner retries a
    failed BVT reconfiguration on, and [rwc watch] reconnects to a
    dropped daemon socket on. *)

val backoff_delay : retry_policy -> attempt:int -> float
(** Delay before the attempt following failure number [attempt]
    (1-based): [min cap_s (base_s *. factor ^ (attempt - 1))].
    Monotone non-decreasing in [attempt] for [factor >= 1].  Raises
    [Invalid_argument] when [attempt < 1]. *)
