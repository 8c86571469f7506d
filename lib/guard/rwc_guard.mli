(** Fleet-scope safety controller between adaptation and execution.

    The paper's core risk is that SNR-driven adaptation turns failures
    into capacity {e flaps} — but an unguarded controller can flap
    itself: an SNR stream straddling a modulation threshold, a
    maintenance event touching all 40 wavelengths of one fiber, or a
    collector outage feeding stale data can each cost more
    reconfiguration downtime (Section 3.1's ~68 s per change) than the
    capacity gain is worth.  {!Rwc_fault} measures that degradation;
    this module bounds it, with four mechanisms:

    - {b flap damping / quarantine}: each link accrues an
      exponentially-decaying penalty per committed reconfiguration
      (BGP route-flap-damping style).  A link over the suppress
      threshold is quarantined at its current safe denomination until
      the penalty decays below the reuse threshold.  Quarantine only
      suppresses up-shifts: down-shifts and going dark always pass —
      safety moves must never queue behind a damping timer.
    - {b shared-risk admission control}: a token budget of concurrent
      in-flight reconfigurations per shared-risk group (the
      40-wavelength fiber of Section 2), so one maintenance-window SNR
      dip cannot trigger every wavelength's BVT commit at once.  A
      deferred change is not queued as state: the controller re-decides
      against fresh SNR on the next sample, which is exactly the
      re-validation the budget is buying time for.
    - {b stale-telemetry holddown}: a link whose telemetry is older
      than the freeze horizon has its capacity frozen; past the
      fallback horizon it reverts to the static 100 Gbps baseline
      policy (graceful degradation to the paper's status quo).  Up-shifts
      are never allowed on non-fresh data, at any age.
    - {b oscillation watchdog}: up/down/up commit cycles within a
      window, counted fleet-wide, trip a global hold on up-shifts.

    Like {!Rwc_fault}, the layer is declaratively configured
    ({!of_string}, mirroring the [--faults] grammar) and {b disarmed
    is free}: the {!disarmed} guard (and any [create] from {!none})
    answers {!Allow}/{!Feed} without touching state, so a run with the
    guard off is bit-identical to a build without the guard layer. *)

type config = {
  penalty_per_commit : float;
      (** Penalty a committed reconfiguration adds to its link. *)
  half_life_s : float;  (** Exponential decay half-life of the penalty. *)
  suppress_threshold : float;
      (** Penalty at (or above) which the link is quarantined. *)
  reuse_threshold : float;
      (** Penalty at (or below) which quarantine is released.
          Must be below [suppress_threshold]. *)
  group_budget : int;
      (** Max concurrent in-flight reconfigurations per shared-risk
          group. *)
  freeze_after_s : float;
      (** Telemetry age past which the link's capacity is frozen. *)
  fallback_after_s : float;
      (** Telemetry age past which the link reverts to the static
          100 Gbps baseline.  At least [freeze_after_s]. *)
  osc_window_s : float;
      (** Window for both per-link cycle detection and the fleet-wide
          trip count. *)
  osc_cycles : int;
      (** Fleet-wide oscillation events within the window that trip
          the global hold. *)
  hold_s : float;  (** Duration of a tripped global hold. *)
}

val default_config : config
(** Tuned for the 15-minute telemetry cadence: penalty 1 per commit,
    1 h half-life, suppress at 3, reuse at 1, 4 tokens per group,
    freeze after 1 h of silence, static fallback after 6 h, watchdog
    trips on 3 fleet-wide cycles in 3 h, 2 h hold.  The budget of 4 is
    deliberately above the day-one upgrade fan-out of the embedded
    backbone: at paper-like SNR volatility the guard should be
    invisible in delivered terms, only biting during genuine flap
    storms (the chaos sweep asserts the "no worse than unguarded"
    direction). *)

type plan = config option
(** [None] is the disarmed plan; [Some config] arms the guard. *)

val none : plan
val default : plan

val is_none : plan -> bool

val of_string : string -> (plan, string) result
(** Parse a plan specification, mirroring the [--faults] grammar.  A
    comma-separated list of tokens:

    - ["none"] (alone): the disarmed plan;
    - ["default"]: start from {!default_config};
    - ["KEY=VALUE"]: override one knob of the default.  Keys:
      [penalty], [half-life], [suppress], [reuse], [budget], [freeze],
      [fallback], [osc-window], [osc-cycles], [hold].

    Example: ["suppress=4,reuse=2,budget=1"], or
    ["default,freeze=1800"]. *)

val to_string : plan -> string
(** Round-trips through {!of_string}; prints only the knobs that
    differ from the default. *)

type t
(** A per-fleet guard instance. *)

val disarmed : t
(** Allows everything, feeds everything, counts nothing, holds no
    per-link state. *)

val create : plan -> n_links:int -> group_of:(int -> int) -> t
(** Fresh guard for a fleet of [n_links] links; [group_of] maps a link
    index to its shared-risk group (the fiber/cable it rides).
    [create none] is {!disarmed}. *)

val armed : t -> bool

type intent =
  | Up_shift  (** Capacity increase on a live link. *)
  | Down_shift  (** Capacity reduction that keeps the link up. *)
  | Dark  (** Loss of light; not a BVT commit. *)
  | Recover  (** A dark link coming back. *)

type reason =
  | Quarantined  (** Flap penalty above the suppress threshold. *)
  | Admission  (** Shared-risk group out of in-flight tokens. *)
  | Stale  (** Last telemetry for the link was not fresh. *)
  | Global_hold  (** Oscillation watchdog hold in effect. *)

type verdict = Allow | Suppress of reason

val screen : t -> link:int -> now:float -> intent -> verdict
(** Ask whether an intended transition may proceed.  [Down_shift] and
    [Dark] are always allowed.  [Up_shift] is checked against the
    global hold, data freshness, quarantine and the admission budget;
    [Recover] skips the quarantine and global-hold checks (a dark link
    coming back is an availability win, like a down-shift) but still
    requires fresh data and an admission token.  Each suppression is
    counted in {!stats} and the [guard/*] metrics. *)

type directive =
  | Feed  (** Trusted sample: adapt normally. *)
  | Feed_stale
      (** Sample missing or corrupt but within the freeze horizon:
          adapt on the last-known value; {!screen} will refuse
          up-shifts until data is fresh again. *)
  | Freeze  (** Past the freeze horizon: hold capacity, skip the
                controller entirely. *)
  | Force_static
      (** Just crossed the fallback horizon: revert the link to the
          static 100 Gbps baseline policy.  Returned once per
          holddown episode; subsequent silent samples return
          {!Freeze}. *)

val note_telemetry : t -> link:int -> now:float -> ok:bool -> directive
(** Record one telemetry opportunity for the link ([ok] false when the
    sample was lost or marked corrupt by the fault layer) and say how
    the control loop should treat this sample.  Disarmed: {!Feed}. *)

val record_commit : t -> link:int -> now:float -> intent -> unit
(** A reconfiguration actually committed on the link (never call for
    suppressed or [Stuck] transitions — no commit, no penalty).
    Accrues flap penalty (except for [Dark], which is not a BVT
    commit), may enter quarantine, feeds the oscillation watchdog, and
    takes an in-flight token for the link's group ([Dark] excepted). *)

val release : t -> link:int -> unit
(** The link's in-flight reconfiguration finished (success or
    fallback); return its group token.  Idempotent. *)

val penalty : t -> link:int -> now:float -> float
(** Current (decayed) flap penalty; 0 for {!disarmed}. *)

val quarantined : t -> link:int -> now:float -> bool
(** Whether the link is quarantined after decaying to [now] (a link at
    or below the reuse threshold is released by this query, exactly as
    {!screen} would). *)

val in_hold : t -> now:float -> bool
(** Whether the watchdog's global hold is in effect at [now]. *)

type stats = {
  suppressed_upshifts : int;
      (** Transitions refused for any reason (including admission). *)
  quarantines : int;  (** Quarantine entries. *)
  admission_deferred : int;
      (** Suppressions specifically for want of a group token. *)
  stale_freezes : int;  (** Samples answered with {!Freeze}. *)
  static_fallbacks : int;  (** Links reverted to the 100 Gbps baseline. *)
  watchdog_trips : int;  (** Global holds tripped. *)
}

val stats : t -> stats
(** All zeros for {!disarmed}. *)

type link_snapshot = {
  ls_penalty : float;
  ls_penalty_at : float;
  ls_quarantined : bool;
  ls_fresh : bool;
  ls_last_ok_s : float;
  ls_stage : int;  (** 0 = live, 1 = frozen, 2 = static fallback. *)
  ls_in_flight : bool;
  ls_h1 : (float * bool) option;
  ls_h2 : (float * bool) option;
}
(** Frozen per-link guard state, with variant fields flattened to
    plain data for checkpoint serialization. *)

type snapshot = {
  gs_links : link_snapshot list;
  gs_hold_until : float;
  gs_osc_events : float list;
  gs_stats : stats;
}

val snapshot : t -> snapshot option
(** Full guard state as plain data; [None] for {!disarmed}. *)

val restore : t -> snapshot -> unit
(** Overwrite an armed guard's state from a snapshot taken on a fleet
    of the same size; the per-group admission-token table is rebuilt
    from the restored in-flight flags.  Raises [Invalid_argument] on a
    disarmed guard, a fleet-size mismatch, or a bad stage code. *)

val restore_links : t -> snapshot -> links:int list -> unit
(** Selective {!restore} for a staged-rollout rollback: overwrite only
    the listed links' per-link state from the snapshot, leaving the
    fleet-wide hold, oscillation window and stats untouched (a rollback
    un-does specific upgrades, not the fleet's accumulated history).
    The per-group token table is rebuilt from {e all} links' in-flight
    flags afterwards.  Raises [Invalid_argument] on a disarmed guard, a
    fleet-size mismatch, a bad stage code, or an out-of-range index. *)
