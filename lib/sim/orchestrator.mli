(** Execution of an upgrade plan as an operational procedure.

    Deciding WHAT to upgrade is the job of the augmentation + TE
    (Section 4); actually doing it is an operational sequence per link:

      drain (install the transitional routing that avoids the link)
      -> reconfigure (the BVT modulation change, Section 3.1)
      -> restore (final routing).

    The orchestrator runs that sequence over the discrete-event engine,
    one link at a time (operators serialize risky changes), drawing
    each reconfiguration's duration from the BVT latency model and
    accounting the traffic lost on links that could not be fully
    drained.  It is the glue between {!Rwc_core.Consistent_update}
    and {!Rwc_optical.Bvt}.

    Reconfigurations can fail.  With an armed {!Rwc_fault} injector, a
    change may fail at commit ([Bvt_reconfig]) or time out
    ([Bvt_timeout], stalling for the rule's param seconds first).  A
    failed attempt is retried with capped exponential backoff
    ({!retry_policy}); a link whose attempts are exhausted {e falls
    back} to its pre-upgrade modulation — the BVT never committed, so
    restoring the old routing is immediate, and the link degrades
    gracefully (a flap) instead of wedging the plan. *)

type phase =
  | Drain_started
  | Reconfigure_started
  | Reconfigure_failed  (** The attempt did not take (injected fault). *)
  | Retry_scheduled  (** Backoff armed; the next attempt will follow. *)
  | Fallback_started
      (** Retries exhausted; reverting to the pre-upgrade modulation. *)
  | Skipped_by_guard
      (** The safety layer refused the up-shift (quarantine, admission
          budget, stale telemetry or global hold); the link was left
          untouched for this execution. *)
  | Restored

type log_entry = {
  time_s : float;  (** Simulation time of the transition. *)
  phys_edge : Rwc_flow.Graph.edge_id;
  phase : phase;
}

type retry_policy = {
  max_attempts : int;  (** Total attempts per link, >= 1. *)
  base_s : float;  (** Backoff after the first failure. *)
  factor : float;  (** Multiplier per subsequent failure. *)
  cap_s : float;  (** Upper bound on any single backoff delay. *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 5 s base, doubling, capped at 60 s. *)

val default_reconnect_policy : retry_policy
(** The same shape reused client-side: the schedule [rwc watch]
    follows when its daemon socket drops (a restart, an upgrade) —
    8 attempts, 0.25 s base, doubling, capped at 5 s per wait. *)

val backoff_delay : retry_policy -> attempt:int -> float
(** Delay before the attempt following failure number [attempt]
    (1-based): [min cap_s (base_s *. factor ^ (attempt - 1))].
    Monotone non-decreasing in [attempt] for [factor >= 1].  Raises
    [Invalid_argument] when [attempt < 1]. *)

type outcome = {
  log : log_entry list;  (** Chronological. *)
  total_duration_s : float;
  disrupted_gbit : float;
      (** Sum over links of (traffic still on the link during its
          reconfiguration attempts and stalls) x (duration). *)
  reconfigurations : int;
      (** Reconfiguration attempts executed (= number of
          [Reconfigure_started] entries; equals the plan length when
          nothing fails). *)
  faults_injected : int;
      (** Faults the injector fired during this execution. *)
  retries : int;  (** Attempts re-scheduled after a failure. *)
  fallbacks : int;  (** Links that reverted to their pre-upgrade rate. *)
  guard_skipped : int;
      (** Links whose upgrade the guard refused ([Skipped_by_guard]). *)
}

val execute :
  rng:Rwc_stats.Rng.t ->
  upgrades:Rwc_core.Translate.decision list ->
  residual_flow:(Rwc_flow.Graph.edge_id -> float) ->
  downtime_mean_s:float ->
  ?drain_s:float ->
  ?faults:Rwc_fault.injector ->
  ?retry:retry_policy ->
  ?guard:Rwc_guard.t ->
  ?journal:Rwc_journal.t ->
  unit ->
  outcome
(** [execute ~rng ~upgrades ~residual_flow ~downtime_mean_s ()] runs
    the plan.  [residual_flow e] is the traffic (Gbps) that remains on
    edge [e] during its reconfiguration after the transitional routing
    has been installed — 0 when the consistent update fully drained it.
    [drain_s] (default 30 s) is the time to install a routing change
    network-wide.  Links are processed in plan order, strictly
    serialized.  The DES runs to quiescence (no fixed horizon), so no
    retry chain or heavy-tailed downtime draw can truncate the log;
    every link ends [Restored] — directly on success, or via
    [Fallback_started] when its [retry] attempts (default
    {!default_retry_policy}) are exhausted — and the test suite asserts
    both.  An armed [guard] is consulted before each link's drain:
    a refused up-shift is logged as [Skipped_by_guard] and the link is
    left untouched.  Without an armed [faults] injector (and with the
    default disarmed [guard]) the outcome is bit-identical to the
    historic always-succeeds behavior.

    An armed [journal] records each link's chain — intent, guard
    verdict, per-attempt fault outcome, commit — keyed by physical
    edge id.  The orchestrator plans in capacity deltas, so intents
    and commits carry the upgrade's [extra_gbps] rather than a target
    denomination; a fallback commits 0 extra.  The default is
    {!Rwc_journal.disarmed}, which emits nothing. *)
