(** The end-to-end WAN simulation: "we simulate the throughput gains
    from deploying our approach" (paper abstract, Section 1).

    A discrete-event simulation drives every duct's SNR process at the
    15-minute telemetry cadence and recomputes traffic engineering
    periodically on whatever capacities the operating policy has left
    available.  Three policies are compared:

    - {b Static_100}: today's network — every wavelength fixed at
      100 Gbps, link declared down below the 6.5 dB threshold.
    - {b Static_max}: the strawman of Section 2.1 — wavelengths fixed
      (no adaptation) at the highest denomination their day-one SNR
      supports; more capacity, but every dip below that higher
      threshold is now an outage (Figure 3's failure inflation).
    - {b Adaptive}: run/walk/crawl — capacity follows SNR via the
      {!Rwc_core.Adapt} hysteresis controller, paying BVT
      reconfiguration downtime (stock ~68 s or efficient ~35 ms,
      Section 3.1) on every change.

    Reported throughput is what the TE controller actually routes of a
    gravity traffic matrix, so capacity that strands behind cuts or
    reconfigurations earns nothing. *)

type procedure = Stock | Efficient

type policy =
  | Static_100
  | Static_max
  | Adaptive of procedure

val policy_name : policy -> string

(** {1 Live hooks}

    A run can carry observer hooks ({!config.hooks}) for a control
    plane that watches it while it executes — the [rwc serve] daemon.
    With {!no_hooks} (the default) each hook site is one [match] on
    [None] and the run is byte-identical to a build without this
    layer, the same contract as the fault/guard/journal layers. *)

type duct_view = {
  dv_link : int;
  dv_gbps : int;  (** Per-wavelength denomination; 0 = dark. *)
  dv_up : bool;
  dv_snr_db : float;
  dv_reconfiguring : bool;
}

type live = {
  lv_policy : string;
  lv_n_ducts : int;
  lv_rollout : Rwc_rollout.t option;
      (** The run's staged-commit engine — the target of the mutating
          [rollout.*] RPCs ({!Rwc_rollout.request_propose} and
          friends).  [None] on a static policy, where there are no
          discretionary upgrades to stage. *)
  lv_now : unit -> float;  (** Simulation seconds. *)
  lv_duct : int -> duct_view;
      (** Raises [Invalid_argument] out of range. *)
  lv_peek : link:int -> snr_db:float -> Rwc_core.Adapt.action option;
      (** {!Rwc_core.Adapt.peek} on the link's controller: a pure
          preview of what the controller would decide at [snr_db];
          [None] on a static policy. *)
  lv_routed_gbps : unit -> float;  (** Current TE-routed total. *)
  lv_capacity_gbps : unit -> float;
  lv_whatif : link:int -> gbps:int -> float * float;
      (** [(routed_now, routed_if)]: rerun TE with the link forced to
          per-wavelength denomination [gbps] (0 = dark), then revert —
          guaranteed even on exceptions, so the run's own state and
          byte-identity are untouched.  TE consumes no randomness, so
          a what-if mid-run perturbs nothing downstream.  A previewed
          capacity vector the run's solve memo holds (see {!run}) is
          answered from the memo without solving; the what-if only
          reads the memo, so it cannot change what the run hits. *)
}
(** A window onto a running policy run, handed to
    [hooks.on_run_start].  The closures remain valid after the run
    returns (answering from its final state), which is what lets a
    lingering daemon keep serving queries between and after runs. *)

type hooks = {
  on_run_start : (live -> unit) option;
  on_sweep : (k:int -> now_s:float -> events:int -> unit) option;
      (** Called at every SNR sample boundary [k] (including the final
          one), before the sweep's mutations and before the recovery
          machinery's stop/checkpoint/crash cut — so a stop the hook
          requests via {!Rwc_recover.request_stop} is honored with a
          final checkpoint at this very boundary.  [events] is the DES
          dispatch count so far. *)
  progress_extra : (unit -> string) option;
      (** Extra [" | ..."] segment for the [--progress] heartbeat. *)
}

val no_hooks : hooks

type config = {
  days : float;
  te_interval_h : float;  (** How often TE recomputes routing. *)
  seed : int;
  wavelengths : int;  (** IP links per duct. *)
  demand_fraction : float;
      (** Total offered load as a fraction of the static-100G network's
          total capacity. *)
  top_demands : int;  (** Gravity-matrix truncation for TE speed. *)
  epsilon : float;  (** Multicommodity approximation knob. *)
  faults : Rwc_fault.plan;
      (** Fault plan compiled into an injector for the run.  With
          {!Rwc_fault.none} (the default) no injector randomness is
          consumed and the run is bit-identical to a build without the
          fault layer. *)
  retry : Orchestrator.retry_policy;
      (** Backoff schedule for failed BVT reconfigurations. *)
  guard : Rwc_guard.plan;
      (** Safety-layer plan screening the adaptive controller's
          decisions (flap damping, shared-risk admission, stale-data
          holddown, oscillation watchdog).  With {!Rwc_guard.none}
          (the default) the disarmed guard holds no state and the run
          is bit-identical to a build without the guard layer — even
          under an armed fault plan, because the collector fault
          channels are only queried for an armed guard. *)
  rollout : Rwc_rollout.plan;
      (** Staged-commit plan for capacity upgrades: wave and
          blast-radius budgets, a post-wave bake window with a health
          gate, automatic rollback on a failed gate, and
          maintenance-aware change freezes.  With {!Rwc_rollout.none}
          (the default) the engine holds no state and the run is
          byte-identical to a build without the rollout layer; an
          [rwc serve] RPC can still arm it mid-run. *)
  journal : Rwc_journal.t;
      (** Decision-provenance sink shared by consecutive runs: each
          policy run emits one {!Rwc_journal.Run_start}-headed segment.
          With {!Rwc_journal.disarmed} (the default) every emission is
          a single flag check and the run is byte-identical to a build
          without the journal layer.  When armed, per-duct EWMA/CUSUM
          anomaly detectors also feed [Anomaly] events, and a sink
          carrying an SLO plan yields a scorecard in
          {!report.slo} and the [slo/*] metrics. *)
  progress : bool;
      (** Single-line stderr heartbeat (sim-day, events/s, ETA),
          redrawn at most twice a second.  Off by default; purely
          cosmetic — results are identical either way. *)
  domains : int;
      (** Width of the {!Rwc_par} pool the run fans its shard-local
          phases over (per-duct trace generation, the per-sweep
          observe pass).  Decisions always commit through the
          sequential TE/DES/journal path in duct-index order, and
          every shard draws from its own RNG substream, so reports,
          journals, manifests and checkpoints are byte-identical for
          any value.  [1] (the default) spawns nothing and runs the
          plain sequential loop. *)
  hooks : hooks;
      (** Live observer hooks; {!no_hooks} (the default) keeps the run
          byte-identical to a build without the hook layer. *)
}

val default_config : config
(** 60 days, 6-hourly TE, seed 7, 4 wavelengths/duct, offered load
    0.75, top 40 demands, epsilon 0.12, no faults,
    {!Orchestrator.default_retry_policy}, no guard, no rollout,
    disarmed journal, 1 domain, no hooks. *)

type fault_stats = {
  injected : int;  (** Total faults the injector fired. *)
  bvt_failures : int;  (** Failed or timed-out modulation changes. *)
  retries : int;  (** Reconfiguration attempts re-scheduled. *)
  fallbacks : int;
      (** Ducts reverted to their pre-upgrade modulation after
          exhausting retries (each also counted as a flap). *)
  stuck_transitions : int;  (** Controller moves suppressed in place. *)
  te_delays : int;  (** TE recomputes deferred by injected delay. *)
}

type report = {
  policy : policy;
  delivered_pbit : float;  (** TE-routed volume over the horizon. *)
  offered_pbit : float;
  avg_throughput_gbps : float;
  avg_capacity_gbps : float;  (** Mean total usable IP capacity. *)
  duct_availability : float;  (** Mean fraction of ducts up. *)
  failures : int;  (** Duct-down events (dark or below threshold). *)
  flaps : int;  (** Adaptive only: capacity reductions that kept the
                    duct alive. *)
  reconfigurations : int;
  reconfig_downtime_s : float;
  fault_stats : fault_stats option;
      (** [Some] exactly when the run had a fault plan; [None] keeps
          faults-off reports — printed or serialized — byte-identical
          to pre-fault-layer output. *)
  guard_stats : Rwc_guard.stats option;
      (** [Some] exactly when the run had a guard plan, under the same
          byte-identity contract as [fault_stats]. *)
  rollout_stats : Rwc_rollout.stats option;
      (** [Some] exactly when the rollout engine was touched — a CLI
          [--rollout] plan, or a mutating RPC that arrived mid-run;
          same byte-identity contract. *)
  slo : Rwc_journal.Slo.summary option;
      (** [Some] exactly when the run's journal sink carried an armed
          SLO plan; same byte-identity contract. *)
}

val run :
  ?config:config -> ?backbone:Rwc_topology.Backbone.t -> policy -> report
(** Defaults to the North-American backbone; pass any parsed or
    embedded topology instead.

    Each run keeps a {!Te_memo} of its last 8 distinct TE inputs (the
    per-duct capacity vector in integer Gbps) with their routed total
    and per-duct flow.  A TE recomputation whose input is in the memo
    restores that result instead of building the graph and solving
    again; it is still counted in [te/recomputes] and timed in the
    [te/recompute] span, and it counts in [te/cache_hits], not in
    [te/mcf_solve] or {!Rwc_perf}'s [te_solve].  Topology, commodities
    and epsilon are fixed for a run and the solver is pure, so a hit
    yields the bits a fresh solve would.  The memo belongs to this one
    run: it is not shared across policies or runs and is not
    checkpointed, so a resumed run starts it empty and re-solves to
    the same bytes. *)

val compare_policies :
  ?config:config -> ?backbone:Rwc_topology.Backbone.t -> unit -> report list
(** All four variants ([Static_100], [Static_max], [Adaptive Stock],
    [Adaptive Efficient]) under identical seeds and traffic. *)

val pp_report : Format.formatter -> report -> unit

val json_of_report : report -> Rwc_obs.Json.t
(** Structured form of a report, for {!Rwc_obs.Manifest} records. *)

(** {1 Crash-safe runs} *)

val all_policies : policy list
(** The {!compare_policies} set, in its comparison order. *)

type outcome =
  | Replayed of { policy : policy; pp : string; json : string }
      (** The policy had already completed before the resumed run: its
          report is reprinted verbatim from the checkpoint's stored
          rendering (rebuilding a [report] from JSON would risk a
          formatting drift; storing both renderings cannot). *)
  | Ran of report  (** Executed (possibly across crash restarts). *)

val run_recoverable :
  ?config:config ->
  ?backbone:Rwc_topology.Backbone.t ->
  ctx:Rwc_recover.ctx ->
  resume_from:Rwc_recover.checkpoint option ->
  policies:policy list ->
  unit ->
  outcome list
(** Run [policies] under crash-safe checkpointing: periodic checkpoints
    every [ctx.every] sample sweeps, a final one on
    {!Rwc_recover.request_stop} (then {!Rwc_recover.Interrupted}
    propagates, after the journal is flushed and closed), and automatic
    in-process restarts when the context's [crash=] fault oracle kills
    a run — the newest valid checkpoint is reloaded and the journal
    truncated to its high-water mark, so the final reports and journal
    are byte-identical to an uninterrupted run.  [resume_from] (from
    {!Rwc_recover.create} with [resume:true]) continues an earlier
    process's run; the caller is responsible for having reopened
    [config.journal] with {!Rwc_journal.resume} at that checkpoint's
    marks.  The journal sink is closed before returning. *)
