(** Phase-level profiler for the run/walk/crawl stack.

    [Rwc_obs.Metrics] answers "what happened" (counts, Gbit lost,
    convergence times); this layer answers "where did the wall-clock
    and the allocations go" — per named simulator phase, with
    GC-allocation deltas from [Gc.quick_stat] alongside wall time.
    It exists so that perf regressions become diffable artifacts
    ([BENCH_*.json] trajectories) instead of anecdotes.

    Like the metrics registry, the profiler is {b disarmed by
    default}: every hook first checks one global flag, and the
    disarmed path is a load and a branch (pinned, together with the
    metrics path, by [rwc perf overhead]).  Production simulation runs
    therefore stay instrumented permanently at no cost, and outputs
    are byte-identical with profiling on or off.

    Two recording idioms:

    - [record phase f] — thunk style, for coarse call sites where the
      closure allocation is irrelevant (a TE solve, a checkpoint
      write).
    - [start] / [stop] — token style for hot call sites (journal
      emit) where even a closure per call would show up.  The token
      is an immediate value when disarmed. *)

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every phase accumulator (armed state is unchanged). *)

(** {1 Phases} *)

(** The fixed phase taxonomy.  One constructor per simulator stage
    worth budgeting; adding a constructor is a schema-visible change
    (the trajectory format lists phases by name). *)
type phase =
  | Telemetry_gen  (** SNR sample-path generation ([Snr_model.generate]). *)
  | Collector_poll  (** Fleet-wide telemetry poll ([Collector.poll]). *)
  | Adapt_step  (** Per-sweep run/walk/crawl adaptation pass. *)
  | Te_solve  (** Multicommodity TE solve ([Te.mcf]). *)
  | Mincost  (** Min-cost max-flow ([Mincost.solve]). *)
  | Des_drain  (** Discrete-event loop ([Des.run]). *)
  | Journal_emit  (** One decision-journal record write. *)
  | Checkpoint_write  (** Checkpoint serialization + atomic rename. *)
  | Checkpoint_restore  (** Checkpoint scan + load. *)

val phase_name : phase -> string
(** Stable snake_case identifier, e.g. ["te_solve"] — the key used in
    trajectory files. *)

val phase_of_name : string -> phase option

val all_phases : phase list
(** Every constructor, in declaration order. *)

(** {1 Recording (no-ops while disarmed)} *)

val record : phase -> (unit -> 'a) -> 'a
(** Run the thunk, attributing its wall-clock and allocated words to
    [phase].  Exactly [f ()] when disarmed.  Re-entrant: nested
    phases each get their own (overlapping) attribution.  Safe to call
    from any domain: each domain accumulates into its own slab, merged
    by {!snapshot} (see {e Domains} below). *)

val par_add : phase -> busy_s:float -> wall_s:float -> unit
(** Credit a completed parallel section to [phase]: [busy_s] is the
    summed per-domain work time, [wall_s] the section's elapsed time
    ([busy_s /. wall_s] = effective speedup).  Called by the
    coordinating domain after a join ([Rwc_par.totals] deltas).  No-op
    while disarmed. *)

type token
(** The phase with its captured clock + allocation baseline, or
    nothing when disarmed. *)

val start : phase -> token
val stop : token -> unit
(** Token style for hot paths: [stop (start phase)] records the
    interval against [phase].  [stop] on a disarmed-at-[start] token
    is a no-op even if the profiler was armed in between. *)

(** {1 Reading} *)

type phase_stats = {
  count : int;
  total_s : float;
  p50_s : float;
  p95_s : float;
  max_s : float;
  alloc_words : float;  (** Sum of per-call minor+major-promoted words. *)
  par_busy_s : float;  (** Summed per-domain busy time, {!par_add}. *)
  par_wall_s : float;  (** Summed parallel-section wall time. *)
}

val snapshot : unit -> (phase * phase_stats) list
(** Phases with at least one recorded call (or parallel section), in
    declaration order.  Percentiles are log-bucket midpoints (20
    buckets/decade, same scheme as [Metrics.histogram]) clamped to
    observed min/max.

    {e Domains}: each domain records into a domain-local slab;
    [snapshot] (like {!reset} and {!pp_summary}) merges every slab.
    Only call these between parallel sections — Rwc_par's join is the
    synchronization that makes other domains' slabs readable.  Counts
    and allocation totals are deterministic across [--domains];
    wall-clock fields are not (work overlaps). *)

val peak_heap_words : unit -> int
(** [Gc.quick_stat].top_heap_words — peak major-heap size so far. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable per-phase table (count, total, p50/p95/max,
    allocated words); prints a placeholder line when nothing was
    recorded. *)

(** {1 Trajectories ([BENCH_*.json])} *)

module Trajectory : sig
  (** The machine-readable perf-trajectory format emitted by
      [rwc bench] and consumed by [rwc perf diff] and the CI gate.

      Schema ["rwc-bench/2"]: a labeled list of sweep points keyed by
      fleet size, each carrying wall time, event throughput, peak heap
      and a per-phase stats table, plus the domain count the sweep ran
      with and per-phase parallel busy/wall credit.  Writing sanitizes
      non-finite floats to [0.0] (the JSON layer would emit [null],
      which the reader rejects); reading validates the schema version
      and every field, reporting the offending path on error.
      ["rwc-bench/1"] files still read: [domains] defaults to 1 and
      the parallel fields to 0, and the value is normalized to the
      current schema. *)

  type phase_point = {
    ph_count : int;
    ph_total_s : float;
    ph_p50_s : float;
    ph_p95_s : float;
    ph_max_s : float;
    ph_alloc_words : float;
    ph_par_busy_s : float;  (** 0 when the phase never ran parallel. *)
    ph_par_wall_s : float;
  }

  type point = {
    n_links : int;  (** Fleet size for this sweep point. *)
    wall_s : float;  (** End-to-end wall time of the point's workload. *)
    events : int;  (** DES events dispatched. *)
    events_per_s : float;
    peak_heap_words : int;
    phases : (string * phase_point) list;  (** Keyed by [phase_name]. *)
  }

  type t = {
    schema : string;  (** Always [schema_version] on values we produce. *)
    label : string;  (** e.g. ["baseline"], ["quick"]. *)
    domains : int;  (** Domain count the sweep ran with (1 = sequential). *)
    points : point list;  (** Sorted by [n_links]. *)
  }

  val schema_version : string
  (** ["rwc-bench/2"]. *)

  val make : label:string -> ?domains:int -> point list -> t
  (** Stamps [schema_version] and sorts points by [n_links];
      [domains] defaults to 1. *)

  val to_json : t -> Rwc_obs.Json.t
  val of_json : Rwc_obs.Json.t -> (t, string) result
  val write : string -> t -> unit
  val read : string -> (t, string) result
  (** Parse + validate; errors name the file and the field path. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable table of the sweep. *)
end

(** {1 Regression diffing} *)

module Diff : sig
  (** Tolerance-based comparison of two trajectories, built for CI:
      timing metrics get generous relative tolerances (shared runners
      are noisy) plus absolute noise floors; counts and allocation are
      deterministic and can be held tighter. *)

  type tolerance = {
    time_pct : float;  (** Allowed relative increase on time metrics, %. *)
    alloc_pct : float;  (** Allowed relative increase on allocation, %. *)
    count_pct : float;  (** Allowed relative drift (either way) on counts, %. *)
    throughput_pct : float;  (** Allowed relative {e decrease} on events/s, %. *)
    time_floor_s : float;  (** Time deltas below this are ignored. *)
    alloc_floor_w : float;  (** Allocation deltas below this are ignored. *)
    count_floor : int;  (** Count deltas below this are ignored. *)
  }

  val default : tolerance
  (** Tight-ish tolerances for like-for-like machines. *)

  val ci : tolerance
  (** Generous tier-1 tolerances for shared CI runners. *)

  type level = Pass | Warn | Fail

  type finding = {
    metric : string;  (** e.g. ["n=200 te_solve.p95_s"]. *)
    old_v : float;
    new_v : float;
    delta_pct : float;
    level : level;
  }

  val compare : ?tol:tolerance -> ?cross_domains:bool ->
    Trajectory.t -> Trajectory.t -> (finding list, string) result
  (** [compare old new].  [Error] when the files are not comparable
      (schema mismatch, differing [domains] unless [~cross_domains:true],
      new trajectory missing a sweep point the old one has); a phase
      present in old but absent in new is a [Fail] finding (the
      instrumentation went away), not an error.  Within tolerance →
      [Pass]; past half the tolerance → [Warn]; past the tolerance →
      [Fail].  Improvements are [Pass]. *)

  val worst : finding list -> level

  val render : Format.formatter -> finding list -> unit
  (** One line per non-[Pass] finding plus a verdict; silent findings
      are summarized by count. *)
end

(** {1 Progress heartbeat} *)

module Progress : sig
  (** Single-line stderr heartbeat for long [simulate]/[chaos]/[serve]
      runs: sim-day, events/s and ETA, redrawn in place ([\r]) at most
      every [min_interval_s] when the sink is a terminal.  When it is
      not (a pipe, a CI log), lines are newline-terminated instead of
      \r-overdrawn and the default throttle widens to 5 s so the log
      stays readable.  Rendering is split out pure so tests cover the
      formatting without a clock. *)

  type t

  val create :
    ?out:out_channel -> ?min_interval_s:float ->
    ?extra:(unit -> string) ->
    label:string -> total_days:float -> unit -> t
  (** [min_interval_s] defaults to 0.5 on a TTY, 5.0 otherwise.
      [extra], when given, is called at each draw and its non-empty
      result is appended as one more [" | ..."] segment — the serve
      daemon uses it to report subscriber count and stream event
      rate on the same heartbeat line. *)

  val tick : t -> day:float -> events:int -> unit
  (** Throttled redraw; cheap to call every sweep. *)

  val finish : t -> unit
  (** Terminate the heartbeat line with a newline (only if one was
      drawn, and only in TTY mode — non-TTY lines are already
      newline-terminated) so subsequent output starts clean. *)

  val render :
    label:string -> day:float -> total_days:float ->
    events:int -> elapsed_s:float -> string
  (** The heartbeat line, sans carriage control.  [total_days <= 0]
      renders an open-ended form (events and rate only) for streams
      with no known horizon. *)
end
