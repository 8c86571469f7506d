(** Decision-provenance event journal.

    The paper's argument is forensic: it reconstructs, from 2.5 years
    of SNR polls and 7 months of tickets, {e why} links failed and
    which failures could have been capacity flaps instead (Sections
    2-3).  The reproduction now has three decision layers — the
    {!Rwc_core.Adapt} controller, the {!Rwc_guard} safety screen and
    the {!Rwc_fault} execution hazards — whose interplay was only
    visible as aggregate counters.  This module records every
    adaptation decision with its full cause chain as one JSONL line
    per event:

    {v
    observation -> intent -> guard verdict -> fault outcome -> commit
    v}

    plus anomaly-detector firings ({!Rwc_telemetry.Detect}) and
    medium outages, each stamped with the simulation time, the link
    index and the id of the enclosing {!Rwc_obs.Trace} span, so
    journal lines correlate 1:1 with the Chrome trace of the same run
    ([args.id] in the trace_event output).

    Like {!Rwc_obs.Metrics}, a {b disarmed journal is free}: every
    emit function first checks one immutable flag and is a no-op when
    the sink is {!disarmed}, so the simulator's hot path stays
    instrumented permanently, and a run without [--journal] is
    byte-identical to a build without this layer.

    On top of the journal sits a per-link {b SLO engine} ({!Slo}):
    declarative targets (availability, time at or above a capacity
    class, flap rate, time in guard quarantine) parsed with the same
    [KEY=VALUE,...] grammar as [--faults]/[--guard], evaluated online
    while the run emits (the sink folds every event into a tracker)
    or offline from a journal file ({!Slo.of_records}) — both paths
    share the folding code, so they agree exactly. *)

(** {1 Event vocabulary} *)

type action =
  | Step_up
  | Step_down
  | Go_dark
  | Come_back
  | Force_static
      (** Guard fallback horizon crossed: revert to the 100 G baseline. *)

type verdict =
  | Admitted  (** The guard let the intent through (or was disarmed). *)
  | Damped  (** Flap penalty above the suppress threshold. *)
  | Deferred  (** Shared-risk admission budget exhausted. *)
  | Stale_data  (** Up-shift refused on non-fresh telemetry. *)
  | Held  (** Fleet-wide oscillation hold in effect. *)
  | Frozen  (** Telemetry past the freeze horizon: capacity frozen. *)
  | Quarantined  (** State transition: the link entered quarantine. *)
  | Released  (** State transition: the link left quarantine. *)

type outcome =
  | Committed  (** The BVT reconfiguration took. *)
  | Stuck  (** Transition command lost; device keeps its rate. *)
  | Failed  (** Attempt failed at commit. *)
  | Timed_out  (** Attempt timed out, stalling first. *)
  | Retried  (** Backoff armed; another attempt follows. *)
  | Fell_back  (** Retries exhausted; reverting to the old rate. *)

type detector = Ewma | Cusum

type rollout_event =
  | R_proposed  (** A plan was proposed over RPC (not yet armed). *)
  | R_approved  (** The proposed plan was approved and armed. *)
  | R_started  (** First admission: the rollout opened its first wave. *)
  | R_admitted  (** Per-link: an upgrade was enrolled into the open wave. *)
  | R_deferred  (** Per-link: an upgrade was queued out of this wave. *)
  | R_wave_committed  (** The open wave closed; the bake window starts. *)
  | R_gate_failed  (** The health gate failed at the end of a bake. *)
  | R_rolled_back
      (** Per-link: the link was reverted to its pre-rollout rate. *)
  | R_completed  (** Gate passed with nothing left to upgrade. *)
  | R_paused  (** An operator paused new admissions over RPC. *)
  | R_aborted  (** An operator aborted the rollout over RPC. *)

val action_name : action -> string
val verdict_name : verdict -> string
val outcome_name : outcome -> string
val detector_name : detector -> string
val rollout_event_name : rollout_event -> string

type kind =
  | Run_start of {
      policy : string;
      seed : int;
      horizon_s : float;
      n_links : int;
    }  (** Segment header; one per policy run sharing the sink. *)
  | Observe of { snr_db : float; fresh : bool }
  | Intent of { action : action; from_gbps : int; to_gbps : int }
  | Guard of { verdict : verdict }
  | Fault of { outcome : outcome; attempt : int }
  | Commit of { gbps : int; up : bool }
      (** Committed per-wavelength denomination; [up = false] is dark. *)
  | Outage of { up : bool }
      (** Medium up/down transition on a static (non-adaptive) link. *)
  | Anomaly of { detector : detector; snr_db : float }
  | Rollout of { rid : int; revent : rollout_event; wave : int; gbps : int }
      (** Staged-rollout lifecycle ({!Rwc_rollout} upstream).  Fleet-level
          events ([R_started], [R_wave_committed], [R_gate_failed],
          [R_completed], RPC intents) carry [link = -1]; per-link events
          ride the record's link with [gbps] the target (admitted) or
          restored (rolled-back) rate. *)

type record = {
  t : float;  (** Simulation seconds. *)
  link : int;  (** Duct index; -1 for run headers. *)
  span : int;  (** Enclosing {!Rwc_obs.Trace} span id; 0 when none. *)
  kind : kind;
}

val record_to_json : record -> Rwc_obs.Json.t
val record_of_json : Rwc_obs.Json.t -> (record, string) result
(** Inverse of {!record_to_json}. *)

val record_of_line : string -> (record, string) result
(** Decode one journal line ([Json.parse] then {!record_of_json}): the
    one line decoder every reader below shares. *)

val read_file : ?strict:bool -> string -> (record list * int, string) result
(** Parse a JSONL journal, in file order, returning the records plus
    the count of malformed lines skipped.  Blank lines are free.  By
    default a malformed line (torn tail, bit rot) costs one record,
    not the whole journal: it is skipped, counted in the result and
    the [journal/bad_lines] metric, and summarized on stderr — the
    same convention as the telemetry store's bad-row handling.  With
    [~strict:true] the first malformed line is an error carrying its
    line number. *)

val scan_from :
  string ->
  offset:int ->
  (offset:int -> line:int -> (record, string) result -> unit) ->
  (int, string) result
(** The scan under {!read_from}: call [f] once per complete
    (newline-terminated), non-blank line from byte [offset] on, in file
    order, with the line's first byte, its 1-based line number counted
    from [offset] (blank lines included) and its {!record_of_line}
    decoding; return the offset just past the last complete line.  A
    torn tail is not visited.  Errors as {!read_from} does. *)

val read_from :
  ?strict:bool -> string -> offset:int -> (record list * int * int, string) result
(** Incremental companion to {!read_file} for live tails ([rwc explain
    --follow], the serve daemon's explicit-plan scorecard): read the
    journal from byte
    [offset], consuming only {b complete} (newline-terminated) lines,
    and return [(records, bad_lines, next_offset)] where
    [next_offset] is where the next poll should resume.  A torn tail —
    a record mid-write, exactly what a concurrent writer or a storm
    fault produces — is deliberately {e not} consumed: it stays in the
    file past [next_offset] until its newline lands, so followers skip
    it this round instead of dying on it.  Complete-but-malformed
    lines follow the {!read_file} convention (skip, count, metric) but
    without the stderr summary, since a follower polls repeatedly.
    Errors if the file cannot be opened or [offset] lies outside it
    (the file was truncated since the last read — restart from 0). *)

val segments : record list -> record list list
(** Split a journal into per-run segments at {!Run_start} headers.
    Records before the first header (a headerless file) form their own
    leading segment; each other segment starts with its header. *)

(** {1 SLO engine} *)

module Slo : sig
  type config = {
    min_availability_pct : float;  (** Min % of time the link is up. *)
    class_gbps : int;
        (** Per-wavelength capacity class the next target refers to. *)
    min_class_time_pct : float;
        (** Min % of time at or above [class_gbps]. *)
    max_flaps_per_day : float;  (** Max committed capacity reductions. *)
    max_quarantine_pct : float;
        (** Max % of time in guard quarantine. *)
  }

  val default_config : config
  (** Availability 99%, class 100 G held 95% of the time, 2 flaps per
      day, 5% of time quarantined. *)

  type plan = config option

  val none : plan
  val default : plan
  val is_none : plan -> bool

  val of_string : string -> (plan, string) result
  (** Same grammar family as [--faults]/[--guard]: ["none"],
      ["default"], or comma-separated [KEY=VALUE] overrides of the
      default.  Keys: [availability], [class], [at-class],
      [flaps-per-day], [quarantine].
      Example: ["availability=99.9,class=150,at-class=90"]. *)

  val to_string : plan -> string
  (** Round-trips through {!of_string}; prints only the knobs that
      differ from the default. *)

  type measure = {
    availability_pct : float;
    class_time_pct : float;
    flaps_per_day : float;
    quarantine_pct : float;
  }

  type link_verdict = {
    link : int;
    measure : measure;
    violations : string list;  (** Empty = SLO met. *)
  }

  type summary = {
    config : config;
    horizon_s : float;
    links : link_verdict array;
    met : int;
    violated : int;
  }

  type tracker
  (** One segment's fold: a per-link piecewise-constant timeline of
      up/down, capacity class and quarantine, charged record by
      record.  {!of_records}, the sink's {!online_slo} and the serve
      daemon's scorecard all run this one fold, so they cannot
      disagree on the same records. *)

  val make_tracker : config -> n_links:int -> tracker
  (** A fresh fold for a segment of [n_links] links. *)

  val feed : tracker -> record -> unit
  (** Fold one record.  Records of links outside [0, n_links) — the
      [-1] of headers and fleet-level events — are ignored. *)

  val evaluate : tracker -> horizon_s:float -> summary
  (** Score the fold as of [horizon_s], charging every link's open
      interval up to it.  Scores a copy: the tracker keeps folding
      undisturbed. *)

  val of_records : config -> record list -> (summary, string) result
  (** Offline evaluation of one journal segment.  The segment's
      {!Run_start} header supplies horizon and link count; an error if
      the segment has no header. *)

  val summary_to_json : summary -> Rwc_obs.Json.t
end

(** {1 Sinks} *)

type t
(** An append-only journal sink, shared by consecutive runs. *)

val disarmed : t
(** Emits nothing, holds no state, never touches the filesystem. *)

val create : ?path:string -> ?slo:Slo.plan -> unit -> t
(** Armed sink.  With [path], every event is appended to the file as
    one compact JSON line (truncating an existing file); writes go
    through the {!Rwc_storm.Writer} I/O layer, in place (no
    tmp+rename) so a crash leaves the partial journal where [--resume]
    and [rwc fsck] can find it.  With an armed [slo] plan, the sink
    also folds events into a per-run SLO tracker ({!finish_run}).
    [create] with neither is {!disarmed}.  Raises [Sys_error] when the
    file cannot be opened. *)

val armed : t -> bool

val close : t -> unit
(** Flush, fsync and close the underlying file; idempotent, no-op for
    {!disarmed} and path-less sinks. *)

val events_emitted : t -> int
(** Events emitted since [create]; 0 for {!disarmed}. *)

val byte_offset : t -> int
(** Flush and report the journal's logical write position — the
    high-water mark a checkpoint records so a resumed run can truncate
    the file back to a consistent point.  0 for path-less sinks. *)

val set_tee : t -> (seq:int -> offset:int -> record -> unit) -> unit
(** Attach a live tap: called once per emitted record, {e after} the
    record is written to the file, with [seq] the record's global
    ordinal in this sink (the value {!events_emitted} reports {e
    after} the emit) — so a streaming subscriber can never observe a
    decision the durable log does not yet contain, and the ordinal
    doubles as the subscriber's high-water mark for catch-up replay.
    [offset] is the byte at which the record's line starts in the
    file: the writer's logical size before the write, so reading that
    line back needs only a flush ({!byte_offset}), and a tee that keeps
    it can find the line again without rescanning (0 on a path-less
    sink).
    The tee must not re-enter the sink.  At most one tee is attached;
    a second call replaces the first.  Raises [Invalid_argument] on a
    {!disarmed} sink (its emitters never run). *)

val clear_tee : t -> unit

val adopt_tee : t -> from:t -> unit
(** Carry [from]'s tee (if any) over to [t] — used when a crash-restart
    replaces the sink via {!resume} so an attached stream survives the
    swap. *)

val online_slo : t -> at:float -> Slo.summary option
(** Mid-run SLO scorecard: evaluate the sink's live tracker as of
    simulation time [at] without disturbing it (the tracker keeps
    folding; evaluation charges a copy).  [None] unless the sink has
    an armed SLO plan with an open segment ({!start_run} called,
    {!finish_run} not yet). *)

val resume :
  ?path:string -> ?slo:Slo.plan -> at:int -> events:int -> unit -> (t, string) result
(** Reopen a journal for a resumed run.  The file at [path] is
    truncated to [at] bytes (events past the mark belong to the crashed
    attempt and are re-emitted byte-identically by the resumed run) via
    an atomic rewrite (tmp + fsync + rename, so a crash during recovery
    cannot shred the prefix being recovered from), the online SLO
    tracker is rebuilt by replaying the retained prefix of the current
    segment, and the event counter restarts at [events].  Errors if the
    file is missing or shorter than [at]. *)

(** {1 Run segmentation} *)

val start_run :
  t -> policy:string -> seed:int -> horizon_s:float -> n_links:int -> unit
(** Begin a segment: emits a {!Run_start} header and resets the SLO
    tracker for [n_links] links. *)

val finish_run : t -> Slo.summary option
(** Close the current segment's SLO tracker, charging every link's
    open interval up to the segment horizon.  [None] unless the sink
    was created with an armed SLO plan and {!start_run} was called. *)

(** {1 Emission (free when disarmed)} *)

val observe : t -> link:int -> now:float -> snr_db:float -> fresh:bool -> unit
val intent :
  t -> link:int -> now:float -> action -> from_gbps:int -> to_gbps:int -> unit
val guard : t -> link:int -> now:float -> verdict -> unit
val fault : t -> link:int -> now:float -> outcome -> attempt:int -> unit
val commit : t -> link:int -> now:float -> gbps:int -> up:bool -> unit
val outage : t -> link:int -> now:float -> up:bool -> unit
val anomaly : t -> link:int -> now:float -> detector -> snr_db:float -> unit

val rollout :
  t ->
  link:int ->
  now:float ->
  rid:int ->
  rollout_event ->
  wave:int ->
  gbps:int ->
  unit
(** Emit one staged-rollout lifecycle event; [link = -1] for
    fleet-level events, [wave]/[gbps] 0 where not meaningful. *)
