(** Process-global metric registry: counters, gauges and log-scale
    duration histograms.

    Handles are created once (usually at module initialization) and
    are plain mutable records, so the increment path allocates nothing
    and compiles to a load, test and store.  The whole registry is
    {b disabled by default}: every mutation first checks one global
    flag and is a no-op when it is off, which is what lets the hot
    paths of the simulator stay instrumented permanently without
    taxing benchmarks (see bench: the disabled increment is within
    noise of an empty call).

    Names are path-like ["subsystem/metric"] strings; registering the
    same name twice returns the same handle, registering it as a
    different kind raises. *)

type counter
type fcounter
type gauge
type histogram

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric (the registry itself is kept, so
    handles stay valid). *)

(** {1 Registration} *)

val counter : string -> counter
(** Monotonic integer count.  Raises [Invalid_argument] if [name] is
    already registered as a different kind. *)

val fcounter : string -> fcounter
(** Accumulating float (e.g. Gbit of disrupted traffic). *)

val gauge : string -> gauge
(** Last-or-max integer value (e.g. a queue high-water mark). *)

val histogram : string -> histogram
(** Log-scale histogram of positive values, intended for durations in
    seconds: 20 buckets per decade from 1 ns to 1000 s (relative
    quantile error under 6%), plus exact count/sum/min/max. *)

(** {1 Recording (no-ops while disabled)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val addf : fcounter -> float -> unit
val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** Keep the maximum of the current and the given value. *)

val observe : histogram -> float -> unit
(** Record one value; non-positive and non-finite values are clamped
    into the smallest/largest bucket but still counted. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, recording its wall-clock duration in seconds.
    When the registry is disabled this is exactly [f ()]. *)

val timed : (unit -> 'a) -> 'a * float
(** Run the thunk and return its result with its wall-clock duration
    in seconds.  A plain utility — {b not} gated on the registry and
    observes no metric — so callers (bench harnesses, sweep drivers)
    stop hand-rolling [Unix.gettimeofday] pairs. *)

(** {1 Reading} *)

val value : counter -> int
val hcount : histogram -> int
val hsum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0, 100]; 0.0 when the histogram is
    empty.  Answers are bucket geometric midpoints clamped to the
    observed min/max. *)

(** {1 Export} *)

val to_json : unit -> Json.t
(** Snapshot of every registered metric, sorted by name.  Histograms
    carry count/sum/min/max and p50/p95/p99. *)

val snapshot_delta : Json.t -> Json.t -> Json.t
(** [snapshot_delta before after] diffs two {!to_json} snapshots into
    only the changed series: entries of [after] that are new or differ
    structurally from their [before] counterpart, in [after]'s (sorted)
    order.  Names present only in [before] (a {!reset} between
    snapshots) are dropped — consumers treat the next full snapshot as
    a re-baseline.  The live stream layer and [--metrics-interval]
    periodic flush ship these deltas instead of re-serializing the
    whole registry each tick.  If either argument is not an object the
    full [after] snapshot is returned. *)

val write_json : string -> unit
(** [to_json] pretty-printed to a file. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table of every registered metric, sorted by name;
    histogram durations are shown with ns/us/ms/s units. *)
