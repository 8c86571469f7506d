(** Minimal discrete-event simulation engine.

    Events are closures; [schedule] enqueues one at an absolute time,
    [run] executes them in time order until the horizon.  Handlers may
    schedule further events (also in the past of other pending events,
    but never before [now] — time is monotone). *)

type t

val create : unit -> t
(** Fresh engine at time 0. *)

val now : t -> float

val schedule : t -> at:float -> (t -> unit) -> unit
(** Raises [Invalid_argument] if [at] is before the current time. *)

val schedule_in : t -> after:float -> (t -> unit) -> unit
(** Relative scheduling; [after >= 0]. *)

val run : t -> until:float -> unit
(** Execute pending events with time <= [until]; afterwards
    [now t = until].  Events scheduled beyond the horizon remain
    pending. *)

val pending : t -> int

val dispatched : t -> int
(** Events executed so far by this engine.  Unlike the
    ["des/events_dispatched"] metric this is not gated on the metrics
    registry, so progress heartbeats and perf sweeps can report
    throughput on unarmed runs. *)
