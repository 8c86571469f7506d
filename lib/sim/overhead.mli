(** Cost of the instrumentation compiled into the hot paths, behind
    [rwc perf overhead].

    Times tight loops of [Rwc_obs.Metrics] increments and observations
    (disabled and enabled), disarmed [Rwc_journal] emits and disarmed
    [Rwc_perf] tokens against an empty-loop baseline, plus the armed
    journal's throughput to a temp file, and prints one line each. *)

val run : unit -> bool
(** Prints the measurements and one verdict line per disabled or
    disarmed path; [false] when any of them costs 5 ns/op or more over
    the baseline.  Restores the metrics and profiler switches it
    flips. *)
