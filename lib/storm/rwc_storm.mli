(** Storage I/O layer with seed-deterministic fault injection and
    crash-point enumeration.

    Every durable artifact in the pipeline — the decision journal,
    checkpoints, resume marks, and the JSON sinks (metrics, traces,
    manifests, [BENCH_*.json] perf trajectories) — is written through
    {!Writer}, so storage misbehavior can be injected at one choke
    point:

    - {b real} mode (the default after {!reset}) performs plain
      buffered writes with an fsync on {!Writer.sync}/{!Writer.close},
      while counting {e boundaries}: each non-empty flush, each sync
      and each rename crossing increments a global ordinal.  The
      torture harness ({!Rwc_sim.Torture}, [rwc torture]) reads the
      count from a crash-free run, then replays the run once per
      ordinal with {!arm_kill} set there;
    - {b faulting} mode ({!inject}) draws from an {!Rwc_fault}
      injector's [io_*] components: flushed chunks may land short
      ([io_short]), vanish entirely ([io_enospc]) or arrive with one
      bit inverted ([io_bitflip]); renames may be lost
      ([io_torn_rename]).  Draws come from the components' own
      substreams with the boundary ordinal as the window clock, so a
      storm plan is replayable from its seed alone;
    - {b dead} mode begins the instant an armed kill fires: the
      process is assumed dead at that boundary, so every subsequent
      writer operation is a no-op (descriptors still get closed) and
      the unwind path cannot touch the disk.

    All mode state is process-global — writers are created deep inside
    the journal and checkpoint code, far from the code deciding the
    mode — and is {b not} domain-safe: storm faults and kills are for
    single-domain torture runs, while plain real-mode writers are used
    on the fleet-global (sequential) side of multicore runs only. *)

type boundary = Write | Sync | Rename

val boundary_name : boundary -> string
(** ["write"], ["sync"], ["rename"]. *)

exception Killed of { ordinal : int; kind : boundary }
(** Raised at the armed boundary (after the half-done damage is on
    disk).  By the time the handler runs, {!dead} is already true. *)

val reset : unit -> unit
(** Back to real mode: faults cleared, kill disarmed, boundary ordinal
    and per-kind counts zeroed, dead-mode left. *)

val inject : Rwc_fault.injector -> unit
(** Arm faulting mode with a compiled plan (typically from
    {!plan_of_string}).  An unarmed injector selects real mode. *)

val arm_kill : int -> unit
(** Die (raise {!Killed}, enter dead mode) when the given boundary
    ordinal is crossed.  [-1] disarms. *)

val boundaries : unit -> int
(** Boundaries crossed since the last {!reset}. *)

val counts : unit -> int * int * int
(** [(writes, syncs, renames)] crossed since the last {!reset}. *)

val dead : unit -> bool

val sync_strict : Unix.file_descr -> bool
(** Whether an [fsync] failure on this descriptor fails the write:
    true exactly for regular files.  Character devices, pipes, sockets
    and directories may reject fsync by design. *)

module Writer : sig
  type t

  val create : string -> t
  (** Open for writing, truncating.  Raises [Sys_error] when the path
      cannot be opened (in dead mode: returns an inert writer without
      touching the filesystem). *)

  val append : string -> t
  (** Open for appending; {!logical_bytes} starts at the current file
      size. *)

  val path : t -> string

  val write : t -> string -> unit
  (** Buffered; flushes automatically past an internal threshold. *)

  val flush : t -> unit
  (** Push buffered bytes to the OS.  A non-empty flush is a [Write]
      boundary and the unit of fault application: the whole buffered
      chunk lands short / dropped / bit-flipped as one. *)

  val sync : t -> unit
  (** {!flush}, then a [Sync] boundary, then [fsync].  On a regular
      file a failing fsync raises its [Unix.Unix_error], like a failed
      [write(2)]; on anything else ({!sync_strict} false) it is
      best-effort, so [/dev/null] and pipe sinks still work. *)

  val close : t -> unit
  (** {!sync}, then close the descriptor.  Idempotent; the descriptor
      is released even when the sync dies at an armed boundary. *)

  val logical_bytes : t -> int
  (** Bytes accepted by {!write} since open (plus the initial size for
      {!append}) — the writer's position as if no fault had intervened,
      matching [pos_out] of the pre-storm implementation. *)
end

val rename : src:string -> dst:string -> unit
(** Atomic-replace commit step; a [Rename] boundary.  In faulting mode
    the rename may be lost (src stays, dst untouched); in dead mode it
    is a no-op. *)

val remove : string -> unit
(** Best-effort unlink; no-op in dead mode. *)

val atomic_write : string -> string -> unit
(** [atomic_write path content]: write [content] to [path ^ ".tmp"],
    sync, rename over [path], then fsync the parent directory so the
    rename itself is durable (a second [Sync] boundary).  Boundaries
    for non-empty [content]: one [Write], two [Sync], one [Rename]. *)

val overwrite : string -> string -> unit
(** [overwrite path content]: write [content] at offset 0 of [path]
    in place (no truncation, no temp file, no rename), then fsync.
    One [Write] and one [Sync] boundary for non-empty [content].  A
    kill at the write leaves the first half of [content] over the old
    bytes: the file is torn, and its reader must detect that. *)

val write_file : string -> string -> unit
(** Whole-file write {e in place} (create/truncate, no tmp+rename) —
    for sinks whose path may be a device like [/dev/null].  Installed
    as the {!Rwc_obs.Json.set_file_writer} backend at link time. *)

val plan_of_string : string -> (Rwc_fault.plan, string) result
(** {!Rwc_fault.of_string} restricted to the [io_*] components —
    the validator behind [--storm].  Window positions in storm plans
    are boundary ordinals, not seconds. *)
