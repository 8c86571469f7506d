(** Minimal JSON values: just enough for metric snapshots, Chrome
    trace_event export and run manifests — the container ships no JSON
    library and the observability layer must not grow dependencies.

    The serializer always emits valid JSON (non-finite floats become
    [null]); the parser accepts the full JSON grammar including
    [\uXXXX] escapes.  Every journal line, checkpoint and JSON-RPC
    message goes through this module, so both directions are kept
    cheap: printing allocates the output buffer and nothing per value
    except the [Printf] text of a non-integral float or a control
    character, and parsing allocates the tree it returns and nothing
    per input byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for files meant to be read by
    humans (manifests). *)

val parse : string -> (t, string) result
(** Errors carry a character offset.  Numbers without ['.'/'e'] parse
    as [Int], everything else as [Float].  [\uXXXX] escapes decode to
    UTF-8; a high surrogate immediately followed by a [\u] low
    surrogate decodes to the one 4-byte sequence of the scalar the
    pair names, and a surrogate anywhere else is rejected as
    ["bad \u escape"] at the offset of its hex digits. *)

val member : string -> t -> t option
(** Field lookup in an [Assoc]; [None] otherwise. *)

val to_file : string -> t -> unit
(** Pretty-print to [path] (truncating), with a trailing newline.
    Routed through the writer installed with {!set_file_writer}. *)

val set_file_writer : (string -> string -> unit) -> unit
(** [set_file_writer f] makes {!to_file} call [f path content]
    instead of writing [path] itself.  lib/obs sits below the storm
    I/O layer in the dependency order; {!Rwc_storm} installs its
    routed writer here at module-initialization time so JSON sinks
    (metrics, traces, manifests, perf trajectories) share the same
    fault-injection and crash-boundary surface as the journal and
    checkpoints.  The writer must write [path] in place (no
    tmp+rename): callers pass device paths like [/dev/null]. *)
