(** Formatting helpers shared by every figure reproduction.

    Each experiment prints a section with the paper's reported value
    next to the value measured from our generated data, so the output
    of [rwc figures] doubles as the EXPERIMENTS.md comparison
    table. *)

val section : string -> string -> unit
(** [section id title] prints a section banner. *)

val row : label:string -> paper:string -> measured:string -> unit
(** One paper-vs-measured comparison line. *)

val note : string -> unit
(** Free-form commentary line. *)

val set_csv_dir : string option -> unit
(** When set, every {!series} is additionally written to
    [<dir>/<sanitized-name>.csv] (two columns, header row) so the
    curves can be re-plotted outside OCaml.  The directory must
    exist. *)

val series : string -> (float * float) list -> unit
(** Print a named (x, y) series, one aligned pair per line — the
    machine-readable form of a plotted curve. *)

val cdf : string -> ?max_points:int -> Rwc_stats.Cdf.t -> unit
(** Print a CDF as a series. *)
