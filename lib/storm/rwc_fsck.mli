(** Offline damage detection and repair for durable artifacts — the
    engine behind [rwc fsck].

    Two artifact classes are understood:

    - {b journals}: crash damage is tail damage (the writer appends
      whole lines), so the repair truncates the file back to the end
      of the last valid line, atomically.  Checkpoint high-water marks
      sit at flushed line boundaries, so the cut never strands a
      usable checkpoint — and if the damage reaches below the newest
      mark, resume falls back to an older checkpoint
      ({!Rwc_recover.load_resumable}).  Interior bad lines (bit rot)
      are unrepairable: they are reported as {!Noted} and left for the
      readers' skip-and-count path;
    - {b checkpoint directories}: orphaned [*.tmp] files are removed,
      standalone checkpoint files failing CRC/version/JSON validation
      are renamed to [<name>.corrupt] — out of the prune-fallback
      chain that resume scans, but on disk for forensics — and a ring
      slot whose header or record fails validation has its header
      cleared in place ({!Rwc_recover.clear_slot}), leaving an empty
      slot.

    Repair is idempotent: a second {!scan} over a repaired tree
    reports zero findings (when nothing was {!Noted}).  Reports are
    deterministic — findings are sorted, and nothing in them depends
    on wall-clock or directory order. *)

type action =
  | Repaired
      (** Damage fixed in place (journal tail truncated, ring slot
          cleared). *)
  | Removed  (** Artifact deleted (orphan temp file). *)
  | Quarantined  (** Renamed to [*.corrupt], out of the resume chain. *)
  | Noted  (** Reported but not touched (dry-run, or unrepairable). *)

val action_name : action -> string

type finding = {
  f_path : string;
  f_problem : string;
  f_action : action;
  f_detail : string;
}

type report = { findings : finding list }

val unrepaired : report -> int
(** Findings left as {!Noted} — what a re-run would still report. *)

val scan :
  ?repair:bool ->
  ?journal:string ->
  ?checkpoints:string ->
  unit ->
  (report, string) result
(** Scan (and with [repair:true], the default, fix) the given
    artifacts.  [Error] only for unreadable top-level paths (missing
    journal file, missing checkpoint directory); damage {e inside}
    them is findings, not errors. *)

val report_to_json : report -> Rwc_obs.Json.t
(** Machine-readable repair report (schema [rwc-fsck/1]), with
    per-action counts. *)

val pp_report : Format.formatter -> report -> unit
