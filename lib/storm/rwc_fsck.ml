module Json = Rwc_obs.Json

type action = Repaired | Removed | Quarantined | Noted

let action_name = function
  | Repaired -> "repaired"
  | Removed -> "removed"
  | Quarantined -> "quarantined"
  | Noted -> "noted"

type finding = {
  f_path : string;
  f_problem : string;
  f_action : action;
  f_detail : string;
}

type report = { findings : finding list }

let unrepaired r =
  List.length (List.filter (fun f -> f.f_action = Noted) r.findings)

(* ---- journal ------------------------------------------------------------

   A journal damaged by a crash is damaged at the tail: the writer
   appends whole lines and a torn flush leaves a partial last line (or
   trailing garbage).  The repair is to cut the file back to the end
   of the last valid line — checkpoint high-water marks always sit at
   flushed line boundaries, so the cut never lands below a mark that a
   surviving checkpoint needs (and if the damage reaches below the
   newest mark, resume falls back to an older checkpoint; see
   Rwc_recover.load_resumable).

   Interior bad lines (bit rot in the middle of the file) cannot be
   repaired — the record is gone — so they are reported as [Noted] and
   left in place: every reader skips-and-counts them. *)

let line_valid line =
  String.trim line = ""
  ||
  match Json.parse line with
  | Error _ -> false
  | Ok j -> Result.is_ok (Rwc_journal.record_of_json j)

let scan_journal ~repair path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | content ->
      let n = String.length content in
      let good_end = ref 0 in
      let interior_bad = ref 0 in
      let pending_bad = ref 0 in
      let pos = ref 0 in
      while !pos < n do
        let nl = String.index_from_opt content !pos '\n' in
        let stop, line_end =
          match nl with Some i -> (i, i + 1) | None -> (n, n)
        in
        let line = String.sub content !pos (stop - !pos) in
        (* A final line with no newline is torn by construction: the
           journal writer terminates every record. *)
        if nl <> None && line_valid line then begin
          good_end := line_end;
          interior_bad := !interior_bad + !pending_bad;
          pending_bad := 0
        end
        else incr pending_bad;
        pos := line_end
      done;
      let findings = ref [] in
      let tail_bytes = n - !good_end in
      if tail_bytes > 0 then begin
        if repair then
          Rwc_storm.atomic_write path (String.sub content 0 !good_end);
        findings :=
          {
            f_path = path;
            f_problem = "torn journal tail";
            f_action = (if repair then Repaired else Noted);
            f_detail =
              Printf.sprintf "truncated %d byte%s (%d torn line%s) to offset %d"
                tail_bytes
                (if tail_bytes = 1 then "" else "s")
                !pending_bad
                (if !pending_bad = 1 then "" else "s")
                !good_end;
          }
          :: !findings
      end;
      if !interior_bad > 0 then
        findings :=
          {
            f_path = path;
            f_problem = "interior bad journal lines";
            f_action = Noted;
            f_detail =
              Printf.sprintf
                "%d unreadable line%s before the last valid line; readers \
                 skip-and-count them"
                !interior_bad
                (if !interior_bad = 1 then "" else "s");
          }
          :: !findings;
      Ok (List.rev !findings)

(* ---- checkpoint directory ---------------------------------------------- *)

let scan_checkpoints ~repair dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": not a checkpoint directory")
  else begin
    let names = Sys.readdir dir in
    Array.sort compare names;
    let findings = ref [] in
    Array.iter
      (fun name ->
        let full = Filename.concat dir name in
        if Filename.check_suffix name ".tmp" then begin
          (* Debris of a crash (or lost rename) between temp write and
             rename; never part of the fallback chain. *)
          if repair then (try Sys.remove full with Sys_error _ -> ());
          findings :=
            {
              f_path = full;
              f_problem = "orphaned checkpoint temp file";
              f_action = (if repair then Removed else Noted);
              f_detail = "left by a crash between temp write and rename";
            }
            :: !findings
        end
        else if Rwc_recover.slot_index name <> None then begin
          match Rwc_recover.check_slot full with
          | Ok () -> ()
          | Error e ->
              (* A torn or damaged slot: clearing its header leaves an
                 empty slot, and resume uses the other three. *)
              if repair then Rwc_recover.clear_slot full;
              findings :=
                {
                  f_path = full;
                  f_problem = "corrupt checkpoint slot";
                  f_action = (if repair then Repaired else Noted);
                  f_detail = e;
                }
                :: !findings
        end
        else if Rwc_recover.file_seq name <> None then begin
          match In_channel.with_open_bin full In_channel.input_all with
          | exception Sys_error e ->
              findings :=
                {
                  f_path = full;
                  f_problem = "unreadable checkpoint";
                  f_action = Noted;
                  f_detail = e;
                }
                :: !findings
          | s -> (
              match Rwc_recover.checkpoint_of_string s with
              | Ok _ -> ()
              | Error e ->
                  (* Move it out of the prune-fallback chain: resume
                     then sees only the valid predecessors, and the
                     quarantined copy stays on disk for forensics. *)
                  if repair then (
                    try Sys.rename full (full ^ ".corrupt")
                    with Sys_error _ -> ());
                  findings :=
                    {
                      f_path = full;
                      f_problem = "corrupt checkpoint";
                      f_action = (if repair then Quarantined else Noted);
                      f_detail = e;
                    }
                    :: !findings)
        end)
      names;
    Ok (List.rev !findings)
  end

(* ---- entry point ------------------------------------------------------- *)

let scan ?(repair = true) ?journal ?checkpoints () =
  let ( let* ) = Result.bind in
  let* jf =
    match journal with
    | None -> Ok []
    | Some p -> scan_journal ~repair p
  in
  let* cf =
    match checkpoints with
    | None -> Ok []
    | Some d -> scan_checkpoints ~repair d
  in
  let findings =
    List.sort
      (fun a b -> compare (a.f_path, a.f_problem) (b.f_path, b.f_problem))
      (jf @ cf)
  in
  Ok { findings }

(* ---- rendering ---------------------------------------------------------- *)

let finding_to_json f =
  Json.Assoc
    [
      ("path", Json.String f.f_path);
      ("problem", Json.String f.f_problem);
      ("action", Json.String (action_name f.f_action));
      ("detail", Json.String f.f_detail);
    ]

let report_to_json r =
  let count a =
    List.length (List.filter (fun f -> f.f_action = a) r.findings)
  in
  Json.Assoc
    [
      ("schema", Json.String "rwc-fsck/1");
      ("findings", Json.List (List.map finding_to_json r.findings));
      ("repaired", Json.Int (count Repaired));
      ("removed", Json.Int (count Removed));
      ("quarantined", Json.Int (count Quarantined));
      ("noted", Json.Int (count Noted));
    ]

let pp_report ppf r =
  match r.findings with
  | [] -> Format.fprintf ppf "fsck: clean@."
  | fs ->
      List.iter
        (fun f ->
          Format.fprintf ppf "fsck: %s: %s [%s] %s@." f.f_path f.f_problem
            (action_name f.f_action) f.f_detail)
        fs;
      let n = List.length fs in
      Format.fprintf ppf "fsck: %d finding%s, %d unrepaired@." n
        (if n = 1 then "" else "s")
        (unrepaired r)
