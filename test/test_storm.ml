(* Tests for the storm storage layer and its consumers: writer
   semantics and boundary accounting, armed kills and dead mode,
   seed-deterministic io_* fault application, fsck detection/repair
   (torn tails, orphan temps, corrupt-checkpoint quarantine), the
   orphan sweep on checkpoint-directory open, the crash-point torture
   harness, and the headline property — recovery converges to the
   byte-identical crash-free result from a journal truncated at any
   offset and a checkpoint bit-flipped at any position. *)

module S = Rwc_storm
module F = Rwc_fsck
module R = Rwc_recover
module J = Rwc_journal
module Runner = Rwc_sim.Runner

let rec rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_test_storm" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_storm f = Fun.protect ~finally:S.reset (fun () -> S.reset (); f ())
let slurp p = In_channel.with_open_bin p In_channel.input_all

let spew p s =
  Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let io_plan s =
  match S.plan_of_string s with Ok p -> p | Error e -> Alcotest.fail e

(* --- writer ------------------------------------------------------------ *)

let test_writer_roundtrip () =
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "out.bin" in
          let w = S.Writer.create path in
          S.Writer.write w "hello ";
          S.Writer.write w "world";
          Alcotest.(check int) "logical position counts accepted bytes" 11
            (S.Writer.logical_bytes w);
          S.Writer.close w;
          Alcotest.(check string) "bytes land verbatim" "hello world"
            (slurp path);
          (* Append picks up at the existing size. *)
          let w = S.Writer.append path in
          Alcotest.(check int) "append starts at file size" 11
            (S.Writer.logical_bytes w);
          S.Writer.write w "!";
          S.Writer.close w;
          Alcotest.(check string) "appended" "hello world!" (slurp path);
          (* Close is idempotent. *)
          S.Writer.close w))

let test_writer_open_failure_is_sys_error () =
  with_storm (fun () ->
      match S.Writer.create "/nonexistent-dir-xyz/file" with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "expected Sys_error")

let test_boundary_accounting () =
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          Alcotest.(check int) "fresh ordinal" 0 (S.boundaries ());
          let path = Filename.concat dir "a" in
          let w = S.Writer.create path in
          S.Writer.write w "x";
          S.Writer.close w;
          (* close = flush (1 write boundary: non-empty) + sync. *)
          let writes, syncs, renames = S.counts () in
          Alcotest.(check int) "one write boundary" 1 writes;
          Alcotest.(check int) "one sync boundary" 1 syncs;
          Alcotest.(check int) "no renames yet" 0 renames;
          (* An empty flush is not a boundary. *)
          let w = S.Writer.create path in
          S.Writer.flush w;
          S.Writer.close w;
          let writes', _, _ = S.counts () in
          Alcotest.(check int) "empty flush is free" 1 writes';
          S.rename ~src:path ~dst:(Filename.concat dir "b");
          let _, _, renames' = S.counts () in
          Alcotest.(check int) "rename counted" 1 renames'))

let test_kill_and_dead_mode () =
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "victim" in
          let w = S.Writer.create path in
          S.Writer.write w "0123456789";
          S.arm_kill (S.boundaries ());
          (match S.Writer.flush w with
          | () -> Alcotest.fail "armed kill did not fire"
          | exception S.Killed { kind = S.Write; _ } -> ()
          | exception S.Killed { kind; _ } ->
              Alcotest.failf "killed at %s, expected write"
                (S.boundary_name kind));
          Alcotest.(check bool) "dead after the kill" true (S.dead ());
          (* The torn half-chunk is on disk; nothing more ever lands. *)
          let torn = slurp path in
          Alcotest.(check bool) "tail is torn" true
            (String.length torn < 10
            && torn = String.sub "0123456789" 0 (String.length torn));
          S.Writer.write w "more";
          S.Writer.close w;
          Alcotest.(check string) "dead mode is inert" torn (slurp path);
          S.rename ~src:path ~dst:(Filename.concat dir "never");
          Alcotest.(check bool) "dead rename is a no-op" true
            (Sys.file_exists path);
          (* reset revives the layer. *)
          S.reset ();
          Alcotest.(check bool) "reset leaves dead mode" false (S.dead ())))

(* fsync failures count only on regular files; devices and pipes
   reject fsync by design, and sinks such as /dev/null must work. *)
let test_sync_strict_classification () =
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          let kind_of name fd =
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> (name, S.sync_strict fd))
          in
          let regular =
            Unix.openfile (Filename.concat dir "f") [ Unix.O_WRONLY; Unix.O_CREAT ]
              0o644
          in
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let r, w = Unix.pipe () in
          let got =
            [ kind_of "regular" regular; kind_of "/dev/null" null; kind_of "pipe" w ]
          in
          Unix.close r;
          Alcotest.(check (list (pair string bool)))
            "strict only for regular files"
            [ ("regular", true); ("/dev/null", false); ("pipe", false) ]
            got;
          (* The best-effort path: syncing a device sink succeeds. *)
          let w = S.Writer.create "/dev/null" in
          S.Writer.write w "x";
          S.Writer.close w;
          S.write_file "/dev/null" "y"))

let test_plan_of_string_rejects_non_io () =
  (match S.plan_of_string "io_short=0.5,io_bitflip=0.1,seed=3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "io-only plan rejected: %s" e);
  match S.plan_of_string "io_short=0.5,bvt-fail=0.2" with
  | Ok _ -> Alcotest.fail "accepted a non-storage component"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the offender (%s)" e)
        true
        (String.length e > 0)

let test_fault_application_deterministic () =
  let write_under plan dir n =
    S.reset ();
    S.inject (Rwc_fault.compile plan);
    let path = Filename.concat dir (Printf.sprintf "f%d" n) in
    let w = S.Writer.create path in
    for i = 0 to 9 do
      S.Writer.write w (Printf.sprintf "line %d: some payload bytes\n" i);
      S.Writer.flush w
    done;
    S.Writer.close w;
    slurp path
  in
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          let plan = io_plan "io_short=0.3,io_enospc=0.2,io_bitflip=0.2,seed=5" in
          let a = write_under plan dir 0 in
          let b = write_under plan dir 1 in
          Alcotest.(check string) "same plan, same damage" a b;
          let c =
            write_under (io_plan "io_short=0.3,io_enospc=0.2,io_bitflip=0.2,seed=6")
              dir 2
          in
          let clean = write_under (io_plan "none") dir 3 in
          Alcotest.(check bool) "faults actually fired" true (a <> clean);
          Alcotest.(check bool) "different seed, different damage" true
            (a <> c || String.length a <> String.length c)))

let test_torn_rename_loses_commit () =
  (* Sweep seeds until both outcomes are observed: the rename lost
     (src stays, dst untouched) and the rename landing. *)
  with_storm (fun () ->
      with_temp_dir (fun dir ->
          let lost = ref false and landed = ref false in
          let seed = ref 0 in
          while (not (!lost && !landed)) && !seed < 32 do
            incr seed;
            S.reset ();
            S.inject
              (Rwc_fault.compile
                 (io_plan (Printf.sprintf "io_torn_rename=0.5,seed=%d" !seed)));
            let src = Filename.concat dir "src"
            and dst = Filename.concat dir "dst" in
            spew src "payload";
            if Sys.file_exists dst then Sys.remove dst;
            S.rename ~src ~dst;
            if Sys.file_exists src then lost := true;
            if Sys.file_exists dst then landed := true
          done;
          Alcotest.(check bool) "both outcomes reachable" true
            (!lost && !landed)))

(* --- fsck -------------------------------------------------------------- *)

(* A real journal with [n] parseable lines, produced by the emitting
   code itself so the fixtures track the format. *)
let write_journal path =
  let jnl = J.create ~path () in
  J.start_run jnl ~policy:"a" ~seed:1 ~horizon_s:100.0 ~n_links:2;
  J.commit jnl ~link:0 ~now:0.0 ~gbps:100 ~up:true;
  J.outage jnl ~link:1 ~now:50.0 ~up:false;
  J.close jnl;
  slurp path

let append path s =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

let scan ?(repair = true) ?journal ?checkpoints () =
  match F.scan ~repair ?journal ?checkpoints () with
  | Ok r -> r
  | Error e -> Alcotest.failf "fsck: %s" e

let test_fsck_truncates_torn_tail () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.jsonl" in
      let good = write_journal path in
      append path "{\"t\":3.0,\"link\":1,\"ev\":\"comm";
      let r = scan ~journal:path () in
      (match r.F.findings with
      | [ { F.f_action = F.Repaired; f_problem; _ } ] ->
          Alcotest.(check string) "problem named" "torn journal tail" f_problem
      | _ -> Alcotest.fail "expected exactly one repaired finding");
      Alcotest.(check string) "tail cut back to the last valid line" good
        (slurp path);
      Alcotest.(check int) "nothing unrepaired" 0 (F.unrepaired r);
      (* Idempotence: a second scan is clean. *)
      Alcotest.(check int) "re-scan is clean" 0
        (List.length (scan ~journal:path ()).F.findings))

let test_fsck_notes_interior_damage () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.jsonl" in
      let _ = write_journal path in
      let good = slurp path in
      (* Interior bad line followed by a valid line: unrepairable. *)
      append path "garbage not json\n";
      append path
        "{\"t\":60.0,\"link\":1,\"ev\":\"outage\",\"up\":true,\"span\":0}\n";
      let damaged = slurp path in
      let r = scan ~journal:path () in
      Alcotest.(check bool) "interior damage only noted" true
        (List.for_all (fun f -> f.F.f_action = F.Noted) r.F.findings);
      Alcotest.(check int) "counts as unrepaired" (List.length r.F.findings)
        (F.unrepaired r);
      Alcotest.(check bool) "at least one finding" true (r.F.findings <> []);
      Alcotest.(check string) "file untouched" damaged (slurp path);
      ignore good)

let test_fsck_dry_run_touches_nothing () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "j.jsonl" in
      let _ = write_journal path in
      append path "{\"torn";
      let damaged = slurp path in
      let r = scan ~repair:false ~journal:path () in
      Alcotest.(check bool) "dry-run findings all noted" true
        (r.F.findings <> []
        && List.for_all (fun f -> f.F.f_action = F.Noted) r.F.findings);
      Alcotest.(check string) "file untouched" damaged (slurp path))

let test_fsck_missing_journal_is_error () =
  with_temp_dir (fun dir ->
      match F.scan ~journal:(Filename.concat dir "absent.jsonl") () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing journal accepted")

let make_ctx ?(every = 16) ?(resume = false) ?journal_path dir =
  match R.create ~dir ~every ?journal_path ~faults:Rwc_fault.none ~resume () with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "create: %s" e

let save_checkpoints dir n =
  let ctx, _ = make_ctx dir in
  for i = 0 to n - 1 do
    R.save ctx ~seed:7 ~days:2.0 ~journal_events:i ~journal_bytes:(10 * i)
      ~completed:[] ~run:None
  done

let test_fsck_checkpoint_dir () =
  with_temp_dir (fun dir ->
      save_checkpoints dir 2;
      (* One orphan temp and one bit-flipped checkpoint. *)
      spew (Filename.concat dir "ckpt-000009.json.tmp") "partial";
      let newest = Filename.concat dir "ckpt-000001.json" in
      let s = slurp newest in
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      spew newest (Bytes.to_string b);
      let r = scan ~checkpoints:dir () in
      let actions = List.map (fun f -> f.F.f_action) r.F.findings in
      Alcotest.(check bool) "orphan removed + corrupt quarantined" true
        (List.mem F.Removed actions && List.mem F.Quarantined actions);
      Alcotest.(check bool) "tmp gone" false
        (Sys.file_exists (Filename.concat dir "ckpt-000009.json.tmp"));
      Alcotest.(check bool) "quarantined file kept for forensics" true
        (Sys.file_exists (newest ^ ".corrupt"));
      (* The quarantined file is out of the resume chain. *)
      (match R.load_latest dir with
      | Ok (Some c) ->
          Alcotest.(check int) "resume falls back past quarantine" 0
            c.R.ck_journal_events
      | Ok None -> Alcotest.fail "no checkpoint survives"
      | Error e -> Alcotest.failf "load_latest: %s" e);
      Alcotest.(check int) "re-scan is clean" 0
        (List.length (scan ~checkpoints:dir ()).F.findings))

let test_fsck_report_json_deterministic () =
  with_temp_dir (fun dir ->
      save_checkpoints dir 1;
      spew (Filename.concat dir "b.tmp") "x";
      spew (Filename.concat dir "a.tmp") "x";
      let r = scan ~repair:false ~checkpoints:dir () in
      let paths = List.map (fun f -> f.F.f_path) r.F.findings in
      Alcotest.(check bool) "findings sorted by path" true
        (paths = List.sort compare paths);
      match F.report_to_json r with
      | Rwc_obs.Json.Assoc kv ->
          Alcotest.(check bool) "schema tagged" true
            (List.assoc_opt "schema" kv
            = Some (Rwc_obs.Json.String "rwc-fsck/1"))
      | _ -> Alcotest.fail "report is not an object")

(* --- recover integration ----------------------------------------------- *)

let test_orphan_sweep_on_open () =
  with_temp_dir (fun dir ->
      save_checkpoints dir 1;
      spew (Filename.concat dir "ckpt-000042.json.tmp") "partial";
      Alcotest.(check (list string))
        "orphan listed" [ "ckpt-000042.json.tmp" ] (R.orphan_tmps dir);
      (* Reopening the directory sweeps it. *)
      let _ = make_ctx dir in
      Alcotest.(check (list string)) "swept on open" [] (R.orphan_tmps dir);
      Alcotest.(check bool) "real checkpoints survive the sweep" true
        (Sys.file_exists (Filename.concat dir "ckpt-000000.json")))

let test_load_resumable_respects_journal () =
  with_temp_dir (fun dir ->
      let jpath = Filename.concat dir "j.jsonl" in
      save_checkpoints dir 3;  (* marks at bytes 0, 10, 20 *)
      spew jpath (String.make 12 'x');
      (match R.load_resumable ~journal_path:jpath dir with
      | Ok (Some c) ->
          Alcotest.(check int)
            "newest checkpoint covered by the journal wins" 1
            c.R.ck_journal_events
      | Ok None -> Alcotest.fail "expected a usable checkpoint"
      | Error e -> Alcotest.failf "load_resumable: %s" e);
      (* A missing journal only permits the zero-byte checkpoint. *)
      Sys.remove jpath;
      match R.load_resumable ~journal_path:jpath dir with
      | Ok (Some c) ->
          Alcotest.(check int) "missing journal means zero bytes" 0
            c.R.ck_journal_events
      | Ok None -> Alcotest.fail "expected the zero-byte checkpoint"
      | Error e -> Alcotest.failf "load_resumable: %s" e)

(* --- torture ------------------------------------------------------------ *)

let test_torture_sampled () =
  with_temp_dir (fun dir ->
      match
        Rwc_sim.Torture.run ~days:0.125 ~ducts:8 ~seed:3 ~every:4 ~sample:3
          ~root:(Filename.concat dir "t") ()
      with
      | Error e -> Alcotest.failf "torture: %s" e
      | Ok s ->
          Alcotest.(check bool) "boundaries found" true (s.Rwc_sim.Torture.boundaries > 0);
          Alcotest.(check bool) "cases ran" true
            (List.length s.Rwc_sim.Torture.cases >= 2);
          List.iter
            (fun c ->
              if not c.Rwc_sim.Torture.ok then
                Alcotest.failf "boundary %d (%s): %s" c.Rwc_sim.Torture.ordinal
                  c.Rwc_sim.Torture.kind c.Rwc_sim.Torture.detail)
            s.Rwc_sim.Torture.cases;
          Alcotest.(check int) "no failures" 0 s.Rwc_sim.Torture.failed)

(* --- arbitrary-damage recovery property --------------------------------- *)

(* Template: one completed checkpointed+journaled run whose artifacts
   each property case copies, damages, fscks, and resumes.  Built once;
   the directory lives until process exit. *)
let damage_template =
  lazy
    (let dir = Filename.temp_file "rwc_test_storm_tpl" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o700;
     at_exit (fun () -> rm_rf dir);
     let backbone = Rwc_topology.Backbone.synthetic ~ducts:10 ~seed:3 in
     let config jnl =
       {
         Runner.default_config with
         Runner.days = 0.25;
         seed = 3;
         journal = jnl;
       }
     in
     let ckdir = Filename.concat dir "ck" in
     let jpath = Filename.concat dir "journal.jsonl" in
     let ctx, _ = make_ctx ~every:4 ~journal_path:jpath ckdir in
     let jnl = J.create ~path:jpath () in
     let golden_pp =
       match
         Runner.run_recoverable ~config:(config jnl) ~backbone ~ctx
           ~resume_from:None
           ~policies:[ Runner.Adaptive Runner.Efficient ]
           ()
       with
       | [ Runner.Ran r ] -> Format.asprintf "%a" Runner.pp_report r
       | _ -> failwith "template run did not complete"
     in
     (dir, backbone, config, golden_pp, slurp jpath))

let copy_template ~into =
  let tpl, _, _, _, _ = Lazy.force damage_template in
  Sys.mkdir into 0o700;
  Sys.mkdir (Filename.concat into "ck") 0o700;
  let copy rel =
    spew (Filename.concat into rel) (slurp (Filename.concat tpl rel))
  in
  copy "journal.jsonl";
  Array.iter
    (fun n -> copy (Filename.concat "ck" n))
    (Sys.readdir (Filename.concat tpl "ck"))

(* Resume exactly the way `rwc simulate --checkpoint --resume` does. *)
let resume_attempt dir =
  let _, backbone, config, _, _ = Lazy.force damage_template in
  let ckdir = Filename.concat dir "ck" in
  let jpath = Filename.concat dir "journal.jsonl" in
  match
    R.create ~dir:ckdir ~every:4 ~journal_path:jpath ~faults:Rwc_fault.none
      ~resume:true ()
  with
  | Error e -> Error ("create: " ^ e)
  | Ok (ctx, resume_from) -> (
      let jnl =
        match resume_from with
        | Some c ->
            J.resume ~path:jpath ~at:c.R.ck_journal_bytes
              ~events:c.R.ck_journal_events ()
        | None -> Ok (J.create ~path:jpath ())
      in
      match jnl with
      | Error e -> Error ("journal: " ^ e)
      | Ok jnl -> (
          match
            Runner.run_recoverable ~config:(config jnl) ~backbone ~ctx
              ~resume_from
              ~policies:[ Runner.Adaptive Runner.Efficient ]
              ()
          with
          | [ Runner.Ran r ] -> Ok (Format.asprintf "%a" Runner.pp_report r)
          | [ Runner.Replayed { pp; _ } ] -> Ok pp
          | _ -> Error "expected one outcome"))

(* A kill in the middle of overwriting a ring slot that already held
   an older record: the slot is torn (its header names the new seq, its
   record fails the CRC), fsck clears it in one pass, and the resumed
   run, falling back to the other slots, lands on the golden bytes.
   Kill points are tried in order until the first such tear. *)
let test_kill_mid_slot_overwrite () =
  let _, _, _, golden_pp, golden_journal = Lazy.force damage_template in
  with_storm (fun () ->
      with_temp_dir (fun scratch ->
          let torn ckdir =
            List.exists
              (fun (seq, bytes) ->
                seq >= R.ring_slots
                && Result.is_error (R.checkpoint_of_string bytes))
              (R.records ckdir)
          in
          let rec first_tear k =
            if k > 200 then Alcotest.fail "no kill tore an overwritten slot";
            let dir = Filename.concat scratch (Printf.sprintf "k%d" k) in
            Sys.mkdir dir 0o700;
            S.reset ();
            S.arm_kill k;
            let killed =
              match resume_attempt dir with
              | exception S.Killed { kind = S.Write; _ } -> true
              | exception S.Killed _ -> false
              | Ok _ | Error _ -> false
            in
            S.reset ();
            if killed && torn (Filename.concat dir "ck") then dir
            else first_tear (k + 1)
          in
          let dir = first_tear 0 in
          let ckdir = Filename.concat dir "ck" in
          let jpath = Filename.concat dir "journal.jsonl" in
          let findings () =
            match F.scan ~journal:jpath ~checkpoints:ckdir () with
            | Ok r -> List.map (fun f -> f.F.f_problem) r.F.findings
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check bool) "fsck repairs the torn slot" true
            (List.mem "corrupt checkpoint slot" (findings ()));
          Alcotest.(check (list string)) "second fsck pass is clean" []
            (findings ());
          match resume_attempt dir with
          | Error e -> Alcotest.failf "resume: %s" e
          | Ok pp ->
              Alcotest.(check string) "report byte-identical" golden_pp pp;
              Alcotest.(check string) "journal byte-identical" golden_journal
                (slurp jpath)))

let prop_recovers_from_arbitrary_damage =
  QCheck.Test.make
    ~name:"storm: truncate journal anywhere + flip any checkpoint bit, fsck, \
           resume byte-identically"
    ~count:6
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (cut_raw, flip_raw) ->
      let _, _, _, golden_pp, golden_journal = Lazy.force damage_template in
      with_temp_dir (fun scratch ->
          let dir = Filename.concat scratch "case" in
          copy_template ~into:dir;
          let jpath = Filename.concat dir "journal.jsonl" in
          let ckdir = Filename.concat dir "ck" in
          (* Truncate the journal at an arbitrary byte offset. *)
          let cut = cut_raw mod (String.length golden_journal + 1) in
          spew jpath (String.sub golden_journal 0 cut);
          (* Flip an arbitrary bit of the newest checkpoint. *)
          let newest =
            let names =
              Sys.readdir ckdir |> Array.to_list
              |> List.filter (fun n -> Filename.check_suffix n ".json")
              |> List.sort compare |> List.rev
            in
            Filename.concat ckdir (List.hd names)
          in
          let s = slurp newest in
          let flip = flip_raw mod (String.length s * 8) in
          let b = Bytes.of_string s in
          let i = flip / 8 in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (flip mod 8))));
          spew newest (Bytes.to_string b);
          (* Offline repair must converge (second scan clean)... *)
          let repaired =
            match F.scan ~repair:true ~journal:jpath ~checkpoints:ckdir () with
            | Ok _ -> (
                match
                  F.scan ~repair:true ~journal:jpath ~checkpoints:ckdir ()
                with
                | Ok r -> r.F.findings = []
                | Error _ -> false)
            | Error _ -> false
          in
          (* ...and resume must land on the golden bytes. *)
          repaired
          &&
          match resume_attempt dir with
          | Error e -> QCheck.Test.fail_report ("resume: " ^ e)
          | Ok pp ->
              pp = golden_pp && slurp jpath = golden_journal))

let suite =
  [
    Alcotest.test_case "writer round-trip" `Quick test_writer_roundtrip;
    Alcotest.test_case "writer open failure" `Quick
      test_writer_open_failure_is_sys_error;
    Alcotest.test_case "boundary accounting" `Quick test_boundary_accounting;
    Alcotest.test_case "armed kill + dead mode" `Quick test_kill_and_dead_mode;
    Alcotest.test_case "fsync strict only on regular files" `Quick
      test_sync_strict_classification;
    Alcotest.test_case "storm plan rejects non-io" `Quick
      test_plan_of_string_rejects_non_io;
    Alcotest.test_case "fault application deterministic" `Quick
      test_fault_application_deterministic;
    Alcotest.test_case "torn rename loses the commit" `Quick
      test_torn_rename_loses_commit;
    Alcotest.test_case "fsck truncates torn tail" `Quick
      test_fsck_truncates_torn_tail;
    Alcotest.test_case "fsck notes interior damage" `Quick
      test_fsck_notes_interior_damage;
    Alcotest.test_case "fsck dry-run touches nothing" `Quick
      test_fsck_dry_run_touches_nothing;
    Alcotest.test_case "fsck missing journal errors" `Quick
      test_fsck_missing_journal_is_error;
    Alcotest.test_case "fsck checkpoint dir" `Quick test_fsck_checkpoint_dir;
    Alcotest.test_case "fsck report deterministic" `Quick
      test_fsck_report_json_deterministic;
    Alcotest.test_case "orphan sweep on open" `Quick test_orphan_sweep_on_open;
    Alcotest.test_case "journal-aware checkpoint selection" `Quick
      test_load_resumable_respects_journal;
    Alcotest.test_case "torture (sampled)" `Slow test_torture_sampled;
    Alcotest.test_case "kill mid slot overwrite resumes identically" `Slow
      test_kill_mid_slot_overwrite;
    QCheck_alcotest.to_alcotest prop_recovers_from_arbitrary_damage;
  ]
