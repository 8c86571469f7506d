(* Tests for crash-safe checkpoints and resumable runs: codec
   round-trips, CRC/truncation rejection with fallback to older
   checkpoints, pruning, resume-mark provenance, and the headline
   property — a run crashed at arbitrary sample boundaries and
   restarted from its checkpoints produces a report (and journal)
   byte-identical to an uninterrupted run. *)

module R = Rwc_recover
module Runner = Rwc_sim.Runner

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    try Sys.rmdir path with Sys_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_test_recover" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* --- codec ------------------------------------------------------------- *)

(* A checkpoint exercising every corner of the codec: both pending
   shapes, float values with no short decimal rendering, escapes in
   the stored report strings, present and absent option fields. *)
let sample_checkpoint () =
  let pending k at =
    {
      R.p_kind = k;
      p_link = 3;
      p_new_gbps = 150;
      p_prev_gbps = 100;
      p_attempt = 2;
      p_at = at;
    }
  in
  let duct =
    {
      R.d_gbps = 200;
      d_up = true;
      d_snr_db = 0.1 +. 0.2;
      d_reconfiguring = true;
      d_ctl = Some (150, 3);
      d_det = Some (17.25, 1.0 /. 3.0);
      d_freeze_seen = true;
      d_quar_seen = false;
      d_ewma_alarming = true;
    }
  in
  let run =
    {
      R.r_policy = "adaptive-efficient-bvt";
      r_next_sample = 42;
      r_failures = 1;
      r_flaps = 2;
      r_reconfigs = 3;
      r_downtime_s = 68.25;
      r_delivered_gbit = 1e15 +. (1.0 /. 3.0);
      r_capacity_acc = 123456.789;
      r_up_acc = 41.5;
      r_duct_obs = 4200;
      r_retries = 5;
      r_fallbacks = 1;
      r_last_te_time = 21600.0;
      r_current_total = 3100.25;
      r_current_capacity = 4000.0;
      r_te_dirty = true;
      r_duct_flow = [ 0.0; 1.5; 2.0 /. 7.0 ];
      r_reconfig_rng = Int64.min_int;
      r_ducts = [ duct; { duct with R.d_ctl = None; d_det = None } ];
      r_pending =
        [
          pending R.Te_tick 21600.0;
          pending R.Begin_attempt 1000.5;
          pending R.Finish_attempt 1068.25;
          pending R.Te_recheck 1800.0;
        ];
      r_faults = Some (5, [ Some (123456789L, 2); None; Some (-1L, 0) ]);
      r_guard = None;
      r_rollout = None;
    }
  in
  {
    R.ck_seq = 7;
    ck_seed = 11;
    ck_days = 3.5;
    ck_journal_events = 100;
    ck_journal_bytes = 12345;
    ck_completed =
      [ ("static-100", "delivered=8.25 \"Pbit\"", "{\"policy\":\"static-100\"}") ];
    ck_run = Some run;
  }

let test_codec_roundtrip () =
  let c = sample_checkpoint () in
  match R.checkpoint_of_string (R.checkpoint_to_string c) with
  | Ok c' -> Alcotest.(check bool) "round-trips structurally" true (c = c')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_codec_roundtrip_boundary () =
  (* A policy-boundary checkpoint has no run state at all. *)
  let c =
    { (sample_checkpoint ()) with R.ck_run = None; ck_completed = [] }
  in
  match R.checkpoint_of_string (R.checkpoint_to_string c) with
  | Ok c' -> Alcotest.(check bool) "boundary round-trips" true (c = c')
  | Error e -> Alcotest.failf "round-trip failed: %s" e

let test_codec_rejects_corruption () =
  let s = R.checkpoint_to_string (sample_checkpoint ()) in
  (* Flip one byte in the middle of the body: the CRC must catch it. *)
  let b = Bytes.of_string s in
  let i = String.length s / 3 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  (match R.checkpoint_of_string (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "corrupted checkpoint accepted"
  | Error _ -> ());
  (* Truncation (a torn write) must also be rejected, at any cut. *)
  List.iter
    (fun keep ->
      match R.checkpoint_of_string (String.sub s 0 keep) with
      | Ok _ -> Alcotest.failf "truncated checkpoint (%d bytes) accepted" keep
      | Error _ -> ())
    [ 0; 1; String.length s / 2; String.length s - 1 ]

let test_crc_reference () =
  (* Pin the CRC-32 implementation to the standard test vector. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l (R.crc32 "123456789")

(* CRC-32 straight from its definition — bit by bit, no lookup table —
   as the reference the table-driven loop must agree with. *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let prop_crc_matches_bitwise =
  QCheck.Test.make ~count:300 ~name:"recover: crc32 = bitwise reference"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 300)))
    (fun s -> Int32.equal (R.crc32 s) (crc32_bitwise s))

(* The CRC runs over every checkpoint body (~18 KB on North America)
   at every write: it may allocate its boxed result, nothing per byte. *)
let test_crc_allocation () =
  let s = String.init 18_432 (fun i -> Char.chr ((i * 131 + 7) land 0xFF)) in
  let words input =
    let w0 = Gc.minor_words () in
    let c = R.crc32 input in
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity c);
    w1 -. w0
  in
  let empty = words "" in
  let big = words s in
  Alcotest.(check (float 0.0)) "0 words per byte" 0.0 (big -. empty);
  Alcotest.(check bool) "at most the boxed int32" true (big <= 3.0)

(* The exact file image of [sample_checkpoint], captured before the
   codec was rewritten: every printer fast path must keep these
   bytes. *)
let sample_checkpoint_image =
  String.concat ""
    [
      {|{"version":3,"seq":7,"seed":11,"days":"4615063718147915776",|};
      {|"journal_events":100,"journal_bytes":12345,"completed":[["static-100",|};
      {|"delivered=8.25 \"Pbit\"","{\"policy\":\"static-100\"}"]],"run":{"policy":"adaptive-efficient-bvt",|};
      {|"next_sample":42,"failures":1,"flaps":2,"reconfigs":3,"downtime_s":"4634503083726995456",|};
      {|"delivered_gbit":"4831355200913801219","capacity_acc":"4683220299150161609",|};
      {|"up_acc":"4631037423076245504","duct_obs":4200,"retries":5,"fallbacks":1,|};
      {|"last_te_time":"4671666576745824256","current_total":"4659035936921747456",|};
      {|"current_capacity":"4661014508095930368","te_dirty":true,"duct_flow":["0",|};
      {|"4609434218613702656","4598818590920615058"],"reconfig_rng":"-9223372036854775808",|};
      {|"ducts":[{"gbps":200,"up":true,"snr":"4599075939470750516","rec":true,|};
      {|"ctl":[150,3],"det":["4625548661030387712","4599676419421066581"],|};
      {|"freeze":true,"quar":false,"ewma":true},{"gbps":200,"up":true,|};
      {|"snr":"4599075939470750516","rec":true,"ctl":null,"det":null,|};
      {|"freeze":true,"quar":false,"ewma":true}],"pending":[{"kind":"te-tick",|};
      {|"link":3,"new":150,"prev":100,"attempt":2,"at":"4671666576745824256"},|};
      {|{"kind":"begin","link":3,"new":150,"prev":100,"attempt":2,"at":"4652011706887700480"},|};
      {|{"kind":"finish","link":3,"new":150,"prev":100,"attempt":2,"at":"4652413028631838720"},|};
      {|{"kind":"te-recheck","link":3,"new":150,"prev":100,"attempt":2,|};
      {|"at":"4655631299166339072"}],"faults":{"total":5,"slots":[["123456789",|};
      {|2],null,["-1",0]]},"guard":null,"rollout":null}}|};
      "\ncrc32=1033b242\n";
    ]

let test_checkpoint_bytes_golden () =
  Alcotest.(check string) "checkpoint_to_string bytes" sample_checkpoint_image
    (R.checkpoint_to_string (sample_checkpoint ()))

(* --- store ------------------------------------------------------------- *)

let make_ctx ?(faults = Rwc_fault.none) ?(resume = false) ?journal_path dir =
  match R.create ~dir ~every:16 ?journal_path ~faults ~resume () with
  | Ok pair -> pair
  | Error e -> Alcotest.failf "create: %s" e

let test_save_load_and_prune () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      for i = 0 to 4 do
        R.save ctx ~seed:7 ~days:2.0 ~journal_events:i ~journal_bytes:(10 * i)
          ~completed:[] ~run:None
      done;
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "pruned to the newest three"
        [ "ckpt-000002.json"; "ckpt-000003.json"; "ckpt-000004.json" ]
        files;
      match R.load_latest dir with
      | Ok (Some c) ->
          Alcotest.(check int) "newest wins" 4 c.R.ck_journal_events
      | Ok None -> Alcotest.fail "no checkpoint found"
      | Error e -> Alcotest.failf "load_latest: %s" e)

let test_load_latest_falls_back () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      R.save ctx ~seed:7 ~days:2.0 ~journal_events:1 ~journal_bytes:10
        ~completed:[] ~run:None;
      R.save ctx ~seed:7 ~days:2.0 ~journal_events:2 ~journal_bytes:20
        ~completed:[] ~run:None;
      (* Corrupt the newest file on disk (torn write simulation). *)
      let newest = Filename.concat dir "ckpt-000001.json" in
      let s = In_channel.with_open_bin newest In_channel.input_all in
      Out_channel.with_open_bin newest (fun oc ->
          Out_channel.output_string oc (String.sub s 0 (String.length s / 2)));
      (match R.load_latest dir with
      | Ok (Some c) ->
          Alcotest.(check int) "falls back to previous valid" 1
            c.R.ck_journal_events
      | Ok None -> Alcotest.fail "no checkpoint found"
      | Error e -> Alcotest.failf "load_latest: %s" e);
      (* With every file corrupted there is nothing to resume from. *)
      let oldest = Filename.concat dir "ckpt-000000.json" in
      Out_channel.with_open_bin oldest (fun oc ->
          Out_channel.output_string oc "garbage");
      match R.load_latest dir with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "accepted a corrupt checkpoint"
      | Error e -> Alcotest.failf "load_latest: %s" e)

let test_resume_marks () =
  with_temp_dir (fun dir ->
      Alcotest.(check bool) "no marks initially" true (R.resume_marks dir = []);
      R.record_resume ~dir ~journal_events:42 ~journal_bytes:4200;
      R.record_resume ~dir ~journal_events:99 ~journal_bytes:9900;
      Alcotest.(check bool)
        "marks accumulate in order" true
        (R.resume_marks dir = [ (42, 4200); (99, 9900) ]);
      (* A fresh (non-resume) context clears stale marks. *)
      let _ = make_ctx dir in
      Alcotest.(check bool) "fresh run clears marks" true
        (R.resume_marks dir = []))

(* --- checkpoint ring ------------------------------------------------------ *)

let save_mid ctx run =
  R.save ctx ~seed:7 ~days:2.0 ~journal_events:1 ~journal_bytes:10
    ~completed:[] ~run:(Some run)

let sample_run () =
  match (sample_checkpoint ()).R.ck_run with
  | Some r -> r
  | None -> assert false

(* The per-sweep syscall shape: a mid-run save is one in-place write
   and one fsync, nothing else; a policy-boundary save keeps the
   temp + rename commit and fsyncs the directory after it. *)
let test_save_boundary_shape () =
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      let run = sample_run () in
      let delta f =
        Rwc_storm.reset ();
        f ();
        Rwc_storm.counts ()
      in
      Fun.protect ~finally:Rwc_storm.reset (fun () ->
          let shape = Alcotest.(triple int int int) in
          (* The first save creates the slot, the fifth reuses it. *)
          for i = 0 to 4 do
            Alcotest.(check shape)
              (Printf.sprintf "mid-run save %d: 1 write, 1 sync, 0 renames" i)
              (1, 1, 0)
              (delta (fun () -> save_mid ctx run))
          done;
          Alcotest.(check shape) "boundary save: 1 write, 2 syncs, 1 rename"
            (1, 2, 1)
            (delta (fun () ->
                 R.save ctx ~seed:7 ~days:2.0 ~journal_events:1
                   ~journal_bytes:10 ~completed:[] ~run:None));
          Alcotest.(check (list string))
            "four slots and one standalone file"
            [ "ckpt-000005.json"; "ring-0.ckpt"; "ring-1.ckpt"; "ring-2.ckpt";
              "ring-3.ckpt" ]
            (List.sort compare (Array.to_list (Sys.readdir dir)));
          Alcotest.(check (list int)) "records newest first" [ 5; 4; 3; 2; 1 ]
            (List.map fst (R.records dir))))

(* A ring of six saves of shrinking size (so slots 0 and 1 keep a
   stale tail past their newest record), then one slot damaged by a
   bit flip anywhere in its file, a bit flip in its 32-byte header
   (a uniform flip rarely lands there), or a truncation anywhere.  The
   damaged slot's record survives exactly when the damage lies past
   its header and record; [load_latest] must return the newest
   surviving record and never raise, and fsck must converge in one
   pass. *)
let prop_ring_damage =
  QCheck.Test.make ~count:300
    ~name:"recover: any bit flip or cut in a ring slot, newest valid loads"
    QCheck.(
      triple (int_range 0 (R.ring_slots - 1)) (int_range 0 2)
        (int_range 0 1_000_000))
    (fun (slot, mode, where) ->
      let flip = mode < 2 in
      with_temp_dir (fun dir ->
          let ctx, _ = make_ctx dir in
          let run = sample_run () in
          for i = 0 to 5 do
            save_mid ctx
              { run with R.r_policy = String.make (100 - (15 * i)) 'p' }
          done;
          let records = R.records dir in
          let path = Filename.concat dir (Printf.sprintf "ring-%d.ckpt" slot) in
          let seq, bytes =
            List.find (fun (seq, _) -> seq mod R.ring_slots = slot) records
          in
          let file = In_channel.with_open_bin path In_channel.input_all in
          let framed = 32 + String.length bytes in
          let damaged_at, image =
            if flip then begin
              let bits = if mode = 1 then 32 * 8 else String.length file * 8 in
              let bit = where mod bits in
              let b = Bytes.of_string file in
              let i = bit / 8 in
              Bytes.set b i
                (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
              (i, Bytes.to_string b)
            end
            else
              let cut = where mod (String.length file + 1) in
              (cut, String.sub file 0 cut)
          in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc image);
          let expected =
            List.fold_left
              (fun acc (s, _) ->
                if s <> seq || damaged_at >= framed then max acc s else acc)
              (-1) records
          in
          let loads () =
            match R.load_latest dir with
            | Ok (Some c) -> c.R.ck_seq = expected
            | Ok None | Error _ -> false
          in
          let scan () =
            match Rwc_fsck.scan ~checkpoints:dir () with
            | Ok r -> List.length r.Rwc_fsck.findings
            | Error _ -> -1
          in
          let first = scan () in
          let clean = damaged_at >= framed || ((not flip) && damaged_at = 0) in
          loads ()
          && first = (if clean then 0 else 1)
          && scan () = 0 && loads ()))

(* --- crash + resume byte-identity -------------------------------------- *)

let small_config ?(journal = Rwc_journal.disarmed) ~seed ~faults () =
  {
    Runner.default_config with
    Runner.days = 0.75;
    seed;
    faults;
    journal;
  }

let crash_plan ~rate ~seed =
  match
    Rwc_fault.of_string (Printf.sprintf "crash=%g,seed=%d" rate seed)
  with
  | Ok p -> p
  | Error e -> failwith e

(* The headline golden: a run killed repeatedly by the crash oracle and
   restarted from its checkpoints must produce the same report and the
   same journal file, byte for byte, as an uninterrupted run. *)
let test_crash_resume_golden () =
  let policy = Runner.Adaptive Runner.Efficient in
  with_temp_dir (fun dir ->
      let ref_journal = Filename.concat dir "ref.jsonl" in
      let crash_journal = Filename.concat dir "crash.jsonl" in
      let faults = crash_plan ~rate:0.08 ~seed:99 in
      let reference =
        let jnl = Rwc_journal.create ~path:ref_journal () in
        let r =
          Runner.run ~config:(small_config ~seed:11 ~faults ~journal:jnl ()) policy
        in
        Rwc_journal.close jnl;
        r
      in
      let ckdir = Filename.concat dir "ck" in
      let ctx, _ =
        make_ctx ~faults ~journal_path:crash_journal ckdir
      in
      let jnl = Rwc_journal.create ~path:crash_journal () in
      let outcomes =
        Runner.run_recoverable
          ~config:(small_config ~seed:11 ~faults ~journal:jnl ())
          ~ctx ~resume_from:None ~policies:[ policy ] ()
      in
      Alcotest.(check bool) "the crash oracle actually fired" true
        (ctx.R.restarts > 0);
      (match outcomes with
      | [ Runner.Ran r ] ->
          Alcotest.(check string) "report byte-identical"
            (Format.asprintf "%a" Runner.pp_report reference)
            (Format.asprintf "%a" Runner.pp_report r);
          Alcotest.(check bool) "report structurally identical" true
            (r = reference)
      | _ -> Alcotest.fail "expected one Ran outcome");
      let slurp p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check string) "journal byte-identical" (slurp ref_journal)
        (slurp crash_journal);
      Array.iter
        (fun n -> try Sys.remove (Filename.concat ckdir n) with Sys_error _ -> ())
        (Sys.readdir ckdir);
      Sys.rmdir ckdir)

(* Digests of everything the durable write path puts on disk in a
   seeded 2-day run of the durable_na benchmark configuration —
   Adaptive Stock, default faults and guard, journal armed with the
   default SLO plan, a checkpoint at every sample — captured before the
   codec was rewritten; the checkpoints re-captured when the
   source-grouped TE kernel changed the TE flows they hold (the journal
   did not move).  Each record is listed under the name it had when
   every checkpoint was its own file, [ckpt-<seq>.json]; the ring
   overwrites a slot four checkpoints later, so each record is
   digested as soon as it appears. *)
let durable_checkpoint_count = 193
let durable_checkpoints_digest = "caa0d43146531150cd8021f51fd54faa"
let durable_journal_digest = "e762c90ec25d1e736ea0a4202633615c"

let test_durable_bytes_golden () =
  with_temp_dir (fun dir ->
      let journal_path = Filename.concat dir "journal.jsonl" in
      let ckdir = Filename.concat dir "ck" in
      let slo = Rwc_journal.Slo.default in
      let journal = Rwc_journal.create ~path:journal_path ~slo () in
      let ctx =
        match
          R.create ~dir:ckdir ~every:1 ~journal_path ~slo ~faults:Rwc_fault.default
            ~resume:false ()
        with
        | Ok (ctx, _) -> ctx
        | Error e -> Alcotest.failf "create: %s" e
      in
      Rwc_storm.reset ();
      let seen = Hashtbl.create 256 in
      let collect () =
        List.iter
          (fun (seq, bytes) ->
            let name = Printf.sprintf "ckpt-%06d.json" seq in
            if not (Hashtbl.mem seen name) then
              Hashtbl.add seen name (Digest.to_hex (Digest.string bytes)))
          (R.records ckdir)
      in
      let config =
        {
          Runner.default_config with
          Runner.days = 2.0;
          faults = Rwc_fault.default;
          guard = Rwc_guard.default;
          top_demands = 10;
          epsilon = 0.3;
          journal;
          hooks =
            {
              Runner.no_hooks with
              Runner.on_sweep = Some (fun ~k:_ ~now_s:_ ~events:_ -> collect ());
            };
        }
      in
      (match
         Runner.run_recoverable ~config ~ctx ~resume_from:None
           ~policies:[ Runner.Adaptive Runner.Stock ] ()
       with
      | [ Runner.Ran _ ] -> ()
      | _ -> Alcotest.fail "expected one Ran outcome");
      Rwc_journal.close journal;
      collect ();
      let listing =
        Hashtbl.fold (fun name d acc -> (name ^ " " ^ d ^ "\n") :: acc) seen []
        |> List.sort compare |> String.concat ""
      in
      Alcotest.(check int) "checkpoint files" durable_checkpoint_count
        (Hashtbl.length seen);
      Alcotest.(check string) "checkpoint digests" durable_checkpoints_digest
        (Digest.to_hex (Digest.string listing));
      Alcotest.(check string) "journal digest" durable_journal_digest
        (Digest.to_hex (Digest.file journal_path));
      let _, _, renames = Rwc_storm.counts () in
      Alcotest.(check int) "renames = boundary saves (one policy)" 1 renames;
      Array.iter
        (fun n -> try Sys.remove (Filename.concat ckdir n) with Sys_error _ -> ())
        (Sys.readdir ckdir);
      Sys.rmdir ckdir)

(* A stop request cuts a final checkpoint, raises Interrupted, and a
   second context resumes to the uninterrupted result. *)
let test_interrupt_then_resume () =
  let policy = Runner.Adaptive Runner.Stock in
  let reference =
    Runner.run ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ()) policy
  in
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      R.request_stop ctx;
      (match
         Runner.run_recoverable
           ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ())
           ~ctx ~resume_from:None ~policies:[ policy ] ()
       with
      | _ -> Alcotest.fail "stop request did not interrupt"
      | exception R.Interrupted -> ());
      let ctx2, resume_from = make_ctx ~resume:true dir in
      (match resume_from with
      | Some c ->
          Alcotest.(check int) "checkpoint carries the run seed" 13 c.R.ck_seed
      | None -> Alcotest.fail "no checkpoint after interrupt");
      match
        Runner.run_recoverable
          ~config:(small_config ~seed:13 ~faults:Rwc_fault.none ())
          ~ctx:ctx2 ~resume_from ~policies:[ policy ] ()
      with
      | [ Runner.Ran r ] ->
          Alcotest.(check bool) "resumed report identical" true (r = reference)
      | _ -> Alcotest.fail "expected one Ran outcome")

(* A completed policy is replayed verbatim from the checkpoint, not
   re-executed. *)
let test_completed_policy_replays () =
  let policy = Runner.Static_100 in
  with_temp_dir (fun dir ->
      let ctx, _ = make_ctx dir in
      let cfg () = small_config ~seed:17 ~faults:Rwc_fault.none () in
      let first =
        match
          Runner.run_recoverable ~config:(cfg ()) ~ctx ~resume_from:None
            ~policies:[ policy ] ()
        with
        | [ Runner.Ran r ] -> r
        | _ -> Alcotest.fail "expected one Ran outcome"
      in
      let ctx2, resume_from = make_ctx ~resume:true dir in
      match
        Runner.run_recoverable ~config:(cfg ()) ~ctx:ctx2 ~resume_from
          ~policies:[ policy ] ()
      with
      | [ Runner.Replayed { pp; _ } ] ->
          Alcotest.(check string) "stored rendering matches"
            (Format.asprintf "%a" Runner.pp_report first)
            pp
      | _ -> Alcotest.fail "expected a Replayed outcome")

(* Property: whatever boundaries the crash oracle picks, recovery
   converges to the uninterrupted run's exact report. *)
let prop_crash_anywhere_resumes_identically =
  QCheck.Test.make ~name:"recover: crash at any boundary, identical report"
    ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 5 25))
    (fun (seed, rate_pct) ->
      let rate = float_of_int rate_pct /. 100.0 in
      let policy = Runner.Adaptive Runner.Efficient in
      let faults = crash_plan ~rate ~seed:(seed + 1000) in
      let reference =
        Runner.run ~config:(small_config ~seed ~faults ()) policy
      in
      with_temp_dir (fun dir ->
          let ctx, _ = make_ctx ~faults dir in
          match
            Runner.run_recoverable ~config:(small_config ~seed ~faults ())
              ~ctx ~resume_from:None ~policies:[ policy ] ()
          with
          | [ Runner.Ran r ] -> r = reference
          | _ -> false))

(* --- restore fidelity ----------------------------------------------------- *)

let plan_of parse s = match parse s with Ok p -> p | Error e -> failwith e

(* Adaptive Stock with faults, the default guard and a staged rollout
   whose first gate is forced to fail, so a cut carries guard,
   rollout, fault-injector and detector state alongside the counters. *)
let armed_config ~days ~seed ~faults ~journal ~on_sweep =
  {
    Runner.default_config with
    Runner.days;
    seed;
    faults;
    guard = Rwc_guard.default;
    rollout = plan_of Rwc_rollout.of_string "wave=2,bake=1800,fail-gate=1";
    top_demands = 10;
    epsilon = 0.3;
    journal;
    hooks = { Runner.no_hooks with Runner.on_sweep = Some on_sweep };
  }

let stock = Runner.Adaptive Runner.Stock
let next_sample c = (Option.get c.R.ck_run).R.r_next_sample

(* Run (or resume from [resume_from]) under a fresh recovery context in
   [ck_dir], request a stop at the first sweep [stop] accepts, and
   return the checkpoint cut there.  The journal at [journal_path] is
   reopened at the resumed checkpoint's marks, as the CLI does. *)
let run_until_stop ~ck_dir ~journal_path ~days ~seed ~faults ~resume_from
    ~stop =
  let ctx, _ = make_ctx ~faults ~journal_path ck_dir in
  let journal =
    match resume_from with
    | None -> Rwc_journal.create ~path:journal_path ()
    | Some c -> (
        match
          Rwc_journal.resume ~path:journal_path ~at:c.R.ck_journal_bytes
            ~events:c.R.ck_journal_events ()
        with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal resume: %s" e)
  in
  let on_sweep ~k ~now_s:_ ~events:_ = if stop k then R.request_stop ctx in
  let config = armed_config ~days ~seed ~faults ~journal ~on_sweep in
  (match
     Runner.run_recoverable ~config ~ctx ~resume_from ~policies:[ stock ] ()
   with
  | _ -> Alcotest.fail "stop request did not interrupt"
  | exception R.Interrupted -> ());
  match R.load_latest ck_dir with
  | Ok (Some c) -> c
  | Ok None -> Alcotest.fail "no checkpoint after the stop"
  | Error e -> Alcotest.failf "load_latest: %s" e

(* Restoring a checkpoint and cutting again before the first sweep
   mutates anything must give back the same run state: every field the
   restore path writes is one the capture path reads, pending events
   re-arm in their recorded order, and nothing is lost or invented. *)
let test_restore_then_capture_identity () =
  let faults = Rwc_fault.default in
  with_temp_dir (fun dir ->
      let journal_path = Filename.concat dir "journal.jsonl" in
      List.iter
        (fun k ->
          let cut resume_from stop =
            run_until_stop
              ~ck_dir:(Filename.concat dir (Printf.sprintf "ck-%d" k))
              ~journal_path ~days:2.0 ~seed:7 ~faults ~resume_from ~stop
          in
          let a = cut None (fun j -> j = k) in
          Alcotest.(check int) "cut at the requested sweep" k (next_sample a);
          let b = cut (Some a) (fun _ -> true) in
          Alcotest.(check int) "re-cut at the restored sweep" k (next_sample b);
          Alcotest.(check bool)
            (Printf.sprintf "capture (restore A) = A at sweep %d" k)
            true
            (a.R.ck_run = b.R.ck_run))
        [ 24; 77; 130; 181 ])

(* A fault-delayed TE recomputation in flight at the cut is the one
   pending kind a stock run regularly leaves behind.  Find cuts that
   hold one, resume from each, and demand the uninterrupted bytes. *)
let test_resume_from_te_recheck_cuts () =
  let faults = plan_of Rwc_fault.of_string "default,te-delay=0.5:1800" in
  let days = 3.0 and seed = 7 in
  let slurp p = In_channel.with_open_bin p In_channel.input_all in
  let pp r = Format.asprintf "%a" Runner.pp_report r in
  let ran = function
    | [ Runner.Ran r ] -> r
    | _ -> Alcotest.fail "expected one Ran outcome"
  in
  with_temp_dir (fun dir ->
      let ref_journal = Filename.concat dir "ref.jsonl" in
      let reference =
        let journal = Rwc_journal.create ~path:ref_journal () in
        let on_sweep ~k:_ ~now_s:_ ~events:_ = () in
        let r =
          Runner.run
            ~config:(armed_config ~days ~seed ~faults ~journal ~on_sweep)
            stock
        in
        Rwc_journal.close journal;
        r
      in
      (* Checkpoint every sweep; the hook sees the previous sweep's
         cut, and keeps the ones holding a recheck. *)
      let ck_dir = Filename.concat dir "every" in
      let scan_journal = Filename.concat dir "scan.jsonl" in
      let ctx =
        match
          R.create ~dir:ck_dir ~every:1 ~journal_path:scan_journal ~faults
            ~resume:false ()
        with
        | Ok (ctx, _) -> ctx
        | Error e -> Alcotest.failf "create: %s" e
      in
      let cuts = ref [] in
      let on_sweep ~k:_ ~now_s:_ ~events:_ =
        match R.load_latest ck_dir with
        | Ok (Some ({ R.ck_run = Some rs; _ } as c))
          when List.exists
                 (fun p -> p.R.p_kind = R.Te_recheck)
                 rs.R.r_pending
               && not
                    (List.exists (fun c' -> c'.R.ck_seq = c.R.ck_seq) !cuts) ->
            cuts := c :: !cuts
        | _ -> ()
      in
      let journal = Rwc_journal.create ~path:scan_journal () in
      let scanned =
        ran
          (Runner.run_recoverable
             ~config:(armed_config ~days ~seed ~faults ~journal ~on_sweep)
             ~ctx ~resume_from:None ~policies:[ stock ] ())
      in
      Alcotest.(check string) "checkpointed run report" (pp reference)
        (pp scanned);
      Alcotest.(check string) "checkpointed run journal" (slurp ref_journal)
        (slurp scan_journal);
      let cuts = Array.of_list (List.rev !cuts) in
      let n = Array.length cuts in
      Alcotest.(check bool)
        (Printf.sprintf "at least 3 cuts hold a recheck (found %d)" n)
        true (n >= 3);
      List.iter
        (fun c ->
          let k = next_sample c in
          let journal_path =
            Filename.concat dir (Printf.sprintf "resume-%d.jsonl" k)
          in
          Out_channel.with_open_bin journal_path (fun oc ->
              Out_channel.output_string oc (slurp ref_journal));
          let journal =
            match
              Rwc_journal.resume ~path:journal_path ~at:c.R.ck_journal_bytes
                ~events:c.R.ck_journal_events ()
            with
            | Ok j -> j
            | Error e -> Alcotest.failf "journal resume: %s" e
          in
          let ctx, _ =
            make_ctx ~faults ~journal_path
              (Filename.concat dir (Printf.sprintf "ck-%d" k))
          in
          let on_sweep ~k:_ ~now_s:_ ~events:_ = () in
          let r =
            ran
              (Runner.run_recoverable
                 ~config:(armed_config ~days ~seed ~faults ~journal ~on_sweep)
                 ~ctx ~resume_from:(Some c) ~policies:[ stock ] ())
          in
          Alcotest.(check string)
            (Printf.sprintf "report resumed at sweep %d" k)
            (pp reference) (pp r);
          Alcotest.(check bool)
            (Printf.sprintf "report structurally identical at sweep %d" k)
            true (r = reference);
          Alcotest.(check string)
            (Printf.sprintf "journal resumed at sweep %d" k)
            (slurp ref_journal) (slurp journal_path))
        [ cuts.(0); cuts.(n / 2); cuts.(n - 1) ])

(* Restore must reject a checkpoint whose shapes do not fit the fleet
   it is restored into, in the same words as the fleet-size check,
   rather than restoring part of it or failing on an array index. *)
let test_restore_rejects_bad_shapes () =
  let faults = Rwc_fault.default in
  with_temp_dir (fun dir ->
      let journal_path = Filename.concat dir "journal.jsonl" in
      let a =
        run_until_stop ~ck_dir:(Filename.concat dir "ck") ~journal_path
          ~days:1.0 ~seed:7 ~faults ~resume_from:None ~stop:(fun k -> k = 40)
      in
      let rs = Option.get a.R.ck_run in
      let n = List.length rs.R.r_ducts in
      let attempt link =
        {
          R.p_kind = R.Finish_attempt;
          p_link = link;
          p_new_gbps = 150;
          p_prev_gbps = 100;
          p_attempt = 1;
          p_at = (float_of_int rs.R.r_next_sample *. 900.0) +. 60.0;
        }
      in
      List.iter
        (fun (what, bad) ->
          let ctx, _ = make_ctx ~faults (Filename.concat dir what) in
          let on_sweep ~k:_ ~now_s:_ ~events:_ = () in
          let config =
            armed_config ~days:1.0 ~seed:7 ~faults
              ~journal:Rwc_journal.disarmed ~on_sweep
          in
          match
            Runner.run_recoverable ~config ~ctx
              ~resume_from:(Some { a with R.ck_run = Some bad })
              ~policies:[ stock ] ()
          with
          | _ -> Alcotest.failf "%s: checkpoint restored" what
          | exception Invalid_argument msg ->
              let prefix = "Runner: checkpoint" in
              Alcotest.(check bool)
                (Printf.sprintf "%s: rejected (%s)" what msg)
                true
                (String.length msg >= String.length prefix
                && String.sub msg 0 (String.length prefix) = prefix))
        [
          ( "short-duct-flow",
            { rs with R.r_duct_flow = List.filteri (fun i _ -> i < 10) rs.R.r_duct_flow } );
          ("long-duct-flow", { rs with R.r_duct_flow = rs.R.r_duct_flow @ [ 0.0 ] });
          ("link-past-end", { rs with R.r_pending = rs.R.r_pending @ [ attempt n ] });
          ("negative-link", { rs with R.r_pending = rs.R.r_pending @ [ attempt (-1) ] });
        ])

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec round-trip (boundary)" `Quick
      test_codec_roundtrip_boundary;
    Alcotest.test_case "codec rejects corruption" `Quick
      test_codec_rejects_corruption;
    Alcotest.test_case "crc32 reference vector" `Quick test_crc_reference;
    QCheck_alcotest.to_alcotest prop_crc_matches_bitwise;
    Alcotest.test_case "crc32 allocation" `Quick test_crc_allocation;
    Alcotest.test_case "checkpoint bytes golden" `Quick
      test_checkpoint_bytes_golden;
    Alcotest.test_case "durable run bytes golden" `Slow
      test_durable_bytes_golden;
    Alcotest.test_case "save/load and prune" `Quick test_save_load_and_prune;
    Alcotest.test_case "load_latest falls back" `Quick
      test_load_latest_falls_back;
    Alcotest.test_case "resume marks" `Quick test_resume_marks;
    Alcotest.test_case "save syscall shape" `Quick test_save_boundary_shape;
    QCheck_alcotest.to_alcotest prop_ring_damage;
    Alcotest.test_case "crash+resume golden (report & journal)" `Slow
      test_crash_resume_golden;
    Alcotest.test_case "interrupt then resume" `Slow test_interrupt_then_resume;
    Alcotest.test_case "completed policy replays" `Slow
      test_completed_policy_replays;
    QCheck_alcotest.to_alcotest prop_crash_anywhere_resumes_identically;
    Alcotest.test_case "restore then capture is the identity" `Slow
      test_restore_then_capture_identity;
    Alcotest.test_case "resume from cuts holding a te-recheck" `Slow
      test_resume_from_te_recheck_cuts;
    Alcotest.test_case "restore rejects bad checkpoint shapes" `Quick
      test_restore_rejects_bad_shapes;
  ]
