(* The runner's TE solve memo: the table itself (bounded size,
   most-recently-used order, stored bits, no aliasing), byte-identity
   goldens for runs whose TE inputs repeat — digests of the report,
   journal and every checkpoint, captured before the memo existed — and
   what-ifs that only read it. *)

module Metrics = Rwc_obs.Metrics
module R = Rwc_recover
module Runner = Rwc_sim.Runner
module J = Rwc_journal

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_test_te_memo" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

(* --- the memo ------------------------------------------------------------- *)

module M = Rwc_sim.Te_memo

let key i = [| i; 2 * i; 0 |]
let flow i = [| float_of_int i /. 3.0; 0.1 *. float_of_int i |]
let bits = Array.map Int64.bits_of_float

(* Which of keys 1..n the memo holds. *)
let held t n = List.filter (fun i -> M.peek t (key i) <> None) (List.init n succ)

let test_bounded_mru () =
  let t = M.create () in
  Alcotest.(check int) "size is 8" 8 M.size;
  for i = 1 to 10 do
    M.add t (key i) ~total:(float_of_int i) ~flow:(flow i)
  done;
  Alcotest.(check (list int)) "the newest 8" [ 3; 4; 5; 6; 7; 8; 9; 10 ] (held t 12);
  (* A hit makes its entry the most recently used; a peek does not, so
     the next insert evicts 4, not 3. *)
  let into = Array.make 2 0.0 in
  ignore (M.find t (key 3) ~into);
  ignore (M.peek t (key 4));
  M.add t (key 11) ~total:11.0 ~flow:(flow 11);
  Alcotest.(check (list int)) "least recently used evicted"
    [ 3; 5; 6; 7; 8; 9; 10; 11 ] (held t 12);
  (* The promoted 3 outlives every key added before 11. *)
  for i = 12 to 17 do
    M.add t (key i) ~total:(float_of_int i) ~flow:(flow i)
  done;
  Alcotest.(check (list int)) "promoted entry kept longest"
    [ 3; 11; 12; 13; 14; 15; 16; 17 ] (held t 20)

let test_hit_returns_stored_bits () =
  let t = M.create () in
  let total = 0.1 +. 0.2 and f = [| Float.pi; -0.0; 1e-300; 6909.988593 |] in
  M.add t [| 400; 0; 800 |] ~total ~flow:f;
  let into = Array.make 4 nan in
  (match M.find t [| 400; 0; 800 |] ~into with
  | Some got ->
      Alcotest.(check int64) "total bits" (Int64.bits_of_float total)
        (Int64.bits_of_float got)
  | None -> Alcotest.fail "stored key missed");
  Alcotest.(check (array int64)) "flow bits" (bits f) (bits into);
  Alcotest.(check bool) "peek agrees" true (M.peek t [| 400; 0; 800 |] = Some total);
  let untouched = Array.make 4 7.0 in
  Alcotest.(check bool) "other key misses" true
    (M.find t [| 400; 0; 600 |] ~into:untouched = None);
  Alcotest.(check (array int64)) "miss leaves into alone"
    (bits (Array.make 4 7.0)) (bits untouched)

let test_no_aliasing () =
  let t = M.create () in
  let k = [| 1; 2; 3 |] and f = [| 1.5; 2.5 |] in
  M.add t k ~total:4.0 ~flow:f;
  (* The caller's key and flow arrays, changed after the add. *)
  k.(0) <- 99;
  f.(0) <- 99.0;
  let into = Array.make 2 0.0 in
  Alcotest.(check bool) "stored under the original key" true
    (M.find t [| 1; 2; 3 |] ~into = Some 4.0);
  Alcotest.(check (array int64)) "stored flow unchanged" (bits [| 1.5; 2.5 |])
    (bits into);
  (* The flow a hit returned, changed by the caller. *)
  into.(1) <- -1.0;
  let again = Array.make 2 0.0 in
  ignore (M.find t [| 1; 2; 3 |] ~into:again);
  Alcotest.(check (array int64)) "returned flow is a copy" (bits [| 1.5; 2.5 |])
    (bits again)

(* --- run goldens ---------------------------------------------------------- *)

let hits_counter = Metrics.counter "te/cache_hits"
let recomputes_counter = Metrics.counter "te/recomputes"

(* [f counts] with the metrics registry armed, where [counts ()] is the
   memo hits and TE recomputes since the call. *)
let counting f =
  let was = Metrics.enabled () in
  Metrics.enable ();
  let h0 = Metrics.value hits_counter and r0 = Metrics.value recomputes_counter in
  let counts () =
    (Metrics.value hits_counter - h0, Metrics.value recomputes_counter - r0)
  in
  Fun.protect
    ~finally:(fun () -> if not was then Metrics.disable ())
    (fun () -> f counts)

(* What one recoverable run leaves behind, as digests: the report (its
   rendering and its JSON), the journal file, and every checkpoint file
   the store held at any sweep boundary or at the end (the store keeps
   only the newest three, so each is digested as soon as it appears). *)
type digests = { report : string; journal : string; checkpoints : string }

let hex s = Digest.to_hex (Digest.string s)

let report_digest r =
  hex
    (Format.asprintf "%a" Runner.pp_report r
    ^ "\n"
    ^ Rwc_obs.Json.to_string (Runner.json_of_report r))

(* The [rwc serve] daemon's run in the serve_query benchmark: North
   America, Adaptive Efficient, default TE knobs, journal armed with
   the default SLO plan, 10 sim-days. *)
let serve_config journal =
  { Runner.default_config with Runner.days = 10.0; journal }

(* A short faults + guard run: [Rwc_fault.default] carries a te-delay
   rule, so some recomputations arrive through the delayed re-check. *)
let faults_config journal =
  {
    Runner.default_config with
    Runner.days = 2.0;
    faults = Rwc_fault.default;
    guard = Rwc_guard.default;
    journal;
  }

(* Run [policy] under [config] with a checkpoint every [every] sweeps.
   [stop_at] requests a stop at that sweep; the run is then resumed
   from its newest checkpoint (and journal high-water mark) by a second
   context, as [rwc simulate --resume] does. *)
let recoverable_run ~config ~every ?stop_at policy =
  let faults = (config J.disarmed).Runner.faults in
  with_temp_dir (fun dir ->
      let journal_path = Filename.concat dir "journal.jsonl" in
      let ckdir = Filename.concat dir "ck" in
      let slo = J.Slo.default in
      let seen = Hashtbl.create 64 in
      let collect () =
        List.iter
          (fun (seq, bytes) ->
            let name = Printf.sprintf "ckpt-%06d.json" seq in
            if not (Hashtbl.mem seen name) then
              Hashtbl.add seen name (Digest.to_hex (Digest.string bytes)))
          (R.records ckdir)
      in
      let open_ctx ~resume =
        match
          R.create ~dir:ckdir ~every ~journal_path ~slo ~faults ~resume ()
        with
        | Ok pair -> pair
        | Error e -> Alcotest.failf "create: %s" e
      in
      (* Memo hits in the last attempt: the resumed one, if any. *)
      let hits = ref 0 in
      let attempt ctx ~resume_from journal ~stop =
        let on_sweep ~k ~now_s:_ ~events:_ =
          collect ();
          if stop = Some k then R.request_stop ctx
        in
        let config =
          {
            (config journal) with
            Runner.hooks = { Runner.no_hooks with Runner.on_sweep = Some on_sweep };
          }
        in
        counting (fun counts ->
            Fun.protect
              ~finally:(fun () -> hits := fst (counts ()))
              (fun () ->
                Runner.run_recoverable ~config ~ctx ~resume_from
                  ~policies:[ policy ] ()))
      in
      let ctx, _ = open_ctx ~resume:false in
      let outcomes =
        match
          attempt ctx ~resume_from:None
            (J.create ~path:journal_path ~slo ())
            ~stop:stop_at
        with
        | outcomes ->
            if stop_at <> None then Alcotest.fail "stop request did not interrupt";
            outcomes
        | exception R.Interrupted -> (
            collect ();
            let ctx2, resume_from = open_ctx ~resume:true in
            match resume_from with
            | None -> Alcotest.fail "no checkpoint after the stop"
            | Some c ->
                let journal =
                  match
                    J.resume ~path:journal_path ~slo ~at:c.R.ck_journal_bytes
                      ~events:c.R.ck_journal_events ()
                  with
                  | Ok j -> j
                  | Error e -> Alcotest.fail e
                in
                attempt ctx2 ~resume_from journal ~stop:None)
      in
      collect ();
      let report =
        match outcomes with
        | [ Runner.Ran r ] -> r
        | _ -> Alcotest.fail "expected one Ran outcome"
      in
      let listing =
        Hashtbl.fold (fun name d acc -> (name ^ " " ^ d ^ "\n") :: acc) seen []
        |> List.sort compare |> String.concat ""
      in
      ( report,
        !hits,
        {
          report = report_digest report;
          journal = Digest.to_hex (Digest.file journal_path);
          checkpoints = hex listing;
        } ))

let check_digests name ~expect got =
  Alcotest.(check string) (name ^ ": report") expect.report got.report;
  Alcotest.(check string) (name ^ ": journal") expect.journal got.journal;
  Alcotest.(check string) (name ^ ": checkpoints") expect.checkpoints got.checkpoints

(* Captured before the memo existed; the reports and checkpoints
   re-captured when the source-grouped TE kernel changed every solve's
   output (the journals did not move).  Never re-pin them to make a
   change pass. *)
let serve_golden =
  {
    report = "dcb9f5c5e0fa04ad24977329efa9e775";
    journal = "4ba23f72f30b67394671312007897bae";
    checkpoints = "a1ca9639ab0c97b1787718b99ede5c02";
  }

let faults_golden =
  {
    report = "256b522514c8dc44005e78fa8789c5b2";
    journal = "5371f1b8cc36ac55a40c47179c5df88c";
    checkpoints = "3537c099236f7b82bdb9c389150eeb24";
  }

let resumed_golden =
  {
    report = "fe2ed2402765feef6fe57ac3733bc6d9";
    journal = "5371f1b8cc36ac55a40c47179c5df88c";
    checkpoints = "8fc20c83f25ef450f22be4975b1e5338";
  }

let policy = Runner.Adaptive Runner.Efficient

let test_serve_run_golden () =
  let _, hits, got = recoverable_run ~config:serve_config ~every:96 policy in
  Alcotest.(check bool) "memo hit" true (hits > 0);
  check_digests "serve_query run" ~expect:serve_golden got

let faults_run = lazy (recoverable_run ~config:faults_config ~every:16 policy)

let test_faults_run_golden () =
  let r, hits, got = Lazy.force faults_run in
  Alcotest.(check bool) "memo hit" true (hits > 0);
  (match r.Runner.fault_stats with
  | Some f -> Alcotest.(check bool) "te-delay fired" true (f.Runner.te_delays > 0)
  | None -> Alcotest.fail "fault stats missing");
  check_digests "faults run" ~expect:faults_golden got

let test_resumed_run_golden () =
  let r0, _, d0 = Lazy.force faults_run in
  (* The resumed half starts with an empty memo. *)
  let r, hits, got =
    recoverable_run ~config:faults_config ~every:16 ~stop_at:100 policy
  in
  Alcotest.(check bool) "memo hit after the resume" true (hits > 0);
  (* The SLO scorecard is left out: a sink resumed from the journal
     file re-folds its records from their printed text, whose times
     carry 12 significant digits, so a few availability figures differ
     in their last digits from the uninterrupted run's.  The golden
     below pins the resumed bytes as they are. *)
  Alcotest.(check bool) "resumed report = uninterrupted, SLO aside" true
    ({ r with Runner.slo = None } = { r0 with Runner.slo = None });
  Alcotest.(check string) "resumed journal = uninterrupted" d0.journal got.journal;
  check_digests "resumed faults run" ~expect:resumed_golden got

(* --- what-ifs only read the memo ------------------------------------------- *)

(* A run's memo hits and TE recomputes, logged at every sweep boundary, with
   or without a what-if flurry there.  Each sweep previews one link at
   its current rung and at another rung (mostly misses, solved fresh),
   and every link whose rung moved since the last sweep at its old rung
   (an input the run solved a moment ago, which the memo holds). *)
let memo_log ~whatifs =
  counting @@ fun counts ->
  let live = ref None and log = ref [] and last = ref [||] in
  let on_sweep ~k ~now_s:_ ~events:_ =
    match !live with
    | None -> ()
    | Some lv ->
        let n = lv.Runner.lv_n_ducts in
        let rung link = (lv.Runner.lv_duct link).Runner.dv_gbps in
        let now = Array.init n rung in
        if whatifs then begin
          let link = k mod n in
          let g = now.(link) in
          ignore (lv.Runner.lv_whatif ~link ~gbps:g);
          ignore (lv.Runner.lv_whatif ~link ~gbps:(if g = 100 then 150 else 100));
          Array.iteri
            (fun link was ->
              if was <> now.(link) then ignore (lv.Runner.lv_whatif ~link ~gbps:was))
            !last
        end;
        last := now;
        log := counts () :: !log
  in
  let config =
    {
      Runner.default_config with
      Runner.days = 10.0;
      top_demands = 10;
      epsilon = 0.3;
      hooks =
        {
          Runner.no_hooks with
          Runner.on_run_start = Some (fun lv -> live := Some lv);
          on_sweep = Some on_sweep;
        };
    }
  in
  let report = Runner.run ~config policy in
  (report, List.rev !log)

let test_whatifs_leave_hits_alone () =
  let r0, plain = memo_log ~whatifs:false in
  let r1, busy = memo_log ~whatifs:true in
  Alcotest.(check bool) "report untouched" true (r0 = r1);
  Alcotest.(check bool) "the run hit the memo" true
    (fst (List.hd (List.rev plain)) > 0);
  Alcotest.(check (list (pair int int))) "same hits and recomputes at every sweep"
    plain busy

let suite =
  [
    Alcotest.test_case "bounded, most recently used first" `Quick test_bounded_mru;
    Alcotest.test_case "hit returns the stored bits" `Quick
      test_hit_returns_stored_bits;
    Alcotest.test_case "callers cannot alias the store" `Quick test_no_aliasing;
    Alcotest.test_case "serve_query run golden" `Slow test_serve_run_golden;
    Alcotest.test_case "faults+te-delay run golden" `Slow test_faults_run_golden;
    Alcotest.test_case "crash-resume run golden" `Slow test_resumed_run_golden;
    Alcotest.test_case "what-ifs leave the run's hits alone" `Slow
      test_whatifs_leave_hits_alone;
  ]
