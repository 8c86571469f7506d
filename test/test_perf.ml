(* Rwc_perf: phase profiler, BENCH trajectory codec, regression diff,
   progress heartbeat — and the golden pin that profiling disarmed
   changes nothing about a run's outputs. *)

module P = Rwc_perf
module T = Rwc_perf.Trajectory
module D = Rwc_perf.Diff
module Json = Rwc_obs.Json
module Runner = Rwc_sim.Runner

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_perf_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file -> try Sys.remove (Filename.concat dir file) with _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* --- profiler ----------------------------------------------------------- *)

let test_profiler_basics () =
  P.reset ();
  P.disable ();
  (* Disarmed: record is exactly the thunk, nothing accumulates. *)
  Alcotest.(check int) "disarmed result" 7 (P.record P.Te_solve (fun () -> 7));
  Alcotest.(check int) "disarmed snapshot empty" 0 (List.length (P.snapshot ()));
  P.enable ();
  for _ = 1 to 10 do
    P.record P.Te_solve (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)))
  done;
  P.record P.Journal_emit (fun () -> ());
  (let tok = P.start P.Journal_emit in
   P.stop tok);
  P.disable ();
  (match P.snapshot () with
  | [ (P.Te_solve, te); (P.Journal_emit, je) ] ->
      Alcotest.(check int) "te count" 10 te.P.count;
      Alcotest.(check int) "journal count" 2 je.P.count;
      Alcotest.(check bool) "te total positive" true (te.P.total_s >= 0.0);
      Alcotest.(check bool) "te alloc recorded" true (te.P.alloc_words > 0.0);
      Alcotest.(check bool) "p50 <= p95 <= max" true
        (te.P.p50_s <= te.P.p95_s +. 1e-12 && te.P.p95_s <= te.P.max_s +. 1e-12)
  | l -> Alcotest.failf "unexpected snapshot shape (%d phases)" (List.length l));
  (* A token captured while disarmed stays dead even if armed later. *)
  let tok = P.start P.Te_solve in
  P.enable ();
  P.stop tok;
  P.disable ();
  let s = List.assoc P.Te_solve (P.snapshot ()) in
  Alcotest.(check int) "dead token not recorded" 10 s.P.count;
  P.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (P.snapshot ()))

let test_phase_names () =
  List.iter
    (fun p ->
      match P.phase_of_name (P.phase_name p) with
      | Some p' ->
          Alcotest.(check bool) ("round-trip " ^ P.phase_name p) true (p = p')
      | None -> Alcotest.failf "phase_of_name failed for %s" (P.phase_name p))
    P.all_phases;
  Alcotest.(check bool) "unknown name" true (P.phase_of_name "bogus" = None)

(* --- trajectory codec --------------------------------------------------- *)

let phase_point =
  {
    T.ph_count = 100;
    ph_total_s = 1.25;
    ph_p50_s = 0.01;
    ph_p95_s = 0.02;
    ph_max_s = 0.05;
    ph_alloc_words = 1e6;
    ph_par_busy_s = 0.0;
    ph_par_wall_s = 0.0;
  }

let point ?(phases = [ ("te_solve", phase_point) ]) ?(wall = 10.0)
    ?(events = 1000) ?(evps = 100.0) ?(peak = 1_000_000) n =
  {
    T.n_links = n;
    wall_s = wall;
    events;
    events_per_s = evps;
    peak_heap_words = peak;
    phases;
  }

let test_trajectory_roundtrip () =
  with_temp_dir (fun dir ->
      let t =
        T.make ~label:"unit"
          [ point 200; point 50 ~wall:2.0 ~events:100 ~evps:50.0 ]
      in
      (* make sorts by fleet size. *)
      Alcotest.(check (list int)) "sorted by n_links" [ 50; 200 ]
        (List.map (fun p -> p.T.n_links) t.T.points);
      let path = Filename.concat dir "BENCH_unit.json" in
      T.write path t;
      match T.read path with
      | Ok t' ->
          Alcotest.(check bool) "round-trip structural equality" true (t = t');
          Alcotest.(check string) "schema stamped" T.schema_version t'.T.schema
      | Error e -> Alcotest.fail e)

let test_schema_rejection () =
  let t = T.make ~label:"x" [ point 50 ] in
  let j = T.to_json t in
  let patched =
    match j with
    | Json.Assoc kvs ->
        Json.Assoc
          (List.map
             (function
               | "schema", _ -> ("schema", Json.String "rwc-bench/99")
               | kv -> kv)
             kvs)
    | _ -> Alcotest.fail "expected an object"
  in
  (match T.of_json patched with
  | Error e ->
      Alcotest.(check bool) "error names the schema" true
        (contains e "rwc-bench/99")
  | Ok _ -> Alcotest.fail "accepted an unknown schema");
  (* Missing fields are named with their path. *)
  match T.of_json (Json.Assoc [ ("schema", Json.String T.schema_version) ]) with
  | Error e ->
      Alcotest.(check bool) "error names the field" true (contains e "label")
  | Ok _ -> Alcotest.fail "accepted a truncated document"

let test_nonfinite_handling () =
  with_temp_dir (fun dir ->
      (* Writer sanitizes NaN/Inf to 0.0 — the file stays parseable. *)
      let t = T.make ~label:"nan" [ point 50 ~wall:Float.nan ~evps:infinity ] in
      let path = Filename.concat dir "BENCH_nan.json" in
      T.write path t;
      (match T.read path with
      | Ok t' -> (
          match t'.T.points with
          | [ p ] ->
              Alcotest.(check (float 0.0)) "NaN wall sanitized" 0.0 p.T.wall_s;
              Alcotest.(check (float 0.0)) "Inf throughput sanitized" 0.0
                p.T.events_per_s
          | _ -> Alcotest.fail "expected one point")
      | Error e -> Alcotest.fail e);
      (* The reader rejects a null where a number belongs (what the
         JSON layer would emit for an unsanitized non-finite float). *)
      let raw =
        Printf.sprintf
          {|{"schema": %S, "label": "nan", "points": [{"n_links": 50, "wall_s": null, "events": 1, "events_per_s": 1.0, "peak_heap_words": 1, "phases": {}}]}|}
          T.schema_version
      in
      match Json.parse raw with
      | Error e -> Alcotest.fail e
      | Ok j -> (
          match T.of_json j with
          | Error e ->
              Alcotest.(check bool) "error names wall_s" true
                (contains e "wall_s")
          | Ok _ -> Alcotest.fail "accepted a null metric"))

(* A v1 file (no domains, no per-phase par fields) still reads, with
   sequential defaults, normalized to the current schema. *)
let test_v1_compat () =
  let raw =
    {|{"schema": "rwc-bench/1", "label": "old", "points": [{"n_links": 50, "wall_s": 2.0, "events": 10, "events_per_s": 5.0, "peak_heap_words": 1, "phases": {"te_solve": {"count": 3, "total_s": 1.0, "p50_s": 0.3, "p95_s": 0.4, "max_s": 0.5, "alloc_words": 100.0}}}]}|}
  in
  match Json.parse raw with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match T.of_json j with
      | Error e -> Alcotest.fail e
      | Ok t ->
          Alcotest.(check string) "normalized schema" T.schema_version
            t.T.schema;
          Alcotest.(check int) "domains defaults to 1" 1 t.T.domains;
          let p = List.hd t.T.points in
          let ph = List.assoc "te_solve" p.T.phases in
          Alcotest.(check (float 0.0)) "par busy defaults" 0.0
            ph.T.ph_par_busy_s;
          Alcotest.(check (float 0.0)) "par wall defaults" 0.0
            ph.T.ph_par_wall_s)

(* --- diff thresholds ---------------------------------------------------- *)

let find_metric findings metric =
  match List.find_opt (fun f -> f.D.metric = metric) findings with
  | Some f -> f
  | None ->
      Alcotest.failf "metric %s not in findings (%s)" metric
        (String.concat ", " (List.map (fun f -> f.D.metric) findings))

let diff_exn ?tol old_t new_t =
  match D.compare ?tol old_t new_t with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let lvl =
  Alcotest.testable
    (fun ppf l ->
      Format.pp_print_string ppf
        (match l with D.Pass -> "Pass" | D.Warn -> "Warn" | D.Fail -> "Fail"))
    ( = )

let test_diff_identical () =
  let t = T.make ~label:"a" [ point 50; point 200 ] in
  let findings = diff_exn t t in
  Alcotest.(check lvl) "identical is Pass" D.Pass (D.worst findings)

(* Default tolerance: time 50% (warn past 25), floor 1 ms. *)
let test_diff_time_boundaries () =
  let old_t = T.make ~label:"a" [ point 50 ~wall:10.0 ] in
  let at wall = diff_exn old_t (T.make ~label:"b" [ point 50 ~wall ]) in
  let level wall = (find_metric (at wall) "n=50 wall_s").D.level in
  Alcotest.(check lvl) "+10% passes" D.Pass (level 11.0);
  Alcotest.(check lvl) "+40% warns" D.Warn (level 14.0);
  Alcotest.(check lvl) "+60% fails" D.Fail (level 16.0);
  Alcotest.(check lvl) "improvement passes" D.Pass (level 5.0);
  (* Sub-floor absolute deltas pass regardless of the percentage. *)
  let old_t = T.make ~label:"a" [ point 50 ~wall:1e-4 ] in
  let f =
    find_metric (diff_exn old_t (T.make ~label:"b" [ point 50 ~wall:8e-4 ]))
      "n=50 wall_s"
  in
  Alcotest.(check lvl) "+700% under the 1ms floor passes" D.Pass f.D.level

(* Counts are deterministic and drift both ways: 5% tolerance, floor 8. *)
let test_diff_count_boundaries () =
  let old_t = T.make ~label:"a" [ point 50 ~events:1000 ] in
  let level events =
    (find_metric (diff_exn old_t (T.make ~label:"b" [ point 50 ~events ]))
       "n=50 events")
      .D.level
  in
  Alcotest.(check lvl) "within floor passes" D.Pass (level 1006);
  Alcotest.(check lvl) "+4.5% warns" D.Warn (level 1045);
  Alcotest.(check lvl) "-10% fails (drift is symmetric)" D.Fail (level 900)

(* Throughput is lower-is-worse: 33% tolerance on decreases only. *)
let test_diff_throughput_boundaries () =
  let old_t = T.make ~label:"a" [ point 50 ~evps:100.0 ] in
  let level evps =
    (find_metric (diff_exn old_t (T.make ~label:"b" [ point 50 ~evps ]))
       "n=50 events_per_s")
      .D.level
  in
  Alcotest.(check lvl) "-20% warns" D.Warn (level 80.0);
  Alcotest.(check lvl) "-40% fails" D.Fail (level 60.0);
  Alcotest.(check lvl) "+20% passes" D.Pass (level 120.0)

let test_diff_structure () =
  (* A sweep point missing from the new trajectory is not comparable. *)
  let old_t = T.make ~label:"a" [ point 50; point 200 ] in
  let new_t = T.make ~label:"b" [ point 50 ] in
  (match D.compare old_t new_t with
  | Error e ->
      Alcotest.(check bool) "error names the point" true (contains e "n=200")
  | Ok _ -> Alcotest.fail "compared with a missing sweep point");
  (* A phase that vanished is a Fail finding, not an error. *)
  let new_t = T.make ~label:"b" [ point 50 ~phases:[]; point 200 ] in
  let findings = diff_exn old_t new_t in
  let f =
    List.find (fun f -> contains f.D.metric "te_solve") findings
  in
  Alcotest.(check lvl) "missing phase fails" D.Fail f.D.level;
  (* The generous CI tolerance still catches a 10x timing blowup. *)
  let slow =
    T.make ~label:"b" [ point 50 ~wall:100.0; point 200 ~wall:100.0 ]
  in
  Alcotest.(check lvl) "10x fails even at CI tolerance" D.Fail
    (D.worst (diff_exn ~tol:D.ci old_t slow))

(* Trajectories from different --domains are only comparable under an
   explicit opt-in: wall-clock changed because parallelism did. *)
let test_diff_cross_domains () =
  let old_t = T.make ~label:"a" ~domains:1 [ point 50 ] in
  let new_t = T.make ~label:"b" ~domains:4 [ point 50 ] in
  (match D.compare old_t new_t with
  | Error e ->
      Alcotest.(check bool) "error names domains" true (contains e "domains");
      Alcotest.(check bool) "error suggests the flag" true
        (contains e "--cross-domains")
  | Ok _ -> Alcotest.fail "compared across domains without opt-in");
  match D.compare ~cross_domains:true old_t new_t with
  | Ok findings ->
      Alcotest.(check lvl) "opt-in compares cleanly" D.Pass (D.worst findings)
  | Error e -> Alcotest.fail e

(* --- disarmed-is-free golden -------------------------------------------- *)

(* The acceptance pin: report and journal of an instrumented run are
   byte-identical whether the profiler is armed or not — profiling can
   never perturb results. *)
let test_profiler_off_on_golden () =
  let policy = Runner.Adaptive Runner.Efficient in
  with_temp_dir (fun dir ->
      let run ~journal_path =
        let jnl = Rwc_journal.create ~path:journal_path () in
        let config =
          {
            Runner.default_config with
            Runner.days = 0.5;
            seed = 11;
            journal = jnl;
          }
        in
        let r = Runner.run ~config policy in
        Rwc_journal.close jnl;
        r
      in
      let off_journal = Filename.concat dir "off.jsonl" in
      let on_journal = Filename.concat dir "on.jsonl" in
      P.disable ();
      P.reset ();
      let off = run ~journal_path:off_journal in
      P.enable ();
      let on = run ~journal_path:on_journal in
      P.disable ();
      Alcotest.(check bool) "armed run recorded phases" true
        (List.mem_assoc P.Te_solve (P.snapshot ()));
      P.reset ();
      Alcotest.(check string) "report byte-identical"
        (Format.asprintf "%a" Runner.pp_report off)
        (Format.asprintf "%a" Runner.pp_report on);
      Alcotest.(check bool) "report structurally identical" true (off = on);
      let slurp p = In_channel.with_open_bin p In_channel.input_all in
      Alcotest.(check string) "journal byte-identical" (slurp off_journal)
        (slurp on_journal))

(* --- progress ----------------------------------------------------------- *)

let test_progress_render () =
  Alcotest.(check string) "mid-run line"
    "x: day 1.0/4.0 ( 25%) | 100 events | 10 ev/s | ETA 00:30"
    (P.Progress.render ~label:"x" ~day:1.0 ~total_days:4.0 ~events:100
       ~elapsed_s:10.0);
  Alcotest.(check string) "start line has no ETA blowup"
    "x: day 0.0/4.0 (  0%) | 0 events | 0 ev/s | ETA 00:00"
    (P.Progress.render ~label:"x" ~day:0.0 ~total_days:4.0 ~events:0
       ~elapsed_s:0.0);
  (* Hours-scale ETA switches to h:mm:ss. *)
  let line =
    P.Progress.render ~label:"x" ~day:1.0 ~total_days:25.0 ~events:10
      ~elapsed_s:600.0
  in
  Alcotest.(check bool) "long ETA uses h:mm:ss" true
    (String.ends_with ~suffix:"ETA 4:00:00" line)

let suite =
  [
    Alcotest.test_case "profiler basics" `Quick test_profiler_basics;
    Alcotest.test_case "phase names round-trip" `Quick test_phase_names;
    Alcotest.test_case "trajectory round-trip" `Quick test_trajectory_roundtrip;
    Alcotest.test_case "schema rejection" `Quick test_schema_rejection;
    Alcotest.test_case "NaN/Inf handling" `Quick test_nonfinite_handling;
    Alcotest.test_case "rwc-bench/1 read compat" `Quick test_v1_compat;
    Alcotest.test_case "diff: cross-domains opt-in" `Quick
      test_diff_cross_domains;
    Alcotest.test_case "diff: identical passes" `Quick test_diff_identical;
    Alcotest.test_case "diff: time boundaries" `Quick test_diff_time_boundaries;
    Alcotest.test_case "diff: count boundaries" `Quick test_diff_count_boundaries;
    Alcotest.test_case "diff: throughput boundaries" `Quick
      test_diff_throughput_boundaries;
    Alcotest.test_case "diff: structure mismatches" `Quick test_diff_structure;
    Alcotest.test_case "profiler off/on golden" `Quick
      test_profiler_off_on_golden;
    Alcotest.test_case "progress render" `Quick test_progress_render;
  ]
