(* Tests for the deterministic multicore fleet engine: Rwc_par's
   ordered fork/join primitives (map_reduce ≡ List.map + fold for any
   pool width, including the non-commutative and skewed-workload
   cases), and the headline sequential-equivalence battery — a run at
   --domains 2/4/8 must produce reports, journals, manifest rows and
   checkpoints byte-identical to the --domains 1 run, across plain,
   fault-injected, guarded and journaled+SLO configurations, and
   through a crash+resume cycle. *)

module P = Rwc_par
module R = Rwc_recover
module Runner = Rwc_sim.Runner

let with_temp_dir f =
  let dir = Filename.temp_file "rwc_test_par" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let slurp p = In_channel.with_open_bin p In_channel.input_all

(* --- pool primitives ---------------------------------------------------- *)

let test_create_rejects_zero () =
  Alcotest.check_raises "domains=0 rejected"
    (Invalid_argument "Rwc_par.create: domains must be >= 1") (fun () ->
      ignore (P.create ~domains:0))

(* Non-commutative, non-associative fold (string concatenation with
   positional markers): any deviation from shard order shows up. *)
let prop_map_reduce_matches_sequential =
  QCheck.Test.make ~name:"par: map_reduce ≡ List.map + fold_left" ~count:40
    QCheck.(
      triple (int_range 0 40) (int_range 1 8) (int_range 0 1_000_000))
    (fun (shards, domains, salt) ->
      let map s = Printf.sprintf "[%d:%d]" s ((s * 73) + (salt mod 97)) in
      let expected =
        List.fold_left
          (fun acc b -> acc ^ b)
          "|"
          (List.map map (List.init shards Fun.id))
      in
      P.with_pool ~domains (fun pool ->
          P.map_reduce pool ~shards ~map ~init:"|"
            ~fold:(fun acc b -> acc ^ b)
          = expected))

let prop_parallel_init_matches_array_init =
  QCheck.Test.make ~name:"par: parallel_init ≡ Array.init" ~count:40
    QCheck.(
      triple (int_range 0 200) (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, domains, salt) ->
      let f i = (i * 31) + (salt mod 1009) in
      P.with_pool ~domains (fun pool ->
          P.parallel_init pool n f = Array.init n f))

let test_iter_ranges_covers_exactly_once () =
  List.iter
    (fun (n, domains) ->
      P.with_pool ~domains (fun pool ->
          let hits = Array.make (max n 1) 0 in
          P.iter_ranges pool ~n (fun ~lo ~hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          if n > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "n=%d domains=%d: each index once" n domains)
              true
              (Array.for_all (( = ) 1) (Array.sub hits 0 n))))
    [ (0, 4); (1, 4); (3, 8); (37, 4); (64, 1); (100, 3) ]

(* A skewed workload: early shards are much more expensive, so on a
   real pool late shards finish first — the reduction must still come
   out in shard order. *)
let test_skewed_workload_reduces_in_order () =
  let shards = 9 in
  let spin n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc + i) land 0xFFFF
    done;
    !acc
  in
  let map s =
    let burn = spin ((shards - s) * 40_000) in
    Printf.sprintf "(%d/%d)" s (burn land 1)
  in
  let expected =
    String.concat "" (List.map map (List.init shards Fun.id))
  in
  P.with_pool ~domains:4 (fun pool ->
      Alcotest.(check string) "skewed reduction ordered" expected
        (P.map_reduce pool ~shards ~map ~init:"" ~fold:( ^ )))

let test_worker_exception_propagates () =
  P.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "map exception re-raised" (Failure "boom")
        (fun () ->
          ignore
            (P.map_reduce pool ~shards:8
               ~map:(fun s -> if s = 3 then failwith "boom" else s)
               ~init:0 ~fold:( + ))))

(* --- sequential-equivalence goldens ------------------------------------- *)

let policy = Runner.Adaptive Runner.Efficient

let fault_plan s =
  match Rwc_fault.of_string s with Ok p -> p | Error e -> failwith e

let guard_plan s =
  match Rwc_guard.of_string s with Ok p -> p | Error e -> failwith e

(* One scenario = a config shape worth pinning: the parallel observe
   pass interacts differently with faults (shared injector RNG),
   guards (quarantine state) and an armed journal (per-duct anomaly
   detectors feed Anomaly events whose order must not move). *)
type scenario = {
  sc_name : string;
  sc_faults : Rwc_fault.plan;
  sc_guard : Rwc_guard.plan;
  sc_journaled : bool;  (** Armed journal with the default SLO plan. *)
}

let scenarios =
  [
    {
      sc_name = "plain";
      sc_faults = Rwc_fault.none;
      sc_guard = Rwc_guard.none;
      sc_journaled = false;
    };
    {
      sc_name = "faults";
      sc_faults = fault_plan "default";
      sc_guard = Rwc_guard.none;
      sc_journaled = false;
    };
    {
      sc_name = "guard";
      sc_faults = fault_plan "default";
      sc_guard = guard_plan "default";
      sc_journaled = false;
    };
    {
      sc_name = "journal-slo";
      sc_faults = fault_plan "default";
      sc_guard = Rwc_guard.none;
      sc_journaled = true;
    };
  ]

(* Run one scenario at a given pool width; returns the report, its two
   renderings (pp line and manifest-row JSON) and the journal bytes. *)
let run_scenario dir sc ~domains =
  let jpath =
    Filename.concat dir (Printf.sprintf "%s-d%d.jsonl" sc.sc_name domains)
  in
  let jnl =
    if sc.sc_journaled then
      Rwc_journal.create ~path:jpath ~slo:Rwc_journal.Slo.default ()
    else Rwc_journal.disarmed
  in
  let config =
    {
      Runner.default_config with
      Runner.days = 0.5;
      seed = 11;
      faults = sc.sc_faults;
      guard = sc.sc_guard;
      journal = jnl;
      domains;
    }
  in
  let r = Runner.run ~config policy in
  Rwc_journal.close jnl;
  ( r,
    Format.asprintf "%a" Runner.pp_report r,
    Rwc_obs.Json.to_string (Runner.json_of_report r),
    if sc.sc_journaled then Some (slurp jpath) else None )

let test_golden_byte_identity () =
  with_temp_dir (fun dir ->
      List.iter
        (fun sc ->
          let ref_r, ref_pp, ref_json, ref_jnl =
            run_scenario dir sc ~domains:1
          in
          List.iter
            (fun domains ->
              let tag fmt =
                Printf.sprintf "%s d%d: %s" sc.sc_name domains fmt
              in
              let r, pp, json, jnl = run_scenario dir sc ~domains in
              Alcotest.(check string) (tag "report rendering") ref_pp pp;
              Alcotest.(check string) (tag "manifest row JSON") ref_json json;
              Alcotest.(check bool) (tag "report structurally equal") true
                (r = ref_r);
              match (ref_jnl, jnl) with
              | Some a, Some b ->
                  Alcotest.(check string) (tag "journal bytes") a b
              | None, None -> ()
              | _ -> Alcotest.fail (tag "journal presence mismatch"))
            [ 2; 4; 8 ])
        scenarios)

(* Checkpoints written by a clean recoverable run must also be
   byte-identical across pool widths: the captured control-loop state
   is the commit-side state, which the parallel observe pass must not
   perturb. *)
let test_checkpoint_byte_identity () =
  with_temp_dir (fun dir ->
      let checkpoints ~domains =
        let ckdir = Filename.concat dir (Printf.sprintf "ck-d%d" domains) in
        let ctx, _ =
          match R.create ~dir:ckdir ~every:16 ~faults:Rwc_fault.none
                  ~resume:false ()
          with
          | Ok pair -> pair
          | Error e -> Alcotest.failf "create: %s" e
        in
        let config =
          { Runner.default_config with Runner.days = 0.5; seed = 11; domains }
        in
        (match
           Runner.run_recoverable ~config ~ctx ~resume_from:None
             ~policies:[ policy ] ()
         with
        | [ Runner.Ran _ ] -> ()
        | _ -> Alcotest.fail "expected one Ran outcome");
        List.map
          (fun (seq, bytes) -> (Printf.sprintf "checkpoint %d" seq, bytes))
          (R.records ckdir)
      in
      let ref_cks = checkpoints ~domains:1 in
      let par_cks = checkpoints ~domains:4 in
      Alcotest.(check (list string))
        "same checkpoint records"
        (List.map fst ref_cks) (List.map fst par_cks);
      List.iter2
        (fun (name, a) (_, b) ->
          Alcotest.(check string) (name ^ " bytes") a b)
        ref_cks par_cks)

(* Crash + restart under --domains 4: the recovery loop replays from
   checkpoints cut mid-run, and the result must still match the
   uninterrupted sequential twin, journal included. *)
let test_crash_resume_parallel_golden () =
  with_temp_dir (fun dir ->
      let faults =
        fault_plan (Printf.sprintf "crash=%g,seed=%d" 0.08 99)
      in
      let config ~domains journal =
        {
          Runner.default_config with
          Runner.days = 0.75;
          seed = 11;
          faults;
          journal;
          domains;
        }
      in
      let ref_journal = Filename.concat dir "ref.jsonl" in
      let reference =
        let jnl = Rwc_journal.create ~path:ref_journal () in
        let r = Runner.run ~config:(config ~domains:1 jnl) policy in
        Rwc_journal.close jnl;
        r
      in
      let crash_journal = Filename.concat dir "crash.jsonl" in
      let ckdir = Filename.concat dir "ck" in
      let ctx, _ =
        match
          R.create ~dir:ckdir ~every:16 ~journal_path:crash_journal ~faults
            ~resume:false ()
        with
        | Ok pair -> pair
        | Error e -> Alcotest.failf "create: %s" e
      in
      let jnl = Rwc_journal.create ~path:crash_journal () in
      let outcomes =
        Runner.run_recoverable ~config:(config ~domains:4 jnl) ~ctx
          ~resume_from:None ~policies:[ policy ] ()
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
      Alcotest.(check string) "journal byte-identical" (slurp ref_journal)
        (slurp crash_journal))

(* --- profiler parity ---------------------------------------------------- *)

(* An armed profiler must count exactly the same phase calls whether
   the run is sequential or fanned out (per-domain slabs merged at
   snapshot).  Wall-clock and allocation fields are measured
   quantities and excluded; counts are part of the determinism
   contract. *)
let test_profiler_counts_parity () =
  let counts domains =
    Rwc_perf.enable ();
    Rwc_perf.reset ();
    Fun.protect
      ~finally:(fun () ->
        Rwc_perf.disable ();
        Rwc_perf.reset ())
      (fun () ->
        let config =
          { Runner.default_config with Runner.days = 0.25; seed = 5; domains }
        in
        ignore (Runner.run ~config policy);
        List.map
          (fun (p, st) -> (Rwc_perf.phase_name p, st.Rwc_perf.count))
          (Rwc_perf.snapshot ()))
  in
  let seq = counts 1 in
  let par = counts 4 in
  Alcotest.(check (list (pair string int))) "phase counts identical" seq par

let suite =
  [
    Alcotest.test_case "create rejects width 0" `Quick test_create_rejects_zero;
    QCheck_alcotest.to_alcotest prop_map_reduce_matches_sequential;
    QCheck_alcotest.to_alcotest prop_parallel_init_matches_array_init;
    Alcotest.test_case "iter_ranges covers exactly once" `Quick
      test_iter_ranges_covers_exactly_once;
    Alcotest.test_case "skewed workload reduces in order" `Quick
      test_skewed_workload_reduces_in_order;
    Alcotest.test_case "worker exception propagates" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "golden byte-identity (plain/faults/guard/journal)"
      `Slow test_golden_byte_identity;
    Alcotest.test_case "checkpoint byte-identity" `Slow
      test_checkpoint_byte_identity;
    Alcotest.test_case "crash+resume parallel golden" `Slow
      test_crash_resume_parallel_golden;
    Alcotest.test_case "profiler counts: sequential ≡ parallel" `Slow
      test_profiler_counts_parity;
  ]
