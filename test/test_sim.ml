open Rwc_sim

(* --- event queue ------------------------------------------------------ *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:3.0 "c";
  Event_queue.add q ~time:1.0 "a";
  Event_queue.add q ~time:2.0 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check bool) "sorted" true
    (order = [ Some (1.0, "a"); Some (2.0, "b"); Some (3.0, "c") ]);
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1.0 "first";
  Event_queue.add q ~time:1.0 "second";
  Event_queue.add q ~time:1.0 "third";
  let labels =
    List.init 3 (fun _ ->
        match Event_queue.pop q with Some (_, l) -> l | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] labels

let test_queue_stress_sorted () =
  let rng = Rwc_stats.Rng.create 5 in
  let q = Event_queue.create () in
  for i = 1 to 1000 do
    Event_queue.add q ~time:(Rwc_stats.Rng.float rng) i
  done;
  Alcotest.(check int) "size" 1000 (Event_queue.size q);
  let last = ref neg_infinity in
  for _ = 1 to 1000 do
    match Event_queue.pop q with
    | Some (t, _) ->
        Alcotest.(check bool) "non-decreasing" true (t >= !last);
        last := t
    | None -> Alcotest.fail "premature drain"
  done

(* --- des --------------------------------------------------------------- *)

let test_des_runs_in_order () =
  let engine = Des.create () in
  let log = ref [] in
  Des.schedule engine ~at:5.0 (fun _ -> log := 5 :: !log);
  Des.schedule engine ~at:1.0 (fun _ -> log := 1 :: !log);
  Des.schedule engine ~at:3.0 (fun _ -> log := 3 :: !log);
  Des.run engine ~until:10.0;
  Alcotest.(check (list int)) "chronological" [ 1; 3; 5 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at horizon" 10.0 (Des.now engine)

let test_des_horizon () =
  let engine = Des.create () in
  let fired = ref false in
  Des.schedule engine ~at:20.0 (fun _ -> fired := true);
  Des.run engine ~until:10.0;
  Alcotest.(check bool) "beyond horizon pends" false !fired;
  Alcotest.(check int) "still pending" 1 (Des.pending engine)

let test_des_handlers_schedule () =
  let engine = Des.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    if Des.now e < 4.5 then Des.schedule_in e ~after:1.0 tick
  in
  Des.schedule engine ~at:0.0 tick;
  Des.run engine ~until:10.0;
  Alcotest.(check int) "self-scheduling chain" 6 !count

let test_des_rejects_past () =
  let engine = Des.create () in
  Des.schedule engine ~at:5.0 (fun e ->
      Alcotest.check_raises "no time travel"
        (Invalid_argument "Des.schedule: event in the past") (fun () ->
          Des.schedule e ~at:1.0 (fun _ -> ())));
  Des.run engine ~until:10.0

(* --- netstate ------------------------------------------------------------ *)

let backbone = Rwc_topology.Backbone.north_america

let test_netstate_initial () =
  let net = Netstate.make ~seed:3 backbone in
  Alcotest.(check int) "one state per duct"
    (Array.length backbone.Rwc_topology.Backbone.ducts)
    (Array.length net.Netstate.ducts);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "up" true d.Netstate.up;
      Alcotest.(check int) "100G default" 100 d.Netstate.per_lambda_gbps;
      Alcotest.(check (float 1e-9)) "4 lambdas x 100G" 400.0 (Netstate.capacity_gbps d))
    net.Netstate.ducts

let test_netstate_graph_shape () =
  let net = Netstate.make ~seed:3 backbone in
  let g = Netstate.graph net in
  Alcotest.(check int) "two directed edges per duct"
    (2 * Array.length backbone.Rwc_topology.Backbone.ducts)
    (Rwc_flow.Graph.n_edges g);
  Alcotest.(check int) "city vertices"
    (Rwc_topology.Backbone.n_cities backbone)
    (Rwc_flow.Graph.n_vertices g)

let test_netstate_down_zero_capacity () =
  let net = Netstate.make ~seed:3 backbone in
  let d = net.Netstate.ducts.(0) in
  d.Netstate.up <- false;
  Alcotest.(check (float 1e-9)) "down = 0" 0.0 (Netstate.capacity_gbps d);
  let g = Netstate.graph net in
  Alcotest.(check (float 1e-9)) "edge reflects down" 0.0
    (Rwc_flow.Graph.edge g 0).Rwc_flow.Graph.capacity

let test_netstate_headroom () =
  let net = Netstate.make ~seed:3 backbone in
  let d = net.Netstate.ducts.(0) in
  d.Netstate.current_snr_db <- 20.0;
  (* 200G feasible, configured at 100: headroom = 4 x 100. *)
  Alcotest.(check (float 1e-9)) "headroom" 400.0 (Netstate.headroom d);
  d.Netstate.current_snr_db <- 7.0;
  Alcotest.(check (float 1e-9)) "no headroom below 125 threshold" 0.0
    (Netstate.headroom d)

(* --- runner (integration) -------------------------------------------------- *)

let fast_config =
  (* Offered load deliberately exceeds the static-100G network (130%)
     so the throughput comparison exercises the capacity headroom: a
     fully-served network would show no gain by construction. *)
  {
    Runner.days = 5.0;
    te_interval_h = 12.0;
    seed = 11;
    wavelengths = 4;
    demand_fraction = 1.3;
    top_demands = 20;
    epsilon = 0.2;
    faults = Rwc_fault.none;
    retry = Orchestrator.default_retry_policy;
    guard = Rwc_guard.none;
    rollout = Rwc_rollout.none;
    journal = Rwc_journal.disarmed;
    progress = false;
    domains = 1;
    hooks = Runner.no_hooks;
  }

let reports = lazy (Runner.compare_policies ~config:fast_config ())

let find policy =
  List.find (fun r -> r.Runner.policy = policy) (Lazy.force reports)

let test_runner_static_100_baseline () =
  let r = find Runner.Static_100 in
  Alcotest.(check bool) "delivers something" true (r.Runner.delivered_pbit > 0.0);
  Alcotest.(check int) "no reconfigurations" 0 r.Runner.reconfigurations;
  Alcotest.(check bool) "availability high" true (r.Runner.duct_availability > 0.95)

let test_runner_adaptive_beats_static_throughput () =
  let s = find Runner.Static_100 in
  let a = find (Runner.Adaptive Runner.Efficient) in
  (* The paper's claim: 75-100% capacity gain from adapting to SNR. *)
  let gain = a.Runner.avg_throughput_gbps /. s.Runner.avg_throughput_gbps in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.2fx in [1.3, 2.3]" gain)
    true
    (gain > 1.3 && gain < 2.3)

let test_runner_adaptive_availability () =
  let m = find Runner.Static_max in
  let a = find (Runner.Adaptive Runner.Efficient) in
  Alcotest.(check bool) "adaptive >= static-max availability" true
    (a.Runner.duct_availability >= m.Runner.duct_availability -. 1e-9);
  Alcotest.(check bool) "adaptive has no more failures" true
    (a.Runner.failures <= m.Runner.failures)

let test_runner_efficient_less_downtime () =
  let stock = find (Runner.Adaptive Runner.Stock) in
  let eff = find (Runner.Adaptive Runner.Efficient) in
  Alcotest.(check bool) "orders of magnitude less downtime" true
    (eff.Runner.reconfig_downtime_s < stock.Runner.reconfig_downtime_s /. 100.0
    || stock.Runner.reconfigurations = 0)

let test_runner_offered_bounds_delivered () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "delivered <= offered" true
        (r.Runner.delivered_pbit <= r.Runner.offered_pbit +. 1e-6))
    (Lazy.force reports)

let test_runner_deterministic () =
  let a = Runner.run ~config:fast_config Runner.Static_100 in
  let b = Runner.run ~config:fast_config Runner.Static_100 in
  Alcotest.(check (float 1e-9)) "same delivered" a.Runner.delivered_pbit
    b.Runner.delivered_pbit;
  Alcotest.(check int) "same failures" a.Runner.failures b.Runner.failures

(* --- golden: faults-off output is byte-identical to pre-fault-layer ------- *)

(* These strings were captured from the build immediately BEFORE the
   fault-injection layer landed (config = default with days=2.0,
   seed=7), and their TE-dependent figures re-captured when the
   source-grouped TE kernel landed.  They pin the guarantee that
   `--faults none` consumes no injector randomness and emits no fault
   fields: any drift in either the pretty-printed report or its JSON
   is a regression, not a formatting nit. *)
let golden_pp =
  [
    "static-100G            delivered=  601.78 Pbit  avg-tput= 3482.5 Gbps  \
     avg-cap=17200.0 Gbps  avail=1.00000  fail=   0  flap=   0  reconf=   0  \
     downtime=     0.0s";
    "static-max             delivered= 1200.07 Pbit  avg-tput= 6944.9 Gbps  \
     avg-cap=34275.5 Gbps  avail=0.99927  fail=   3  flap=   0  reconf=   0  \
     downtime=     0.0s";
    "adaptive-stock-bvt     delivered= 1163.03 Pbit  avg-tput= 6730.5 Gbps  \
     avg-cap=33385.9 Gbps  avail=0.99835  fail=   0  flap=   3  reconf= 177  \
     downtime= 12270.6s";
    "adaptive-efficient-bvt delivered= 1169.39 Pbit  avg-tput= 6767.3 Gbps  \
     avg-cap=33385.9 Gbps  avail=1.00000  fail=   0  flap=   3  reconf= 177  \
     downtime=     6.3s";
  ]

let golden_json =
  [
    {|{"policy":"static-100G","delivered_pbit":601.783689054,"offered_pbit":2229.12,"avg_throughput_gbps":3482.54449684,"avg_capacity_gbps":17200.0,"duct_availability":1.0,"failures":0,"flaps":0,"reconfigurations":0,"reconfig_downtime_s":0.0}|};
    {|{"policy":"static-max","delivered_pbit":1200.07249088,"offered_pbit":2229.12,"avg_throughput_gbps":6944.86395183,"avg_capacity_gbps":34275.5208333,"duct_availability":0.999273255814,"failures":3,"flaps":0,"reconfigurations":0,"reconfig_downtime_s":0.0}|};
    {|{"policy":"adaptive-stock-bvt","delivered_pbit":1163.02609237,"offered_pbit":2229.12,"avg_throughput_gbps":6730.47507161,"avg_capacity_gbps":33385.9375,"duct_availability":0.998348592324,"failures":0,"flaps":3,"reconfigurations":177,"reconfig_downtime_s":12270.619598}|};
    {|{"policy":"adaptive-efficient-bvt","delivered_pbit":1169.39184252,"offered_pbit":2229.12,"avg_throughput_gbps":6767.3139035,"avg_capacity_gbps":33385.9375,"duct_availability":0.999999150011,"failures":0,"flaps":3,"reconfigurations":177,"reconfig_downtime_s":6.31576008719}|};
  ]

let golden_reports =
  lazy
    (Runner.compare_policies
       ~config:{ Runner.default_config with days = 2.0; seed = 7 }
       ())

let test_golden_pp_byte_identical () =
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "pp_report byte-identical" expected
        (Format.asprintf "%a" Runner.pp_report r))
    golden_pp (Lazy.force golden_reports)

let test_golden_json_byte_identical () =
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "json_of_report byte-identical" expected
        (Rwc_obs.Json.to_string (Runner.json_of_report r)))
    golden_json (Lazy.force golden_reports);
  List.iter
    (fun r ->
      Alcotest.(check bool) "no fault block without a plan" true
        (r.Runner.fault_stats = None);
      Alcotest.(check bool) "no guard block without a plan" true
        (r.Runner.guard_stats = None))
    (Lazy.force golden_reports)

(* The same byte-identity with the guard plan spelled out explicitly:
   `--guard none` (the layer linked but disarmed) must reproduce the
   pre-guard goldens exactly. *)
let test_golden_guard_none_byte_identical () =
  let plan =
    match Rwc_guard.of_string "none" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let reports =
    Runner.compare_policies
      ~config:{ Runner.default_config with days = 2.0; seed = 7; guard = plan }
      ()
  in
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "pp_report byte-identical" expected
        (Format.asprintf "%a" Runner.pp_report r))
    golden_pp reports;
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "json_of_report byte-identical" expected
        (Rwc_obs.Json.to_string (Runner.json_of_report r)))
    golden_json reports

(* The journal layer makes the same promise: a run without [--journal]
   (the disarmed sink threaded through the config) must reproduce the
   pre-journal goldens byte for byte — no extra randomness consumed, no
   new report fields, no formatting drift. *)
let test_golden_journal_off_byte_identical () =
  let reports =
    Runner.compare_policies
      ~config:
        {
          Runner.default_config with
          days = 2.0;
          seed = 7;
          journal = Rwc_journal.disarmed;
        }
      ()
  in
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "pp_report byte-identical" expected
        (Format.asprintf "%a" Runner.pp_report r))
    golden_pp reports;
  List.iter2
    (fun expected r ->
      Alcotest.(check string) "json_of_report byte-identical" expected
        (Rwc_obs.Json.to_string (Runner.json_of_report r)))
    golden_json reports;
  List.iter
    (fun r ->
      Alcotest.(check bool) "no slo block without a sink" true
        (r.Runner.slo = None))
    reports

(* --- determinism: observability and fault layer are invisible ------------- *)

let test_report_identical_with_obs_on () =
  (* Same seed, metrics + tracing on vs off: the instrumented run must
     produce the exact same report, or the observability layer is
     perturbing the simulation. *)
  let policy = Runner.Adaptive Runner.Efficient in
  let plain = Runner.run ~config:fast_config policy in
  let metrics_were = Rwc_obs.Metrics.enabled () in
  let trace_was = Rwc_obs.Trace.enabled () in
  Rwc_obs.Metrics.enable ();
  Rwc_obs.Trace.enable ();
  let instrumented =
    Fun.protect
      ~finally:(fun () ->
        if not metrics_were then Rwc_obs.Metrics.disable ();
        if not trace_was then Rwc_obs.Trace.disable ();
        Rwc_obs.Trace.reset ())
      (fun () -> Runner.run ~config:fast_config policy)
  in
  Alcotest.(check bool) "reports identical" true (plain = instrumented)

let test_report_identical_with_faults_none () =
  (* `--faults none` vs an explicitly empty plan with a different seed:
     neither arms the injector, so neither may consume any randomness. *)
  let policy = Runner.Adaptive Runner.Stock in
  let a = Runner.run ~config:fast_config policy in
  let b =
    Runner.run
      ~config:
        { fast_config with faults = { Rwc_fault.seed = 12345; rules = [] } }
      policy
  in
  Alcotest.(check bool) "reports identical" true (a = b)

let test_report_identical_with_guard_none () =
  (* The disarmed guard must not perturb the simulation even when the
     fault plan is armed: the collector channels are only queried for
     an armed guard, so the RNG substreams line up exactly. *)
  let policy = Runner.Adaptive Runner.Stock in
  let faulty = { fast_config with faults = Rwc_fault.default } in
  let a = Runner.run ~config:faulty policy in
  let b =
    Runner.run ~config:{ faulty with guard = Rwc_guard.none } policy
  in
  Alcotest.(check bool) "reports identical under faults" true (a = b)

(* --- guard: the safety layer pays for itself under chaos ------------------- *)

let test_guarded_chaos_no_worse () =
  (* The acceptance configuration of the chaos sweep itself: default
     runner config, 7 days, the default fault plan at twice its rates.
     For both BVT procedures the guarded run must not deliver less
     than the unguarded one — the safety layer is allowed to be
     invisible, never a net cost, at paper-like SNR volatility. *)
  let config =
    {
      Runner.default_config with
      days = 7.0;
      faults = Rwc_fault.scaled Rwc_fault.default ~factor:2.0;
    }
  in
  List.iter
    (fun procedure ->
      let policy = Runner.Adaptive procedure in
      let unguarded = Runner.run ~config policy in
      let guarded =
        Runner.run ~config:{ config with guard = Rwc_guard.default } policy
      in
      (match guarded.Runner.guard_stats with
      | None -> Alcotest.fail "armed guard must produce guard stats"
      | Some _ -> ());
      Alcotest.(check bool) "unguarded run has no guard block" true
        (unguarded.Runner.guard_stats = None);
      Alcotest.(check bool)
        (Printf.sprintf "%s: guarded %.2f >= unguarded %.2f Pbit"
           (Runner.policy_name policy) guarded.Runner.delivered_pbit
           unguarded.Runner.delivered_pbit)
        true
        (guarded.Runner.delivered_pbit >= unguarded.Runner.delivered_pbit);
      Alcotest.(check bool) "guard does not hurt availability" true
        (guarded.Runner.duct_availability
        >= unguarded.Runner.duct_availability -. 0.001))
    [ Runner.Stock; Runner.Efficient ]

(* --- chaos: fault counters are consistent end to end ---------------------- *)

let chaos_plan =
  {
    Rwc_fault.seed = 3;
    rules =
      [
        { Rwc_fault.component = Rwc_fault.Bvt_reconfig;
          prob = 0.6; param = 0.0; window = None };
        { Rwc_fault.component = Rwc_fault.Bvt_timeout;
          prob = 0.05; param = 120.0; window = None };
        { Rwc_fault.component = Rwc_fault.Adapt_stuck;
          prob = 0.05; param = 0.0; window = None };
        { Rwc_fault.component = Rwc_fault.Te_delay;
          prob = 0.2; param = 1800.0; window = None };
      ];
  }

let test_chaos_run_consistent () =
  let metrics_were = Rwc_obs.Metrics.enabled () in
  Rwc_obs.Metrics.enable ();
  let m_injected = Rwc_obs.Metrics.counter "fault/injected_total" in
  let m_retries = Rwc_obs.Metrics.counter "orchestrator/retries" in
  let m_fallbacks = Rwc_obs.Metrics.counter "orchestrator/fallbacks" in
  let m_flaps = Rwc_obs.Metrics.counter "sim/flaps" in
  let base_injected = Rwc_obs.Metrics.value m_injected in
  let base_retries = Rwc_obs.Metrics.value m_retries in
  let base_fallbacks = Rwc_obs.Metrics.value m_fallbacks in
  let base_flaps = Rwc_obs.Metrics.value m_flaps in
  let baseline = Runner.run ~config:fast_config (Runner.Adaptive Runner.Efficient) in
  let r =
    Fun.protect
      ~finally:(fun () ->
        if not metrics_were then Rwc_obs.Metrics.disable ())
      (fun () ->
        Runner.run
          ~config:{ fast_config with faults = chaos_plan }
          (Runner.Adaptive Runner.Efficient))
  in
  match r.Runner.fault_stats with
  | None -> Alcotest.fail "armed plan must produce fault stats"
  | Some fs ->
      (* The run completed (no wedge) and actually exercised the fault
         paths at this rate. *)
      Alcotest.(check bool) "faults injected" true (fs.Runner.injected > 0);
      Alcotest.(check bool) "bvt failures" true (fs.Runner.bvt_failures > 0);
      Alcotest.(check bool) "retries happened" true (fs.Runner.retries > 0);
      Alcotest.(check bool) "fallbacks happened" true (fs.Runner.fallbacks > 0);
      (* Report counters and the metric registry tell the same story:
         one source of truth, surfaced twice. *)
      Alcotest.(check int) "injected metric = report"
        fs.Runner.injected
        (Rwc_obs.Metrics.value m_injected - base_injected);
      Alcotest.(check int) "retry metric = report" fs.Runner.retries
        (Rwc_obs.Metrics.value m_retries - base_retries);
      Alcotest.(check int) "fallback metric = report" fs.Runner.fallbacks
        (Rwc_obs.Metrics.value m_fallbacks - base_fallbacks);
      (* Internal consistency: every retry and fallback traces back to
         a BVT failure, and an exhausted link is counted as a flap
         (graceful degradation), never as a duct failure. *)
      Alcotest.(check int) "failures = retries + fallbacks"
        fs.Runner.bvt_failures
        (fs.Runner.retries + fs.Runner.fallbacks);
      Alcotest.(check bool) "fallbacks show up as flaps" true
        (Rwc_obs.Metrics.value m_flaps - base_flaps - baseline.Runner.flaps
         >= fs.Runner.fallbacks);
      Alcotest.(check bool) "degraded links still end somewhere valid" true
        (r.Runner.delivered_pbit > 0.0
        && r.Runner.delivered_pbit <= r.Runner.offered_pbit +. 1e-6)

(* --- orchestrator: quiescence replaces the fixed-horizon heuristic -------- *)

let test_orchestrator_outlives_old_horizon () =
  (* Adversarial seed: with a 0.999 BVT failure rate and heavy backoff
     the retry chains run far past the old `n * (drain + 50 * (mean +
     1)) + 1` heuristic horizon that execute() used before it ran the
     DES to quiescence.  Under the old code this log would have been
     silently truncated mid-plan. *)
  let faults =
    Rwc_fault.compile
      {
        Rwc_fault.seed = 5;
        rules =
          [
            { Rwc_fault.component = Rwc_fault.Bvt_reconfig;
              prob = 0.999; param = 0.0; window = None };
          ];
      }
  in
  let upgrades =
    [
      { Rwc_core.Translate.phys_edge = 0; extra_gbps = 100.0; penalty_paid = 0.0 };
      { Rwc_core.Translate.phys_edge = 3; extra_gbps = 50.0; penalty_paid = 0.0 };
    ]
  in
  let downtime_mean_s = 68.0 and drain_s = 30.0 in
  let retry =
    { Orchestrator.max_attempts = 6; base_s = 600.0; factor = 2.0; cap_s = 3600.0 }
  in
  let o =
    Orchestrator.execute
      ~rng:(Rwc_stats.Rng.create 9)
      ~upgrades
      ~residual_flow:(fun _ -> 1.0)
      ~downtime_mean_s ~drain_s ~faults ~retry ()
  in
  let old_horizon =
    (float_of_int (List.length upgrades)
    *. (drain_s +. (50.0 *. (downtime_mean_s +. 1.0))))
    +. 1.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "duration %.0fs outlives old horizon %.0fs"
       o.Orchestrator.total_duration_s old_horizon)
    true
    (o.Orchestrator.total_duration_s > old_horizon);
  (* Nothing was truncated: every link completed its sequence. *)
  let restored =
    List.filter (fun e -> e.Orchestrator.phase = Orchestrator.Restored)
      o.Orchestrator.log
  in
  Alcotest.(check int) "every link restored" (List.length upgrades)
    (List.length restored);
  Alcotest.(check bool) "fallbacks happened" true (o.Orchestrator.fallbacks > 0);
  Alcotest.(check bool) "retries happened" true (o.Orchestrator.retries > 0);
  (* A fallback restores immediately: the BVT never committed, so the
     pre-upgrade modulation is already live. *)
  let rec check_fallback_pairs = function
    | a :: (b :: _ as rest) ->
        if a.Orchestrator.phase = Orchestrator.Fallback_started then begin
          Alcotest.(check bool) "fallback then restore" true
            (b.Orchestrator.phase = Orchestrator.Restored
            && b.Orchestrator.phys_edge = a.Orchestrator.phys_edge);
          Alcotest.(check (float 1e-9)) "restore is immediate"
            a.Orchestrator.time_s b.Orchestrator.time_s
        end;
        check_fallback_pairs rest
    | _ -> ()
  in
  check_fallback_pairs o.Orchestrator.log;
  (* Attempts are bounded even under a near-certain failure rate. *)
  Alcotest.(check bool) "attempts bounded" true
    (o.Orchestrator.reconfigurations
    <= retry.Orchestrator.max_attempts * List.length upgrades)

let suite =
  [
    Alcotest.test_case "queue ordering" `Quick test_queue_ordering;
    Alcotest.test_case "queue fifo ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue stress" `Quick test_queue_stress_sorted;
    Alcotest.test_case "des chronological" `Quick test_des_runs_in_order;
    Alcotest.test_case "des horizon" `Quick test_des_horizon;
    Alcotest.test_case "des self-scheduling" `Quick test_des_handlers_schedule;
    Alcotest.test_case "des rejects past" `Quick test_des_rejects_past;
    Alcotest.test_case "netstate initial" `Quick test_netstate_initial;
    Alcotest.test_case "netstate graph shape" `Quick test_netstate_graph_shape;
    Alcotest.test_case "netstate down capacity" `Quick test_netstate_down_zero_capacity;
    Alcotest.test_case "netstate headroom" `Quick test_netstate_headroom;
    Alcotest.test_case "runner static-100" `Slow test_runner_static_100_baseline;
    Alcotest.test_case "runner adaptive throughput gain" `Slow
      test_runner_adaptive_beats_static_throughput;
    Alcotest.test_case "runner adaptive availability" `Slow test_runner_adaptive_availability;
    Alcotest.test_case "runner efficient downtime" `Slow test_runner_efficient_less_downtime;
    Alcotest.test_case "runner offered bounds" `Slow test_runner_offered_bounds_delivered;
    Alcotest.test_case "runner deterministic" `Slow test_runner_deterministic;
    Alcotest.test_case "golden pp faults-off" `Slow test_golden_pp_byte_identical;
    Alcotest.test_case "golden json faults-off" `Slow test_golden_json_byte_identical;
    Alcotest.test_case "golden guard-none" `Slow
      test_golden_guard_none_byte_identical;
    Alcotest.test_case "golden journal-off" `Slow
      test_golden_journal_off_byte_identical;
    Alcotest.test_case "report identical with obs on" `Slow
      test_report_identical_with_obs_on;
    Alcotest.test_case "report identical with faults none" `Slow
      test_report_identical_with_faults_none;
    Alcotest.test_case "report identical with guard none" `Slow
      test_report_identical_with_guard_none;
    Alcotest.test_case "guarded chaos no worse" `Slow
      test_guarded_chaos_no_worse;
    Alcotest.test_case "chaos counters consistent" `Slow test_chaos_run_consistent;
    Alcotest.test_case "orchestrator outlives old horizon" `Quick
      test_orchestrator_outlives_old_horizon;
  ]
