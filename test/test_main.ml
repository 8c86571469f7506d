let () =
  Alcotest.run "rwc"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("streaming", Test_streaming.suite);
      ("flow", Test_flow.suite);
      ("optical", Test_optical.suite);
      ("telemetry", Test_telemetry.suite);
      ("detect", Test_detect.suite);
      ("topology", Test_topology.suite);
      ("parser", Test_parser.suite);
      ("core", Test_core.suite);
      ("fault", Test_fault.suite);
      ("guard", Test_guard.suite);
      ("sim", Test_sim.suite);
      ("properties", Test_properties.suite);
      ("infra", Test_infra.suite);
      ("obs", Test_obs.suite);
      ("perf", Test_perf.suite);
      ("journal", Test_journal.suite);
      ("recover", Test_recover.suite);
      ("storm", Test_storm.suite);
      ("serve", Test_serve.suite);
      ("serve-read", Test_serve_read.suite);
      ("figures", Test_figures.suite);
      ("par", Test_par.suite);
      ("rollout", Test_rollout.suite);
      ("te-memo", Test_te_memo.suite);
    ]
