let () =
  Alcotest.run "rwc"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("streaming", Test_streaming.suite);
      ("flow", Test_flow.suite);
      ("disjoint", Test_disjoint.suite);
      ("optical", Test_optical.suite);
      ("qfactor", Test_qfactor.suite);
      ("telemetry", Test_telemetry.suite);
      ("detect", Test_detect.suite);
      ("rollup", Test_rollup.suite);
      ("topology", Test_topology.suite);
      ("parser", Test_parser.suite);
      ("core", Test_core.suite);
      ("fault", Test_fault.suite);
      ("guard", Test_guard.suite);
      ("sim", Test_sim.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("protect", Test_protect.suite);
      ("swan", Test_swan.suite);
      ("fibbing", Test_fibbing.suite);
      ("fairness", Test_fairness.suite);
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
