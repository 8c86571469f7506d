(* Integration tests of the figure-reproduction drivers: run each with
   stdout parked on /dev/null and assert the returned headlines sit in
   the calibration bands.  This is the same code path `rwc figures`
   executes. *)

let quiet f =
  (* Park stdout on /dev/null for the duration of [f]. *)
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let tiny_fleet =
  { Rwc_telemetry.Fleet.seed = 2017; n_cables = 6; lambdas_per_cable = 40; years = 0.4 }

let report = lazy (quiet (fun () -> Rwc_telemetry.Analyze.fleet_report tiny_fleet))

let test_fig2_headlines () =
  let h =
    quiet (fun () -> Rwc_figures.Measurement_figs.fig2 (Lazy.force report))
  in
  Alcotest.(check bool) "hdr share in band" true
    (h.Rwc_figures.Measurement_figs.share_hdr_below_2db > 0.7
    && h.Rwc_figures.Measurement_figs.share_hdr_below_2db < 0.95);
  Alcotest.(check bool) "gain at fleet scale plausible" true
    (h.Rwc_figures.Measurement_figs.total_gain_tbps_fleet_scale > 100.0
    && h.Rwc_figures.Measurement_figs.total_gain_tbps_fleet_scale < 200.0)

let test_fig4_headlines () =
  let h =
    quiet (fun () ->
        Rwc_figures.Measurement_figs.fig4 (Lazy.force report) ~seed:41)
  in
  Alcotest.(check bool) "opportunity > 0.9" true
    (h.Rwc_figures.Measurement_figs.opportunity_fraction > 0.9);
  Alcotest.(check bool) "fiber cuts a small share" true
    (h.Rwc_figures.Measurement_figs.fiber_cut_freq_percent < 10.0);
  Alcotest.(check bool) "salvageable near a quarter" true
    (h.Rwc_figures.Measurement_figs.salvageable_fraction > 0.15
    && h.Rwc_figures.Measurement_figs.salvageable_fraction < 0.45)

let test_fig6_headlines () =
  let h = quiet (fun () -> Rwc_figures.Testbed_figs.fig6 ~seed:43) in
  Alcotest.(check bool) "stock ~68s" true
    (h.Rwc_figures.Testbed_figs.stock_mean_s > 55.0
    && h.Rwc_figures.Testbed_figs.stock_mean_s < 80.0);
  Alcotest.(check bool) "efficient ~35ms" true
    (h.Rwc_figures.Testbed_figs.efficient_mean_s > 0.025
    && h.Rwc_figures.Testbed_figs.efficient_mean_s < 0.045)

let test_fig1_3_5_7_8_run () =
  (* Smoke: the remaining drivers, ablations and extensions complete
     without raising. *)
  quiet (fun () ->
      Rwc_figures.Measurement_figs.fig1 tiny_fleet;
      Rwc_figures.Measurement_figs.fig3 tiny_fleet;
      Rwc_figures.Testbed_figs.fig5 ~seed:42;
      Rwc_figures.Abstraction_figs.fig7 ();
      Rwc_figures.Abstraction_figs.fig8 ();
      Rwc_figures.Abstraction_figs.theorem1 ~seed:44;
      ignore
        (Rwc_figures.Paper_figs.run
           ~only:
             [
               "ablation-A1"; "ablation-A2"; "ablation-A3"; "ablation-A4";
               "ablation-A5"; "ext-E1"; "ext-E2";
             ]
           ~fleet:tiny_fleet ~sim_days:4.0 ()
          : Rwc_figures.Sim_figs.headlines option))

let test_sim_headlines () =
  let h =
    quiet (fun () ->
        Rwc_figures.Sim_figs.run
          ~config:
            {
              Rwc_sim.Runner.default_config with
              Rwc_sim.Runner.days = 4.0;
              te_interval_h = 12.0;
              top_demands = 16;
              epsilon = 0.25;
            }
          ())
  in
  Alcotest.(check bool) "gain positive" true
    (h.Rwc_figures.Sim_figs.throughput_gain > 1.0);
  Alcotest.(check bool) "adaptive fewer failures than static-max" true
    (h.Rwc_figures.Sim_figs.adaptive_failures
    <= h.Rwc_figures.Sim_figs.static_max_failures)

let test_csv_sink () =
  let dir = Filename.temp_file "rwc_csv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Rwc_figures.Report.set_csv_dir (Some dir);
  quiet (fun () -> ignore (Rwc_figures.Testbed_figs.fig6 ~seed:43));
  Rwc_figures.Report.set_csv_dir None;
  let files = Sys.readdir dir in
  Alcotest.(check bool) "csv files written" true (Array.length files >= 2);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "fig2 headlines" `Slow test_fig2_headlines;
    Alcotest.test_case "fig4 headlines" `Slow test_fig4_headlines;
    Alcotest.test_case "fig6 headlines" `Quick test_fig6_headlines;
    Alcotest.test_case "other figures run" `Slow test_fig1_3_5_7_8_run;
    Alcotest.test_case "sim headlines" `Slow test_sim_headlines;
    Alcotest.test_case "csv sink" `Quick test_csv_sink;
  ]
