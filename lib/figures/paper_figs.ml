let extras =
  [
    ("ablation-A1", Ablation_figs.hysteresis);
    ("ablation-A2", Ablation_figs.penalties);
    ("ablation-A3", Ablation_figs.epsilon);
    ("ablation-A4", Ablation_figs.te_algorithms);
    ("ablation-A5", Ablation_figs.granularity);
    ("ext-E1", Extension_figs.detection);
    ("ext-E2", Extension_figs.europe);
  ]

let ids =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "thm1"; "sim" ]
  @ List.map fst extras

let fleet ~full =
  let open Rwc_telemetry.Fleet in
  if full then default else scaled default ~factor:5

let default_sim_days ~full =
  if full then Rwc_sim.Runner.default_config.Rwc_sim.Runner.days else 21.0

let run ?(only = []) ~fleet ~sim_days () =
  let wants id = only = [] || List.mem id only in
  let report = lazy (Rwc_telemetry.Analyze.fleet_report fleet) in
  if wants "fig1" then Measurement_figs.fig1 fleet;
  if wants "fig2" then ignore (Measurement_figs.fig2 (Lazy.force report));
  if wants "fig3" then Measurement_figs.fig3 fleet;
  if wants "fig4" then ignore (Measurement_figs.fig4 (Lazy.force report) ~seed:41);
  if wants "fig5" then Testbed_figs.fig5 ~seed:42;
  if wants "fig6" then ignore (Testbed_figs.fig6 ~seed:43);
  if wants "fig7" then Abstraction_figs.fig7 ();
  if wants "fig8" then Abstraction_figs.fig8 ();
  if wants "thm1" then Abstraction_figs.theorem1 ~seed:44;
  let sim =
    if wants "sim" then
      Some
        (Sim_figs.run
           ~config:{ Rwc_sim.Runner.default_config with Rwc_sim.Runner.days = sim_days }
           ())
    else None
  in
  List.iter (fun (id, f) -> if wants id then f ()) extras;
  sim
