(* The full benchmark harness: regenerates every table and figure of
   the paper's evaluation (printed as paper-vs-measured sections) and
   then times the core algorithms with Bechamel.

   Usage:
     dune exec bench/main.exe              # scaled fleet (400 links), all sections
     dune exec bench/main.exe -- --full    # paper-scale fleet (2000 links)
     dune exec bench/main.exe -- --no-micro   # skip the Bechamel section
     dune exec bench/main.exe -- --figures-only  # alias of --no-micro
     dune exec bench/main.exe -- --obs-only   # only the Rwc_obs overhead check
                                              # (exits 1 when a ns budget is blown)
     dune exec bench/main.exe -- --perf       # only the quick Rwc_perf fleet sweep
                                              # (prints a BENCH trajectory) *)

module Fleet = Rwc_telemetry.Fleet
module Figs = Rwc_figures

let flag name = Array.exists (fun a -> a = name) Sys.argv

let () =
  if flag "--obs-only" then begin
    (* Just the instrumentation-overhead numbers; skips the (slow)
       figure regeneration entirely.  Non-zero exit on a blown ns
       budget is what lets ci.sh gate on this. *)
    Rwc_figures.Report.section "obs" "Observability overhead";
    exit (if Obs_bench.run () then 0 else 1)
  end;
  if flag "--perf" then begin
    (* The quick phase-profiler sweep, same workload as `rwc bench
       --quick` (the rwc subcommand adds presets and file output). *)
    Rwc_figures.Report.section "perf" "Phase-profiler fleet sweep (quick)";
    let t = Rwc_sim.Perf_sweep.run Rwc_sim.Perf_sweep.quick in
    Format.printf "%a" Rwc_perf.Trajectory.pp t;
    exit 0
  end;
  let full = flag "--full" in
  let micro = not (flag "--no-micro" || flag "--figures-only") in
  let fleet = Figs.Paper_figs.fleet ~full in
  Printf.printf
    "Run, Walk, Crawl — reproduction harness (%d links, %.1f years%s)\n"
    (Fleet.n_links fleet) fleet.Fleet.years
    (if full then "" else "; pass --full for the paper's 2000 links");

  (* ---- Figures 1-8, Theorem 1 and the end-to-end simulation ---- *)
  let sim_days = Figs.Paper_figs.default_sim_days ~full in
  ignore (Figs.Paper_figs.run ~fleet ~sim_days () : Figs.Sim_figs.headlines option);

  (* ---- ablations of the design choices ---- *)
  if not (flag "--no-ablation") then Ablation.run ();

  (* ---- extension experiments beyond the paper ---- *)
  if not (flag "--no-extension") then Extension.run ();

  if micro then begin
    Rwc_figures.Report.section "micro" "Bechamel micro-benchmarks";
    Micro.run ();
    Rwc_figures.Report.section "obs" "Observability overhead";
    ignore (Obs_bench.run () : bool)
  end;
  Printf.printf "\ndone.\n"
