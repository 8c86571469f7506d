(* rwc: command-line front end of the Run/Walk/Crawl reproduction.

   Subcommands:
     figures        reproduce the paper's figures (all or --only ID)
     analyze        fleet-wide SNR telemetry analysis (Section 2)
     simulate       WAN policy simulation (throughput + availability)
     chaos          fault-rate sweep: throughput degradation per policy
     bvt            modulation-change latency experiment (Section 3.1)
     constellation  render one constellation panel (Figure 5)
     torture        crash-point torture across every storage boundary
     fsck           detect and repair damaged journals / checkpoint dirs *)

open Cmdliner
module Obs = Rwc_obs

let fleet_of ~cables ~years ~seed =
  {
    Rwc_telemetry.Fleet.seed;
    n_cables = cables;
    lambdas_per_cable = 40;
    years;
  }

(* ---- observability ----------------------------------------------------- *)

(* Every subcommand composes [obs_term] in front of its own arguments:
   --metrics[=PATH] and --trace PATH enable the process-global
   registry/tracer up front and register an at_exit finalizer that
   writes the requested artifacts and prints the stderr summaries once
   the command is done. *)

let metrics_dest = ref None
let trace_dest = ref None

let obs_finalize () =
  (match !trace_dest with
  | Some path ->
      Obs.Trace.write path;
      prerr_string (Obs.Trace.flame_summary ())
  | None -> ());
  match !metrics_dest with
  | Some path ->
      if path <> "-" then Obs.Metrics.write_json path;
      Format.eprintf "%a@." Obs.Metrics.pp_summary ()
  | None -> ()

(* Fail before the (possibly long) run, not in the at_exit hook after
   it: check we can actually create the artifact now. *)
let check_writable flag path =
  match open_out path with
  | oc -> close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "rwc: %s: %s\n" flag msg;
      exit 2

let obs_setup metrics trace =
  metrics_dest := metrics;
  trace_dest := trace;
  (match metrics with
  | Some path when path <> "-" -> check_writable "--metrics" path
  | _ -> ());
  Option.iter (check_writable "--trace") trace;
  if metrics <> None then Obs.Metrics.enable ();
  if trace <> None then Obs.Trace.enable ();
  if metrics <> None || trace <> None then at_exit obs_finalize

let metrics_flag =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Enable the metric registry; print a summary table to stderr when \
           the command finishes.  With an explicit $(docv) (other than -), \
           also write the full snapshot there as JSON.")

let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Enable span tracing; write Chrome trace_event JSON to $(docv) \
           (open in chrome://tracing or Perfetto) and print a flame summary \
           to stderr.")

let obs_term = Term.(const obs_setup $ metrics_flag $ trace_flag)

(* --domains: width of the Rwc_par pool the control loop fans its
   shard-local phases over.  Validated here, once, for every command
   that takes it: a non-positive width is an error, and a width beyond
   the machine's recommended domain count is capped (spawning more
   domains than cores only adds scheduling noise, never speed). *)
let clamp_domains cmd domains =
  if domains < 1 then begin
    Printf.eprintf "%s: --domains must be >= 1\n" cmd;
    exit 2
  end;
  let cap = Domain.recommended_domain_count () in
  if domains > cap then begin
    Printf.eprintf
      "%s: note: --domains %d exceeds this machine's recommended domain \
       count; capping at %d\n"
      cmd domains cap;
    cap
  end
  else domains

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan the shard-local control-loop phases (per-duct telemetry \
           generation, the per-sweep observe pass) over $(docv) domains.  \
           Reports, journals, manifests and checkpoints are byte-identical \
           for any value: every shard draws from its own RNG substream and \
           decisions always commit through the sequential TE/DES/journal \
           path in duct-index order.  Values beyond the machine's \
           recommended domain count are capped with a note.  Default 1: \
           the plain sequential loop, no domains spawned.")

let manifest_metrics () =
  if Obs.Metrics.enabled () then Obs.Metrics.to_json () else Obs.Json.Null

(* mkdir -p: create every missing component of [dir]. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* A fresh empty scratch directory (used for the chaos crash sweep's
   throwaway checkpoints). *)
let fresh_temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let rec rm_rf_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf_dir p
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let ensure_dir what dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then begin
      Printf.eprintf "%s %s: exists but is not a directory\n" what dir;
      exit 2
    end
  end
  else
    try mkdir_p dir
    with Sys_error e ->
      Printf.eprintf "%s %s: cannot create: %s\n" what dir e;
      exit 2

(* ---- figures --------------------------------------------------------- *)

let known_figures =
  [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "thm1"; "sim" ]

let run_figures () full only sim_days csv_dir =
  (* The csv directory is validated (and, when missing, created)
     before any expensive fleet work, so a typo cannot burn minutes of
     fleet analysis and then fail at the first write. *)
  (match csv_dir with Some dir -> ensure_dir "--csv" dir | None -> ());
  Rwc_figures.Report.set_csv_dir csv_dir;
  let fleet =
    if full then Rwc_telemetry.Fleet.default
    else Rwc_telemetry.Fleet.(scaled default ~factor:5)
  in
  let wants id = match only with [] -> true | ids -> List.mem id ids in
  let unknown = List.filter (fun id -> not (List.mem id known_figures)) only in
  if unknown <> [] then begin
    Printf.eprintf "unknown figure id(s): %s (known: %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " known_figures);
    exit 2
  end;
  if sim_days <> None && not (wants "sim") then
    Printf.eprintf
      "warning: --sim-days has no effect without the sim figure (add --only \
       sim or drop --only)\n";
  (* --full selects the paper-scale fleet AND the paper's 60-day
     simulation horizon unless --sim-days overrides it. *)
  let sim_days =
    match sim_days with
    | Some d -> d
    | None -> if full then Rwc_sim.Runner.default_config.Rwc_sim.Runner.days else 21.0
  in
  let needs_report = wants "fig2" || wants "fig4" in
  let report =
    if needs_report then Some (Rwc_telemetry.Analyze.fleet_report fleet)
    else None
  in
  if wants "fig1" then Rwc_figures.Measurement_figs.fig1 fleet;
  (match report with
  | Some r when wants "fig2" ->
      ignore (Rwc_figures.Measurement_figs.fig2 r)
  | _ -> ());
  if wants "fig3" then Rwc_figures.Measurement_figs.fig3 fleet;
  (match report with
  | Some r when wants "fig4" ->
      ignore (Rwc_figures.Measurement_figs.fig4 r ~seed:41)
  | _ -> ());
  if wants "fig5" then Rwc_figures.Testbed_figs.fig5 ~seed:42;
  if wants "fig6" then ignore (Rwc_figures.Testbed_figs.fig6 ~seed:43);
  if wants "fig7" then Rwc_figures.Abstraction_figs.fig7 ();
  if wants "fig8" then Rwc_figures.Abstraction_figs.fig8 ();
  if wants "thm1" then Rwc_figures.Abstraction_figs.theorem1 ~seed:44;
  let sim_headlines =
    if wants "sim" then
      Some
        (Rwc_figures.Sim_figs.run
           ~config:
             {
               Rwc_sim.Runner.default_config with
               Rwc_sim.Runner.days = sim_days;
             }
           ())
    else None
  in
  match csv_dir with
  | None -> ()
  | Some dir ->
      let open Obs.Json in
      let reports =
        match sim_headlines with
        | None -> []
        | Some h ->
            [
              ( "sim_headlines",
                Assoc
                  [
                    ( "throughput_gain",
                      Float h.Rwc_figures.Sim_figs.throughput_gain );
                    ( "static_max_failures",
                      Int h.Rwc_figures.Sim_figs.static_max_failures );
                    ( "adaptive_failures",
                      Int h.Rwc_figures.Sim_figs.adaptive_failures );
                    ("adaptive_flaps", Int h.Rwc_figures.Sim_figs.adaptive_flaps);
                  ] );
            ]
      in
      let manifest =
        Obs.Manifest.make ~command:"figures"
          ~seed:fleet.Rwc_telemetry.Fleet.seed
          ~config:
            [
              ("full", Bool full);
              ("only", List (List.map (fun id -> String id) only));
              ("sim_days", Float sim_days);
              ("n_links", Int (Rwc_telemetry.Fleet.n_links fleet));
              ("years", Float fleet.Rwc_telemetry.Fleet.years);
            ]
          ~reports ~metrics:(manifest_metrics ()) ()
      in
      Obs.Manifest.write (Filename.concat dir "manifest.json") manifest

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Use the paper-scale 2000-link fleet.")

let only_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "only" ] ~docv:"ID"
        ~doc:"Reproduce only this figure (repeatable). Known ids: fig1-fig8, thm1, sim.")

let sim_days_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sim-days" ] ~docv:"DAYS"
        ~doc:
          "Horizon of the sim figure (default: 21, or the paper's 60 with \
           $(b,--full)).  Only meaningful when the sim figure runs.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:
          "Also write every plotted series to CSV files under $(docv) \
           (created if missing), plus a manifest.json run record.")

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figures and tables")
    Term.(
      const run_figures $ obs_term $ full_flag $ only_arg $ sim_days_arg
      $ csv_arg)

(* ---- analyze --------------------------------------------------------- *)

let run_analyze () cables years seed =
  let fleet = fleet_of ~cables ~years ~seed in
  Printf.printf "analyzing %d links over %.1f years (seed %d)...\n"
    (Rwc_telemetry.Fleet.n_links fleet) years seed;
  let r = Rwc_telemetry.Analyze.fleet_report fleet in
  Printf.printf "share of links with 95%% HDR < 2 dB : %.3f\n"
    r.Rwc_telemetry.Analyze.share_hdr_below_2db;
  Printf.printf "share of links feasible >= 175 Gbps: %.3f\n"
    r.Rwc_telemetry.Analyze.share_at_least_175;
  Printf.printf "total capacity gain               : %.1f Tbps\n"
    r.Rwc_telemetry.Analyze.total_gain_tbps;
  Printf.printf "mean SNR range (max-min)          : %.1f dB\n"
    (Rwc_stats.Summary.mean r.Rwc_telemetry.Analyze.ranges);
  Printf.printf "100G failure events               : %d\n"
    (Array.length r.Rwc_telemetry.Analyze.failure_min_snrs);
  Printf.printf "  of which salvageable (>= 3 dB)  : %.1f%%\n"
    (100.0 *. r.Rwc_telemetry.Analyze.salvageable_failure_fraction)

let cables_arg =
  Arg.(value & opt int 10 & info [ "cables" ] ~docv:"N" ~doc:"Fiber cables (x40 links).")

let years_arg =
  Arg.(value & opt float 2.5 & info [ "years" ] ~docv:"Y" ~doc:"Observation period.")

let seed_arg =
  Arg.(value & opt int 2017 & info [ "seed" ] ~docv:"S" ~doc:"Fleet seed.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Fleet-wide SNR telemetry analysis (Section 2)")
    Term.(const run_analyze $ obs_term $ cables_arg $ years_arg $ seed_arg)

(* ---- simulate -------------------------------------------------------- *)

let policy_conv =
  let parse = function
    | "static-100" -> Ok Rwc_sim.Runner.Static_100
    | "static-max" -> Ok Rwc_sim.Runner.Static_max
    | "adaptive-stock" -> Ok (Rwc_sim.Runner.Adaptive Rwc_sim.Runner.Stock)
    | "adaptive-efficient" ->
        Ok (Rwc_sim.Runner.Adaptive Rwc_sim.Runner.Efficient)
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S" s))
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_sim.Runner.policy_name p))

let faults_conv =
  let parse s =
    match Rwc_fault.of_string s with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_fault.to_string p))

let faults_arg =
  Arg.(
    value
    & opt faults_conv Rwc_fault.none
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Fault plan: $(b,none) (default), $(b,default), or a \
           comma-separated rule list like \
           $(b,bvt-fail=0.3,te-delay=0.1:1800,seed=99).  With $(b,none) the \
           run is bit-identical to one without the fault layer.")

let storm_conv =
  let parse s =
    match Rwc_storm.plan_of_string s with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_fault.to_string p))

let storm_arg =
  Arg.(
    value
    & opt storm_conv Rwc_fault.none
    & info [ "storm" ] ~docv:"PLAN"
        ~doc:
          "Storage-fault plan applied to every durable write the run \
           performs: $(b,none) (default) or a comma-separated rule list \
           drawn from the $(b,io_*) components, like \
           $(b,io_short=0.1,io_bitflip=0.01,seed=13).  Keys: $(b,io_short) \
           (flushed chunk lands half-written), $(b,io_enospc) (chunk \
           dropped entirely), $(b,io_bitflip) (one bit inverted), \
           $(b,io_torn_rename) (atomic-replace rename lost).  Window \
           positions count storage boundaries, not seconds.  Incompatible \
           with $(b,--checkpoint); use $(b,rwc torture) for crash-recovery \
           testing.")

let guard_conv =
  let parse s =
    match Rwc_guard.of_string s with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_guard.to_string p))

let guard_arg =
  Arg.(
    value
    & opt guard_conv Rwc_guard.none
    & info [ "guard" ] ~docv:"PLAN"
        ~doc:
          "Safety-guard plan for adaptive policies: $(b,none) (default), \
           $(b,default), or comma-separated knob overrides like \
           $(b,suppress=4,budget=1,freeze=1800) (keys: penalty, half-life, \
           suppress, reuse, budget, freeze, fallback, osc-window, \
           osc-cycles, hold).  With $(b,none) the run is bit-identical to \
           one without the guard layer.")

let rollout_conv =
  let parse s =
    match Rwc_rollout.of_string s with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_rollout.to_string p))

let rollout_arg =
  Arg.(
    value
    & opt rollout_conv Rwc_rollout.none
    & info [ "rollout" ] ~docv:"PLAN"
        ~doc:
          "Staged-commit plan for capacity upgrades: $(b,none) (default), \
           $(b,default), or comma-separated knob overrides like \
           $(b,wave=2,bake=1800,fail-gate=1) (keys: wave, group-budget, \
           bake, gate-flaps, gate-quar, gate-slo, hold, settle, \
           freeze=START..STOP, maint, fail-gate).  Upgrades commit in \
           budgeted waves with a health-gated bake window between them; a \
           failed gate rolls every committed link back to its pre-rollout \
           modulation.  With $(b,none) the run is byte-identical to one \
           without the rollout layer.")

let slo_conv =
  let parse s =
    match Rwc_journal.Slo.of_string s with
    | Ok plan -> Ok plan
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun fmt p -> Format.fprintf fmt "%s" (Rwc_journal.Slo.to_string p))

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Record every adaptation decision with its full cause chain \
           (observation, intent, guard verdict, fault outcome, committed \
           capacity) as JSONL to $(docv), one segment per policy run; \
           inspect it with $(b,rwc explain).  Without this flag the journal \
           is disarmed and the run is byte-identical to one without the \
           journal layer.")

let slo_arg =
  Arg.(
    value
    & opt slo_conv Rwc_journal.Slo.none
    & info [ "slo" ] ~docv:"PLAN"
        ~doc:
          "Per-link SLO plan evaluated online over the journal event \
           stream: $(b,none) (default), $(b,default), or comma-separated \
           overrides like $(b,availability=99.9,class=150,at-class=90) \
           (keys: availability, class, at-class, flaps-per-day, \
           quarantine).  Verdicts are folded into the report, the manifest \
           and the slo/* metrics.  Works with or without $(b,--journal).")

(* The journal sink a run emits into: --journal opens the file (failing
   now, not after the run), --slo arms the online tracker, neither
   yields the disarmed sink. *)
let journal_sink journal_path slo =
  (match journal_path with
  | Some p -> check_writable "--journal" p
  | None -> ());
  Rwc_journal.create ?path:journal_path ~slo ()

(* Manifest config entries for the journal, present exactly when the
   sink is armed so journal-off manifests stay byte-identical. *)
let journal_manifest_fields jnl journal_path slo =
  if not (Rwc_journal.armed jnl) then []
  else
    [
      ( "journal",
        match journal_path with
        | Some p -> Obs.Json.String p
        | None -> Obs.Json.Null );
      ("slo", Obs.Json.String (Rwc_journal.Slo.to_string slo));
    ]

let backbone_of = function
  | None -> Rwc_topology.Backbone.north_america
  | Some path -> (
      match Rwc_topology.Parser.parse_file path with
      | Ok t -> t
      | Error e ->
          Printf.eprintf "%s: %s\n" path e;
          exit 2)

(* The runner config simulate, serve and chaos hand to each run; every
   omitted layer stays at its {!Rwc_sim.Runner.default_config} value. *)
let sim_config ~days ~seed ~faults ?(guard = Rwc_guard.none)
    ?(rollout = Rwc_rollout.none) ?(journal = Rwc_journal.disarmed)
    ?(progress = false) ?(hooks = Rwc_sim.Runner.no_hooks) ~domains () =
  {
    Rwc_sim.Runner.default_config with
    Rwc_sim.Runner.days;
    seed;
    faults;
    guard;
    rollout;
    journal;
    progress;
    domains;
    hooks;
  }

(* --resume and --checkpoint-every only make sense with --checkpoint. *)
let check_checkpoint_flags cmd ~checkpoint ~checkpoint_every ~resume =
  if resume && checkpoint = None then begin
    prerr_endline (Printf.sprintf "rwc %s: --resume requires --checkpoint DIR" cmd);
    exit 2
  end;
  if checkpoint <> None && checkpoint_every <= 0 then begin
    prerr_endline (Printf.sprintf "rwc %s: --checkpoint-every must be >= 1" cmd);
    exit 2
  end

(* Open the --checkpoint directory for [rwc CMD], refuse a checkpoint
   cut under another seed or horizon, and open the journal: reopened
   truncated to the checkpoint's high-water mark when resuming, fresh
   otherwise. *)
let open_checkpoint cmd ~dir ~every ?journal_path ~slo ~faults ~resume ~seed
    ~days () =
  match Rwc_recover.create ~dir ~every ?journal_path ~slo ~faults ~resume () with
  | Error e ->
      Printf.eprintf "rwc %s: --checkpoint %s: %s\n" cmd dir e;
      exit 2
  | Ok (ctx, resume_from) ->
      (match resume_from with
      | Some c ->
          if c.Rwc_recover.ck_seed <> seed || c.Rwc_recover.ck_days <> days
          then begin
            Printf.eprintf
              "rwc %s: --resume: checkpoint in %s belongs to a run with seed \
               %d over %g days, not seed %d over %g days\n"
              cmd dir c.Rwc_recover.ck_seed c.Rwc_recover.ck_days seed days;
            exit 2
          end
      | None ->
          if resume then
            Printf.eprintf
              "rwc %s: --resume: no valid checkpoint in %s; starting from \
               scratch\n%!"
              cmd dir);
      let jnl =
        match (resume_from, journal_path) with
        | Some _, None -> Rwc_journal.create ~slo ()
        | Some c, Some p -> (
            match
              Rwc_journal.resume ~path:p ~slo ~at:c.Rwc_recover.ck_journal_bytes
                ~events:c.Rwc_recover.ck_journal_events ()
            with
            | Ok j -> j
            | Error e ->
                Printf.eprintf "rwc %s: --resume: %s: %s\n" cmd p e;
                exit 2)
        | None, _ -> journal_sink journal_path slo
      in
      (ctx, resume_from, jnl)

let run_simulate () days policy seed faults storm guard rollout journal_path
    slo backbone_file manifest_path checkpoint checkpoint_every resume progress
    domains metrics_interval =
  Option.iter (check_writable "--manifest") manifest_path;
  let domains = clamp_domains "rwc simulate" domains in
  if not (Rwc_fault.is_none storm) then begin
    if checkpoint <> None then begin
      prerr_endline
        "rwc simulate: --storm cannot be combined with --checkpoint (storage \
         faults would damage the artifacts recovery depends on; use rwc \
         torture for crash-recovery testing)";
      exit 2
    end;
    Rwc_storm.inject (Rwc_fault.compile storm)
  end;
  (* Recovery-flag coherence, checked before any expensive work.  A
     crash fault without a checkpoint directory would kill the run with
     nothing to restart from; an online SLO tracker without a journal
     file cannot be rebuilt after a restart (the tracker's state lives
     in the retained journal prefix). *)
  check_checkpoint_flags "simulate" ~checkpoint ~checkpoint_every ~resume;
  if Rwc_recover.plan_has_crash faults && checkpoint = None then begin
    prerr_endline
      "rwc simulate: a crash= fault rule requires --checkpoint DIR (the \
       restart loop recovers from the newest checkpoint)";
    exit 2
  end;
  (match checkpoint with
  | Some _ when (not (Rwc_journal.Slo.is_none slo)) && journal_path = None ->
      prerr_endline
        "rwc simulate: --checkpoint with an armed --slo requires --journal \
         (a resumed run rebuilds the online SLO tracker from the journal \
         file)";
      exit 2
  | _ -> ());
  (* --metrics-interval: instead of one registry snapshot at exit, the
     --metrics file becomes a JSONL trajectory — a full snapshot at the
     first due sweep, then one incremental delta per interval. *)
  let sim_hooks =
    match metrics_interval with
    | None -> Rwc_sim.Runner.no_hooks
    | Some n ->
        if n <= 0 then begin
          prerr_endline "rwc simulate: --metrics-interval must be >= 1";
          exit 2
        end;
        let path =
          match !metrics_dest with
          | Some p when p <> "-" -> p
          | _ ->
              prerr_endline
                "rwc simulate: --metrics-interval requires --metrics PATH \
                 (the snapshot trajectory is written there as JSONL)";
              exit 2
        in
        (* The at_exit finalizer keeps only the stderr summary; the file
           now carries the trajectory, not a final snapshot. *)
        metrics_dest := Some "-";
        let oc = open_out path in
        at_exit (fun () -> try close_out oc with Sys_error _ -> ());
        let last = ref (Obs.Json.Assoc []) in
        {
          Rwc_sim.Runner.no_hooks with
          Rwc_sim.Runner.on_sweep =
            Some
              (fun ~k ~now_s ~events:_ ->
                if k mod n = 0 then begin
                  let snap = Obs.Metrics.to_json () in
                  let delta = Obs.Metrics.snapshot_delta !last snap in
                  last := snap;
                  match delta with
                  | Obs.Json.Assoc [] -> ()
                  | _ ->
                      output_string oc
                        (Obs.Json.to_string
                           (Obs.Json.Assoc
                              [
                                ("now_s", Obs.Json.Float now_s);
                                ("delta", delta);
                              ]));
                      output_char oc '\n';
                      flush oc
                end);
        }
  in
  let backbone = backbone_of backbone_file in
  let config_of journal =
    sim_config ~days ~seed ~faults ~guard ~rollout ~journal ~progress
      ~hooks:sim_hooks ~domains ()
  in
  (* Both the plain and the checkpointed path reduce their results to
     (policy name, rendered line, report JSON) rows, so printing and
     the manifest are shared — and byte-identical across them. *)
  let finish ~jnl ~extra_config rows =
    List.iter (fun (_, pp, _) -> print_endline pp) rows;
    match manifest_path with
    | None -> ()
    | Some path ->
        let open Obs.Json in
        let config = config_of jnl in
        let manifest =
          Obs.Manifest.make ~command:"simulate" ~seed
            ~config:
              ([
                 ("days", Float days);
                ( "te_interval_h",
                  Float config.Rwc_sim.Runner.te_interval_h );
                ("wavelengths", Int config.Rwc_sim.Runner.wavelengths);
                ( "demand_fraction",
                  Float config.Rwc_sim.Runner.demand_fraction );
                ("top_demands", Int config.Rwc_sim.Runner.top_demands);
                ("epsilon", Float config.Rwc_sim.Runner.epsilon);
                ( "backbone",
                  String (Option.value backbone_file ~default:"north-america") );
                ("faults", String (Rwc_fault.to_string faults));
                ("guard", String (Rwc_guard.to_string guard));
                ("rollout", String (Rwc_rollout.to_string rollout));
              ]
              @ extra_config
              @ journal_manifest_fields jnl journal_path slo)
            ~reports:(List.map (fun (name, _, j) -> (name, j)) rows)
            ~metrics:(manifest_metrics ()) ()
        in
        Obs.Manifest.write path manifest
  in
  let row_of_report r =
    ( Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy,
      Format.asprintf "%a" Rwc_sim.Runner.pp_report r,
      Rwc_sim.Runner.json_of_report r )
  in
  match checkpoint with
  | None ->
      let jnl = journal_sink journal_path slo in
      let config = config_of jnl in
      let reports =
        match policy with
        | Some p -> [ Rwc_sim.Runner.run ~config ~backbone p ]
        | None -> Rwc_sim.Runner.compare_policies ~config ~backbone ()
      in
      Rwc_journal.close jnl;
      finish ~jnl ~extra_config:[] (List.map row_of_report reports)
  | Some dir ->
      let ctx, resume_from, jnl =
        open_checkpoint "simulate" ~dir ~every:checkpoint_every
          ?journal_path ~slo ~faults ~resume ~seed ~days ()
      in
      (* Ctrl-C / SIGTERM cut a final checkpoint at the next sample
         boundary instead of tearing the state down mid-sweep. *)
      let handler =
        Sys.Signal_handle (fun _ -> Rwc_recover.request_stop ctx)
      in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      let policies =
        match policy with
        | Some p -> [ p ]
        | None -> Rwc_sim.Runner.all_policies
      in
      let outcomes =
        try
          Rwc_sim.Runner.run_recoverable ~config:(config_of jnl) ~backbone
            ~ctx ~resume_from ~policies ()
        with Rwc_recover.Interrupted ->
          Printf.eprintf
            "rwc simulate: interrupted; checkpoint written to %s — rerun \
             the same command with --resume to continue\n"
            dir;
          exit 130
      in
      if ctx.Rwc_recover.restarts > 0 then
        Printf.eprintf
          "rwc simulate: recovered from %d crash restart%s\n"
          ctx.Rwc_recover.restarts
          (if ctx.Rwc_recover.restarts = 1 then "" else "s");
      let rows =
        List.map
          (function
            | Rwc_sim.Runner.Replayed { policy; pp; json } ->
                ( Rwc_sim.Runner.policy_name policy,
                  pp,
                  match Obs.Json.parse json with
                  | Ok j -> j
                  | Error _ -> Obs.Json.Null )
            | Rwc_sim.Runner.Ran r -> row_of_report r)
          outcomes
      in
      finish ~jnl
        ~extra_config:
          [
            ("checkpoint", Obs.Json.String dir);
            ("checkpoint_every", Obs.Json.Int checkpoint_every);
            ("resume", Obs.Json.Bool resume);
          ]
        rows

let days_arg =
  Arg.(value & opt float 21.0 & info [ "days" ] ~docv:"D" ~doc:"Horizon in days.")

let policy_arg =
  Arg.(
    value
    & opt (some policy_conv) None
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "Run one policy only: static-100, static-max, adaptive-stock or \
           adaptive-efficient. Default: compare all.")

let sim_seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Simulation seed.")

let backbone_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backbone" ] ~docv:"FILE"
        ~doc:
          "Topology file to simulate on (default: the embedded \
           North-American backbone).")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"PATH"
        ~doc:
          "Write a structured run record (config, seed, version, per-policy \
           report, metric snapshot) as JSON to $(docv).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Write versioned, CRC-guarded checkpoints of the full control-loop \
           state under $(docv) (created if missing): every \
           $(b,--checkpoint-every) telemetry sweeps, at policy boundaries, \
           and on SIGINT/SIGTERM.  A crashed or interrupted run restarted \
           with $(b,--resume) continues from the newest valid checkpoint and \
           produces reports (and a journal) byte-identical to an \
           uninterrupted run.  Also required by $(b,crash=) fault rules, \
           which kill and restart the controller in-process.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 96
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Telemetry sweeps between periodic checkpoints (default 96: one \
           simulated day at the 15-minute cadence).  Under a $(b,crash=) \
           fault, progress requires surviving $(docv) consecutive crash \
           draws after each restart — pick an interval well below \
           1/rate.")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the newest valid checkpoint in $(b,--checkpoint) \
           $(i,DIR): completed policies are reprinted from their stored \
           renderings, the in-progress one restarts from its captured \
           state, and the $(b,--journal) file is truncated to the \
           checkpoint's high-water mark and re-emitted byte-identically.")

let progress_flag =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Single-line stderr heartbeat per policy run: sim-day, events/s \
           and ETA, redrawn in place.  Purely cosmetic — results are \
           identical with or without it.")

let sim_metrics_interval_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-interval" ] ~docv:"N"
        ~doc:
          "With $(b,--metrics PATH): write the metric registry to $(docv) as \
           a JSONL trajectory instead of one final snapshot — a full \
           snapshot at the first due sweep, then one incremental delta \
           (changed series only) every $(docv) telemetry sweeps (96 = one \
           simulated day at the 15-minute cadence).")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"WAN policy simulation (throughput/availability)")
    Term.(
      const run_simulate $ obs_term $ days_arg $ policy_arg $ sim_seed_arg
      $ faults_arg $ storm_arg $ guard_arg $ rollout_arg $ journal_arg
      $ slo_arg $ backbone_file_arg $ manifest_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_flag $ progress_flag $ domains_arg
      $ sim_metrics_interval_arg)

(* ---- chaos ------------------------------------------------------------- *)

(* Sweep the default fault plan's rates and report how much delivered
   throughput each policy gives up as the infrastructure gets less
   reliable.  Factor 0 is the fault-free baseline every other row is
   compared against. *)

let run_chaos () days seed factors policy guard rollout journal_path slo
    backbone_file manifest_path json_path crash_rates progress domains =
  Option.iter (check_writable "--manifest") manifest_path;
  Option.iter (check_writable "--json") json_path;
  let domains = clamp_domains "rwc chaos" domains in
  let crash_rates = List.sort_uniq compare crash_rates in
  if List.exists (fun r -> r < 0.0 || r >= 1.0) crash_rates then begin
    prerr_endline "rwc chaos: --crash must be a probability in [0, 1)";
    exit 2
  end;
  (* One sink for the whole sweep: every (factor, guard, policy) run
     appends its own Run_start-headed segment, so `rwc explain --run N`
     can pick any of them out of the one file. *)
  let jnl = journal_sink journal_path slo in
  let backbone = backbone_of backbone_file in
  let factors = List.sort_uniq compare factors in
  let factors = if List.mem 0.0 factors then factors else 0.0 :: factors in
  if List.exists (fun f -> f < 0.0) factors then begin
    prerr_endline "rwc chaos: --factor must be >= 0";
    exit 2
  end;
  (* With an armed --guard plan every fault level runs twice, guarded
     and unguarded, so the table shows what the safety layer buys (or
     costs) at each level.  The baseline both variants are compared
     against is the unguarded fault-free run. *)
  let variants =
    if Rwc_guard.is_none guard then [ false ] else [ false; true ]
  in
  (* Same doubling for --rollout: each (factor, guard) cell runs with
     upgrades committing instantly and again staged behind the gated
     plan, so the table shows what the bake windows cost under faults. *)
  let gate_variants =
    if Rwc_rollout.is_none rollout then [ false ] else [ false; true ]
  in
  let run_at ~guarded ~gated factor =
    let faults =
      if factor = 0.0 then Rwc_fault.none
      else Rwc_fault.scaled Rwc_fault.default ~factor
    in
    let config =
      sim_config ~days ~seed ~faults
        ~guard:(if guarded then guard else Rwc_guard.none)
        ~rollout:(if gated then rollout else Rwc_rollout.none)
        ~journal:jnl ~progress ~domains ()
    in
    match policy with
    | Some p -> [ Rwc_sim.Runner.run ~config ~backbone p ]
    | None -> Rwc_sim.Runner.compare_policies ~config ~backbone ()
  in
  let sweep =
    List.concat_map
      (fun factor ->
        List.concat_map
          (fun guarded ->
            List.map
              (fun gated ->
                (factor, guarded, gated, run_at ~guarded ~gated factor))
              gate_variants)
          variants)
      factors
  in
  Rwc_journal.close jnl;
  let baseline =
    let _, _, _, reports =
      List.find
        (fun (f, guarded, gated, _) -> f = 0.0 && (not guarded) && not gated)
        sweep
    in
    reports
  in
  let baseline_for p =
    (List.find (fun r -> r.Rwc_sim.Runner.policy = p) baseline)
      .Rwc_sim.Runner.delivered_pbit
  in
  let degradation_of r =
    let base = baseline_for r.Rwc_sim.Runner.policy in
    100.0 *. (r.Rwc_sim.Runner.delivered_pbit -. base) /. base
  in
  Printf.printf
    "chaos sweep: %.1f days, seed %d, plan 'default' scaled per factor\n" days
    seed;
  Printf.printf "%-7s %-5s %-5s %-22s %15s %11s %5s %6s %9s\n" "factor" "guard"
    "roll" "policy" "delivered(Pbit)" "vs-baseline" "inj" "retry" "fallback";
  List.iter
    (fun (factor, guarded, gated, reports) ->
      List.iter
        (fun r ->
          let inj, retry, fallback =
            match r.Rwc_sim.Runner.fault_stats with
            | None -> ("-", "-", "-")
            | Some f ->
                ( string_of_int f.Rwc_sim.Runner.injected,
                  string_of_int f.Rwc_sim.Runner.retries,
                  string_of_int f.Rwc_sim.Runner.fallbacks )
          in
          Printf.printf "%-7.2f %-5s %-5s %-22s %15.2f %+10.3f%% %5s %6s %9s\n"
            factor
            (if guarded then "on" else "off")
            (if gated then "on" else "off")
            (Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy)
            r.Rwc_sim.Runner.delivered_pbit (degradation_of r) inj retry
            fallback)
        reports)
    sweep;
  (* Crash-rate sweep: the factor-1.00 plan plus a crash= rule killing
     the controller at random sample boundaries, recovered in-process
     from throwaway checkpoints.  Recovery is byte-exact, so delivered
     throughput must equal the plain factor-1.00 run's — the vs-f1.00
     column doubles as a live self-check of the recovery path. *)
  let crash_rows =
    if crash_rates = [] then []
    else begin
      let reference =
        match
          List.find_opt
            (fun (f, guarded, gated, _) ->
              f = 1.0 && (not guarded) && not gated)
            sweep
        with
        | Some (_, _, _, reports) -> reports
        | None ->
            (* 1.0 was excluded from --factor: run the crash-free
               reference once, journal disarmed. *)
            let config =
              sim_config ~days ~seed
                ~faults:(Rwc_fault.scaled Rwc_fault.default ~factor:1.0)
                ~domains ()
            in
            (match policy with
            | Some p -> [ Rwc_sim.Runner.run ~config ~backbone p ]
            | None -> Rwc_sim.Runner.compare_policies ~config ~backbone ())
      in
      let ref_delivered p =
        (List.find (fun r -> r.Rwc_sim.Runner.policy = p) reference)
          .Rwc_sim.Runner.delivered_pbit
      in
      List.concat_map
        (fun rate ->
          let faults =
            match
              Rwc_fault.of_string (Printf.sprintf "default,crash=%g" rate)
            with
            | Ok p -> p
            | Error e ->
                Printf.eprintf "rwc chaos: --crash: %s\n" e;
                exit 2
          in
          let dir = fresh_temp_dir "rwc-chaos-ckpt" in
          (* A tight checkpoint cadence: progress past a checkpoint
             requires surviving `every` fresh crash draws, so at high
             rates a day-sized interval would never be crossed. *)
          match Rwc_recover.create ~dir ~every:8 ~faults ~resume:false () with
          | Error e ->
              Printf.eprintf "rwc chaos: --crash: %s: %s\n" dir e;
              exit 2
          | Ok (ctx, _) ->
              let config = sim_config ~days ~seed ~faults ~domains () in
              let policies =
                match policy with
                | Some p -> [ p ]
                | None -> Rwc_sim.Runner.all_policies
              in
              let outcomes =
                Rwc_sim.Runner.run_recoverable ~config ~backbone ~ctx
                  ~resume_from:None ~policies ()
              in
              rm_rf_dir dir;
              List.filter_map
                (function
                  | Rwc_sim.Runner.Ran r ->
                      let base = ref_delivered r.Rwc_sim.Runner.policy in
                      let vs =
                        100.0
                        *. (r.Rwc_sim.Runner.delivered_pbit -. base)
                        /. base
                      in
                      Some (rate, ctx.Rwc_recover.restarts, vs, r)
                  | Rwc_sim.Runner.Replayed _ -> None)
                outcomes)
        crash_rates
    end
  in
  (match crash_rows with
  | [] -> ()
  | rows ->
      Printf.printf
        "\ncrash sweep: factor-1.00 plan plus crash=RATE (checkpoint-backed \
         in-process restarts; vs-f1.00 should be +0.000%%)\n";
      Printf.printf "%-7s %8s %-22s %15s %11s\n" "crash" "restarts" "policy"
        "delivered(Pbit)" "vs-f1.00";
      List.iter
        (fun (rate, restarts, vs, r) ->
          Printf.printf "%-7.3f %8d %-22s %15.2f %+10.3f%%\n" rate restarts
            (Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy)
            r.Rwc_sim.Runner.delivered_pbit vs)
        rows);
  let row_label factor guarded gated r =
    Printf.sprintf "f%.2f%s%s/%s" factor
      (if guarded then "+guard" else "")
      (if gated then "+rollout" else "")
      (Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy)
  in
  (match json_path with
  | None -> ()
  | Some path ->
      (* The machine-readable degradation table (one row per printed
         line), used by the CI chaos smoke step. *)
      let open Obs.Json in
      let rows =
        List.concat_map
          (fun (factor, guarded, gated, reports) ->
            List.map
              (fun r ->
                let rollout_fields =
                  match r.Rwc_sim.Runner.rollout_stats with
                  | None -> []
                  | Some s -> [ ("rollout", Rwc_rollout.stats_to_json s) ]
                in
                Assoc
                  ([
                     ("factor", Float factor);
                     ("guarded", Bool guarded);
                     ("gated", Bool gated);
                     ( "policy",
                       String
                         (Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy)
                     );
                     ( "delivered_pbit",
                       Float r.Rwc_sim.Runner.delivered_pbit );
                     ("vs_baseline_pct", Float (degradation_of r));
                   ]
                  @ rollout_fields
                  @ [ ("report", Rwc_sim.Runner.json_of_report r) ]))
              reports)
          sweep
      in
      let crash_fields =
        match crash_rows with
        | [] -> []
        | cr ->
            [
              ( "crash_rows",
                List
                  (List.map
                     (fun (rate, restarts, vs, r) ->
                       Assoc
                         [
                           ("crash", Float rate);
                           ("restarts", Int restarts);
                           ( "policy",
                             String
                               (Rwc_sim.Runner.policy_name
                                  r.Rwc_sim.Runner.policy) );
                           ( "delivered_pbit",
                             Float r.Rwc_sim.Runner.delivered_pbit );
                           ("vs_f1_pct", Float vs);
                           ("report", Rwc_sim.Runner.json_of_report r);
                         ])
                     cr) );
            ]
      in
      to_file path
        (Assoc
           ([
              ("days", Float days);
              ("seed", Int seed);
              ("guard", String (Rwc_guard.to_string guard));
              ("rollout", String (Rwc_rollout.to_string rollout));
              ("rows", List rows);
            ]
           @ crash_fields)));
  match manifest_path with
  | None -> ()
  | Some path ->
      let open Obs.Json in
      let manifest =
        Obs.Manifest.make ~command:"chaos" ~seed
          ~config:
            ([
               ("days", Float days);
               ("factors", List (List.map (fun f -> Float f) factors));
               ( "policy",
                 match policy with
                 | Some p -> String (Rwc_sim.Runner.policy_name p)
                 | None -> Null );
               ("guard", String (Rwc_guard.to_string guard));
               ("rollout", String (Rwc_rollout.to_string rollout));
               ( "backbone",
                 String (Option.value backbone_file ~default:"north-america")
               );
             ]
            @ journal_manifest_fields jnl journal_path slo)
          ~reports:
            (List.concat_map
               (fun (factor, guarded, gated, reports) ->
                 List.map
                   (fun r ->
                     ( row_label factor guarded gated r,
                       Rwc_sim.Runner.json_of_report r ))
                   reports)
               sweep
            @ List.map
                (fun (rate, _, _, r) ->
                  ( Printf.sprintf "crash%.3f/%s" rate
                      (Rwc_sim.Runner.policy_name r.Rwc_sim.Runner.policy),
                    Rwc_sim.Runner.json_of_report r ))
                crash_rows)
          ~metrics:(manifest_metrics ()) ()
      in
      Obs.Manifest.write path manifest

let chaos_days_arg =
  Arg.(
    value & opt float 7.0
    & info [ "days" ] ~docv:"D" ~doc:"Horizon in days per run.")

let factors_arg =
  Arg.(
    value
    & opt_all float [ 0.5; 1.0; 2.0 ]
    & info [ "factor" ] ~docv:"F"
        ~doc:
          "Scale the default plan's rates by $(docv) (repeatable).  The \
           fault-free baseline (factor 0) is always included.")

let chaos_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write the degradation table as JSON to $(docv): one row per \
           printed line (factor, guard, policy, delivered, vs-baseline \
           percentage and the full per-run report).")

let chaos_crash_arg =
  Arg.(
    value
    & opt_all float []
    & info [ "crash" ] ~docv:"RATE"
        ~doc:
          "Also sweep controller crashes (repeatable): run the factor-1.00 \
           plan plus $(b,crash=)$(docv), restarting in-process from \
           throwaway checkpoints after each kill.  Recovery is byte-exact, \
           so the printed delivered throughput must match the plain \
           factor-1.00 row.")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep fault-injection rates and report throughput degradation")
    Term.(
      const run_chaos $ obs_term $ chaos_days_arg $ sim_seed_arg $ factors_arg
      $ policy_arg $ guard_arg $ rollout_arg $ journal_arg $ slo_arg
      $ backbone_file_arg $ manifest_arg $ chaos_json_arg $ chaos_crash_arg
      $ progress_flag $ domains_arg)

(* ---- explain ----------------------------------------------------------- *)

(* Render a decision journal: the causal timeline of one link, or a
   fleet summary, plus an offline SLO scorecard.  This is the forensic
   half of the paper made interactive — "why did link N end the run at
   X Gbps?" answered from the recorded chain instead of aggregates. *)

module J = Rwc_journal

let pp_journal_record ?(replayed = false) (r : J.record) =
  let detail =
    match r.kind with
    | J.Run_start { policy; seed; horizon_s; n_links } ->
        Printf.sprintf "run      policy=%s seed=%d horizon=%.0fs links=%d"
          policy seed horizon_s n_links
    | J.Observe { snr_db; fresh } ->
        Printf.sprintf "observe  snr=%.2f dB%s" snr_db
          (if fresh then "" else " (stale)")
    | J.Intent { action; from_gbps; to_gbps } ->
        Printf.sprintf "intent   %s %dG -> %dG" (J.action_name action)
          from_gbps to_gbps
    | J.Guard { verdict } -> Printf.sprintf "guard    %s" (J.verdict_name verdict)
    | J.Fault { outcome; attempt } ->
        Printf.sprintf "fault    %s (attempt %d)" (J.outcome_name outcome)
          attempt
    | J.Commit { gbps; up } ->
        Printf.sprintf "commit   %dG %s" gbps (if up then "up" else "dark")
    | J.Outage { up } ->
        Printf.sprintf "outage   %s" (if up then "restored" else "down")
    | J.Anomaly { detector; snr_db } ->
        Printf.sprintf "anomaly  %s alarm, snr=%.2f dB" (J.detector_name detector)
          snr_db
    | J.Rollout { rid; revent; wave; gbps } ->
        let marker =
          match revent with
          | J.R_rolled_back -> "[rolled-back]"
          | _ -> "[rollout]"
        in
        Printf.sprintf "rollout  %s %s rid=%d wave=%d %dG" marker
          (J.rollout_event_name revent) rid wave gbps
  in
  Printf.printf "  t=%12.1f  span=%-6d %s%s\n" r.t r.span detail
    (if replayed then "  [replayed]" else "")

let explain_scorecard cfg seg =
  match J.Slo.of_records cfg seg with
  | Error e ->
      Printf.eprintf "rwc explain: %s\n" e;
      exit 2
  | Ok s ->
      Printf.printf "\nSLO scorecard (plan %s, horizon %.0fs): %d met, %d violated\n"
        (J.Slo.to_string (Some s.J.Slo.config))
        s.J.Slo.horizon_s s.J.Slo.met s.J.Slo.violated;
      Printf.printf "%-5s %12s %10s %10s %12s  %s\n" "link" "avail%" "at-class%"
        "flaps/day" "quarantine%" "violations";
      Array.iter
        (fun (v : J.Slo.link_verdict) ->
          Printf.printf "%-5d %12.3f %10.3f %10.2f %12.3f  %s\n" v.J.Slo.link
            v.J.Slo.measure.J.Slo.availability_pct
            v.J.Slo.measure.J.Slo.class_time_pct
            v.J.Slo.measure.J.Slo.flaps_per_day
            v.J.Slo.measure.J.Slo.quarantine_pct
            (match v.J.Slo.violations with
            | [] -> "ok"
            | vs -> String.concat "; " vs))
        s.J.Slo.links

(* The chain in effect at time [at]: link timelines split into decision
   chains at Observe boundaries (anomaly/outage/commit events belong to
   the chain of the preceding observation).  [events] carries each
   record's global journal ordinal alongside it; [None] when no chain
   has started by [at]. *)
let chain_at events at =
  let starts_chain (_, (r : J.record)) =
    match r.J.kind with J.Observe _ -> true | _ -> false
  in
  let rec split cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | r :: rest ->
        if starts_chain r && cur <> [] then split [ r ] (List.rev cur :: acc) rest
        else split (r :: cur) acc rest
  in
  let chains = split [] [] events in
  let chain_start = function
    | [] -> infinity
    | (_, (r : J.record)) :: _ -> r.J.t
  in
  let rec pick best = function
    | [] -> best
    | c :: rest -> if chain_start c <= at then pick (Some c) rest else best
  in
  pick None chains

let run_explain () journal_file run_idx link at recovered strict slo rollout_id
    follow =
  if at <> None && link = None then begin
    prerr_endline "rwc explain: --at requires --link";
    exit 2
  end;
  if at <> None && rollout_id <> None then begin
    prerr_endline "rwc explain: --at cannot be combined with --rollout";
    exit 2
  end;
  (* --rollout ID: keep only the staged-commit chain of that rollout —
     its proposal, waves, gate verdicts and any rollback — dropping the
     per-sample observe/intent noise around it. *)
  let rollout_keep (r : J.record) =
    match rollout_id with
    | None -> true
    | Some rid -> (
        match r.J.kind with
        | J.Rollout { rid = rid'; _ } -> rid' = rid
        | _ -> false)
  in
  if follow then begin
    if at <> None || run_idx <> None || recovered <> None || strict then begin
      prerr_endline
        "rwc explain: --follow cannot be combined with --at, --run, \
         --recovered or --strict";
      exit 2
    end;
    if slo <> None then begin
      prerr_endline "rwc explain: --follow cannot be combined with --slo";
      exit 2
    end;
    let stop = ref false in
    let handler = Sys.Signal_handle (fun _ -> stop := true) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler;
    (* Poll-and-seek tail.  read_from consumes complete lines only, so
       a torn tail (concurrent writer mid-record, or a storm fault)
       stays in the file for the next round instead of being fatal. *)
    let offset = ref 0 in
    while not !stop do
      (match J.read_from journal_file ~offset:!offset with
      | Ok (records, _bad, next) ->
          offset := next;
          List.iter
            (fun (r : J.record) ->
              if rollout_keep r then
                match link with
                | Some id when r.J.link <> id -> ()
                | _ ->
                    if r.J.link >= 0 then Printf.printf "link=%-4d" r.J.link
                    else print_string "run     ";
                    pp_journal_record r)
            records;
          flush stdout
      | Error _ when !offset > 0 ->
          (* The file shrank under us (truncated or rotated — a resume
             does exactly this): start over from the top. *)
          offset := 0
      | Error _ -> () (* not created yet: keep polling *));
      if not !stop then try Unix.sleepf 0.25 with Unix.Unix_error _ -> ()
    done;
    exit 0
  end;
  (* --recovered: the checkpoint directory's resume marks record the
     journal high-water mark each resume (or in-process crash restart)
     replayed from; everything at or past the earliest mark was
     re-emitted by a recovered process. *)
  let mark =
    match recovered with
    | None -> fun _ -> false
    | Some dir -> (
        match Rwc_recover.resume_marks dir with
        | [] ->
            Printf.eprintf
              "rwc explain: --recovered %s: no resume marks (the run was \
               never resumed or restarted)\n"
              dir;
            exit 2
        | marks ->
            let hwm =
              List.fold_left (fun acc (e, _) -> min acc e) max_int marks
            in
            fun i -> i >= hwm)
  in
  match J.read_file ~strict journal_file with
  | Error e ->
      Printf.eprintf "rwc explain: %s: %s\n" journal_file e;
      exit 2
  | Ok ([], _) ->
      Printf.eprintf "rwc explain: %s: empty journal\n" journal_file;
      exit 2
  | Ok (records, _skipped) -> (
      let segs = J.segments records in
      (* Segments partition the record list in order, so a running
         offset recovers each record's global ordinal — the unit the
         checkpoint high-water mark is expressed in. *)
      let indexed_segs =
        let rec go off = function
          | [] -> []
          | s :: rest ->
              List.mapi (fun i r -> (off + i, r)) s
              :: go (off + List.length s) rest
        in
        go 0 segs
      in
      let nseg = List.length segs in
      let idx =
        match run_idx with
        | None -> nseg  (* default: the last run in the file *)
        | Some i when i >= 1 && i <= nseg -> i
        | Some i ->
            Printf.eprintf "rwc explain: --run %d out of range (1..%d)\n" i nseg;
            exit 2
      in
      let seg_pairs = List.nth indexed_segs (idx - 1) in
      let seg = List.map snd seg_pairs in
      (match
         List.find_map
           (function
             | {
                 J.kind = J.Run_start { policy; seed; horizon_s; n_links };
                 _;
               } ->
                 Some (policy, seed, horizon_s, n_links)
             | _ -> None)
           seg
       with
      | Some (policy, seed, horizon_s, n_links) ->
          Printf.printf
            "run %d/%d: policy=%s seed=%d horizon=%.0fs links=%d (%d events)\n"
            idx nseg policy seed horizon_s n_links
            (List.length seg - 1)
      | None ->
          Printf.printf "run %d/%d: headerless segment (%d events)\n" idx nseg
            (List.length seg));
      (match link with
      | Some id -> (
          let events =
            List.filter
              (fun (_, (r : J.record)) -> r.J.link = id && rollout_keep r)
              seg_pairs
          in
          if events = [] then begin
            Printf.eprintf "rwc explain: no events for link %d%s in run %d\n" id
              (match rollout_id with
              | None -> ""
              | Some rid -> Printf.sprintf " (rollout %d)" rid)
              idx;
            exit 1
          end;
          let pp (i, r) = pp_journal_record ~replayed:(mark i) r in
          match at with
          | None ->
              Printf.printf "link %d timeline:\n" id;
              List.iter pp events
          | Some t -> (
              match chain_at events t with
              | None ->
                  let first =
                    match events with (_, r) :: _ -> r.J.t | [] -> 0.0
                  in
                  Printf.eprintf
                    "rwc explain: link %d has no decision chain in effect at \
                     t=%.1f (its first event is at t=%.1f)\n"
                    id t first;
                  exit 1
              | Some chain ->
                  Printf.printf "link %d, decision chain in effect at t=%.1f:\n"
                    id t;
                  List.iter pp chain;
                  let state =
                    List.fold_left
                      (fun acc (_, (r : J.record)) ->
                        if r.J.t <= t then
                          match r.J.kind with
                          | J.Commit { gbps; up } -> Some (gbps, up)
                          | J.Outage { up } -> (
                              match acc with
                              | Some (g, _) -> Some (g, up)
                              | None -> acc)
                          | _ -> acc
                        else acc)
                      None events
                  in
                  (match state with
                  | Some (gbps, up) ->
                      Printf.printf "state at t=%.1f: %dG %s\n" t gbps
                        (if up then "up" else "dark")
                  | None -> Printf.printf "state at t=%.1f: no commit yet\n" t)))
      | None when rollout_id <> None ->
          (* The rollout's full chain across the fleet, in journal
             order: run-scoped lifecycle events interleaved with the
             per-link admissions, commits and rollbacks. *)
          let rid = Option.get rollout_id in
          let events = List.filter (fun (_, r) -> rollout_keep r) seg_pairs in
          if events = [] then begin
            Printf.eprintf "rwc explain: no events for rollout %d in run %d\n"
              rid idx;
            exit 1
          end;
          Printf.printf "rollout %d chain:\n" rid;
          List.iter
            (fun (i, (r : J.record)) ->
              if r.J.link >= 0 then Printf.printf "link=%-4d" r.J.link
              else print_string "run     ";
              pp_journal_record ~replayed:(mark i) r)
            events
      | None ->
          (* Fleet view: one row per link that has events. *)
          let tbl = Hashtbl.create 64 in
          List.iter
            (fun (r : J.record) ->
              if r.J.link >= 0 then begin
                let ev, anom, supp, faults, commit =
                  Option.value
                    (Hashtbl.find_opt tbl r.J.link)
                    ~default:(0, 0, 0, 0, None)
                in
                let anom, supp, faults, commit =
                  match r.J.kind with
                  | J.Anomaly _ -> (anom + 1, supp, faults, commit)
                  | J.Guard { verdict } -> (
                      match verdict with
                      | J.Damped | J.Deferred | J.Stale_data | J.Held ->
                          (anom, supp + 1, faults, commit)
                      | _ -> (anom, supp, faults, commit))
                  | J.Fault { outcome; _ } -> (
                      match outcome with
                      | J.Committed -> (anom, supp, faults, commit)
                      | _ -> (anom, supp, faults + 1, commit))
                  | J.Commit { gbps; up } ->
                      (anom, supp, faults, Some (gbps, up))
                  | _ -> (anom, supp, faults, commit)
                in
                Hashtbl.replace tbl r.J.link (ev + 1, anom, supp, faults, commit)
              end)
            seg;
          let rows =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
          in
          Printf.printf "%-5s %7s %7s %10s %7s  %s\n" "link" "events"
            "alarms" "suppressed" "faults" "final";
          List.iter
            (fun (id, (ev, anom, supp, faults, commit)) ->
              Printf.printf "%-5d %7d %7d %10d %7d  %s\n" id ev anom supp
                faults
                (match commit with
                | Some (gbps, up) ->
                    Printf.sprintf "%dG %s" gbps (if up then "up" else "dark")
                | None -> "-"))
            rows);
      match slo with
      | None -> ()
      | Some cfg -> explain_scorecard cfg seg)

let explain_journal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Journal (JSONL) produced by $(b,simulate --journal) or \
              $(b,chaos --journal).")

let explain_run_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "run" ] ~docv:"N"
        ~doc:
          "Pick the $(docv)-th run segment of the file (1-based; default: \
           the last one).")

let explain_link_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "link" ] ~docv:"ID"
        ~doc:
          "Show the causal timeline of this link (duct index).  Without it, \
           a fleet-wide summary table is printed.")

let explain_at_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "at" ] ~docv:"T"
        ~doc:
          "With $(b,--link): show only the decision chain in effect at \
           simulation time $(docv) (seconds), plus the link state then.")

let explain_recovered_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "recovered" ] ~docv:"DIR"
        ~doc:
          "Checkpoint directory of a resumed run: timeline events at or past \
           the earliest recorded resume mark — the ones re-emitted by a \
           resumed or crash-restarted process — are flagged \
           $(b,[replayed]).")

let explain_strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Fail on the first malformed journal line instead of the default \
           skip-and-count (skipped lines are reported on stderr and in the \
           $(b,journal/bad_lines) metric).")

let explain_rollout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rollout" ] ~docv:"ID"
        ~doc:
          "Show only the staged-rollout chain with this plan id: its \
           proposal, wave commits, gate verdicts and any $(b,[rolled-back]) \
           events.  Combines with $(b,--link) to restrict the chain to one \
           link, and with $(b,--follow) to tail it live.")

let explain_follow_arg =
  Arg.(
    value & flag
    & info [ "follow" ]
        ~doc:
          "Tail the journal live: print existing events, then poll for new \
           complete lines four times a second (optionally filtered with \
           $(b,--link)).  Torn tails — a record mid-write under a \
           concurrent $(b,simulate) or $(b,serve) — are skipped until \
           their newline lands, and a truncated file restarts the tail \
           from the top.  Stop with Ctrl-C.")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Reconstruct why links changed capacity from a decision journal")
    Term.(
      const run_explain $ obs_term $ explain_journal_arg $ explain_run_arg
      $ explain_link_arg $ explain_at_arg $ explain_recovered_arg
      $ explain_strict_arg $ slo_arg $ explain_rollout_arg
      $ explain_follow_arg)

(* ---- bvt -------------------------------------------------------------- *)

let run_bvt () changes seed =
  let rng = Rwc_stats.Rng.create seed in
  let measure procedure =
    let t = Rwc_optical.Bvt.create Rwc_optical.Modulation.Qpsk in
    let targets =
      [| Rwc_optical.Modulation.Qam8; Rwc_optical.Modulation.Qam16;
         Rwc_optical.Modulation.Qpsk |]
    in
    Array.init changes (fun i ->
        (Rwc_optical.Bvt.change_modulation t rng ~target:targets.(i mod 3)
           ~procedure)
          .Rwc_optical.Bvt.total_s)
  in
  let report name xs =
    let s = Rwc_stats.Summary.of_array xs in
    Printf.printf "%-10s mean %10.4f s   p50 %10.4f   p95 %10.4f   max %10.4f\n"
      name s.Rwc_stats.Summary.mean
      (Rwc_stats.Summary.percentile xs 50.0)
      (Rwc_stats.Summary.percentile xs 95.0)
      s.Rwc_stats.Summary.max
  in
  Printf.printf "%d modulation changes per procedure (seed %d):\n" changes seed;
  report "stock" (measure Rwc_optical.Bvt.Stock);
  report "efficient" (measure Rwc_optical.Bvt.Efficient)

let changes_arg =
  Arg.(value & opt int 200 & info [ "changes" ] ~docv:"N" ~doc:"Number of changes.")

let bvt_seed_arg =
  Arg.(value & opt int 43 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")

let bvt_cmd =
  Cmd.v
    (Cmd.info "bvt" ~doc:"Modulation-change latency experiment (Section 3.1)")
    Term.(const run_bvt $ obs_term $ changes_arg $ bvt_seed_arg)

(* ---- constellation ----------------------------------------------------- *)

let scheme_conv =
  let parse = function
    | "qpsk" -> Ok Rwc_optical.Modulation.Qpsk
    | "8qam" -> Ok Rwc_optical.Modulation.Qam8
    | "16qam" -> Ok Rwc_optical.Modulation.Qam16
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S (qpsk|8qam|16qam)" s))
  in
  Arg.conv
    ( parse,
      fun fmt s ->
        Format.fprintf fmt "%s" (Rwc_optical.Modulation.scheme_name s) )

let run_constellation () scheme snr symbols seed =
  let rng = Rwc_stats.Rng.create seed in
  let run = Rwc_optical.Constellation.simulate rng scheme ~snr_db:snr ~symbols in
  print_string (Rwc_optical.Constellation.render_ascii run);
  Printf.printf "theoretical SER at this SNR: %.3e\n"
    (Rwc_optical.Constellation.theoretical_ser scheme ~snr_db:snr)

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Rwc_optical.Modulation.Qam16
    & info [ "scheme" ] ~docv:"SCHEME" ~doc:"qpsk, 8qam or 16qam.")

let snr_arg =
  Arg.(value & opt float 16.0 & info [ "snr" ] ~docv:"DB" ~doc:"Es/N0 in dB.")

let symbols_arg =
  Arg.(value & opt int 800 & info [ "symbols" ] ~docv:"N" ~doc:"Symbols to send.")

let const_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")

let constellation_cmd =
  Cmd.v
    (Cmd.info "constellation" ~doc:"Render a constellation panel (Figure 5)")
    Term.(
      const run_constellation $ obs_term $ scheme_arg $ snr_arg $ symbols_arg
      $ const_seed_arg)

(* ---- detect ------------------------------------------------------------ *)

let run_detect () trace_path baseline sigma =
  match Rwc_telemetry.Store.read_trace_csv trace_path with
  | Error e ->
      Printf.eprintf "%s: %s\n" trace_path e;
      exit 2
  | Ok trace ->
      let baseline =
        match baseline with
        | Some b -> b
        | None -> Rwc_stats.Summary.median trace
      in
      let sigma =
        match sigma with
        | Some s -> s
        | None ->
            (* Robust scale from the HDR: width of the 68% interval / 2
               approximates one standard deviation of the quiet core. *)
            Rwc_stats.Hdr.width (Rwc_stats.Hdr.of_samples ~mass:0.68 trace)
            /. 2.0
      in
      Printf.printf "trace %s: %d samples, baseline %.2f dB, sigma %.3f dB\n"
        trace_path (Array.length trace) baseline sigma;
      let alarms =
        Rwc_telemetry.Detect.scan ~baseline_db:baseline ~sigma_db:sigma trace
      in
      if alarms = [] then print_endline "no degradations detected"
      else
        List.iter
          (fun a ->
            Printf.printf "sample %6d (%8.1f h): %s alarm, snr %.2f dB\n"
              a.Rwc_telemetry.Detect.sample
              (float_of_int a.Rwc_telemetry.Detect.sample /. 4.0)
              (match a.Rwc_telemetry.Detect.kind with
              | `Ewma -> "ewma "
              | `Cusum -> "cusum")
              trace.(a.Rwc_telemetry.Detect.sample))
          alarms

let trace_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE.csv" ~doc:"Trace written by the export command.")

let baseline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "baseline" ] ~docv:"DB" ~doc:"Quiet-time SNR level (default: median).")

let sigma_opt_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sigma" ] ~docv:"DB"
        ~doc:"Quiet-time sample standard deviation (default: robust estimate).")

let detect_cmd =
  Cmd.v
    (Cmd.info "detect" ~doc:"Scan an SNR trace for degradations (CUSUM + EWMA)")
    Term.(
      const run_detect $ obs_term $ trace_path_arg $ baseline_arg
      $ sigma_opt_arg)

(* ---- topology ------------------------------------------------------------ *)

let run_topology () path =
  match Rwc_topology.Parser.parse_file path with
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      exit 2
  | Ok t ->
      Printf.printf "%s: %d cities, %d ducts\n" path
        (Rwc_topology.Backbone.n_cities t)
        (Array.length t.Rwc_topology.Backbone.ducts);
      Printf.printf "%-14s %-14s %8s %9s %10s\n" "a" "b" "km" "osnr(dB)"
        "max-rate";
      Array.iter
        (fun d ->
          let line =
            Rwc_optical.Fiber.line_of_route_km d.Rwc_topology.Backbone.route_km
          in
          let osnr = Rwc_optical.Fiber.osnr_db line in
          let snr = osnr -. Rwc_telemetry.Fleet.osnr_to_snr_penalty_db in
          Printf.printf "%-14s %-14s %8.0f %9.1f %7d G\n"
            t.Rwc_topology.Backbone.cities.(d.Rwc_topology.Backbone.a)
              .Rwc_topology.Backbone.name
            t.Rwc_topology.Backbone.cities.(d.Rwc_topology.Backbone.b)
              .Rwc_topology.Backbone.name
            d.Rwc_topology.Backbone.route_km osnr
            (Rwc_optical.Modulation.feasible_gbps snr))
        t.Rwc_topology.Backbone.ducts

let topology_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TOPOLOGY" ~doc:"Topology file (see Parser docs for the format).")

let topology_cmd =
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Validate a topology file and report per-duct feasible rates")
    Term.(const run_topology $ obs_term $ topology_path_arg)

(* ---- export ------------------------------------------------------------ *)

let run_export () dir cables years seed max_links =
  ensure_dir "export" dir;
  let fleet = fleet_of ~cables ~years ~seed in
  let n = Rwc_telemetry.Store.export_fleet_csv ?max_links fleet ~dir in
  let open Obs.Json in
  Obs.Manifest.write
    (Filename.concat dir "manifest.json")
    (Obs.Manifest.make ~command:"export" ~seed
       ~config:
         [
           ("cables", Int cables);
           ("years", Float years);
           ( "max_links",
             match max_links with Some m -> Int m | None -> Null );
         ]
       ~reports:[ ("traces_written", Int n) ]
       ~metrics:(manifest_metrics ()) ());
  Printf.printf "wrote %d trace files plus manifest.csv and manifest.json under %s\n"
    n dir

let export_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Directory to write CSVs into (created if missing).")

let max_links_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-links" ] ~docv:"N" ~doc:"Stop after N traces.")

let export_cmd =
  Cmd.v
    (Cmd.info "export"
       ~doc:"Generate the telemetry fleet and write it out as CSV files")
    Term.(
      const run_export $ obs_term $ export_dir_arg $ cables_arg $ years_arg
      $ seed_arg $ max_links_arg)

(* ---- bench / perf ------------------------------------------------------ *)

(* The perf sweep and trajectory diff.  `bench` deliberately does not
   compose [obs_term]: the sweep arms the profiler and the metrics
   registry itself (and restores both), and a user-armed registry
   would double-count the warm-up runs into the snapshot. *)

module Perf = Rwc_perf

let run_bench quick hyperscale sizes days seed label out progress domains
    domains_sweep =
  if quick && hyperscale then begin
    prerr_endline "rwc bench: --quick and --hyperscale are mutually exclusive";
    exit 2
  end;
  let base =
    if hyperscale then Rwc_sim.Perf_sweep.hyperscale
    else if quick then Rwc_sim.Perf_sweep.quick
    else Rwc_sim.Perf_sweep.full
  in
  let label =
    match label with Some l -> l | None -> base.Rwc_sim.Perf_sweep.label
  in
  let opts =
    {
      base with
      Rwc_sim.Perf_sweep.sizes =
        (match sizes with
        | Some s -> List.sort_uniq compare s
        | None -> base.Rwc_sim.Perf_sweep.sizes);
      days = Option.value days ~default:base.Rwc_sim.Perf_sweep.days;
      seed;
      label;
      progress;
      domains = clamp_domains "rwc bench" domains;
    }
  in
  if List.exists (fun n -> n < 8) opts.Rwc_sim.Perf_sweep.sizes then begin
    prerr_endline "rwc bench: --sizes entries must be >= 8 ducts";
    exit 2
  end;
  if opts.Rwc_sim.Perf_sweep.days <= 0.0 then begin
    prerr_endline "rwc bench: --days must be positive";
    exit 2
  end;
  let run_one opts out =
    check_writable "--out" out;
    let t = Rwc_sim.Perf_sweep.run opts in
    Perf.Trajectory.write out t;
    Format.printf "%a" Perf.Trajectory.pp t;
    Printf.printf "wrote %s\n" out
  in
  match domains_sweep with
  | None ->
      let out =
        Option.value out ~default:(Printf.sprintf "BENCH_%s.json" label)
      in
      run_one opts out
  | Some counts ->
      (* One trajectory per domain count, named BENCH_<label>-d<N>.json
         so `rwc perf diff --cross-domains` can compare any pair. *)
      if out <> None then begin
        prerr_endline
          "rwc bench: --out conflicts with --domains-sweep (each count gets \
           its own BENCH_<label>-d<N>.json)";
        exit 2
      end;
      let counts =
        List.sort_uniq compare
          (List.map (clamp_domains "rwc bench") counts)
      in
      List.iter
        (fun d ->
          let label_d = Printf.sprintf "%s-d%d" label d in
          run_one
            { opts with Rwc_sim.Perf_sweep.label = label_d; domains = d }
            (Printf.sprintf "BENCH_%s.json" label_d))
        counts

let sizes_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "sizes" ] ~docv:"N,N,..."
        ~doc:"Fleet sizes (ducts) to sweep, overriding the preset.")

let bench_days_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "days" ] ~docv:"D"
        ~doc:"Sim horizon per sweep point (preset: 1 day).")

let bench_quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI preset: sizes 50,200 instead of 50,200,1000,2000 — seconds \
           instead of minutes.")

let bench_hyperscale_flag =
  Arg.(
    value & flag
    & info [ "hyperscale" ]
        ~doc:
          "Hyperscale preset: one 50000-duct point over a short horizon \
           with TE throttled (24-hour interval, 4 demands) so the fleet \
           phases — telemetry generation and the observe pass, the parts \
           $(b,--domains) parallelizes — dominate the wall time.")

let bench_domains_sweep_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "domains-sweep" ] ~docv:"N,N,..."
        ~doc:
          "Run the whole sweep once per domain count and emit one \
           trajectory per count as $(b,BENCH_<label>-d<N>.json).  \
           Conflicts with $(b,--out); compare the results with \
           $(b,rwc perf diff --cross-domains).")

let bench_label_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "label" ] ~docv:"L"
        ~doc:
          "Trajectory label, also the default output name \
           $(b,BENCH_<label>.json).  Default: $(b,quick) or $(b,full) per \
           the preset.")

let bench_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"PATH"
        ~doc:"Output path (default $(b,BENCH_<label>.json)).")

let bench_cmd =
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Deterministic fleet-size perf sweep; emits a machine-readable \
          BENCH_<label>.json trajectory (per-phase p50/p95 timings, \
          events/s, solver-time-vs-fleet-size, peak heap)")
    Term.(
      const run_bench $ bench_quick_flag $ bench_hyperscale_flag $ sizes_arg
      $ bench_days_arg $ sim_seed_arg $ bench_label_arg $ bench_out_arg
      $ progress_flag $ domains_arg $ bench_domains_sweep_arg)

let run_perf_diff old_path new_path ci_tol cross_domains =
  let read path =
    match Perf.Trajectory.read path with
    | Ok t -> t
    | Error e ->
        Printf.eprintf "rwc perf diff: %s\n" e;
        exit 2
  in
  let old_t = read old_path and new_t = read new_path in
  let tol = if ci_tol then Perf.Diff.ci else Perf.Diff.default in
  match Perf.Diff.compare ~tol ~cross_domains old_t new_t with
  | Error e ->
      Printf.eprintf "rwc perf diff: %s\n" e;
      exit 2
  | Ok findings ->
      Format.printf "%a" Perf.Diff.render findings;
      (match Perf.Diff.worst findings with
      | Perf.Diff.Fail -> exit 1
      | Perf.Diff.Warn | Perf.Diff.Pass -> ())

let perf_old_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OLD" ~doc:"Baseline trajectory (BENCH_*.json).")

let perf_new_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW" ~doc:"Candidate trajectory to compare.")

let perf_ci_flag =
  Arg.(
    value & flag
    & info [ "ci" ]
        ~doc:
          "Use the generous shared-runner tolerances (timings several \
           hundred percent; counts and allocation stay tight) instead of \
           the like-for-like defaults.")

let perf_cross_domains_flag =
  Arg.(
    value & flag
    & info [ "cross-domains" ]
        ~doc:
          "Allow comparing trajectories recorded with different \
           $(b,--domains) widths.  Refused by default: wall-time deltas \
           between different widths measure parallel speedup, not \
           regressions.")

let perf_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two BENCH_*.json trajectories; exits 1 when any metric \
          regresses past tolerance")
    Term.(
      const run_perf_diff $ perf_old_arg $ perf_new_arg $ perf_ci_flag
      $ perf_cross_domains_flag)

let perf_cmd =
  Cmd.group
    (Cmd.info "perf" ~doc:"Perf-trajectory tooling (see also $(b,rwc bench))")
    [ perf_diff_cmd ]

(* ---- fsck -------------------------------------------------------------- *)

let run_fsck () journal checkpoints dry_run json_path =
  if journal = None && checkpoints = None then begin
    prerr_endline
      "rwc fsck: nothing to check (pass --journal FILE and/or --checkpoints \
       DIR)";
    exit 2
  end;
  Option.iter (check_writable "--json") json_path;
  match Rwc_fsck.scan ~repair:(not dry_run) ?journal ?checkpoints () with
  | Error e ->
      Printf.eprintf "rwc fsck: %s\n" e;
      exit 2
  | Ok report ->
      Format.printf "%a" Rwc_fsck.pp_report report;
      Option.iter
        (fun p -> Obs.Json.to_file p (Rwc_fsck.report_to_json report))
        json_path;
      if Rwc_fsck.unrepaired report > 0 then exit 1

let fsck_journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Decision journal to check: a damaged tail (torn final line from a \
           crashed writer) is truncated back to the last valid line, \
           atomically.  Interior bad lines are reported but left in place — \
           readers skip and count them.")

let fsck_checkpoints_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoints" ] ~docv:"DIR"
        ~doc:
          "Checkpoint directory to check: orphaned $(b,*.tmp) files are \
           removed, standalone checkpoints failing CRC/version/JSON \
           validation are quarantined to $(b,*.corrupt), dropping them from \
           the resume fallback chain, and a damaged ring slot \
           ($(b,ring-K.ckpt), e.g. a torn overwrite) has its header \
           cleared, leaving an empty slot.")

let fsck_dry_run_flag =
  Arg.(
    value & flag
    & info [ "dry-run"; "n" ]
        ~doc:"Report findings without touching anything.")

let fsck_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write the machine-readable repair report (schema \
           $(b,rwc-fsck/1)) to $(docv).")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Detect and repair storage damage in durable run artifacts \
          (journals, checkpoint directories); exits 1 when unrepairable \
          findings remain")
    Term.(
      const run_fsck $ obs_term $ fsck_journal_arg $ fsck_checkpoints_arg
      $ fsck_dry_run_flag $ fsck_json_arg)

(* ---- torture ----------------------------------------------------------- *)

let run_torture () days ducts seed every quick sample keep rollout json_path =
  Option.iter (check_writable "--json") json_path;
  let sample =
    match sample with
    | Some n when n < 1 ->
        prerr_endline "rwc torture: --sample must be >= 1";
        exit 2
    | Some _ as s -> s
    | None -> if quick then Some 8 else None
  in
  let root = fresh_temp_dir "rwc-torture" in
  let cleanup () =
    if keep then Printf.printf "torture artifacts kept in %s\n" root
    else rm_rf_dir root
  in
  match
    Rwc_sim.Torture.run ~days ~ducts ~seed ~every ~rollout ?sample ~root ()
  with
  | Error e ->
      Printf.eprintf "rwc torture: %s\n" e;
      cleanup ();
      exit 2
  | exception e ->
      Printf.eprintf "rwc torture: %s\n" (Printexc.to_string e);
      cleanup ();
      exit 2
  | Ok s ->
      List.iter
        (fun c ->
          let open Rwc_sim.Torture in
          if not c.ok then
            Printf.printf "boundary %3d (%s): FAIL — %s\n" c.ordinal c.kind
              c.detail
          else
            Printf.printf "boundary %3d (%s): ok (%d repaired)\n" c.ordinal
              c.kind c.findings)
        s.Rwc_sim.Torture.cases;
      Printf.printf
        "torture: %d boundaries, %d killed, %d recovered byte-identical, %d \
         failed\n"
        s.Rwc_sim.Torture.boundaries
        (List.length s.Rwc_sim.Torture.cases)
        s.Rwc_sim.Torture.passed s.Rwc_sim.Torture.failed;
      Option.iter
        (fun p -> Obs.Json.to_file p (Rwc_sim.Torture.summary_to_json s))
        json_path;
      cleanup ();
      if s.Rwc_sim.Torture.failed > 0 then exit 1

let torture_days_arg =
  Arg.(
    value & opt float 0.25
    & info [ "days" ] ~docv:"D" ~doc:"Horizon of the tortured run in days.")

let torture_ducts_arg =
  Arg.(
    value & opt int 12
    & info [ "ducts" ] ~docv:"N"
        ~doc:"Size of the synthetic backbone the run is driven over.")

let torture_every_arg =
  Arg.(
    value & opt int 8
    & info [ "every" ] ~docv:"N"
        ~doc:"Checkpoint cadence in telemetry sweeps.")

let torture_quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Kill at ~8 evenly-spaced boundaries (including the first and \
           last) instead of every one — the CI smoke mode.  Overridden by \
           $(b,--sample).")

let torture_sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample" ] ~docv:"N"
        ~doc:
          "Kill at $(docv) evenly-spaced boundaries instead of every one.")

let torture_keep_flag =
  Arg.(
    value & flag
    & info [ "keep" ]
        ~doc:
          "Keep the scratch directory (golden journal, per-kill artifacts) \
           instead of deleting it; its path is printed.")

let torture_rollout_arg =
  Arg.(
    value
    & opt rollout_conv Rwc_rollout.none
    & info [ "rollout" ] ~docv:"PLAN"
        ~doc:
          "Arm a staged-rollout plan (same grammar as $(b,simulate \
           --rollout)) in the tortured run, so kill points land mid-wave \
           and mid-bake and recovery must replay the same gate verdicts \
           and rollbacks byte-identically.")

let torture_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write the machine-readable per-boundary summary (schema \
           $(b,rwc-torture/1)) to $(docv).")

let torture_cmd =
  Cmd.v
    (Cmd.info "torture"
       ~doc:
         "Crash-point torture: kill a seeded run at every storage boundary \
          (write/sync/rename), repair with fsck, resume, and demand the \
          recovered report and journal are byte-identical to a crash-free \
          run")
    Term.(
      const run_torture $ obs_term $ torture_days_arg $ torture_ducts_arg
      $ sim_seed_arg $ torture_every_arg $ torture_quick_flag
      $ torture_sample_arg $ torture_keep_flag $ torture_rollout_arg
      $ torture_json_arg)

(* ---- serve / watch ----------------------------------------------------- *)

(* The live control-plane daemon: the same run [simulate] performs,
   with a JSON-RPC window onto it.  The simulation is the source of
   truth; the daemon only reads (and previews what-ifs on reverted
   state), so a seeded serve run's report and journal are byte-identical
   to the batch run's. *)

let run_serve () days policy seed faults guard rollout journal_path slo
    backbone_file checkpoint checkpoint_every resume progress domains
    socket_path stdio metrics_interval max_queue =
  let domains = clamp_domains "rwc serve" domains in
  let journal_path =
    match journal_path with
    | Some p -> p
    | None ->
        prerr_endline
          "rwc serve: --journal FILE is required (the journal is the \
           subscribers' catch-up log)";
        exit 2
  in
  let mode =
    match (socket_path, stdio) with
    | Some p, false -> Rwc_serve.Daemon.Socket p
    | None, true -> Rwc_serve.Daemon.Stdio
    | None, false ->
        prerr_endline "rwc serve: pass --socket PATH or --stdio";
        exit 2
    | Some _, true ->
        prerr_endline "rwc serve: --socket and --stdio are mutually exclusive";
        exit 2
  in
  if metrics_interval <= 0 then begin
    prerr_endline "rwc serve: --metrics-interval must be >= 1";
    exit 2
  end;
  if max_queue <= 0 then begin
    prerr_endline "rwc serve: --max-queue must be >= 1";
    exit 2
  end;
  if Rwc_recover.plan_has_crash faults then begin
    prerr_endline
      "rwc serve: crash= fault rules are not supported (the in-process \
       restart would swap the journal out from under the live stream); \
       stopping the daemon and rerunning with --resume is its crash story";
    exit 2
  end;
  check_checkpoint_flags "serve" ~checkpoint ~checkpoint_every ~resume;
  (* The metrics topic streams registry deltas; make sure the registry
     counts even when the operator did not pass --metrics. *)
  Obs.Metrics.enable ();
  let backbone = backbone_of backbone_file in
  let policies =
    match policy with Some p -> [ p ] | None -> Rwc_sim.Runner.all_policies
  in
  let config_of journal =
    sim_config ~days ~seed ~faults ~guard ~rollout ~journal ~progress ~domains ()
  in
  match checkpoint with
  | None ->
      let jnl = journal_sink (Some journal_path) slo in
      exit
        (Rwc_serve.Daemon.serve ~mode ~metrics_interval ~max_queue
           ~config:(config_of jnl) ~backbone ~policies ~journal_path ~slo
           ~run_mode:Rwc_serve.Daemon.Fresh ())
  | Some dir ->
      let ctx, resume_from, jnl =
        open_checkpoint "serve" ~dir ~every:checkpoint_every ~journal_path ~slo
          ~faults ~resume ~seed ~days ()
      in
      exit
        (Rwc_serve.Daemon.serve ~mode ~metrics_interval ~max_queue
           ~config:(config_of jnl) ~backbone ~policies ~journal_path ~slo
           ~run_mode:(Rwc_serve.Daemon.Checkpointed (ctx, resume_from)) ())

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket to listen on (serve) or connect to (watch).")

let stdio_flag =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:
          "Speak JSON-RPC on stdin/stdout instead of a socket (reports then \
           only appear via $(b,fleet.status)).")

let serve_metrics_interval_arg =
  Arg.(
    value & opt int 96
    & info [ "metrics-interval" ] ~docv:"N"
        ~doc:
          "Telemetry sweeps between streamed metric deltas and online SLO \
           verdicts (default 96: one simulated day).")

let serve_max_queue_arg =
  Arg.(
    value & opt int 256
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Default per-subscriber event queue bound; a slow consumer's \
           overflow is dropped and counted ($(b,serve/dropped_events)).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Live control-plane daemon: run the simulation and serve telemetry \
          streams, decision events, SLO verdicts and what-if queries over \
          JSON-RPC")
    Term.(
      const run_serve $ obs_term $ days_arg $ policy_arg $ sim_seed_arg
      $ faults_arg $ guard_arg $ rollout_arg $ journal_arg $ slo_arg
      $ backbone_file_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_flag
      $ progress_flag $ domains_arg $ socket_arg $ stdio_flag
      $ serve_metrics_interval_arg $ serve_max_queue_arg)

(* watch: thin client over the serve socket — one-shot RPCs, a raw
   JSONL event tail, or a live fleet table. *)

let run_watch () socket_path raw from topics max_queue max_events rpc_meth
    rpc_params progress =
  let socket_path =
    match socket_path with
    | Some p -> p
    | None ->
        prerr_endline "rwc watch: --socket PATH is required";
        exit 2
  in
  let module C = Rwc_serve.Daemon.Client in
  let client =
    (* The daemon may still be binding its socket: retry briefly. *)
    let rec conn tries =
      match C.connect socket_path with
      | c -> c
      | exception Unix.Unix_error (e, _, _) ->
          if tries > 0 then begin
            (try Unix.sleepf 0.25 with Unix.Unix_error _ -> ());
            conn (tries - 1)
          end
          else begin
            Printf.eprintf "rwc watch: %s: %s\n" socket_path
              (Unix.error_message e);
            exit 2
          end
    in
    conn 20
  in
  let fail msg =
    Printf.eprintf "rwc watch: %s\n" msg;
    C.close client;
    exit 1
  in
  match rpc_meth with
  | Some meth -> (
      let params =
        match rpc_params with
        | None -> None
        | Some s -> (
            match Obs.Json.parse s with
            | Ok j -> Some j
            | Error e ->
                Printf.eprintf "rwc watch: --params: %s\n" e;
                exit 2)
      in
      match C.call client ~meth ?params () with
      | Ok r ->
          print_endline (Obs.Json.to_string r);
          C.close client
      | Error e -> fail e)
  | None ->
      let tbl = Hashtbl.create 64 in
      let policy = ref "-" in
      (* Table base state before subscribing, so the replayed/live
         events only ever move the view forward.  Factored out because a
         reconnect after a daemon restart must re-seed the table too. *)
      let load_status client =
        match C.call client ~meth:"fleet.status" () with
        | Error e -> Error e
        | Ok status ->
            (match Obs.Json.member "policy" status with
            | Some (Obs.Json.String p) -> policy := p
            | _ -> ());
            (match Obs.Json.member "links" status with
            | Some (Obs.Json.List l) ->
                List.iter
                  (fun row ->
                    match
                      ( Obs.Json.member "link" row,
                        Obs.Json.member "gbps" row,
                        Obs.Json.member "up" row,
                        Obs.Json.member "snr_db" row )
                    with
                    | ( Some (Obs.Json.Int id),
                        Some (Obs.Json.Int g),
                        Some (Obs.Json.Bool up),
                        Some (Obs.Json.Float s) ) ->
                        Hashtbl.replace tbl id (g, up, s)
                    | _ -> ())
                  l
            | _ -> ());
            Ok ()
      in
      (* [replay:false] after a reconnect: the restarted daemon's journal
         replay would double-count events the table already absorbed, so
         a resumed subscription is live-only. *)
      let subscribe client ~replay =
        let params =
          Obs.Json.Assoc
            ((match topics with
             | [] -> []
             | ts ->
                 [
                   ( "topics",
                     Obs.Json.List (List.map (fun s -> Obs.Json.String s) ts)
                   );
                 ])
            @ (match if replay then from else None with
              | Some n -> [ ("from", Obs.Json.Int n) ]
              | None -> [])
            @
            match max_queue with
            | Some n -> [ ("max_queue", Obs.Json.Int n) ]
            | None -> [])
        in
        match C.call client ~meth:"stream.subscribe" ~params () with
        | Ok _ -> Ok ()
        | Error e -> Error e
      in
      (match load_status client with Ok () -> () | Error e -> fail e);
      (match subscribe client ~replay:true with
      | Ok () -> ()
      | Error e -> fail e);
      let hb =
        if progress then
          Some (Rwc_perf.Progress.create ~label:"watch" ~total_days:0.0 ())
        else None
      in
      let tty = try Unix.isatty Unix.stdout with Unix.Unix_error _ -> false in
      let now = ref 0.0 in
      let slo_line = ref "" in
      let n_events = ref 0 in
      let last_draw = ref 0.0 in
      let redraw ~force () =
        let t = Unix.gettimeofday () in
        if force || t -. !last_draw >= 0.5 then begin
          last_draw := t;
          if tty then print_string "\027[H\027[2J" else print_newline ();
          Printf.printf "fleet @ t=%.0fs  policy=%s  events=%d%s\n" !now
            !policy !n_events
            (if !slo_line = "" then "" else "  slo: " ^ !slo_line);
          Printf.printf "%-5s %6s %-5s %8s\n" "link" "gbps" "up" "snr_db";
          List.iter
            (fun (id, (g, up, s)) ->
              Printf.printf "%-5d %6d %-5s %8.2f\n" id g
                (if up then "up" else "dark")
                s)
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []));
          flush stdout
        end
      in
      let int_of j = match j with Some (Obs.Json.Int n) -> Some n | _ -> None in
      let handle env =
        if raw then begin
          (* Line-buffered even into a pipe: this is a live tail. *)
          print_endline (Obs.Json.to_string env);
          flush stdout
        end
        else begin
          (match (Obs.Json.member "topic" env, Obs.Json.member "data" env) with
          | Some (Obs.Json.String "decision"), Some data -> (
              (match Obs.Json.member "t" data with
              | Some (Obs.Json.Float t) -> now := t
              | Some (Obs.Json.Int t) -> now := float_of_int t
              | _ -> ());
              match (int_of (Obs.Json.member "link" data), Obs.Json.member "ev" data) with
              | Some id, Some (Obs.Json.String "commit") -> (
                  match
                    (int_of (Obs.Json.member "gbps" data),
                     Obs.Json.member "up" data)
                  with
                  | Some g, Some (Obs.Json.Bool up) ->
                      let _, _, snr =
                        Option.value (Hashtbl.find_opt tbl id)
                          ~default:(0, false, 0.0)
                      in
                      Hashtbl.replace tbl id (g, up, snr)
                  | _ -> ())
              | Some id, Some (Obs.Json.String "outage") -> (
                  match Obs.Json.member "up" data with
                  | Some (Obs.Json.Bool up) ->
                      let g, _, snr =
                        Option.value (Hashtbl.find_opt tbl id)
                          ~default:(0, false, 0.0)
                      in
                      Hashtbl.replace tbl id (g, up, snr)
                  | _ -> ())
              | Some id, Some (Obs.Json.String "observe") -> (
                  match Obs.Json.member "snr_db" data with
                  | Some (Obs.Json.Float s) ->
                      let g, up, _ =
                        Option.value (Hashtbl.find_opt tbl id)
                          ~default:(0, false, 0.0)
                      in
                      Hashtbl.replace tbl id (g, up, s)
                  | _ -> ())
              | _, Some (Obs.Json.String "run") -> (
                  match Obs.Json.member "policy" data with
                  | Some (Obs.Json.String p) -> policy := p
                  | _ -> ())
              | _ -> ())
          | Some (Obs.Json.String "lifecycle"), Some data -> (
              match
                (Obs.Json.member "event" data, Obs.Json.member "policy" data)
              with
              | Some (Obs.Json.String "run-start"), Some (Obs.Json.String p) ->
                  policy := p
              | _ -> ())
          | Some (Obs.Json.String "slo"), Some data -> (
              match Obs.Json.member "scorecard" data with
              | Some card -> (
                  match
                    ( int_of (Obs.Json.member "links_met" card),
                      int_of (Obs.Json.member "links_violated" card) )
                  with
                  | Some met, Some violated ->
                      slo_line :=
                        Printf.sprintf "%d met / %d violated" met violated
                  | _ -> ())
              | None -> ())
          | _ -> ());
          redraw ~force:false ()
        end
      in
      (* A dropped stream (daemon restart, upgrade, transient socket
         error) is survivable: retry the connect on the orchestrator's
         capped exponential backoff schedule before giving up. *)
      let rp = Rwc_sim.Orchestrator.default_reconnect_policy in
      let reconnect () =
        let rec go attempt =
          if attempt > rp.Rwc_sim.Orchestrator.max_attempts then None
          else begin
            let delay = Rwc_sim.Orchestrator.backoff_delay rp ~attempt in
            (try Unix.sleepf delay with Unix.Unix_error _ -> ());
            match C.connect socket_path with
            | c -> Some c
            | exception Unix.Unix_error _ -> go (attempt + 1)
          end
        in
        go 1
      in
      let rec loop client =
        if match max_events with Some m -> !n_events < m | None -> true then
          match C.recv client with
          | Error e -> (
              C.close client;
              Printf.eprintf
                "rwc watch: %s: stream dropped (%s); reconnecting...\n%!"
                socket_path e;
              match reconnect () with
              | None ->
                  if not raw then redraw ~force:true ();
                  Printf.eprintf
                    "rwc watch: %s: gave up after %d reconnect attempts\n"
                    socket_path rp.Rwc_sim.Orchestrator.max_attempts;
                  None
              | Some client -> (
                  Printf.eprintf "rwc watch: %s: reconnected\n%!" socket_path;
                  match
                    Result.bind (load_status client) (fun () ->
                        subscribe client ~replay:false)
                  with
                  | Ok () -> loop client
                  | Error e ->
                      Printf.eprintf "rwc watch: %s\n" e;
                      Some client))
          | Ok msg -> (
              match
                (Obs.Json.member "method" msg, Obs.Json.member "params" msg)
              with
              | Some (Obs.Json.String "stream.event"), Some env ->
                  incr n_events;
                  handle env;
                  (match hb with
                  | Some p ->
                      Rwc_perf.Progress.tick p ~day:0.0 ~events:!n_events
                  | None -> ());
                  loop client
              | _ -> loop client)
        else Some client
      in
      let last = loop client in
      (match hb with Some p -> Rwc_perf.Progress.finish p | None -> ());
      match last with Some c -> C.close c | None -> ()

let watch_raw_flag =
  Arg.(
    value & flag
    & info [ "raw" ]
        ~doc:
          "Print each stream event as one JSON line instead of the live \
           fleet table.")

let watch_from_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "from" ] ~docv:"SEQ"
        ~doc:
          "Catch up first: replay journal decision events with ordinal >= \
           $(docv) (0 = the whole journal) before the live stream.")

let watch_topics_arg =
  Arg.(
    value & opt (list string) []
    & info [ "topics" ] ~docv:"T,.."
        ~doc:
          "Comma-separated topic filter: decision, metrics, slo, lifecycle \
           (default: all).")

let watch_max_queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-queue" ] ~docv:"N"
        ~doc:"Server-side queue bound for this subscription.")

let watch_max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Exit after receiving $(docv) stream events.")

let watch_rpc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rpc" ] ~docv:"METHOD"
        ~doc:
          "One-shot mode: call $(docv) (with $(b,--params)), print the \
           result as JSON and exit.")

let watch_params_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "params" ] ~docv:"JSON"
        ~doc:"Parameters for $(b,--rpc), as a JSON object.")

let watch_cmd =
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Thin client for a running $(b,rwc serve): live fleet table, raw \
          event tail, or one-shot RPCs.  Streaming modes survive daemon \
          restarts: a dropped socket is re-dialed with capped exponential \
          backoff (noticed on stderr) before the client gives up")
    Term.(
      const run_watch $ obs_term $ socket_arg $ watch_raw_flag $ watch_from_arg
      $ watch_topics_arg $ watch_max_queue_arg $ watch_max_events_arg
      $ watch_rpc_arg $ watch_params_arg $ progress_flag)

(* ---- main -------------------------------------------------------------- *)

let () =
  let doc = "Run, Walk, Crawl: dynamic link capacities (HotNets'17) reproduction" in
  let info = Cmd.info "rwc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd; analyze_cmd; simulate_cmd; chaos_cmd; explain_cmd;
            serve_cmd; watch_cmd; bvt_cmd; constellation_cmd; export_cmd;
            detect_cmd; topology_cmd; bench_cmd; perf_cmd; torture_cmd;
            fsck_cmd;
          ]))
