type dip = { start : int; duration : int; floor_db : float }

type params = {
  baseline_db : float;
  wander : Rwc_stats.Timeseries.ar1;
  shallow_rate_per_year : float;
  shallow_depth_mean_db : float;
  shallow_duration_mean_h : float;
  deep_rate_per_year : float;
  deep_loss_of_light_prob : float;
  deep_duration_mean_h : float;
  diurnal_amplitude_db : float;
}

let sample_interval_s = 900.0
let samples_per_year = int_of_float (365.25 *. 24.0 *. 3600.0 /. sample_interval_s)
let samples_per_hour = 4

let default_params ?(wander_sigma = 0.08) ~baseline_db () =
  {
    baseline_db;
    wander =
      (* phi 0.97 at 15-min steps ~ hours-scale correlation; the default
         innovation sigma gives a stationary sigma ~ 0.33 dB and a 95%
         HDR near 1.3 dB.  The fleet draws per-link sigmas around this
         so a minority of links (the paper's 17%) exceed 2 dB. *)
      { Rwc_stats.Timeseries.mean = baseline_db; phi = 0.97; sigma = wander_sigma };
    shallow_rate_per_year = 8.0;
    shallow_depth_mean_db = 1.2;
    shallow_duration_mean_h = 3.0;
    deep_rate_per_year = 1.1;
    deep_loss_of_light_prob = 0.60;
    deep_duration_mean_h = 7.0;
    diurnal_amplitude_db = 0.0;
  }

let draw_dips rng p ~n =
  let years = float_of_int n /. float_of_int samples_per_year in
  let duration_samples mean_h =
    max 1
      (int_of_float
         (Rwc_stats.Rng.lognormal_of_mean rng ~mean:(mean_h *. float_of_int samples_per_hour) ~cv:0.8))
  in
  let shallow_count =
    Rwc_stats.Rng.poisson rng ~mean:(p.shallow_rate_per_year *. years)
  in
  let deep_count =
    Rwc_stats.Rng.poisson rng ~mean:(p.deep_rate_per_year *. years)
  in
  let shallow =
    List.init shallow_count (fun _ ->
        let depth =
          0.8
          +. Rwc_stats.Rng.exponential rng ~rate:(1.0 /. p.shallow_depth_mean_db)
        in
        {
          start = Rwc_stats.Rng.int rng n;
          duration = duration_samples p.shallow_duration_mean_h;
          floor_db = Float.max 0.0 (p.baseline_db -. depth);
        })
  in
  let deep =
    List.init deep_count (fun _ ->
        let floor_db =
          if Rwc_stats.Rng.float rng < p.deep_loss_of_light_prob then 0.0
          else Rwc_stats.Rng.uniform rng ~lo:0.3 ~hi:6.0
        in
        {
          start = Rwc_stats.Rng.int rng n;
          duration = duration_samples p.deep_duration_mean_h;
          floor_db;
        })
  in
  shallow @ deep

let generate_correlated rng p ~n_lambdas ~correlation ~years =
  assert (n_lambdas >= 1);
  assert (correlation >= 0.0 && correlation <= 1.0);
  assert (years > 0.0);
  let n = int_of_float (ceil (years *. float_of_int samples_per_year)) in
  (* Split the wander variance: a shared cable component carrying
     [correlation] of it and per-wavelength components carrying the
     rest, so each wavelength's marginal process matches [p.wander]. *)
  let shared_sigma = p.wander.Rwc_stats.Timeseries.sigma *. sqrt correlation in
  let own_sigma =
    p.wander.Rwc_stats.Timeseries.sigma *. sqrt (1.0 -. correlation)
  in
  let shared =
    Rwc_stats.Timeseries.ar1_generate rng
      { p.wander with Rwc_stats.Timeseries.mean = 0.0; sigma = Float.max 1e-9 shared_sigma }
      ~n
  in
  let dips = draw_dips rng p ~n in
  Array.init n_lambdas (fun _ ->
      let own =
        Rwc_stats.Timeseries.ar1_generate rng
          {
            p.wander with
            Rwc_stats.Timeseries.mean = p.baseline_db;
            sigma = Float.max 1e-9 own_sigma;
          }
          ~n
      in
      let trace = Array.mapi (fun i v -> v +. shared.(i)) own in
      List.iter
        (fun d ->
          let stop = min n (d.start + d.duration) in
          for i = d.start to stop - 1 do
            trace.(i) <- Float.min trace.(i) d.floor_db
          done)
        dips;
      Array.iteri (fun i x -> if x < 0.0 then trace.(i) <- 0.0) trace;
      trace)

let samples_per_day = samples_per_hour * 24

(* Daily sinusoid with its trough in the afternoon heat (amplifier
   noise figures worsen slightly when plant temperature peaks). *)
let diurnal p i =
  if p.diurnal_amplitude_db = 0.0 then 0.0
  else
    -.p.diurnal_amplitude_db
    *. cos
         (2.0 *. Float.pi
         *. (float_of_int (i mod samples_per_day) /. float_of_int samples_per_day
            -. 0.625))

let generate rng p ~years =
  assert (years > 0.0);
  Rwc_perf.record Rwc_perf.Telemetry_gen (fun () ->
      let n = int_of_float (ceil (years *. float_of_int samples_per_year)) in
      let trace = Rwc_stats.Timeseries.ar1_generate rng p.wander ~n in
      if p.diurnal_amplitude_db <> 0.0 then
        Array.iteri (fun i v -> trace.(i) <- v +. diurnal p i) trace;
      let dips = draw_dips rng p ~n in
      List.iter
        (fun d ->
          let stop = min n (d.start + d.duration) in
          for i = d.start to stop - 1 do
            trace.(i) <- Float.min trace.(i) d.floor_db
          done)
        dips;
      Array.iteri (fun i x -> if x < 0.0 then trace.(i) <- 0.0) trace;
      (trace, dips))
