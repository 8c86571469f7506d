type episode = { start : int; samples : int; min_snr_db : float }

let duration_hours e =
  float_of_int e.samples *. Snr_model.sample_interval_s /. 3600.0

let episodes trace ~threshold_db =
  let n = Array.length trace in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if trace.(!i) < threshold_db then begin
      let start = !i in
      let min_snr = ref trace.(!i) in
      while !i < n && trace.(!i) < threshold_db do
        if trace.(!i) < !min_snr then min_snr := trace.(!i);
        incr i
      done;
      out := { start; samples = !i - start; min_snr_db = !min_snr } :: !out
    end
    else incr i
  done;
  List.rev !out

let threshold_of_gbps gbps =
  match Rwc_optical.Modulation.of_gbps gbps with
  | Some m -> m.Rwc_optical.Modulation.min_snr_db
  | None -> invalid_arg (Printf.sprintf "Failure: unknown capacity %d Gbps" gbps)

let count_at_capacity trace ~gbps =
  List.length (episodes trace ~threshold_db:(threshold_of_gbps gbps))

let durations_at_capacity trace ~gbps =
  List.map duration_hours (episodes trace ~threshold_db:(threshold_of_gbps gbps))

let min_snrs trace ~threshold_db =
  List.map (fun e -> e.min_snr_db) (episodes trace ~threshold_db)
