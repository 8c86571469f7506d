(* Tests for the operational-infrastructure substrates: trace
   persistence and the lossy telemetry collector. *)

(* --- store ----------------------------------------------------------------- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let sample_trace =
  [| 15.5; 14.2; 0.0; 16.125; 13.999999; 17.25 |]

let test_csv_roundtrip () =
  let path = tmp "rwc_test_trace.csv" in
  Rwc_telemetry.Store.write_trace_csv path sample_trace;
  (match Rwc_telemetry.Store.read_trace_csv path with
  | Ok back ->
      Alcotest.(check int) "length" (Array.length sample_trace) (Array.length back);
      Array.iteri
        (fun i v -> Alcotest.(check (float 1e-5)) "value" sample_trace.(i) v)
        back
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_binary_roundtrip_exact () =
  let path = tmp "rwc_test_trace.bin" in
  Rwc_telemetry.Store.write_trace_binary path sample_trace;
  (match Rwc_telemetry.Store.read_trace_binary path with
  | Ok back ->
      Alcotest.(check bool) "bit-exact" true (back = sample_trace)
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_binary_rejects_garbage () =
  let path = tmp "rwc_test_garbage.bin" in
  let oc = open_out_bin path in
  output_string oc "NOPE" ;
  close_out oc;
  (match Rwc_telemetry.Store.read_trace_binary path with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  Sys.remove path

let test_binary_rejects_truncated () =
  let path = tmp "rwc_test_trunc.bin" in
  Rwc_telemetry.Store.write_trace_binary path sample_trace;
  (* Chop the last 4 bytes. *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let content = really_input_string ic (len - 4) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  (match Rwc_telemetry.Store.read_trace_binary path with
  | Ok _ -> Alcotest.fail "accepted truncated file"
  | Error _ -> ());
  Sys.remove path

let test_missing_file_is_error () =
  match Rwc_telemetry.Store.read_trace_csv "/nonexistent/rwc.csv" with
  | Ok _ -> Alcotest.fail "read a missing file"
  | Error _ -> ()

(* --- collector ---------------------------------------------------------------- *)

let test_poll_lossless () =
  let rng = Rwc_stats.Rng.create 11 in
  let samples = Rwc_telemetry.Collector.poll rng sample_trace ~loss_prob:0.0 in
  Alcotest.(check int) "all slots" (Array.length sample_trace) (List.length samples);
  Alcotest.(check (float 1e-9)) "completeness 1" 1.0
    (Rwc_telemetry.Collector.completeness samples ~n:(Array.length sample_trace))

let test_poll_lossy_rate () =
  let rng = Rwc_stats.Rng.create 12 in
  let trace = Array.make 20_000 10.0 in
  let samples = Rwc_telemetry.Collector.poll rng trace ~loss_prob:0.3 in
  let c = Rwc_telemetry.Collector.completeness samples ~n:20_000 in
  Alcotest.(check (float 0.02)) "~70% arrive" 0.7 c

let test_fill_gaps_locf () =
  let samples =
    [ { Rwc_telemetry.Collector.index = 1; snr_db = 5.0 };
      { Rwc_telemetry.Collector.index = 3; snr_db = 9.0 } ]
  in
  match Rwc_telemetry.Collector.fill_gaps samples ~n:5 with
  | None -> Alcotest.fail "samples exist"
  | Some dense ->
      Alcotest.(check (array (float 1e-9))) "locf + backfill"
        [| 5.0; 5.0; 5.0; 9.0; 9.0 |] dense

let test_fill_gaps_empty () =
  Alcotest.(check bool) "none" true
    (Rwc_telemetry.Collector.fill_gaps [] ~n:5 = None)

let test_max_gap () =
  let s i = { Rwc_telemetry.Collector.index = i; snr_db = 0.0 } in
  Alcotest.(check int) "interior gap" 3
    (Rwc_telemetry.Collector.max_gap [ s 0; s 4; s 5 ] ~n:6);
  Alcotest.(check int) "trailing gap" 4
    (Rwc_telemetry.Collector.max_gap [ s 0; s 1 ] ~n:6);
  Alcotest.(check int) "empty stream" 6 (Rwc_telemetry.Collector.max_gap [] ~n:6)

let test_analysis_robust_to_loss () =
  (* The paper's HDR statistic barely moves under 5% poll loss with
     LOCF gap filling. *)
  let p = Rwc_telemetry.Snr_model.default_params ~baseline_db:15.0 () in
  let trace, _ =
    Rwc_telemetry.Snr_model.generate (Rwc_stats.Rng.create 13) p ~years:1.0
  in
  let samples =
    Rwc_telemetry.Collector.poll (Rwc_stats.Rng.create 14) trace ~loss_prob:0.05
  in
  match Rwc_telemetry.Collector.fill_gaps samples ~n:(Array.length trace) with
  | None -> Alcotest.fail "samples exist"
  | Some dense ->
      let exact = Rwc_stats.Hdr.of_samples trace in
      let filled = Rwc_stats.Hdr.of_samples dense in
      Alcotest.(check (float 0.1)) "hdr width stable"
        (Rwc_stats.Hdr.width exact) (Rwc_stats.Hdr.width filled)

let suite =
  [
    Alcotest.test_case "store csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "store binary roundtrip" `Quick test_binary_roundtrip_exact;
    Alcotest.test_case "store rejects garbage" `Quick test_binary_rejects_garbage;
    Alcotest.test_case "store rejects truncated" `Quick test_binary_rejects_truncated;
    Alcotest.test_case "store missing file" `Quick test_missing_file_is_error;
    Alcotest.test_case "poll lossless" `Quick test_poll_lossless;
    Alcotest.test_case "poll lossy rate" `Quick test_poll_lossy_rate;
    Alcotest.test_case "fill gaps locf" `Quick test_fill_gaps_locf;
    Alcotest.test_case "fill gaps empty" `Quick test_fill_gaps_empty;
    Alcotest.test_case "max gap" `Quick test_max_gap;
    Alcotest.test_case "analysis robust to loss" `Quick test_analysis_robust_to_loss;
  ]
