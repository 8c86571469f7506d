(* Overhead of the Rwc_obs instrumentation left compiled into the hot
   paths.  The zero-overhead-when-disabled claim (DESIGN.md) is that a
   disabled [Metrics.incr] is a flag load, a branch, and nothing else —
   indistinguishable from an empty call.  The enabled and disabled
   regimes cannot share one timing run (the flag is process-global
   state), so this is a manual timing loop: measure a tight loop of
   increments in each regime and report ns/op against an empty-loop
   baseline. *)

module Metrics = Rwc_obs.Metrics

let iters = 50_000_000

let time_loop f =
  (* Warm up, then take the best of 3 to shave scheduler noise. *)
  ignore (f 1_000_000);
  let best = ref infinity in
  for _ = 1 to 3 do
    let (), dt = Metrics.timed (fun () -> f iters) in
    if dt < !best then best := dt
  done;
  !best /. float_of_int iters *. 1e9

let baseline n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity ())
  done

let incr_loop m n =
  for _ = 1 to n do
    Metrics.incr (Sys.opaque_identity m)
  done

let observe_loop h n =
  for _ = 1 to n do
    Metrics.observe (Sys.opaque_identity h) 1e-3
  done

(* The journal makes the same zero-when-disarmed claim: an emit against
   [Rwc_journal.disarmed] is a flag load and a branch, before any
   record is allocated or any JSON is built. *)
let journal_disarmed_loop n =
  let jnl = Sys.opaque_identity Rwc_journal.disarmed in
  for _ = 1 to n do
    Rwc_journal.observe jnl ~link:0 ~now:0.0 ~snr_db:14.0 ~fresh:true
  done

(* And the phase profiler: a disarmed [start] is one flag load
   returning an immediate, and [stop] on that token is one branch. *)
let perf_disarmed_loop n =
  for _ = 1 to n do
    Rwc_perf.stop (Sys.opaque_identity (Rwc_perf.start Rwc_perf.Journal_emit))
  done

(* Armed throughput is a different regime entirely (record allocation,
   JSON serialization, buffered channel write), so it is reported as
   events/s, not held to the ns budget. *)
let journal_armed_throughput () =
  let path = Filename.temp_file "rwc_journal_bench" ".jsonl" in
  let jnl = Rwc_journal.create ~path () in
  let n = 1_000_000 in
  Rwc_journal.start_run jnl ~policy:"bench" ~seed:0 ~horizon_s:86_400.0
    ~n_links:1;
  let (), dt =
    Metrics.timed (fun () ->
        for i = 1 to n do
          Rwc_journal.observe jnl ~link:0 ~now:(float_of_int i) ~snr_db:14.0
            ~fresh:true
        done;
        Rwc_journal.close jnl)
  in
  Sys.remove path;
  float_of_int n /. dt

let budget_ns = 5.0

(* Prints the verdict line for one disabled-path measurement and
   returns whether it is within budget. *)
let check name overhead =
  if overhead < budget_ns then begin
    Printf.printf "  %s %.2f ns/op: within the %.0f ns budget\n" name overhead
      budget_ns;
    true
  end
  else begin
    Printf.printf "  FAIL: %s %.2f ns/op exceeds the %.0f ns budget\n" name
      overhead budget_ns;
    false
  end

let run () =
  (* Registered here, not at module init: a top-level handle would put
     two zero rows in every [--metrics] table of the linking binary. *)
  let m = Metrics.counter "bench/obs_overhead" in
  let h = Metrics.histogram "bench/obs_overhead_h" in
  let was_enabled = Metrics.enabled () in
  let perf_was_enabled = Rwc_perf.enabled () in
  Metrics.disable ();
  Rwc_perf.disable ();
  let base_ns = time_loop baseline in
  let off_incr = time_loop (incr_loop m) in
  let off_observe = time_loop (observe_loop h) in
  let off_perf = time_loop perf_disarmed_loop in
  Metrics.enable ();
  let on_incr = time_loop (incr_loop m) in
  let on_observe = time_loop (observe_loop h) in
  if not was_enabled then Metrics.disable ();
  if perf_was_enabled then Rwc_perf.enable ();
  Printf.printf "  empty loop baseline        %6.2f ns/op\n" base_ns;
  Printf.printf "  Metrics.incr (disabled)    %6.2f ns/op  (+%.2f over baseline)\n"
    off_incr (off_incr -. base_ns);
  Printf.printf "  Metrics.incr (enabled)     %6.2f ns/op\n" on_incr;
  Printf.printf "  Metrics.observe (disabled) %6.2f ns/op\n" off_observe;
  Printf.printf "  Metrics.observe (enabled)  %6.2f ns/op\n" on_observe;
  let jnl_off = time_loop journal_disarmed_loop in
  let jnl_tput = journal_armed_throughput () in
  Printf.printf "  Journal.observe (disarmed) %6.2f ns/op  (+%.2f over baseline)\n"
    jnl_off (jnl_off -. base_ns);
  Printf.printf "  Perf start/stop (disarmed) %6.2f ns/op  (+%.2f over baseline)\n"
    off_perf (off_perf -. base_ns);
  Printf.printf "  Journal.observe (armed)    %6.2f Mevents/s to a temp file\n"
    (jnl_tput /. 1e6);
  let ok_metrics = check "disabled overhead" (off_incr -. base_ns) in
  let ok_journal = check "disarmed journal emit" (jnl_off -. base_ns) in
  let ok_perf = check "disarmed perf token" (off_perf -. base_ns) in
  ok_metrics && ok_journal && ok_perf
