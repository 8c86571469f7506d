(* The policy runner: one simulated run of the paper's control loop
   (observe SNR, pick a run/walk/crawl step, reconfigure the BVT,
   re-run TE on the augmented graph) under a fault plan, a guard, a
   staged rollout, a journal and an optional recovery context.

   A run is one private record, [run], and named stages over it.
   [sweep_tick] (hooks, recovery cut, rollout boundary) drives [sweep],
   which runs [observe_duct] over the pool, then [commit_sample] —
   [telemetry], then [decide] — per duct in index order, then
   [recompute_te].  [begin_attempt]/[finish_attempt] carry a
   reconfiguration; [capture]/[restore] are the checkpoint pair;
   [live_of] and [report_of] are the outside views.  Every event but
   the sweep tick is a {!Rwc_recover.pending} descriptor armed by
   [arm], in the live run and on restore alike.  [run_policy] only sets
   up, schedules, runs the DES and reports. *)

module Backbone = Rwc_topology.Backbone
module Modulation = Rwc_optical.Modulation
module Adapt = Rwc_core.Adapt
module Snr_model = Rwc_telemetry.Snr_model
module Detect = Rwc_telemetry.Detect

type procedure = Stock | Efficient

type policy = Static_100 | Static_max | Adaptive of procedure

let policy_name = function
  | Static_100 -> "static-100G"
  | Static_max -> "static-max"
  | Adaptive Stock -> "adaptive-stock-bvt"
  | Adaptive Efficient -> "adaptive-efficient-bvt"

(* A read-only (plus one explicitly-reverting what-if) window onto a
   running — or just-finished — policy run, handed to [hooks.on_run_start].
   The serve daemon is the intended consumer: the closures stay valid
   after [run_policy] returns, so RPCs keep answering from the final
   state while the daemon lingers. *)
type duct_view = {
  dv_link : int;
  dv_gbps : int;  (* per-wavelength denomination; 0 = dark *)
  dv_up : bool;
  dv_snr_db : float;
  dv_reconfiguring : bool;
}

type live = {
  lv_policy : string;
  lv_n_ducts : int;
  lv_rollout : Rwc_rollout.t option;
      (* the run's staged-commit engine; None on a static policy, where
         there are no discretionary upgrades to stage *)
  lv_now : unit -> float;  (* simulation seconds *)
  lv_duct : int -> duct_view;  (* Invalid_argument out of range *)
  lv_peek : link:int -> snr_db:float -> Rwc_core.Adapt.action option;
      (* pure controller preview; None on a static policy *)
  lv_routed_gbps : unit -> float;
  lv_capacity_gbps : unit -> float;
  lv_whatif : link:int -> gbps:int -> float * float;
      (* (routed now, routed if the link ran at [gbps]); reverts *)
}

type hooks = {
  on_run_start : (live -> unit) option;
  on_sweep : (k:int -> now_s:float -> events:int -> unit) option;
      (* every SNR sample boundary, before the sweep's mutations *)
  progress_extra : (unit -> string) option;
      (* extra segment for the --progress heartbeat line *)
}

let no_hooks = { on_run_start = None; on_sweep = None; progress_extra = None }

type config = {
  days : float;
  te_interval_h : float;
  seed : int;
  wavelengths : int;
  demand_fraction : float;
  top_demands : int;
  epsilon : float;
  faults : Rwc_fault.plan;
  retry : Orchestrator.retry_policy;
  guard : Rwc_guard.plan;
  rollout : Rwc_rollout.plan;
  journal : Rwc_journal.t;
  progress : bool;  (* stderr heartbeat for long runs *)
  domains : int;  (* Rwc_par pool width; 1 = plain sequential loop *)
  hooks : hooks;  (* all None (the default) = byte-identical run *)
}

let default_config =
  {
    days = 60.0;
    te_interval_h = 6.0;
    seed = 7;
    wavelengths = 4;
    demand_fraction = 0.75;
    top_demands = 40;
    epsilon = 0.12;
    faults = Rwc_fault.none;
    retry = Orchestrator.default_retry_policy;
    guard = Rwc_guard.none;
    rollout = Rwc_rollout.none;
    journal = Rwc_journal.disarmed;
    progress = false;
    domains = 1;
    hooks = no_hooks;
  }

type fault_stats = {
  injected : int;
  bvt_failures : int;
  retries : int;
  fallbacks : int;
  stuck_transitions : int;
  te_delays : int;
}

type report = {
  policy : policy;
  delivered_pbit : float;
  offered_pbit : float;
  avg_throughput_gbps : float;
  avg_capacity_gbps : float;
  duct_availability : float;
  failures : int;
  flaps : int;
  reconfigurations : int;
  reconfig_downtime_s : float;
  fault_stats : fault_stats option;
  guard_stats : Rwc_guard.stats option;
  rollout_stats : Rwc_rollout.stats option;
  slo : Rwc_journal.Slo.summary option;
}

(* Per-duct bookkeeping private to a run. *)
type duct_run = {
  state : Netstate.duct_state;
  trace : float array;
  controller : Adapt.state option;  (* Some for adaptive policies *)
  mutable reconfiguring : bool;
}

module Metrics = Rwc_obs.Metrics
module Trace = Rwc_obs.Trace

let m_te_recompute = Metrics.histogram "te/recompute"
let m_te_count = Metrics.counter "te/recomputes"
let m_te_cache_hits = Metrics.counter "te/cache_hits"
let m_snr_sweep = Metrics.histogram "sim/snr_sweep"
let m_failures = Metrics.counter "sim/failures"
let m_flaps = Metrics.counter "sim/flaps"
let m_reconfigs = Metrics.counter "sim/reconfigurations"
let m_downtime = Metrics.fcounter "sim/reconfig_downtime_s"

(* The in-run reconfiguration accounting is the runner playing
   orchestrator: the traffic the last TE round routed over a duct is
   disrupted for the duration of the capacity change.  The standalone
   {!Orchestrator} feeds the same metrics, retry and fallback counters
   included. *)
let m_disrupted = Metrics.fcounter "orchestrator/disrupted_gbit"
let m_retries = Metrics.counter "orchestrator/retries"
let m_fallbacks = Metrics.counter "orchestrator/fallbacks"
let m_te_delayed = Metrics.counter "te/recomputes_delayed"
let m_slo_met = Metrics.counter "slo/links_met"
let m_slo_violated = Metrics.counter "slo/links_violated"

let downtime_mean_s = function
  | Stock ->
      let l = Rwc_optical.Bvt.default_latency in
      l.Rwc_optical.Bvt.laser_off_mean_s +. l.Rwc_optical.Bvt.reprogram_mean_s
      +. l.Rwc_optical.Bvt.laser_on_relock_mean_s
  | Efficient -> Rwc_optical.Bvt.default_latency.Rwc_optical.Bvt.dsp_reconfig_mean_s

(* What the controller wants to do, in the guard's vocabulary; [None]
   for actions that need no screening. *)
let intent_of = function
  | Adapt.No_change | Adapt.Stuck _ -> None
  | Adapt.Step_up _ -> Some Rwc_guard.Up_shift
  | Adapt.Step_down _ -> Some Rwc_guard.Down_shift
  | Adapt.Go_dark _ -> Some Rwc_guard.Dark
  | Adapt.Come_back _ -> Some Rwc_guard.Recover

(* The same decision in the journal's vocabulary, with the capacity
   move spelled out; [None] for the cases that start no chain. *)
let journal_intent_of = function
  | Adapt.No_change | Adapt.Stuck _ -> None
  | Adapt.Step_up { from_gbps; to_gbps } ->
      Some (Rwc_journal.Step_up, from_gbps, to_gbps)
  | Adapt.Step_down { from_gbps; to_gbps } ->
      Some (Rwc_journal.Step_down, from_gbps, to_gbps)
  | Adapt.Go_dark { from_gbps } -> Some (Rwc_journal.Go_dark, from_gbps, 0)
  | Adapt.Come_back { to_gbps } -> Some (Rwc_journal.Come_back, 0, to_gbps)

let journal_verdict_of = function
  | Rwc_guard.Allow -> Rwc_journal.Admitted
  | Rwc_guard.Suppress Rwc_guard.Quarantined -> Rwc_journal.Damped
  | Rwc_guard.Suppress Rwc_guard.Admission -> Rwc_journal.Deferred
  | Rwc_guard.Suppress Rwc_guard.Stale -> Rwc_journal.Stale_data
  | Rwc_guard.Suppress Rwc_guard.Global_hold -> Rwc_journal.Held

let sample_s = Snr_model.sample_interval_s

(* Event-driven TE with time-integral accounting: the current routed
   total earns credit until the next recomputation, and any topology
   change (failure, recovery, reconfiguration) marks the state dirty
   so TE reacts at the next sweep, as a production controller would.
   Topology, commodities and epsilon are fixed for the run, so the
   capacity vector alone determines a solve: a repeated vector takes
   the stored total and flows from [memo] instead of solving again.
   The memo is not checkpointed — a resumed run starts it empty and
   re-solves, which yields the same bits. *)
type te = {
  memo : Te_memo.t;
  mutable last_time : float;  (* accounting is flushed up to here *)
  mutable total : float;  (* routed Gbps since [last_time] *)
  mutable capacity : float;  (* usable Gbps since [last_time] *)
  mutable dirty : bool;  (* topology changed since the last solve *)
  flow : float array;
      (* Gbps routed over each duct (both directions) by the last solve:
         a reconfiguring duct loses this much traffic for the duration
         of the change. *)
}

(* One policy run.  Two kinds of state live here, and the split is
   what makes [--domains N] byte-identical to the sequential run:

   - {e shard-local} (safe to touch from any domain, owned by one
     duct): the duct's SNR trace and its RNG substream, its controller
     and detectors, its slot in the per-duct scratch arrays.  The
     parallel phases — trace generation at init, the per-sweep observe
     pass — touch only this.
   - {e fleet-global} (domain 0 only): the TE state, the DES queue,
     the journal, the guard, every counter and float accumulator
     (float addition does not reassociate), and the shared fault /
     reconfig RNG streams whose draw order is part of the byte
     contract.  Decisions always commit through this path in
     duct-index order. *)
type run = {
  config : config;
  policy : policy;
  pool : Rwc_par.pool;
  inj : Rwc_fault.injector;
  net : Netstate.t;
  guard : Rwc_guard.t;
  guard_telemetry : bool;
      (* Collector faults are drawn only when the guard is armed for an
         adaptive policy: with the guard off the run is bit-identical to
         a build without the guard layer, even under an armed fault
         plan. *)
  jnl : Rwc_journal.t;
  jarmed : bool;
  rollout : Rwc_rollout.t;
  detectors : (Detect.Ewma.t * Detect.Cusum.t) array option;
  ducts : duct_run array;
  (* Edge-triggered journal events need last-seen state: freeze and
     quarantine are episodes, recorded once at entry (and, for
     quarantine, once at release); EWMA alarms persist while the level
     shift lasts, so only the onset is journaled (CUSUM self-resets). *)
  freeze_seen : bool array;
  quar_seen : bool array;
  ewma_alarming : bool array;
  (* Per-sweep scratch filled by the (possibly parallel) observe pass —
     each duct writes only its own slot — and consumed by the
     sequential commit pass in duct-index order.  Dead between sweeps,
     so checkpoints never carry it. *)
  obs_ewma : bool array;
  obs_cusum : bool array;
  obs_now_up : bool array;
  sample_up_fraction : float array;
      (* Fraction of the current sample interval each duct spent
         usable; 1.0 unless a reconfiguration started in this sample. *)
  reconfig_rng : Rwc_stats.Rng.t;
  commodities : Rwc_flow.Multicommodity.commodity array;
  offered_gbps : float;
  engine : Des.t;
  horizon_s : float;
  n_samples : int;
  recover :
    (Rwc_recover.ctx
    * (Rwc_recover.run_state -> journal_events:int -> journal_bytes:int -> unit))
    option;
  heartbeat : Rwc_perf.Progress.t option;
  te : te;
  mutable failures : int;
  mutable flaps : int;
  mutable reconfigs : int;
  mutable downtime : float;
  mutable delivered_gbit : float;
  mutable capacity_acc : float;
  mutable up_acc : float;
  mutable duct_obs : int;
  mutable retries : int;
  mutable fallbacks : int;
  (* DES handlers are closures and cannot be serialized, so an armed
     recovery context shadows the event queue with reconstructible
     descriptors, kept in scheduling order (see [arm]). *)
  mutable pending : (int * Rwc_recover.pending) list;
  mutable pending_seq : int;
}

let count_failure run =
  run.failures <- run.failures + 1;
  Metrics.incr m_failures

let count_flap run =
  run.flaps <- run.flaps + 1;
  Metrics.incr m_flaps

(* A flap the rollout engine's health gate hears about.  A rollback's
   own revert counts as a flap but is not fed back to the gate that
   ordered it, so it takes [count_flap] alone. *)
let note_flap run ~now =
  count_flap run;
  Rwc_rollout.note_flap run.rollout ~now

let ctl_of dr =
  match dr.controller with
  | Some c -> c
  | None -> invalid_arg "Runner: pending attempt on a static policy"

let flush_te run now =
  let te = run.te in
  let dt = now -. te.last_time in
  if dt > 0.0 then begin
    run.delivered_gbit <- run.delivered_gbit +. (te.total *. dt);
    run.capacity_acc <- run.capacity_acc +. (te.capacity *. dt);
    te.last_time <- now
  end

let capacity_key run =
  Array.map (fun d -> int_of_float (Netstate.capacity_gbps d)) run.net.Netstate.ducts

(* Solve TE on the graph as the ducts stand right now. *)
let solve run =
  Rwc_core.Te.mcf ~epsilon:run.config.epsilon (Netstate.graph run.net)
    run.commodities

let recompute_te run now =
  let te = run.te in
  Trace.with_span "te/recompute" (fun () ->
      Metrics.time m_te_recompute (fun () ->
          Metrics.incr m_te_count;
          flush_te run now;
          let key = capacity_key run in
          (match Te_memo.find te.memo key ~into:te.flow with
          | Some total ->
              Metrics.incr m_te_cache_hits;
              te.total <- total
          | None ->
              let r = solve run in
              te.total <- r.Rwc_core.Te.total_gbps;
              (* Edges 2i and 2i+1 are duct i's two directions, in
                 construction order. *)
              Array.iteri
                (fun i _ ->
                  te.flow.(i) <-
                    r.Rwc_core.Te.flow.(2 * i) +. r.Rwc_core.Te.flow.((2 * i) + 1))
                te.flow;
              Te_memo.add te.memo key ~total:te.total ~flow:te.flow);
          te.capacity <-
            Array.fold_left
              (fun acc (d : Netstate.duct_state) ->
                acc +. Netstate.capacity_gbps d)
              0.0 run.net.Netstate.ducts;
          te.dirty <- false))

(* The descriptor of a fleet-wide TE event: no link, no attempt. *)
let te_event kind ~at =
  { Rwc_recover.p_kind = kind; p_link = -1; p_new_gbps = 0; p_prev_gbps = 0;
    p_attempt = 0; p_at = at }

(* Time a duct spends unusable — attempt durations, injected stalls
   and retry backoffs alike — costs the traffic TE had routed over
   it. *)
let charge_duct run (d : Netstate.duct_state) dt =
  let flow = run.te.flow.(d.Netstate.duct_index) in
  run.downtime <- run.downtime +. dt;
  Metrics.addf m_downtime dt;
  run.delivered_gbit <- run.delivered_gbit -. (flow *. dt);
  Metrics.addf m_disrupted (flow *. dt)

let finish_duct run dr gbps =
  dr.reconfiguring <- false;
  dr.state.Netstate.per_lambda_gbps <- gbps;
  dr.state.Netstate.up <- true;
  Rwc_guard.release run.guard ~link:dr.state.Netstate.duct_index;
  run.te.dirty <- true

(* Every runner event except the sweep tick is a {!Rwc_recover.pending}
   descriptor, and [arm] is its one way into the DES: record it (when
   recovery is armed), schedule it at [p_at], drop it when it fires,
   and dispatch on its kind.  The live run and the restore path both
   come through here, so a restored event is the very handler the
   uninterrupted run would have fired; and since descriptors are kept
   in scheduling order and re-armed in that order, same-time ties
   break exactly as the event queue's insertion-sequence tie-break
   broke them.  Disarmed, the bookkeeping is a flag check. *)
let rec arm run (p : Rwc_recover.pending) =
  let id =
    match run.recover with
    | None -> 0
    | Some _ ->
        run.pending_seq <- run.pending_seq + 1;
        run.pending <- run.pending @ [ (run.pending_seq, p) ];
        run.pending_seq
  in
  Des.schedule run.engine ~at:p.Rwc_recover.p_at (fun engine ->
      if Option.is_some run.recover then
        run.pending <- List.filter (fun (i, _) -> i <> id) run.pending;
      let now = Des.now engine in
      match p.Rwc_recover.p_kind with
      | Rwc_recover.Te_tick ->
          recompute_te run now;
          let next = now +. (run.config.te_interval_h *. 3600.0) in
          if next <= run.horizon_s then arm run (te_event Rwc_recover.Te_tick ~at:next)
      | Rwc_recover.Te_recheck -> if run.te.dirty then recompute_te run now
      | Rwc_recover.Begin_attempt -> begin_attempt run p
      | Rwc_recover.Finish_attempt -> finish_attempt run p)

(* A reconfiguration is a chain of attempts.  [begin_attempt] starts
   attempt [p_attempt] (drawing its duration) and arms its completion;
   [finish_attempt] is the completion, with the fault/retry/fallback
   outcome logic, arming the next attempt after a backoff if a retry
   is due. *)
and begin_attempt run (p : Rwc_recover.pending) =
  let dr = run.ducts.(p.Rwc_recover.p_link) in
  let d = dr.state in
  let mean =
    match run.policy with Adaptive proc -> downtime_mean_s proc | Static_100 | Static_max -> 0.0
  in
  let dt =
    Float.min sample_s
      (Rwc_stats.Rng.lognormal_of_mean run.reconfig_rng ~mean ~cv:0.35)
  in
  charge_duct run d dt;
  if p.Rwc_recover.p_attempt = 1 then
    run.sample_up_fraction.(d.Netstate.duct_index) <- 1.0 -. (dt /. sample_s);
  arm run
    { p with Rwc_recover.p_kind = Rwc_recover.Finish_attempt; p_at = Des.now run.engine +. dt }

and finish_attempt run (p : Rwc_recover.pending) =
  let { Rwc_recover.p_link = i; p_new_gbps = new_gbps; p_prev_gbps = prev_gbps;
        p_attempt = n; _ } = p in
  let dr = run.ducts.(i) in
  let ctl = ctl_of dr and d = dr.state in
  let jnl = run.jnl and inj = run.inj in
  let now = Des.now run.engine in
  let timed_out = Rwc_fault.fires inj Rwc_fault.Bvt_timeout ~now in
  let failed = timed_out || Rwc_fault.fires inj Rwc_fault.Bvt_reconfig ~now in
  if not failed then begin
    Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Committed ~attempt:n;
    (* A rollback directive may have hit this link mid-attempt; the DES
       has no cancel, so the attempt completes and then lands on the
       pre-rollout rate — but only downward: an override never raises
       capacity over an in-flight down-shift. *)
    let final =
      match Rwc_rollout.take_override run.rollout ~link:i with
      | Some pre when pre < new_gbps -> pre
      | Some _ | None -> new_gbps
    in
    if final <> new_gbps then Adapt.force ctl ~gbps:final;
    finish_duct run dr final;
    Rwc_journal.commit jnl ~link:i ~now ~gbps:final ~up:true
  end
  else begin
    if timed_out then charge_duct run d (Rwc_fault.param inj Rwc_fault.Bvt_timeout);
    Rwc_journal.fault jnl ~link:i ~now
      (if timed_out then Rwc_journal.Timed_out else Rwc_journal.Failed)
      ~attempt:n;
    if n < run.config.retry.Orchestrator.max_attempts then begin
      run.retries <- run.retries + 1;
      Metrics.incr m_retries;
      Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Retried ~attempt:n;
      let delay = Orchestrator.backoff_delay run.config.retry ~attempt:n in
      charge_duct run d delay;
      arm run
        { p with Rwc_recover.p_kind = Rwc_recover.Begin_attempt; p_attempt = n + 1;
                 p_at = now +. delay }
    end
    else begin
      (* Retries exhausted: graceful degradation.  The change never
         committed, so the duct stays at its pre-upgrade modulation;
         the controller is resynced to the device so it can requalify
         honestly.  A flap, not a failure. *)
      run.fallbacks <- run.fallbacks + 1;
      Metrics.incr m_fallbacks;
      note_flap run ~now;
      (* The chain died at its pre-upgrade rate, which is where any
         pending rollback override wanted it anyway. *)
      ignore (Rwc_rollout.take_override run.rollout ~link:i);
      Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Fell_back ~attempt:n;
      Adapt.force ctl ~gbps:prev_gbps;
      finish_duct run dr prev_gbps;
      Rwc_journal.commit jnl ~link:i ~now ~gbps:prev_gbps ~up:true
    end
  end

let start_reconfig run dr ~now new_gbps =
  let d = dr.state in
  let i = d.Netstate.duct_index in
  let prev_gbps = d.Netstate.per_lambda_gbps in
  run.reconfigs <- run.reconfigs + 1;
  Metrics.incr m_reconfigs;
  Rwc_guard.record_commit run.guard ~link:i ~now
    (if prev_gbps = 0 then Rwc_guard.Recover
     else if new_gbps > prev_gbps then Rwc_guard.Up_shift
     else Rwc_guard.Down_shift);
  dr.reconfiguring <- true;
  d.Netstate.up <- false;
  begin_attempt run
    { Rwc_recover.p_kind = Rwc_recover.Begin_attempt; p_link = i; p_new_gbps = new_gbps;
      p_prev_gbps = prev_gbps; p_attempt = 1; p_at = now }

(* Apply one rollback directive from a failed gate (or abort).  The
   revert is modeled as an administrative re-program at the sweep
   boundary — no RNG draw, no DES event — so an armed rollout stays
   deterministic and checkpoint-exact.  Links already at or below
   their pre-rollout rate (the controller down-shifted meanwhile) and
   dark links are left alone; a link mid-reconfiguration gets an
   override consumed when its attempt chain completes. *)
let apply_rollback run now (link, pre) =
  let dr = run.ducts.(link) in
  let d = dr.state in
  match dr.controller with
  | None -> ()
  | Some ctl ->
      if dr.reconfiguring then begin
        Rwc_rollout.set_override run.rollout ~link ~gbps:pre;
        Rwc_rollout.note_rolled_back run.rollout ~link ~now ~gbps:pre
      end
      else if d.Netstate.up && d.Netstate.per_lambda_gbps > pre then begin
        count_flap run;
        Adapt.force ctl ~gbps:pre;
        d.Netstate.per_lambda_gbps <- pre;
        run.te.dirty <- true;
        Rwc_rollout.note_rolled_back run.rollout ~link ~now ~gbps:pre;
        Rwc_journal.commit run.jnl ~link ~now ~gbps:pre ~up:true
      end

(* Shard-local half of a sweep: advance the duct's own detectors and
   evaluate its static threshold.  No shared RNG, no journal, no
   counters — safe on any domain; results land in the duct's scratch
   slots.  Per-duct detector state makes the outcome independent of
   cross-duct evaluation order, so observe-all-then-commit-all
   produces the same values the old interleaved loop did. *)
let observe_duct run dr k =
  let d = dr.state in
  let i = d.Netstate.duct_index in
  (match run.detectors with
  | None -> ()
  | Some arr ->
      let v = dr.trace.(k) in
      let ew, cu = arr.(i) in
      run.obs_ewma.(i) <- Detect.Ewma.observe ew v;
      run.obs_cusum.(i) <- Detect.Cusum.observe cu v);
  match run.policy with
  | Static_100 | Static_max ->
      (* Static denominations never change after init, so the
         threshold compare is pure per-duct work. *)
      let threshold =
        match Modulation.of_gbps d.Netstate.per_lambda_gbps with
        | Some m -> m.Modulation.min_snr_db
        | None -> Modulation.threshold_100g
      in
      run.obs_now_up.(i) <- dr.trace.(k) >= threshold
  | Adaptive _ -> ()

(* Telemetry/guard half of an adaptive duct's commit: poll its
   quarantine episode, then decide which SNR the controller sees.
   With the guard armed the collector fault channels come into play:
   a lost sweep or a corrupted duct leaves [current_snr_db] at its
   last-known value (LOCF) until the freeze horizon, then the guard
   freezes the link, then forces it back to the static baseline.
   Returns the (SNR, fresh) pair to decide on, or [None] when there is
   nothing to decide on this sample. *)
let telemetry run dr ctl k ~now ~sweep_lost =
  let d = dr.state in
  let i = d.Netstate.duct_index in
  let jnl = run.jnl and jarmed = run.jarmed and guard = run.guard in
  (* Quarantine is guard state that decays with time, so its
     boundaries are found by polling (the query draws no randomness
     and mutates nothing). *)
  (if (jarmed || Rwc_rollout.armed run.rollout) && Rwc_guard.armed guard then
     let q = Rwc_guard.quarantined guard ~link:i ~now in
     if q <> run.quar_seen.(i) then begin
       run.quar_seen.(i) <- q;
       Rwc_journal.guard jnl ~link:i ~now
         (if q then Rwc_journal.Quarantined else Rwc_journal.Released);
       if q then Rwc_rollout.note_quarantine run.rollout ~now
     end);
  if not (Rwc_guard.armed guard) then Some (dr.trace.(k), true)
  else begin
    let ok =
      (not sweep_lost)
      && not (Rwc_fault.fires run.inj Rwc_fault.Collector_corrupt ~now)
    in
    match Rwc_guard.note_telemetry guard ~link:i ~now ~ok with
    | Rwc_guard.Feed ->
        if jarmed then run.freeze_seen.(i) <- false;
        d.Netstate.current_snr_db <- dr.trace.(k);
        Some (dr.trace.(k), true)
    | Rwc_guard.Feed_stale ->
        (* Adapt on the held-over value; only down-shifts can result
           (screen blocks stale up-shifts). *)
        if jarmed then run.freeze_seen.(i) <- false;
        Some (d.Netstate.current_snr_db, false)
    | Rwc_guard.Freeze ->
        (* An episode, not an event: journaled once at entry, cleared
           when data comes back. *)
        if jarmed && not run.freeze_seen.(i) then begin
          run.freeze_seen.(i) <- true;
          Rwc_journal.guard jnl ~link:i ~now Rwc_journal.Frozen
        end;
        None
    | Rwc_guard.Force_static ->
        (* Past the fallback horizon: park the link at the static
           baseline.  Only ever a ratchet DOWN — a dark link stays dark
           and a link at or below 100G keeps its rate — because raising
           capacity on no data would be flying blind. *)
        if jarmed then run.freeze_seen.(i) <- false;
        if d.Netstate.per_lambda_gbps > Modulation.default_gbps then begin
          (* The chain is journaled like any other decision, with a
             stale observation (the guard is acting on the absence of
             data). *)
          if jarmed then begin
            Rwc_journal.observe jnl ~link:i ~now
              ~snr_db:d.Netstate.current_snr_db ~fresh:false;
            Rwc_journal.intent jnl ~link:i ~now Rwc_journal.Force_static
              ~from_gbps:d.Netstate.per_lambda_gbps
              ~to_gbps:Modulation.default_gbps;
            Rwc_journal.guard jnl ~link:i ~now Rwc_journal.Admitted
          end;
          Adapt.force ctl ~gbps:Modulation.default_gbps;
          note_flap run ~now;
          start_reconfig run dr ~now Modulation.default_gbps
        end
        else Adapt.force ctl ~gbps:d.Netstate.per_lambda_gbps;
        None
  end

(* Decision half: screen the controller's pending decision, then let
   [step] commit it.  A suppressed decision leaves the controller's
   qualification streak intact, so the change is re-validated against
   fresh SNR when the guard clears — the "queued changes re-validate"
   semantics without an actual queue.  [peek] is pure (no randomness,
   no state), so consulting it for the journal alone changes
   nothing. *)
let decide run dr ctl ~now ~snr_db ~fresh =
  let d = dr.state in
  let i = d.Netstate.duct_index in
  let jnl = run.jnl and guard = run.guard in
  let decision =
    if run.jarmed || Rwc_guard.armed guard || Rwc_rollout.armed run.rollout then
      Some (Adapt.peek ctl ~snr_db)
    else None
  in
  let verdict =
    match decision with
    | None -> None
    | Some a -> (
        match intent_of a with
        | None -> None
        | Some intent ->
            if Rwc_guard.armed guard then
              Some (Rwc_guard.screen guard ~link:i ~now intent)
            else Some Rwc_guard.Allow)
  in
  (if run.jarmed then
     match decision with
     | None -> ()
     | Some a -> (
         match (journal_intent_of a, verdict) with
         | Some (act, from_gbps, to_gbps), Some v ->
             Rwc_journal.observe jnl ~link:i ~now ~snr_db ~fresh;
             Rwc_journal.intent jnl ~link:i ~now act ~from_gbps ~to_gbps;
             Rwc_journal.guard jnl ~link:i ~now (journal_verdict_of v)
         | _ -> ()));
  let allowed =
    match verdict with
    | Some (Rwc_guard.Suppress _) -> false
    | Some Rwc_guard.Allow | None -> true
  in
  (* Change management screens last: of everything the controller can
     want, only a guard-allowed upgrade is discretionary, and the
     rollout engine may defer it (over budget, baking, frozen, in
     maintenance).  A deferred decision is dropped exactly like a
     guard suppression — the streak survives and the controller
     re-decides against fresh SNR. *)
  let admitted =
    match decision with
    | Some (Adapt.Step_up { from_gbps; to_gbps } as a)
      when allowed && Adapt.is_upgrade a -> (
        match Rwc_rollout.admit run.rollout ~link:i ~now ~from_gbps ~to_gbps with
        | Rwc_rollout.Admit -> true
        | Rwc_rollout.Defer -> false)
    | _ -> true
  in
  if allowed && admitted then
    match Adapt.step ~faults:run.inj ~now ctl ~snr_db with
    | Adapt.No_change -> ()
    | Adapt.Stuck _ ->
        (* Injected: the transition command was lost.  The device keeps
           its rate; nothing to recompute. *)
        Rwc_journal.fault jnl ~link:i ~now Rwc_journal.Stuck ~attempt:1
    | Adapt.Go_dark _ ->
        count_failure run;
        (* The outage feeds the oscillation watchdog (a down event) but
           accrues no flap penalty and takes no admission token: going
           dark is the medium failing, not a BVT commit. *)
        Rwc_guard.record_commit guard ~link:i ~now Rwc_guard.Dark;
        d.Netstate.per_lambda_gbps <- 0;
        d.Netstate.up <- false;
        run.te.dirty <- true;
        Rwc_journal.commit jnl ~link:i ~now ~gbps:0 ~up:false
    | Adapt.Step_down { to_gbps; _ } ->
        note_flap run ~now;
        start_reconfig run dr ~now to_gbps
    | Adapt.Step_up { to_gbps; _ } -> start_reconfig run dr ~now to_gbps
    | Adapt.Come_back { to_gbps } -> start_reconfig run dr ~now to_gbps

(* Fleet-global half: commit duct [dr]'s sample in duct-index order
   through the sequential journal/guard/TE/DES path. *)
let commit_sample run dr k sweep_lost =
  let d = dr.state in
  let i = d.Netstate.duct_index in
  let jnl = run.jnl in
  let now = float_of_int k *. sample_s in
  (* Detector firings are journaled before the sample's decision chain,
     so an explain timeline shows the alarm ahead of whatever the
     controller did about the same sample. *)
  (match run.detectors with
  | None -> ()
  | Some _ ->
      let v = dr.trace.(k) in
      let ew_alarm = run.obs_ewma.(i) in
      if ew_alarm && not run.ewma_alarming.(i) then
        Rwc_journal.anomaly jnl ~link:i ~now Rwc_journal.Ewma ~snr_db:v;
      run.ewma_alarming.(i) <- ew_alarm;
      if run.obs_cusum.(i) then
        Rwc_journal.anomaly jnl ~link:i ~now Rwc_journal.Cusum ~snr_db:v);
  match run.policy with
  | Static_100 | Static_max ->
      d.Netstate.current_snr_db <- dr.trace.(k);
      let now_up = run.obs_now_up.(i) in
      if d.Netstate.up && not now_up then count_failure run;
      if d.Netstate.up <> now_up then begin
        run.te.dirty <- true;
        Rwc_journal.observe jnl ~link:i ~now ~snr_db:dr.trace.(k) ~fresh:true;
        Rwc_journal.outage jnl ~link:i ~now ~up:now_up
      end;
      d.Netstate.up <- now_up
  | Adaptive _ -> (
      (* Without the guard the telemetry path is perfect, exactly as
         before the guard layer existed; the guarded path owns the
         assignment so a lost sweep leaves the last-known value in
         place. *)
      if not (Rwc_guard.armed run.guard) then
        d.Netstate.current_snr_db <- dr.trace.(k);
      if not dr.reconfiguring then
        let ctl = ctl_of dr in
        match telemetry run dr ctl k ~now ~sweep_lost with
        | None -> ()
        | Some (snr_db, fresh) -> decide run dr ctl ~now ~snr_db ~fresh)

(* The sample sweep proper: observe every duct, commit every duct,
   fold availability, and react to a dirty topology with TE — now, or
   after an injected delay. *)
let sweep run k =
  let now = float_of_int k *. sample_s in
  let n_ducts = Array.length run.ducts in
  Trace.with_span "sim/snr_sweep" (fun () ->
      Metrics.time m_snr_sweep (fun () ->
          Array.fill run.sample_up_fraction 0 n_ducts 1.0;
          (* A duct still mid-reconfiguration at sweep time is in a
             retry chain (fault injection only: fault-free changes
             always finish within their own sample) and spends this
             whole sample down. *)
          Array.iter
            (fun dr ->
              if dr.reconfiguring then
                run.sample_up_fraction.(dr.state.Netstate.duct_index) <- 0.0)
            run.ducts;
          (* One collector outage loses the entire sweep (the poller
             died); corruption is per-duct and drawn inside
             [telemetry].  Queried only when the guard cares — see
             [guard_telemetry]. *)
          let sweep_lost =
            run.guard_telemetry
            && Rwc_fault.fires run.inj Rwc_fault.Collector_outage ~now
          in
          Rwc_perf.record Rwc_perf.Adapt_step (fun () ->
              (* Observe in parallel (shard-local state only), then
                 commit sequentially in duct-index order. *)
              let busy0, wall0 = Rwc_par.totals run.pool in
              Rwc_par.iter_ranges run.pool ~n:n_ducts (fun ~lo ~hi ->
                  for i = lo to hi - 1 do
                    observe_duct run run.ducts.(i) k
                  done);
              let busy1, wall1 = Rwc_par.totals run.pool in
              Rwc_perf.par_add Rwc_perf.Adapt_step ~busy_s:(busy1 -. busy0)
                ~wall_s:(wall1 -. wall0);
              Array.iter (fun dr -> commit_sample run dr k sweep_lost) run.ducts);
          Array.iter
            (fun dr ->
              let i = dr.state.Netstate.duct_index in
              run.duct_obs <- run.duct_obs + 1;
              run.up_acc <-
                (run.up_acc
                +.
                if dr.reconfiguring then run.sample_up_fraction.(i)
                else if dr.state.Netstate.up then 1.0
                else 0.0))
            run.ducts));
  if run.te.dirty then begin
    let clock = Des.now run.engine in
    if Rwc_fault.fires run.inj Rwc_fault.Te_delay ~now:clock then begin
      (* The TE controller reacts late: routing stays stale for the
         injected delay (the periodic te_tick cron is not affected).
         The recomputation is re-checked on arrival — a te_tick may
         have cleaned the state meanwhile. *)
      Metrics.incr m_te_delayed;
      let after = Rwc_fault.param run.inj Rwc_fault.Te_delay in
      arm run (te_event Rwc_recover.Te_recheck ~at:(clock +. after))
    end
    else recompute_te run clock
  end

(* Freeze the full run state as plain data.  Called at the entry of
   sweep [k], before any of the sweep's mutations, so the cut point is
   exactly "about to process sample k" — a state [restore] can
   re-enter by scheduling the sweep tick for [k] last. *)
let capture run k : Rwc_recover.run_state =
  let te = run.te in
  {
    Rwc_recover.r_policy = policy_name run.policy;
    r_next_sample = k;
    r_failures = run.failures;
    r_flaps = run.flaps;
    r_reconfigs = run.reconfigs;
    r_downtime_s = run.downtime;
    r_delivered_gbit = run.delivered_gbit;
    r_capacity_acc = run.capacity_acc;
    r_up_acc = run.up_acc;
    r_duct_obs = run.duct_obs;
    r_retries = run.retries;
    r_fallbacks = run.fallbacks;
    r_last_te_time = te.last_time;
    r_current_total = te.total;
    r_current_capacity = te.capacity;
    r_te_dirty = te.dirty;
    r_duct_flow = Array.to_list te.flow;
    r_reconfig_rng = Rwc_stats.Rng.raw_state run.reconfig_rng;
    r_ducts =
      Array.to_list
        (Array.mapi
           (fun i dr ->
             {
               Rwc_recover.d_gbps = dr.state.Netstate.per_lambda_gbps;
               d_up = dr.state.Netstate.up;
               d_snr_db = dr.state.Netstate.current_snr_db;
               d_reconfiguring = dr.reconfiguring;
               d_ctl =
                 Option.map
                   (fun c -> (Adapt.capacity_gbps c, Adapt.qualify_streak c))
                   dr.controller;
               d_det =
                 Option.map
                   (fun arr ->
                     let ew, cu = arr.(i) in
                     (Detect.Ewma.level ew, Detect.Cusum.statistic cu))
                   run.detectors;
               d_freeze_seen = run.freeze_seen.(i);
               d_quar_seen = run.quar_seen.(i);
               d_ewma_alarming = run.ewma_alarming.(i);
             })
           run.ducts);
    r_pending = List.map snd run.pending;
    r_faults =
      (if Rwc_fault.is_none run.config.faults then None
       else Some (Rwc_fault.snapshot_to_list (Rwc_fault.snapshot run.inj)));
    r_guard = Rwc_guard.snapshot run.guard;
    r_rollout = Rwc_rollout.snapshot run.rollout;
  }

(* Sample boundaries are the recovery points: the stop flag
   (SIGINT/SIGTERM) cuts a final checkpoint and unwinds, the periodic
   cadence cuts one every [every] sweeps, and the crash oracle kills
   the run for the restart loop to revive.  Crash is drawn from the
   context's own injector — never [inj] — so fault_stats and the
   report stay byte-identical to a crash-free run. *)
let recovery_point run k =
  match run.recover with
  | None -> ()
  | Some (ctx, save) ->
      let cut () =
        let journal_events = Rwc_journal.events_emitted run.jnl in
        let journal_bytes = Rwc_journal.byte_offset run.jnl in
        save (capture run k) ~journal_events ~journal_bytes
      in
      if ctx.Rwc_recover.stop then begin
        cut ();
        raise Rwc_recover.Interrupted
      end;
      if k > 0 && k mod ctx.Rwc_recover.every = 0 then cut ();
      let now = float_of_int k *. sample_s in
      if Rwc_fault.fires ctx.Rwc_recover.crash Rwc_fault.Crash ~now then
        raise (Rwc_recover.Crashed now)

(* The sweep tick is the one event that is not a descriptor: a
   checkpoint is cut at its entry, so it is implied by
   [r_next_sample] rather than carried in [r_pending]. *)
let rec schedule_sweep run k ~at = Des.schedule run.engine ~at (sweep_tick run k)

and sweep_tick run k engine =
  let now = float_of_int k *. sample_s in
  (match run.heartbeat with
  | Some hb ->
      Rwc_perf.Progress.tick hb ~day:(now /. 86400.0)
        ~events:(Des.dispatched engine)
  | None -> ());
  (* The sweep hook runs before any of this sample's mutations (and
     before the recovery cut), so a server pumping its clients here
     sees a consistent state, and a stop it requests via the recovery
     context is honored at this very boundary. *)
  (match run.config.hooks.on_sweep with
  | Some f -> f ~k ~now_s:now ~events:(Des.dispatched engine)
  | None -> ());
  recovery_point run k;
  (* Staged-rollout boundary, after the recovery cut (so a resumed run
     re-enters here and repeats exactly this sweep's rollout work):
     apply queued mutating-RPC commands, close and bake waves,
     evaluate health gates, and physically revert whatever a failed
     gate or abort directed back.  Returns [] — without even
     allocating — while the engine is untouched. *)
  (match Rwc_rollout.sweep run.rollout ~now with
  | [] -> ()
  | directives -> List.iter (apply_rollback run now) directives);
  if k < run.n_samples then begin
    sweep run k;
    schedule_sweep run (k + 1) ~at:(Des.now engine +. sample_s)
  end

(* Rebuild a checkpointed run: overwrite every piece of state the fresh
   construction got wrong, re-arm the pending events in their recorded
   order, and enter the event loop at the captured sweep.  The SNR
   traces, topology and demands are regenerated deterministically from
   the seeds, so only positions and accumulators travel through the
   checkpoint.  Shapes are checked before anything is written. *)
let restore run (rs : Rwc_recover.run_state) =
  let n = Array.length run.ducts in
  if rs.Rwc_recover.r_policy <> policy_name run.policy then
    invalid_arg "Runner: checkpoint was cut under a different policy";
  if List.length rs.Rwc_recover.r_ducts <> n then
    invalid_arg "Runner: checkpoint fleet size mismatch";
  if List.length rs.Rwc_recover.r_duct_flow <> n then
    invalid_arg "Runner: checkpoint duct-flow size mismatch";
  List.iter
    (fun (p : Rwc_recover.pending) ->
      match p.Rwc_recover.p_kind with
      | Rwc_recover.Begin_attempt | Rwc_recover.Finish_attempt ->
          if p.Rwc_recover.p_link < 0 || p.Rwc_recover.p_link >= n then
            invalid_arg "Runner: checkpoint pending event on an unknown link";
          ignore (ctl_of run.ducts.(p.Rwc_recover.p_link))
      | Rwc_recover.Te_tick | Rwc_recover.Te_recheck -> ())
    rs.Rwc_recover.r_pending;
  let te = run.te in
  run.failures <- rs.Rwc_recover.r_failures;
  run.flaps <- rs.Rwc_recover.r_flaps;
  run.reconfigs <- rs.Rwc_recover.r_reconfigs;
  run.downtime <- rs.Rwc_recover.r_downtime_s;
  run.delivered_gbit <- rs.Rwc_recover.r_delivered_gbit;
  run.capacity_acc <- rs.Rwc_recover.r_capacity_acc;
  run.up_acc <- rs.Rwc_recover.r_up_acc;
  run.duct_obs <- rs.Rwc_recover.r_duct_obs;
  run.retries <- rs.Rwc_recover.r_retries;
  run.fallbacks <- rs.Rwc_recover.r_fallbacks;
  te.last_time <- rs.Rwc_recover.r_last_te_time;
  te.total <- rs.Rwc_recover.r_current_total;
  te.capacity <- rs.Rwc_recover.r_current_capacity;
  te.dirty <- rs.Rwc_recover.r_te_dirty;
  List.iteri (fun i f -> te.flow.(i) <- f) rs.Rwc_recover.r_duct_flow;
  Rwc_stats.Rng.set_raw_state run.reconfig_rng rs.Rwc_recover.r_reconfig_rng;
  Option.iter
    (fun snap -> Rwc_fault.restore run.inj (Rwc_fault.snapshot_of_list snap))
    rs.Rwc_recover.r_faults;
  Option.iter (Rwc_guard.restore run.guard) rs.Rwc_recover.r_guard;
  Option.iter (Rwc_rollout.restore run.rollout) rs.Rwc_recover.r_rollout;
  List.iteri
    (fun i (dd : Rwc_recover.duct) ->
      let dr = run.ducts.(i) in
      dr.state.Netstate.per_lambda_gbps <- dd.Rwc_recover.d_gbps;
      dr.state.Netstate.up <- dd.Rwc_recover.d_up;
      dr.state.Netstate.current_snr_db <- dd.Rwc_recover.d_snr_db;
      dr.reconfiguring <- dd.Rwc_recover.d_reconfiguring;
      (match (dr.controller, dd.Rwc_recover.d_ctl) with
      | Some ctl, Some (gbps, streak) -> Adapt.restore ctl ~gbps ~streak
      | None, None -> ()
      | _ -> invalid_arg "Runner: checkpoint controller shape mismatch");
      (match (run.detectors, dd.Rwc_recover.d_det) with
      | Some arr, Some (level, stat) ->
          let ew, cu = arr.(i) in
          Detect.Ewma.set_level ew level;
          Detect.Cusum.set_statistic cu stat
      | _ -> ());
      run.freeze_seen.(i) <- dd.Rwc_recover.d_freeze_seen;
      run.quar_seen.(i) <- dd.Rwc_recover.d_quar_seen;
      run.ewma_alarming.(i) <- dd.Rwc_recover.d_ewma_alarming)
    rs.Rwc_recover.r_ducts;
  List.iter (arm run) rs.Rwc_recover.r_pending;
  (* The sweep tick was the youngest same-time event at the cut, so it
     is scheduled after every restored descriptor. *)
  let k = rs.Rwc_recover.r_next_sample in
  schedule_sweep run k ~at:(float_of_int k *. sample_s)

(* The live window the hooks consumer (the serve daemon) sees.  Pure
   reads except [lv_whatif], which previews a capacity change by
   mutating the duct, rerunning TE on the hypothetical graph and
   reverting — guaranteed even on exceptions, so a hooked run stays
   byte-identical to an unhooked one.  A previewed vector the memo
   holds is answered from it; the what-if never inserts or reorders,
   so it cannot change what the run itself hits. *)
let live_of run =
  let check link =
    if link < 0 || link >= Array.length run.ducts then
      invalid_arg (Printf.sprintf "Runner.live: link %d out of range" link)
  in
  {
    lv_policy = policy_name run.policy;
    lv_n_ducts = Array.length run.ducts;
    lv_rollout =
      (match run.policy with
      | Adaptive _ -> Some run.rollout
      | Static_100 | Static_max -> None);
    lv_now = (fun () -> Des.now run.engine);
    lv_duct =
      (fun link ->
        check link;
        let dr = run.ducts.(link) in
        {
          dv_link = link;
          dv_gbps = dr.state.Netstate.per_lambda_gbps;
          dv_up = dr.state.Netstate.up;
          dv_snr_db = dr.state.Netstate.current_snr_db;
          dv_reconfiguring = dr.reconfiguring;
        });
    lv_peek =
      (fun ~link ~snr_db ->
        check link;
        Option.map (fun ctl -> Adapt.peek ctl ~snr_db) run.ducts.(link).controller);
    lv_routed_gbps = (fun () -> run.te.total);
    lv_capacity_gbps = (fun () -> run.te.capacity);
    lv_whatif =
      (fun ~link ~gbps ->
        check link;
        let d = run.ducts.(link).state in
        let saved_gbps = d.Netstate.per_lambda_gbps in
        let saved_up = d.Netstate.up in
        let before = run.te.total in
        Fun.protect
          ~finally:(fun () ->
            d.Netstate.per_lambda_gbps <- saved_gbps;
            d.Netstate.up <- saved_up)
          (fun () ->
            d.Netstate.per_lambda_gbps <- gbps;
            d.Netstate.up <- gbps > 0;
            let after =
              match Te_memo.peek run.te.memo (capacity_key run) with
              | Some total -> total
              | None -> (solve run).Rwc_core.Te.total_gbps
            in
            (before, after)));
  }

let report_of run =
  flush_te run run.horizon_s;
  let inj = run.inj in
  let fault_stats =
    if Rwc_fault.is_none run.config.faults then None
    else
      Some
        {
          injected = Rwc_fault.injected inj;
          bvt_failures =
            Rwc_fault.injected_for inj Rwc_fault.Bvt_reconfig
            + Rwc_fault.injected_for inj Rwc_fault.Bvt_timeout;
          retries = run.retries;
          fallbacks = run.fallbacks;
          stuck_transitions = Rwc_fault.injected_for inj Rwc_fault.Adapt_stuck;
          te_delays = Rwc_fault.injected_for inj Rwc_fault.Te_delay;
        }
  in
  let guard_stats =
    if Rwc_guard.is_none run.config.guard then None
    else Some (Rwc_guard.stats run.guard)
  in
  (* Present exactly when the engine was ever touched — a CLI plan, or
     a mutating RPC arriving mid-run — so a rollout-free report stays
     byte-identical to a pre-rollout one. *)
  let rollout_stats =
    if Option.is_some (Rwc_rollout.snapshot run.rollout) then
      Some (Rwc_rollout.stats run.rollout)
    else None
  in
  (* Close the journal segment.  [Some] only when the sink carries an
     armed SLO plan — the report then grows an slo block and the
     scorecard counts land in the slo/* metrics. *)
  let slo = Rwc_journal.finish_run run.jnl in
  (match slo with
  | None -> ()
  | Some s ->
      Metrics.add m_slo_met s.Rwc_journal.Slo.met;
      Metrics.add m_slo_violated s.Rwc_journal.Slo.violated);
  let horizon_s = run.horizon_s in
  {
    policy = run.policy;
    delivered_pbit = run.delivered_gbit /. 1e6;
    offered_pbit = run.offered_gbps *. horizon_s /. 1e6;
    avg_throughput_gbps = run.delivered_gbit /. horizon_s;
    avg_capacity_gbps = run.capacity_acc /. horizon_s;
    duct_availability =
      (if run.duct_obs = 0 then 1.0 else run.up_acc /. float_of_int run.duct_obs);
    failures = run.failures;
    flaps = run.flaps;
    reconfigurations = run.reconfigs;
    reconfig_downtime_s = run.downtime;
    fault_stats;
    guard_stats;
    rollout_stats;
    slo;
  }

(* Fleet SNR/telemetry generation, fanned out over the pool: each
   duct's trace comes from its own [Rng.substream] (a pure hash of the
   root state and the duct index, no draw from the shared stream), so
   the result is independent of which domain generates which duct.
   Everything mutated here is the duct's own state. *)
let init_ducts pool (net : Netstate.t) policy ~seed ~years =
  let trace_root = Rwc_stats.Rng.create (seed + 1) in
  let busy0, wall0 = Rwc_par.totals pool in
  let ducts =
    Rwc_par.parallel_init pool (Array.length net.Netstate.ducts) (fun i ->
        let d = net.Netstate.ducts.(i) in
        let rng = Rwc_stats.Rng.substream trace_root d.Netstate.duct_index in
        let trace, _ = Snr_model.generate rng d.Netstate.snr_params ~years in
        (* Policy-specific initialisation. *)
        let controller =
          match policy with
          | Static_100 ->
              d.Netstate.per_lambda_gbps <- Modulation.default_gbps;
              None
          | Static_max ->
              (* Fix at the day-one feasible denomination, never adapt. *)
              d.Netstate.per_lambda_gbps <-
                max Modulation.default_gbps
                  (Modulation.feasible_gbps
                     d.Netstate.snr_params.Snr_model.baseline_db);
              None
          | Adaptive _ -> Some (Adapt.create ~initial_gbps:Modulation.default_gbps ())
        in
        { state = d; trace; controller; reconfiguring = false })
  in
  let busy1, wall1 = Rwc_par.totals pool in
  Rwc_perf.par_add Rwc_perf.Telemetry_gen ~busy_s:(busy1 -. busy0)
    ~wall_s:(wall1 -. wall0);
  ducts

(* Online anomaly detection rides the journal: one EWMA and one CUSUM
   detector per duct, tuned to the duct's own baseline and stationary
   wander, firing first-class [Anomaly] events. *)
let detector_of (d : Netstate.duct_state) =
  let baseline_db = d.Netstate.snr_params.Snr_model.baseline_db in
  let sigma_db =
    Rwc_stats.Timeseries.ar1_stationary_sigma
      d.Netstate.snr_params.Snr_model.wander
  in
  ( Detect.Ewma.create ~baseline_db ~sigma_db (),
    Detect.Cusum.create ~baseline_db ~sigma_db () )

(* Offered traffic: the gravity matrix truncated to the biggest pairs
   for TE speed, then rescaled so the OFFERED load (not the
   pre-truncation total) is the requested fraction of the static-100G
   fleet capacity. *)
let commodities_of config backbone (net : Netstate.t) =
  let static_total =
    float_of_int
      (Array.length net.Netstate.ducts * config.wavelengths
     * Modulation.default_gbps)
  in
  let demands =
    Rwc_topology.Traffic.gravity_top_k backbone ~total_gbps:1.0
      ~k:config.top_demands
  in
  let kept = List.fold_left (fun acc d -> acc +. d.Rwc_topology.Traffic.gbps) 0.0 demands in
  let scale = config.demand_fraction *. static_total /. kept in
  Rwc_topology.Traffic.to_commodities
    (List.map
       (fun d -> { d with Rwc_topology.Traffic.gbps = d.Rwc_topology.Traffic.gbps *. scale })
       demands)

(* [recover] arms crash-safe checkpointing: the context carries the
   stop flag, checkpoint cadence and crash oracle, and the callback
   persists a captured {!Rwc_recover.run_state} together with the
   journal's high-water mark.  [resume] starts the run from a
   checkpoint instead of from scratch.  Both default to [None], and
   every recovery hook is gated so the disarmed path stays
   byte-identical to a build without the recover layer. *)
let run_policy ~config ~backbone ?recover ?resume policy =
  assert (config.days > 0.0 && config.te_interval_h > 0.0);
  assert (config.domains >= 1);
  let pool = Rwc_par.create ~domains:config.domains in
  Fun.protect ~finally:(fun () -> Rwc_par.shutdown pool) @@ fun () ->
  (* One injector per policy run, compiled from the plan seed: every
     policy sees the same fault pattern, and a plan with no rules is a
     disarmed injector that draws nothing — keeping the fault-free run
     bit-identical to the pre-fault-layer simulator. *)
  let inj =
    if Rwc_fault.is_none config.faults then Rwc_fault.disarmed
    else Rwc_fault.compile config.faults
  in
  let net = Netstate.make ~wavelengths:config.wavelengths ~seed:config.seed backbone in
  let n_ducts = Array.length net.Netstate.ducts in
  (* The guard's shared-risk groups: every duct fanning out of the
     same city rides shared conduit near that city, so its endpoint-a
     index stands in for the fiber/cable group of Section 2.  With the
     plan [none] this is the disarmed guard, which holds no state and
     answers without branching on any of it. *)
  let group_of i = net.Netstate.ducts.(i).Netstate.duct.Backbone.a in
  let guard = Rwc_guard.create config.guard ~n_links:n_ducts ~group_of in
  (* The decision journal.  Disarmed (the default) every emit is a
     flag check and nothing else, and the run is byte-identical to a
     build without the journal layer. *)
  let jnl = config.journal in
  let jarmed = Rwc_journal.armed jnl in
  (* The staged-rollout engine sits between the controller's decision
     and the BVT commit: guard-allowed capacity {e upgrades} are
     screened through [admit], and the engine's [sweep] runs at every
     sample boundary to close waves, evaluate health gates and direct
     rollbacks.  With the plan [none] (and no RPC-installed proposal)
     every call is a flag check and the run stays byte-identical to a
     build without this layer. *)
  let horizon_s = config.days *. 86_400.0 in
  let rollout =
    Rwc_rollout.create config.rollout ~n_links:n_ducts ~group_of
      ~seed:config.seed ~horizon_s ~journal:jnl ~guard
  in
  let ducts =
    init_ducts pool net policy ~seed:config.seed ~years:(config.days /. 365.25)
  in
  let commodities = commodities_of config backbone net in
  let run =
    {
      config;
      policy;
      pool;
      inj;
      net;
      guard;
      guard_telemetry =
        Rwc_guard.armed guard
        && (match policy with Adaptive _ -> true | Static_100 | Static_max -> false);
      jnl;
      jarmed;
      rollout;
      (* Only instantiated for an armed journal, so the disarmed path
         allocates nothing. *)
      detectors = (if jarmed then Some (Array.map detector_of net.Netstate.ducts) else None);
      ducts;
      freeze_seen = Array.make n_ducts false;
      quar_seen = Array.make n_ducts false;
      ewma_alarming = Array.make n_ducts false;
      obs_ewma = Array.make n_ducts false;
      obs_cusum = Array.make n_ducts false;
      obs_now_up = Array.make n_ducts false;
      sample_up_fraction = Array.make n_ducts 1.0;
      reconfig_rng = Rwc_stats.Rng.create (config.seed + 2);
      commodities;
      offered_gbps =
        Array.fold_left
          (fun acc c -> acc +. c.Rwc_flow.Multicommodity.demand)
          0.0 commodities;
      engine = Des.create ();
      horizon_s;
      n_samples = int_of_float (horizon_s /. sample_s);
      recover;
      heartbeat =
        (if config.progress then
           Some
             (Rwc_perf.Progress.create ?extra:config.hooks.progress_extra
                ~label:(policy_name policy) ~total_days:config.days ())
         else None);
      te =
        { memo = Te_memo.create (); last_time = 0.0; total = 0.0;
          capacity = 0.0; dirty = true; flow = Array.make n_ducts 0.0 };
      failures = 0; flaps = 0; reconfigs = 0; downtime = 0.0;
      delivered_gbit = 0.0; capacity_acc = 0.0; up_acc = 0.0; duct_obs = 0;
      retries = 0; fallbacks = 0; pending = []; pending_seq = 0;
    }
  in
  (* On restore the segment header and opening commits are already in
     the journal's retained prefix; re-emitting them would duplicate
     the segment. *)
  if Option.is_none resume then begin
    Rwc_journal.start_run jnl ~policy:(policy_name policy) ~seed:config.seed
      ~horizon_s ~n_links:n_ducts;
    (* Opening commits: every link's timeline starts from its day-one
       denomination, so a per-link `rwc explain` view is never empty. *)
    if jarmed then
      Array.iter
        (fun dr ->
          Rwc_journal.commit jnl ~link:dr.state.Netstate.duct_index ~now:0.0
            ~gbps:dr.state.Netstate.per_lambda_gbps ~up:dr.state.Netstate.up)
        ducts
  end;
  (match config.hooks.on_run_start with Some f -> f (live_of run) | None -> ());
  (match resume with
  | Some rs -> restore run rs
  | None ->
      schedule_sweep run 0 ~at:0.0;
      arm run (te_event Rwc_recover.Te_tick ~at:0.0));
  Des.run run.engine ~until:horizon_s;
  Option.iter Rwc_perf.Progress.finish run.heartbeat;
  report_of run

let run ?(config = default_config) ?(backbone = Backbone.north_america) policy =
  Trace.with_span
    ("sim/run/" ^ policy_name policy)
    (fun () -> run_policy ~config ~backbone policy)

let all_policies = [ Static_100; Static_max; Adaptive Stock; Adaptive Efficient ]

let compare_policies ?config ?backbone () =
  List.map (run ?config ?backbone) all_policies

type outcome =
  | Replayed of { policy : policy; pp : string; json : string }
  | Ran of report

let json_of_report (r : report) =
  let open Rwc_obs.Json in
  (* Each optional block is present exactly when the run armed that
     layer (for the rollout engine: when it was ever touched), so a
     report from a run without it serializes byte-identically to one
     from before the layer existed. *)
  let block name to_json = function None -> [] | Some s -> [ (name, to_json s) ] in
  let faults f =
    Assoc
      [
        ("injected", Int f.injected);
        ("bvt_failures", Int f.bvt_failures);
        ("retries", Int f.retries);
        ("fallbacks", Int f.fallbacks);
        ("stuck_transitions", Int f.stuck_transitions);
        ("te_delays", Int f.te_delays);
      ]
  in
  let guard g =
    Assoc
      [
        ("suppressed_upshifts", Int g.Rwc_guard.suppressed_upshifts);
        ("quarantines", Int g.Rwc_guard.quarantines);
        ("admission_deferred", Int g.Rwc_guard.admission_deferred);
        ("stale_freezes", Int g.Rwc_guard.stale_freezes);
        ("static_fallbacks", Int g.Rwc_guard.static_fallbacks);
        ("watchdog_trips", Int g.Rwc_guard.watchdog_trips);
      ]
  in
  Assoc
    ([
       ("policy", String (policy_name r.policy));
       ("delivered_pbit", Float r.delivered_pbit);
       ("offered_pbit", Float r.offered_pbit);
       ("avg_throughput_gbps", Float r.avg_throughput_gbps);
       ("avg_capacity_gbps", Float r.avg_capacity_gbps);
       ("duct_availability", Float r.duct_availability);
       ("failures", Int r.failures);
       ("flaps", Int r.flaps);
       ("reconfigurations", Int r.reconfigurations);
       ("reconfig_downtime_s", Float r.reconfig_downtime_s);
     ]
    @ block "faults" faults r.fault_stats
    @ block "guard" guard r.guard_stats
    @ block "rollout" Rwc_rollout.stats_to_json r.rollout_stats
    @ block "slo" Rwc_journal.Slo.summary_to_json r.slo)

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "%-22s delivered=%8.2f Pbit  avg-tput=%7.1f Gbps  avg-cap=%7.1f Gbps  \
     avail=%.5f  fail=%4d  flap=%4d  reconf=%4d  downtime=%8.1fs"
    (policy_name r.policy) r.delivered_pbit r.avg_throughput_gbps
    r.avg_capacity_gbps r.duct_availability r.failures r.flaps
    r.reconfigurations r.reconfig_downtime_s;
  (match r.fault_stats with
  | None -> ()
  | Some f ->
      Format.fprintf fmt "  inj=%4d  retry=%4d  fallback=%3d"
        f.injected f.retries f.fallbacks);
  (match r.guard_stats with
  | None -> ()
  | Some g ->
      Format.fprintf fmt "  supp=%3d  quar=%3d  defer=%3d  stale=%3d  \
                          static=%2d  wdog=%2d"
        g.Rwc_guard.suppressed_upshifts g.Rwc_guard.quarantines
        g.Rwc_guard.admission_deferred g.Rwc_guard.stale_freezes
        g.Rwc_guard.static_fallbacks g.Rwc_guard.watchdog_trips);
  (match r.rollout_stats with
  | None -> ()
  | Some s ->
      Format.fprintf fmt
        "  rollout: waves=%2d gate-fail=%d admit=%3d defer=%3d rolled-back=%3d"
        s.Rwc_rollout.waves_committed s.Rwc_rollout.gates_failed
        s.Rwc_rollout.links_admitted s.Rwc_rollout.links_deferred
        s.Rwc_rollout.links_rolled_back);
  match r.slo with
  | None -> ()
  | Some s ->
      Format.fprintf fmt "  slo: met=%3d viol=%3d" s.Rwc_journal.Slo.met
        s.Rwc_journal.Slo.violated

(* Crash-restart driver: runs each policy under an armed recovery
   context, replaying already-completed policies from their stored
   renderings, restoring the in-progress one from its checkpoint, and
   catching {!Rwc_recover.Crashed} to reload the newest valid
   checkpoint, rewind the journal to its high-water mark and go again.
   Because the restored state is exactly the uninterrupted run's state
   at the cut and every downstream draw is deterministic, the final
   reports and journal are byte-identical to a run that never
   crashed. *)
let run_recoverable ?(config = default_config)
    ?(backbone = Backbone.north_america) ~ctx ~resume_from ~policies () =
  let jnl = ref config.journal in
  let completed =
    ref
      (match resume_from with
      | Some c -> c.Rwc_recover.ck_completed
      | None -> [])
  in
  let pending_run =
    ref (match resume_from with Some c -> c.Rwc_recover.ck_run | None -> None)
  in
  let save_mid rs ~journal_events ~journal_bytes =
    Rwc_recover.save ctx ~seed:config.seed ~days:config.days ~journal_events
      ~journal_bytes ~completed:!completed ~run:(Some rs)
  in
  let save_boundary () =
    Rwc_recover.save ctx ~seed:config.seed ~days:config.days
      ~journal_events:(Rwc_journal.events_emitted !jnl)
      ~journal_bytes:(Rwc_journal.byte_offset !jnl)
      ~completed:!completed ~run:None
  in
  let reopen ~events ~bytes =
    Rwc_recover.record_resume ~dir:ctx.Rwc_recover.dir ~journal_events:events
      ~journal_bytes:bytes;
    if Rwc_journal.armed !jnl then begin
      Rwc_journal.close !jnl;
      match
        Rwc_journal.resume ?path:ctx.Rwc_recover.journal_path
          ~slo:ctx.Rwc_recover.slo ~at:bytes ~events ()
      with
      | Ok j ->
          (* A live-stream tee attached to the replaced sink must
             survive the swap, or subscribers silently stop hearing
             decisions after the first crash restart. *)
          Rwc_journal.adopt_tee j ~from:!jnl;
          jnl := j
      | Error e -> failwith ("Runner: cannot reopen journal: " ^ e)
    end
  in
  let run_one p =
    let name = policy_name p in
    match List.find_opt (fun (n, _, _) -> n = name) !completed with
    | Some (_, pp, json) -> Replayed { policy = p; pp; json }
    | None ->
        let start_events = Rwc_journal.events_emitted !jnl in
        let start_bytes = Rwc_journal.byte_offset !jnl in
        let restore0 =
          match !pending_run with
          | Some rs when rs.Rwc_recover.r_policy = name -> Some rs
          | _ -> None
        in
        pending_run := None;
        let rec go restore =
          let cfg = { config with journal = !jnl } in
          match
            Trace.with_span ("sim/run/" ^ name) (fun () ->
                run_policy ~config:cfg ~backbone
                  ~recover:(ctx, save_mid) ?resume:restore p)
          with
          | r -> r
          | exception Rwc_recover.Crashed now ->
              ctx.Rwc_recover.restarts <- ctx.Rwc_recover.restarts + 1;
              Printf.eprintf
                "rwc: crash fault at t=%.0fs; restarting %s from last \
                 checkpoint (restart %d)\n%!"
                now name ctx.Rwc_recover.restarts;
              (match Rwc_recover.load_latest ctx.Rwc_recover.dir with
              | Ok (Some c) -> (
                  reopen ~events:c.Rwc_recover.ck_journal_events
                    ~bytes:c.Rwc_recover.ck_journal_bytes;
                  match c.Rwc_recover.ck_run with
                  | Some rs when rs.Rwc_recover.r_policy = name -> go (Some rs)
                  | _ -> go None)
              | Ok None | Error _ ->
                  (* Crashed before the first checkpoint: rewind the
                     journal to the policy boundary and start over. *)
                  reopen ~events:start_events ~bytes:start_bytes;
                  go None)
        in
        let r = go restore0 in
        let pp = Format.asprintf "%a" pp_report r in
        let json = Rwc_obs.Json.to_string (json_of_report r) in
        completed := !completed @ [ (name, pp, json) ];
        save_boundary ();
        Ran r
  in
  match List.map run_one policies with
  | outcomes ->
      Rwc_journal.close !jnl;
      outcomes
  | exception e ->
      (* Interrupted (and anything else) still flushes the journal; the
         final checkpoint was cut by the runner before unwinding. *)
      Rwc_journal.close !jnl;
      raise e
