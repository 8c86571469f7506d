(** Run, walk, crawl: the SNR-driven capacity-adaptation policy.

    The paper's thesis is that a link whose SNR drops should not be
    declared down but should {e crawl} at a lower capacity, and a link
    whose SNR is comfortably high should {e run} above its static
    100 Gbps.  This module is the per-link controller that turns an SNR
    sample stream into capacity decisions:

    - {b down-shifts are immediate}: the moment the SNR falls below
      the current modulation's threshold the link must drop to the
      highest feasible denomination (or go dark if even 50 Gbps is
      infeasible) — staying put means the link is failing anyway;
    - {b up-shifts are damped}: the SNR must clear the next
      denomination's threshold by a configurable margin for a
      configurable hold time before the controller steps up, because
      every reconfiguration costs downtime (Section 3.1) and flapping
      up/down around a threshold would be worse than staying put. *)

type config = {
  up_margin_db : float;
      (** Extra SNR above the target threshold required to step up
          (default 0.5 dB). *)
  hold_samples : int;
      (** Consecutive qualifying samples before stepping up (default 4,
          i.e. one hour at 15-minute polling). *)
}

val default_config : config

type state
(** Controller state for one link. *)

val create : ?config:config -> initial_gbps:int -> unit -> state
(** Raises [Invalid_argument] if [initial_gbps] is not a modulation
    denomination. *)

val capacity_gbps : state -> int
(** Currently configured capacity; 0 when the link is dark. *)

val qualify_streak : state -> int
(** Current step-up qualification streak (checkpointing). *)

val restore : state -> gbps:int -> streak:int -> unit
(** Overwrite both capacity and streak from a checkpoint.  Unlike
    {!force} this preserves an in-progress qualification streak.
    Raises [Invalid_argument] on a non-denomination [gbps] or a
    negative [streak]. *)

type action =
  | No_change
  | Step_up of { from_gbps : int; to_gbps : int }
  | Step_down of { from_gbps : int; to_gbps : int }
      (** A link flap: capacity reduced but the link stays up — the
          availability win over a binary failure. *)
  | Go_dark of { from_gbps : int }
      (** SNR below even the 50 Gbps threshold: a genuine failure. *)
  | Come_back of { to_gbps : int }  (** Recovery from dark. *)
  | Stuck of { wanted_gbps : int }
      (** Fault injection only (never produced without an armed
          injector): the controller wanted to move to [wanted_gbps]
          but the transition was suppressed — lost command, wedged
          firmware.  State is unchanged except that any step-up
          qualification streak is consumed. *)

val peek : state -> snr_db:float -> action
(** The transition {!step} would commit for this sample, without
    committing it: no state change, no fault draw, never {!Stuck}.
    [No_change] covers the qualify/disqualify bookkeeping cases that
    only {!step} performs.  This is the decision a safety layer
    ({!Rwc_guard}-style) screens before letting {!step} commit; a
    suppressed decision leaves the qualification streak intact, so the
    controller re-validates against fresh SNR on the next sample. *)

val is_upgrade : action -> bool
(** Whether the action raises capacity on a live link ({!Step_up} only).
    Upgrades are the discretionary moves a change-management layer
    ({!Rwc_rollout}-style) may stage or defer; every other action is a
    safety or recovery move that must never queue. *)

val step :
  ?faults:Rwc_fault.injector -> ?now:float -> state -> snr_db:float -> action
(** Feed one SNR sample; mutates the state and reports what the
    controller did.  Down-shifts move directly to the highest feasible
    denomination (possibly several steps at once); up-shifts move one
    denomination at a time.  An armed [faults] injector may turn any
    transition into {!Stuck} via the [Adapt_stuck] component; [now] is
    the simulation time used for fault windows. *)

val force : state -> gbps:int -> unit
(** Overwrite the controller's view of the configured capacity (0 or a
    denomination) and reset the qualification streak.  Used when the
    simulation runner falls back after exhausted reconfiguration
    retries and the device is known to be at a different rate than the
    controller last commanded. *)

val run_trace : ?config:config -> initial_gbps:int -> float array -> action array
(** Convenience: fresh controller stepped over a whole trace. *)

val reconfigurations : action array -> int
(** Number of actions that require touching the transceiver (all but
    [No_change]). *)
