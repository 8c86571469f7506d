(** The paper's whole figure sequence, in one place: Figures 1-8,
    Theorem 1 and the end-to-end simulation, then the ablations and
    extensions, with the seeds, fleet scale and simulation horizon
    every reproduction uses.  [rwc figures] runs it. *)

val ids : string list
(** Figure ids in the order {!run} reproduces them: [fig1] to [fig8],
    [thm1], [sim], [ablation-A1] to [ablation-A5], [ext-E1] and
    [ext-E2]. *)

val fleet : full:bool -> Rwc_telemetry.Fleet.t
(** The paper's 2000-link fleet when [full], else a fifth of it (400
    links).  Only [fig1] to [fig4] read it. *)

val default_sim_days : full:bool -> float
(** Horizon of the [sim] figure: the paper's 60 days when [full], else
    21. *)

val run :
  ?only:string list ->
  fleet:Rwc_telemetry.Fleet.t ->
  sim_days:float ->
  unit ->
  Sim_figs.headlines option
(** Reproduce the figures named in [only] (default and [[]]: all of
    {!ids}), in {!ids} order.  The fleet report behind Figures 2 and 4
    is computed once, and only when one of them runs.  Returns the
    simulation headlines when [sim] ran. *)
