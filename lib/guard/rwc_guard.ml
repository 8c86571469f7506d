type config = {
  penalty_per_commit : float;
  half_life_s : float;
  suppress_threshold : float;
  reuse_threshold : float;
  group_budget : int;
  freeze_after_s : float;
  fallback_after_s : float;
  osc_window_s : float;
  osc_cycles : int;
  hold_s : float;
}

let default_config =
  {
    penalty_per_commit = 1.0;
    half_life_s = 3600.0;
    suppress_threshold = 3.0;
    reuse_threshold = 1.0;
    group_budget = 4;
    freeze_after_s = 3600.0;
    fallback_after_s = 21600.0;
    osc_window_s = 10800.0;
    osc_cycles = 3;
    hold_s = 7200.0;
  }

type plan = config option

let none = None
let default = Some default_config
let is_none plan = plan = None

(* ---- plan spec parsing ------------------------------------------------- *)

(* One row per knob: name, float getter, float setter, validity check.
   Integer knobs round-trip through floats so the grammar stays uniform
   with the fault plan's NAME=VALUE tokens. *)
let knobs =
  [
    ( "penalty",
      (fun c -> c.penalty_per_commit),
      (fun c v -> { c with penalty_per_commit = v }),
      fun v -> v > 0.0 );
    ( "half-life",
      (fun c -> c.half_life_s),
      (fun c v -> { c with half_life_s = v }),
      fun v -> v > 0.0 );
    ( "suppress",
      (fun c -> c.suppress_threshold),
      (fun c v -> { c with suppress_threshold = v }),
      fun v -> v > 0.0 );
    ( "reuse",
      (fun c -> c.reuse_threshold),
      (fun c v -> { c with reuse_threshold = v }),
      fun v -> v >= 0.0 );
    ( "budget",
      (fun c -> float_of_int c.group_budget),
      (fun c v -> { c with group_budget = int_of_float v }),
      fun v -> v >= 1.0 && Float.is_integer v );
    ( "freeze",
      (fun c -> c.freeze_after_s),
      (fun c v -> { c with freeze_after_s = v }),
      fun v -> v > 0.0 );
    ( "fallback",
      (fun c -> c.fallback_after_s),
      (fun c v -> { c with fallback_after_s = v }),
      fun v -> v > 0.0 );
    ( "osc-window",
      (fun c -> c.osc_window_s),
      (fun c v -> { c with osc_window_s = v }),
      fun v -> v > 0.0 );
    ( "osc-cycles",
      (fun c -> float_of_int c.osc_cycles),
      (fun c v -> { c with osc_cycles = int_of_float v }),
      fun v -> v >= 1.0 && Float.is_integer v );
    ( "hold",
      (fun c -> c.hold_s),
      (fun c v -> { c with hold_s = v }),
      fun v -> v > 0.0 );
  ]

(* Cross-knob invariants the rest of the module relies on. *)
let validate c =
  if c.reuse_threshold >= c.suppress_threshold then
    Error "reuse threshold must be below the suppress threshold"
  else if c.fallback_after_s < c.freeze_after_s then
    Error "fallback horizon must be at least the freeze horizon"
  else Ok (Some c)

let to_string = function
  | None -> "none"
  | Some c ->
      let overrides =
        List.filter_map
          (fun (name, get, _, _) ->
            if get c = get default_config then None
            else Some (Printf.sprintf "%s=%g" name (get c)))
          knobs
      in
      if overrides = [] then "default" else String.concat "," overrides

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok None
  else
    let tokens = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> validate acc
      | "default" :: rest -> go default_config rest
      | "" :: rest -> go acc rest
      | tok :: rest -> (
          match String.index_opt tok '=' with
          | None -> Error (Printf.sprintf "%S: expected KEY=VALUE" tok)
          | Some eq -> (
              let key = String.sub tok 0 eq in
              let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
              match
                List.find_opt (fun (name, _, _, _) -> name = key) knobs
              with
              | None ->
                  Error
                    (Printf.sprintf "unknown guard knob %S (known: %s)" key
                       (String.concat ", "
                          (List.map (fun (name, _, _, _) -> name) knobs)))
              | Some (_, _, set, valid) -> (
                  match float_of_string_opt (String.trim v) with
                  | Some f when valid f -> go (set acc f) rest
                  | _ -> Error (Printf.sprintf "%S: bad value %S" tok v))))
    in
    go default_config tokens

(* ---- guard state ------------------------------------------------------- *)

type stage = Live | Frozen | Static_fallback

type link = {
  mutable penalty : float;  (* decayed as of penalty_at *)
  mutable penalty_at : float;
  mutable is_quarantined : bool;
  mutable fresh : bool;  (* last telemetry opportunity delivered *)
  mutable last_ok_s : float;
  mutable stage : stage;
  mutable in_flight : bool;
  (* Last two commit directions for up/down/up cycle detection:
     (time, was_up), most recent first. *)
  mutable h1 : (float * bool) option;
  mutable h2 : (float * bool) option;
}

type stats = {
  suppressed_upshifts : int;
  quarantines : int;
  admission_deferred : int;
  stale_freezes : int;
  static_fallbacks : int;
  watchdog_trips : int;
}

let zero_stats =
  {
    suppressed_upshifts = 0;
    quarantines = 0;
    admission_deferred = 0;
    stale_freezes = 0;
    static_fallbacks = 0;
    watchdog_trips = 0;
  }

type t = {
  cfg : config option;  (* None: the disarmed guard *)
  links : link array;
  group_of : int -> int;
  in_flight_per_group : (int, int) Hashtbl.t;
  mutable hold_until : float;
  mutable osc_events : float list;  (* fleet-wide, newest first *)
  mutable st : stats;
}

module Metrics = Rwc_obs.Metrics

let m_suppressed = Metrics.counter "guard/suppressed_upshifts"
let m_quarantines = Metrics.counter "guard/quarantine_entered"
let m_deferred = Metrics.counter "guard/admission_deferred"
let m_freezes = Metrics.counter "guard/stale_freezes"
let m_fallbacks = Metrics.counter "guard/static_fallbacks"
let m_trips = Metrics.counter "guard/watchdog_trips"

let disarmed =
  {
    cfg = None;
    links = [||];
    group_of = (fun _ -> 0);
    in_flight_per_group = Hashtbl.create 1;
    hold_until = 0.0;
    osc_events = [];
    st = zero_stats;
  }

let fresh_link () =
  {
    penalty = 0.0;
    penalty_at = 0.0;
    is_quarantined = false;
    fresh = true;
    last_ok_s = 0.0;
    stage = Live;
    in_flight = false;
    h1 = None;
    h2 = None;
  }

let create plan ~n_links ~group_of =
  match plan with
  | None -> disarmed
  | Some cfg ->
      if n_links < 0 then invalid_arg "Rwc_guard.create: negative n_links";
      {
        cfg = Some cfg;
        links = Array.init n_links (fun _ -> fresh_link ());
        group_of;
        in_flight_per_group = Hashtbl.create 16;
        hold_until = 0.0;
        osc_events = [];
        st = zero_stats;
      }

let armed t = t.cfg <> None

let stats t = t.st

(* ---- flap damping ------------------------------------------------------ *)

(* Decay the link's penalty to [now].  Time never runs backwards in
   the simulators that drive us, but a stale clock must not inflate
   the penalty, so negative elapsed time is clamped. *)
let decay cfg l ~now =
  let dt = Float.max 0.0 (now -. l.penalty_at) in
  if dt > 0.0 then begin
    l.penalty <- l.penalty *. (0.5 ** (dt /. cfg.half_life_s));
    l.penalty_at <- now
  end;
  if l.is_quarantined && l.penalty <= cfg.reuse_threshold then
    l.is_quarantined <- false

let penalty t ~link ~now =
  match t.cfg with
  | None -> 0.0
  | Some cfg ->
      let l = t.links.(link) in
      decay cfg l ~now;
      l.penalty

let quarantined t ~link ~now =
  match t.cfg with
  | None -> false
  | Some cfg ->
      let l = t.links.(link) in
      decay cfg l ~now;
      l.is_quarantined

let in_hold t ~now = match t.cfg with None -> false | Some _ -> now < t.hold_until

(* ---- screening --------------------------------------------------------- *)

type intent = Up_shift | Down_shift | Dark | Recover

type reason = Quarantined | Admission | Stale | Global_hold

type verdict = Allow | Suppress of reason

let group_tokens_left t cfg ~link =
  let g = t.group_of link in
  let used = Option.value ~default:0 (Hashtbl.find_opt t.in_flight_per_group g) in
  cfg.group_budget - used

let screen t ~link ~now intent =
  match t.cfg with
  | None -> Allow
  | Some cfg -> (
      match intent with
      | Down_shift | Dark -> Allow
      | Up_shift | Recover ->
          let l = t.links.(link) in
          let suppress reason =
            t.st <- { t.st with suppressed_upshifts = t.st.suppressed_upshifts + 1 };
            Metrics.incr m_suppressed;
            if reason = Admission then begin
              t.st <-
                { t.st with admission_deferred = t.st.admission_deferred + 1 };
              Metrics.incr m_deferred
            end;
            Suppress reason
          in
          (* A dark link coming back is an availability win, like a
             down-shift: it skips the damping and watchdog gates and
             only answers to data freshness and the shared-risk
             budget. *)
          if intent = Up_shift && now < t.hold_until then suppress Global_hold
          else if not l.fresh then suppress Stale
          else begin
            decay cfg l ~now;
            if intent = Up_shift && l.is_quarantined then suppress Quarantined
            else if group_tokens_left t cfg ~link <= 0 then suppress Admission
            else Allow
          end)

(* ---- telemetry holddown ------------------------------------------------ *)

type directive = Feed | Feed_stale | Freeze | Force_static

let note_telemetry t ~link ~now ~ok =
  match t.cfg with
  | None -> Feed
  | Some cfg ->
      let l = t.links.(link) in
      if ok then begin
        l.fresh <- true;
        l.last_ok_s <- now;
        l.stage <- Live;
        Feed
      end
      else begin
        l.fresh <- false;
        let age = now -. l.last_ok_s in
        if age >= cfg.fallback_after_s && l.stage <> Static_fallback then begin
          l.stage <- Static_fallback;
          t.st <- { t.st with static_fallbacks = t.st.static_fallbacks + 1 };
          Metrics.incr m_fallbacks;
          Force_static
        end
        else if age >= cfg.freeze_after_s then begin
          if l.stage = Live then l.stage <- Frozen;
          t.st <- { t.st with stale_freezes = t.st.stale_freezes + 1 };
          Metrics.incr m_freezes;
          Freeze
        end
        else Feed_stale
      end

(* ---- commits, watchdog, admission tokens ------------------------------- *)

let note_oscillation t cfg ~now =
  t.osc_events <- now :: t.osc_events;
  t.osc_events <-
    List.filter (fun ts -> now -. ts <= cfg.osc_window_s) t.osc_events;
  if List.length t.osc_events >= cfg.osc_cycles && now >= t.hold_until then begin
    t.hold_until <- now +. cfg.hold_s;
    t.st <- { t.st with watchdog_trips = t.st.watchdog_trips + 1 };
    Metrics.incr m_trips;
    (* Start the next count from scratch: one burst, one trip. *)
    t.osc_events <- []
  end

let record_commit t ~link ~now intent =
  match t.cfg with
  | None -> ()
  | Some cfg ->
      let l = t.links.(link) in
      let up = match intent with Up_shift | Recover -> true | Down_shift | Dark -> false in
      (* Watchdog: an up/down/up (or down/up/down) triple within the
         window is one oscillation event, counted fleet-wide. *)
      (match (l.h1, l.h2) with
      | Some (_, d1), Some (t2, d2)
        when d1 <> up && d2 <> d1 && now -. t2 <= cfg.osc_window_s ->
          note_oscillation t cfg ~now
      | _ -> ());
      l.h2 <- l.h1;
      l.h1 <- Some (now, up);
      (* Going dark is a failure, not a BVT commit: it feeds the
         watchdog history but accrues no flap penalty and takes no
         admission token. *)
      if intent <> Dark then begin
        decay cfg l ~now;
        l.penalty <- l.penalty +. cfg.penalty_per_commit;
        if (not l.is_quarantined) && l.penalty >= cfg.suppress_threshold then begin
          l.is_quarantined <- true;
          t.st <- { t.st with quarantines = t.st.quarantines + 1 };
          Metrics.incr m_quarantines
        end;
        if not l.in_flight then begin
          l.in_flight <- true;
          let g = t.group_of link in
          Hashtbl.replace t.in_flight_per_group g
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.in_flight_per_group g))
        end
      end

let release t ~link =
  match t.cfg with
  | None -> ()
  | Some _ ->
      let l = t.links.(link) in
      if l.in_flight then begin
        l.in_flight <- false;
        let g = t.group_of link in
        let used =
          Option.value ~default:0 (Hashtbl.find_opt t.in_flight_per_group g)
        in
        Hashtbl.replace t.in_flight_per_group g (max 0 (used - 1))
      end

(* ---- checkpoint support ------------------------------------------------ *)

type link_snapshot = {
  ls_penalty : float;
  ls_penalty_at : float;
  ls_quarantined : bool;
  ls_fresh : bool;
  ls_last_ok_s : float;
  ls_stage : int;  (* 0 = Live, 1 = Frozen, 2 = Static_fallback *)
  ls_in_flight : bool;
  ls_h1 : (float * bool) option;
  ls_h2 : (float * bool) option;
}

type snapshot = {
  gs_links : link_snapshot list;
  gs_hold_until : float;
  gs_osc_events : float list;
  gs_stats : stats;
}

let stage_to_int = function Live -> 0 | Frozen -> 1 | Static_fallback -> 2

let stage_of_int = function
  | 0 -> Live
  | 1 -> Frozen
  | 2 -> Static_fallback
  | n -> invalid_arg (Printf.sprintf "Rwc_guard: bad stage %d" n)

let snapshot t =
  match t.cfg with
  | None -> None
  | Some _ ->
      Some
        {
          gs_links =
            Array.to_list
              (Array.map
                 (fun l ->
                   {
                     ls_penalty = l.penalty;
                     ls_penalty_at = l.penalty_at;
                     ls_quarantined = l.is_quarantined;
                     ls_fresh = l.fresh;
                     ls_last_ok_s = l.last_ok_s;
                     ls_stage = stage_to_int l.stage;
                     ls_in_flight = l.in_flight;
                     ls_h1 = l.h1;
                     ls_h2 = l.h2;
                   })
                 t.links);
          gs_hold_until = t.hold_until;
          gs_osc_events = t.osc_events;
          gs_stats = t.st;
        }

let restore t snap =
  match t.cfg with
  | None -> invalid_arg "Rwc_guard.restore: disarmed guard"
  | Some _ ->
      if List.length snap.gs_links <> Array.length t.links then
        invalid_arg "Rwc_guard.restore: fleet size mismatch";
      List.iteri
        (fun i ls ->
          let l = t.links.(i) in
          l.penalty <- ls.ls_penalty;
          l.penalty_at <- ls.ls_penalty_at;
          l.is_quarantined <- ls.ls_quarantined;
          l.fresh <- ls.ls_fresh;
          l.last_ok_s <- ls.ls_last_ok_s;
          l.stage <- stage_of_int ls.ls_stage;
          l.in_flight <- ls.ls_in_flight;
          l.h1 <- ls.ls_h1;
          l.h2 <- ls.ls_h2)
        snap.gs_links;
      t.hold_until <- snap.gs_hold_until;
      t.osc_events <- snap.gs_osc_events;
      t.st <- snap.gs_stats;
      (* The per-group token table is derived state: rebuild it from
         the restored in-flight flags. *)
      Hashtbl.reset t.in_flight_per_group;
      Array.iteri
        (fun i l ->
          if l.in_flight then begin
            let g = t.group_of i in
            Hashtbl.replace t.in_flight_per_group g
              (1
              + Option.value ~default:0 (Hashtbl.find_opt t.in_flight_per_group g))
          end)
        t.links

let restore_links t snap ~links =
  match t.cfg with
  | None -> invalid_arg "Rwc_guard.restore_links: disarmed guard"
  | Some _ ->
      if List.length snap.gs_links <> Array.length t.links then
        invalid_arg "Rwc_guard.restore_links: fleet size mismatch";
      let snaps = Array.of_list snap.gs_links in
      List.iter
        (fun i ->
          if i < 0 || i >= Array.length t.links then
            invalid_arg "Rwc_guard.restore_links: link index out of range";
          let ls = snaps.(i) in
          let l = t.links.(i) in
          l.penalty <- ls.ls_penalty;
          l.penalty_at <- ls.ls_penalty_at;
          l.is_quarantined <- ls.ls_quarantined;
          l.fresh <- ls.ls_fresh;
          l.last_ok_s <- ls.ls_last_ok_s;
          l.stage <- stage_of_int ls.ls_stage;
          l.in_flight <- ls.ls_in_flight;
          l.h1 <- ls.ls_h1;
          l.h2 <- ls.ls_h2)
        links;
      (* Fleet-wide hold/oscillation/stats state is left as-is: a
         rollback un-does specific links' upgrades, not the fleet's
         accumulated history.  The token table is derived from the
         in-flight flags, some of which just changed — rebuild it. *)
      Hashtbl.reset t.in_flight_per_group;
      Array.iteri
        (fun i l ->
          if l.in_flight then begin
            let g = t.group_of i in
            Hashtbl.replace t.in_flight_per_group g
              (1
              + Option.value ~default:0 (Hashtbl.find_opt t.in_flight_per_group g))
          end)
        t.links
