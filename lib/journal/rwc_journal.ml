module Json = Rwc_obs.Json
module Trace = Rwc_obs.Trace

(* ---- event vocabulary -------------------------------------------------- *)

type action = Step_up | Step_down | Go_dark | Come_back | Force_static

type verdict =
  | Admitted
  | Damped
  | Deferred
  | Stale_data
  | Held
  | Frozen
  | Quarantined
  | Released

type outcome = Committed | Stuck | Failed | Timed_out | Retried | Fell_back

type detector = Ewma | Cusum

let action_name = function
  | Step_up -> "step-up"
  | Step_down -> "step-down"
  | Go_dark -> "go-dark"
  | Come_back -> "come-back"
  | Force_static -> "force-static"

let action_of_name = function
  | "step-up" -> Some Step_up
  | "step-down" -> Some Step_down
  | "go-dark" -> Some Go_dark
  | "come-back" -> Some Come_back
  | "force-static" -> Some Force_static
  | _ -> None

let verdict_name = function
  | Admitted -> "admitted"
  | Damped -> "damped"
  | Deferred -> "deferred"
  | Stale_data -> "stale"
  | Held -> "held"
  | Frozen -> "frozen"
  | Quarantined -> "quarantined"
  | Released -> "released"

let verdict_of_name = function
  | "admitted" -> Some Admitted
  | "damped" -> Some Damped
  | "deferred" -> Some Deferred
  | "stale" -> Some Stale_data
  | "held" -> Some Held
  | "frozen" -> Some Frozen
  | "quarantined" -> Some Quarantined
  | "released" -> Some Released
  | _ -> None

let outcome_name = function
  | Committed -> "ok"
  | Stuck -> "stuck"
  | Failed -> "failed"
  | Timed_out -> "timeout"
  | Retried -> "retried"
  | Fell_back -> "fallback"

let outcome_of_name = function
  | "ok" -> Some Committed
  | "stuck" -> Some Stuck
  | "failed" -> Some Failed
  | "timeout" -> Some Timed_out
  | "retried" -> Some Retried
  | "fallback" -> Some Fell_back
  | _ -> None

let detector_name = function Ewma -> "ewma" | Cusum -> "cusum"

let detector_of_name = function
  | "ewma" -> Some Ewma
  | "cusum" -> Some Cusum
  | _ -> None

type rollout_event =
  | R_proposed
  | R_approved
  | R_started
  | R_admitted
  | R_deferred
  | R_wave_committed
  | R_gate_failed
  | R_rolled_back
  | R_completed
  | R_paused
  | R_aborted

let rollout_event_name = function
  | R_proposed -> "proposed"
  | R_approved -> "approved"
  | R_started -> "started"
  | R_admitted -> "admitted"
  | R_deferred -> "deferred"
  | R_wave_committed -> "wave-committed"
  | R_gate_failed -> "gate-failed"
  | R_rolled_back -> "rolled-back"
  | R_completed -> "completed"
  | R_paused -> "paused"
  | R_aborted -> "aborted"

let rollout_event_of_name = function
  | "proposed" -> Some R_proposed
  | "approved" -> Some R_approved
  | "started" -> Some R_started
  | "admitted" -> Some R_admitted
  | "deferred" -> Some R_deferred
  | "wave-committed" -> Some R_wave_committed
  | "gate-failed" -> Some R_gate_failed
  | "rolled-back" -> Some R_rolled_back
  | "completed" -> Some R_completed
  | "paused" -> Some R_paused
  | "aborted" -> Some R_aborted
  | _ -> None

type kind =
  | Run_start of {
      policy : string;
      seed : int;
      horizon_s : float;
      n_links : int;
    }
  | Observe of { snr_db : float; fresh : bool }
  | Intent of { action : action; from_gbps : int; to_gbps : int }
  | Guard of { verdict : verdict }
  | Fault of { outcome : outcome; attempt : int }
  | Commit of { gbps : int; up : bool }
  | Outage of { up : bool }
  | Anomaly of { detector : detector; snr_db : float }
  | Rollout of { rid : int; revent : rollout_event; wave : int; gbps : int }
      (* Fleet-level rollout events carry [link = -1]; per-link ones
         (admitted / deferred / rolled-back) ride the record's link. *)

type record = { t : float; link : int; span : int; kind : kind }

(* ---- serialization ----------------------------------------------------- *)

let record_to_json r =
  let common ev fields =
    Json.Assoc
      (("t", Json.Float r.t)
      :: ("link", Json.Int r.link)
      :: ("span", Json.Int r.span)
      :: ("ev", Json.String ev)
      :: fields)
  in
  match r.kind with
  | Run_start { policy; seed; horizon_s; n_links } ->
      common "run"
        [
          ("policy", Json.String policy);
          ("seed", Json.Int seed);
          ("horizon_s", Json.Float horizon_s);
          ("n_links", Json.Int n_links);
        ]
  | Observe { snr_db; fresh } ->
      common "observe"
        [ ("snr_db", Json.Float snr_db); ("fresh", Json.Bool fresh) ]
  | Intent { action; from_gbps; to_gbps } ->
      common "intent"
        [
          ("action", Json.String (action_name action));
          ("from_gbps", Json.Int from_gbps);
          ("to_gbps", Json.Int to_gbps);
        ]
  | Guard { verdict } ->
      common "guard" [ ("verdict", Json.String (verdict_name verdict)) ]
  | Fault { outcome; attempt } ->
      common "fault"
        [
          ("outcome", Json.String (outcome_name outcome));
          ("attempt", Json.Int attempt);
        ]
  | Commit { gbps; up } ->
      common "commit" [ ("gbps", Json.Int gbps); ("up", Json.Bool up) ]
  | Outage { up } -> common "outage" [ ("up", Json.Bool up) ]
  | Anomaly { detector; snr_db } ->
      common "anomaly"
        [
          ("detector", Json.String (detector_name detector));
          ("snr_db", Json.Float snr_db);
        ]
  | Rollout { rid; revent; wave; gbps } ->
      common "rollout"
        [
          ("rid", Json.Int rid);
          ("what", Json.String (rollout_event_name revent));
          ("wave", Json.Int wave);
          ("gbps", Json.Int gbps);
        ]

let record_of_json json =
  let num field =
    match Json.member field json with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int i) -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "journal: missing number field %S" field)
  in
  let int field =
    match Json.member field json with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "journal: missing int field %S" field)
  in
  let str field =
    match Json.member field json with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "journal: missing string field %S" field)
  in
  let bool field =
    match Json.member field json with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "journal: missing bool field %S" field)
  in
  let ( let* ) = Result.bind in
  let* t = num "t" in
  let* link = int "link" in
  let* span = int "span" in
  let* ev = str "ev" in
  let* kind =
    match ev with
    | "run" ->
        let* policy = str "policy" in
        let* seed = int "seed" in
        let* horizon_s = num "horizon_s" in
        let* n_links = int "n_links" in
        Ok (Run_start { policy; seed; horizon_s; n_links })
    | "observe" ->
        let* snr_db = num "snr_db" in
        let* fresh = bool "fresh" in
        Ok (Observe { snr_db; fresh })
    | "intent" ->
        let* name = str "action" in
        let* from_gbps = int "from_gbps" in
        let* to_gbps = int "to_gbps" in
        let* action =
          Option.to_result (action_of_name name)
            ~none:(Printf.sprintf "journal: unknown action %S" name)
        in
        Ok (Intent { action; from_gbps; to_gbps })
    | "guard" ->
        let* name = str "verdict" in
        let* verdict =
          Option.to_result (verdict_of_name name)
            ~none:(Printf.sprintf "journal: unknown verdict %S" name)
        in
        Ok (Guard { verdict })
    | "fault" ->
        let* name = str "outcome" in
        let* attempt = int "attempt" in
        let* outcome =
          Option.to_result (outcome_of_name name)
            ~none:(Printf.sprintf "journal: unknown outcome %S" name)
        in
        Ok (Fault { outcome; attempt })
    | "commit" ->
        let* gbps = int "gbps" in
        let* up = bool "up" in
        Ok (Commit { gbps; up })
    | "outage" ->
        let* up = bool "up" in
        Ok (Outage { up })
    | "anomaly" ->
        let* name = str "detector" in
        let* snr_db = num "snr_db" in
        let* detector =
          Option.to_result (detector_of_name name)
            ~none:(Printf.sprintf "journal: unknown detector %S" name)
        in
        Ok (Anomaly { detector; snr_db })
    | "rollout" ->
        let* rid = int "rid" in
        let* name = str "what" in
        let* wave = int "wave" in
        let* gbps = int "gbps" in
        let* revent =
          Option.to_result (rollout_event_of_name name)
            ~none:(Printf.sprintf "journal: unknown rollout event %S" name)
        in
        Ok (Rollout { rid; revent; wave; gbps })
    | other -> Error (Printf.sprintf "journal: unknown event kind %S" other)
  in
  Ok { t; link; span; kind }

let record_of_line line =
  match Json.parse line with Error _ as e -> e | Ok json -> record_of_json json

let m_bad_lines = Rwc_obs.Metrics.counter "journal/bad_lines"

let read_file ?(strict = false) path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
      let bad = ref 0 in
      let rec go n acc = function
        | [] -> Ok (List.rev acc, !bad)
        | line :: rest ->
            if String.trim line = "" then go (n + 1) acc rest
            else begin
              match record_of_line line with
              | Ok r -> go (n + 1) (r :: acc) rest
              | Error e ->
                  if strict then Error (Printf.sprintf "line %d: %s" n e)
                  else begin
                    (* Ingest hardening, same convention as the
                       telemetry store: a damaged line costs one
                       record, not the whole journal — but never
                       silently. *)
                    incr bad;
                    Rwc_obs.Metrics.incr m_bad_lines;
                    go (n + 1) acc rest
                  end
            end
      in
      let result = go 1 [] lines in
      (match result with
      | Ok (_, n) when n > 0 ->
          Printf.eprintf "warning: %s: skipped %d bad journal line%s\n%!" path n
            (if n = 1 then "" else "s")
      | _ -> ());
      result

let scan_from path ~offset f =
  (* The scan behind [read_from] and the serve index: read from a byte
     offset, consume only complete (newline-terminated) lines, and
     report where the next poll should pick up.  A torn tail — a record
     mid-write, exactly what storm faults produce — is simply not
     consumed yet, so followers skip it this round instead of dying on
     it. *)
  match
    In_channel.with_open_bin path (fun ic ->
        let len = Int64.to_int (In_channel.length ic) in
        if offset < 0 || offset > len then Error (`Out_of_range len)
        else begin
          In_channel.seek ic (Int64.of_int offset);
          Ok (really_input_string ic (len - offset))
        end)
  with
  | exception Sys_error e -> Error e
  | Error (`Out_of_range len) ->
      Error
        (Printf.sprintf
           "journal: offset %d outside %s (%d bytes — truncated since last \
            read?)"
           offset path len)
  | Ok chunk ->
      let consumed =
        match String.rindex_opt chunk '\n' with
        | None -> 0
        | Some i -> i + 1
      in
      let rec go pos line =
        if pos < consumed then begin
          let eol = String.index_from chunk pos '\n' in
          let text = String.sub chunk pos (eol - pos) in
          if String.trim text <> "" then
            f ~offset:(offset + pos) ~line (record_of_line text);
          go (eol + 1) (line + 1)
        end
      in
      go 0 1;
      Ok (offset + consumed)

let read_from ?(strict = false) path ~offset =
  let exception Strict of string in
  let acc = ref [] and bad = ref 0 in
  match
    scan_from path ~offset (fun ~offset:_ ~line -> function
      | Ok r -> acc := r :: !acc
      | Error e ->
          if strict then
            raise (Strict (Printf.sprintf "line %d after offset %d: %s" line offset e))
          else begin
            incr bad;
            Rwc_obs.Metrics.incr m_bad_lines
          end)
  with
  | Ok next -> Ok (List.rev !acc, !bad, next)
  | Error e | (exception Strict e) -> Error e

let segments records =
  (* Split on run headers; any records before the first header (a
     headerless file) form their own leading segment. *)
  let flush cur acc = if cur = [] then acc else List.rev cur :: acc in
  let rec go cur acc = function
    | [] -> List.rev (flush cur acc)
    | ({ kind = Run_start _; _ } as r) :: rest ->
        go [ r ] (flush cur acc) rest
    | r :: rest -> go (r :: cur) acc rest
  in
  go [] [] records

(* ---- SLO engine -------------------------------------------------------- *)

module Slo = struct
  type config = {
    min_availability_pct : float;
    class_gbps : int;
    min_class_time_pct : float;
    max_flaps_per_day : float;
    max_quarantine_pct : float;
  }

  let default_config =
    {
      min_availability_pct = 99.0;
      class_gbps = 100;
      min_class_time_pct = 95.0;
      max_flaps_per_day = 2.0;
      max_quarantine_pct = 5.0;
    }

  type plan = config option

  let none : plan = None
  let default : plan = Some default_config
  let is_none p = p = None

  (* Same grammar family as --faults and --guard: "none", "default",
     or comma-separated KEY=VALUE overrides of the default. *)
  let of_string s =
    let s = String.trim s in
    if s = "" || s = "none" then Ok none
    else begin
      let tokens = String.split_on_char ',' s |> List.map String.trim in
      let parse_float key v =
        match float_of_string_opt v with
        | Some f when f >= 0.0 -> Ok f
        | _ -> Error (Printf.sprintf "slo: bad value %S for %s" v key)
      in
      let rec fold cfg = function
        | [] -> Ok (Some cfg)
        | "default" :: rest -> fold cfg rest
        | tok :: rest -> (
            match String.index_opt tok '=' with
            | None -> Error (Printf.sprintf "slo: expected KEY=VALUE, got %S" tok)
            | Some i -> (
                let key = String.sub tok 0 i in
                let v = String.sub tok (i + 1) (String.length tok - i - 1) in
                let ( let* ) = Result.bind in
                match key with
                | "availability" ->
                    let* f = parse_float key v in
                    fold { cfg with min_availability_pct = f } rest
                | "class" -> (
                    match int_of_string_opt v with
                    | Some g when g >= 0 -> fold { cfg with class_gbps = g } rest
                    | _ -> Error (Printf.sprintf "slo: bad value %S for class" v))
                | "at-class" ->
                    let* f = parse_float key v in
                    fold { cfg with min_class_time_pct = f } rest
                | "flaps-per-day" ->
                    let* f = parse_float key v in
                    fold { cfg with max_flaps_per_day = f } rest
                | "quarantine" ->
                    let* f = parse_float key v in
                    fold { cfg with max_quarantine_pct = f } rest
                | _ -> Error (Printf.sprintf "slo: unknown key %S" key)))
      in
      fold default_config tokens
    end

  let to_string = function
    | None -> "none"
    | Some c ->
        let d = default_config in
        let diffs =
          List.concat
            [
              (if c.min_availability_pct <> d.min_availability_pct then
                 [ Printf.sprintf "availability=%g" c.min_availability_pct ]
               else []);
              (if c.class_gbps <> d.class_gbps then
                 [ Printf.sprintf "class=%d" c.class_gbps ]
               else []);
              (if c.min_class_time_pct <> d.min_class_time_pct then
                 [ Printf.sprintf "at-class=%g" c.min_class_time_pct ]
               else []);
              (if c.max_flaps_per_day <> d.max_flaps_per_day then
                 [ Printf.sprintf "flaps-per-day=%g" c.max_flaps_per_day ]
               else []);
              (if c.max_quarantine_pct <> d.max_quarantine_pct then
                 [ Printf.sprintf "quarantine=%g" c.max_quarantine_pct ]
               else []);
            ]
        in
        if diffs = [] then "default" else String.concat "," diffs

  type measure = {
    availability_pct : float;
    class_time_pct : float;
    flaps_per_day : float;
    quarantine_pct : float;
  }

  type link_verdict = { link : int; measure : measure; violations : string list }

  type summary = {
    config : config;
    horizon_s : float;
    links : link_verdict array;
    met : int;
    violated : int;
  }

  (* One link's accumulator: a piecewise-constant timeline folded
     event by event.  The same folding serves the online sink and the
     offline file evaluation, so the two cannot disagree. *)
  type acc = {
    mutable last_t : float;
    mutable gbps : int;
    mutable up : bool;
    mutable up_s : float;
    mutable class_s : float;
    mutable flaps : int;
    mutable quar : bool;
    mutable quar_s : float;
    mutable pending : action option;  (* admitted intent awaiting commit *)
    mutable intent : action option;  (* seen, not yet screened *)
    mutable fell_back : bool;
  }

  type tracker = { cfg : config; accs : acc array }

  let make_tracker cfg ~n_links =
    {
      cfg;
      accs =
        Array.init (max n_links 0) (fun _ ->
            {
              last_t = 0.0;
              gbps = 0;
              up = true;
              up_s = 0.0;
              class_s = 0.0;
              flaps = 0;
              quar = false;
              quar_s = 0.0;
              pending = None;
              intent = None;
              fell_back = false;
            });
    }

  let charge cfg a t =
    let dt = t -. a.last_t in
    if dt > 0.0 then begin
      if a.up then begin
        a.up_s <- a.up_s +. dt;
        if a.gbps >= cfg.class_gbps then a.class_s <- a.class_s +. dt
      end;
      if a.quar then a.quar_s <- a.quar_s +. dt;
      a.last_t <- t
    end
    else if dt >= 0.0 then a.last_t <- t

  let feed tracker (r : record) =
    if r.link >= 0 && r.link < Array.length tracker.accs then begin
      let a = tracker.accs.(r.link) in
      charge tracker.cfg a r.t;
      match r.kind with
      | Run_start _ | Observe _ | Anomaly _ | Rollout _ -> ()
      | Intent { action; _ } -> a.intent <- Some action
      | Guard { verdict } -> (
          match verdict with
          | Admitted -> (
              match a.intent with
              | Some action ->
                  (* The reconfiguration window opens: the link is down
                     until its Commit arrives (go-dark commits at the
                     same instant; a Stuck fault reopens it below). *)
                  a.pending <- Some action;
                  a.intent <- None;
                  a.up <- false
              | None -> ())
          | Quarantined -> a.quar <- true
          | Released -> a.quar <- false
          | Damped | Deferred | Stale_data | Held | Frozen -> a.intent <- None)
      | Fault { outcome; _ } -> (
          match outcome with
          | Stuck ->
              (* Same-instant resolution: the command was lost, the
                 device never went down. *)
              a.pending <- None;
              a.up <- true
          | Fell_back -> a.fell_back <- true
          | Committed | Failed | Timed_out | Retried -> ())
      | Commit { gbps; up } ->
          let flap =
            a.fell_back
            ||
            match a.pending with
            | Some (Step_down | Force_static) -> true
            | _ -> false
          in
          if flap then a.flaps <- a.flaps + 1;
          a.gbps <- gbps;
          a.up <- up;
          a.pending <- None;
          a.fell_back <- false
      | Outage { up } -> a.up <- up
    end

  let evaluate_in_place tracker ~horizon_s =
    let cfg = tracker.cfg in
    let links =
      Array.mapi
        (fun link a ->
          charge cfg a horizon_s;
          let pct x = if horizon_s > 0.0 then 100.0 *. x /. horizon_s else 100.0 in
          let days = horizon_s /. 86_400.0 in
          let measure =
            {
              availability_pct = pct a.up_s;
              class_time_pct = pct a.class_s;
              flaps_per_day =
                (if days > 0.0 then float_of_int a.flaps /. days else 0.0);
              quarantine_pct =
                (if horizon_s > 0.0 then 100.0 *. a.quar_s /. horizon_s else 0.0);
            }
          in
          let violations =
            List.concat
              [
                (if measure.availability_pct < cfg.min_availability_pct then
                   [
                     Printf.sprintf "availability %.3f%% < %g%%"
                       measure.availability_pct cfg.min_availability_pct;
                   ]
                 else []);
                (if measure.class_time_pct < cfg.min_class_time_pct then
                   [
                     Printf.sprintf "time at >=%dG %.3f%% < %g%%" cfg.class_gbps
                       measure.class_time_pct cfg.min_class_time_pct;
                   ]
                 else []);
                (if measure.flaps_per_day > cfg.max_flaps_per_day then
                   [
                     Printf.sprintf "flap rate %.2f/day > %g/day"
                       measure.flaps_per_day cfg.max_flaps_per_day;
                   ]
                 else []);
                (if measure.quarantine_pct > cfg.max_quarantine_pct then
                   [
                     Printf.sprintf "quarantine %.3f%% > %g%%"
                       measure.quarantine_pct cfg.max_quarantine_pct;
                   ]
                 else []);
              ]
          in
          { link; measure; violations })
        tracker.accs
    in
    let met = Array.fold_left (fun n v -> if v.violations = [] then n + 1 else n) 0 links in
    {
      config = cfg;
      horizon_s;
      links;
      met;
      violated = Array.length links - met;
    }

  (* Scoring charges every accumulator up to the horizon — a mutation —
     so score a copy and leave the tracker folding undisturbed. *)
  let evaluate tracker ~horizon_s =
    evaluate_in_place
      {
        tracker with
        accs = Array.map (fun a -> { a with last_t = a.last_t }) tracker.accs;
      }
      ~horizon_s

  let of_records cfg records =
    match
      List.find_map
        (function
          | { kind = Run_start { horizon_s; n_links; _ }; _ } ->
              Some (horizon_s, n_links)
          | _ -> None)
        records
    with
    | None -> Error "slo: journal segment has no run header"
    | Some (horizon_s, n_links) ->
        let tracker = make_tracker cfg ~n_links in
        List.iter (feed tracker) records;
        Ok (evaluate_in_place tracker ~horizon_s)

  let summary_to_json s =
    Json.Assoc
      [
        ("plan", Json.String (to_string (Some s.config)));
        ("horizon_s", Json.Float s.horizon_s);
        ("links_met", Json.Int s.met);
        ("links_violated", Json.Int s.violated);
        ( "links",
          Json.List
            (Array.to_list
               (Array.map
                  (fun v ->
                    Json.Assoc
                      [
                        ("link", Json.Int v.link);
                        ( "availability_pct",
                          Json.Float v.measure.availability_pct );
                        ("class_time_pct", Json.Float v.measure.class_time_pct);
                        ("flaps_per_day", Json.Float v.measure.flaps_per_day);
                        ("quarantine_pct", Json.Float v.measure.quarantine_pct);
                        ( "violations",
                          Json.List
                            (List.map (fun s -> Json.String s) v.violations) );
                      ])
                  s.links)) );
      ]
end

(* ---- sinks ------------------------------------------------------------- *)

type t = {
  sink_armed : bool;
  w : Rwc_storm.Writer.t option;
  slo : Slo.config option;
  mutable tracker : Slo.tracker option;
  mutable horizon_s : float;
  mutable n_events : int;
  mutable closed : bool;
  mutable tee : (seq:int -> offset:int -> record -> unit) option;
}

let disarmed =
  {
    sink_armed = false;
    w = None;
    slo = None;
    tracker = None;
    horizon_s = 0.0;
    n_events = 0;
    closed = false;
    tee = None;
  }

let create ?path ?(slo = Slo.none) () =
  match (path, slo) with
  | None, None -> disarmed
  | _ ->
      {
        sink_armed = true;
        (* The live journal is written in place (truncate, not
           tmp+rename): a crash must leave the partial journal at the
           configured path where --resume and fsck can find it. *)
        w = Option.map Rwc_storm.Writer.create path;
        slo;
        tracker = None;
        horizon_s = 0.0;
        n_events = 0;
        closed = false;
        tee = None;
      }

let armed t = t.sink_armed

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.w with Some w -> Rwc_storm.Writer.close w | None -> ()
  end

let events_emitted t = t.n_events

let byte_offset t =
  match t.w with
  | None -> 0
  | Some w ->
      Rwc_storm.Writer.flush w;
      Rwc_storm.Writer.logical_bytes w

let resume ?path ?(slo = Slo.none) ~at ~events () =
  match (path, slo) with
  | None, None -> Ok disarmed
  | _ -> (
      let reopened =
        match path with
        | None -> Ok (None, None, 0.0)
        | Some p -> (
            (* Truncate the file to the checkpoint's high-water mark —
               events past it belong to the crashed attempt and will be
               re-emitted byte-identically by the resumed run — then
               rebuild the online SLO tracker by replaying the retained
               prefix of the current segment. *)
            match
              In_channel.with_open_bin p (fun ic ->
                  let len = In_channel.length ic in
                  if Int64.of_int at > len then Error "journal shorter than checkpoint high-water mark"
                  else Ok (really_input_string ic at))
            with
            | exception Sys_error e -> Error e
            | Error e -> Error e
            | Ok prefix -> (
                let parse () =
                  let lines = String.split_on_char '\n' prefix in
                  List.filter_map
                    (fun line ->
                      if String.trim line = "" then None
                      else Result.to_option (record_of_line line))
                    lines
                in
                let records = parse () in
                let segment =
                  match segments records with [] -> [] | segs -> List.nth segs (List.length segs - 1)
                in
                let horizon_s, tracker =
                  match
                    List.find_map
                      (function
                        | { kind = Run_start { horizon_s; n_links; _ }; _ } ->
                            Some (horizon_s, n_links)
                        | _ -> None)
                      segment
                  with
                  | None -> (0.0, None)
                  | Some (horizon_s, n_links) ->
                      let tracker =
                        Option.map
                          (fun cfg ->
                            let tr = Slo.make_tracker cfg ~n_links in
                            List.iter (Slo.feed tr) segment;
                            tr)
                          slo
                      in
                      (horizon_s, tracker)
                in
                (* Atomic truncate-and-replay: the retained prefix is
                   written to a temp file, synced, and renamed over the
                   journal, so a crash during recovery itself cannot
                   shred the prefix being recovered from; then reopen
                   for appending. *)
                Rwc_storm.atomic_write p prefix;
                Ok (Some (Rwc_storm.Writer.append p), tracker, horizon_s)))
      in
      match reopened with
      | Error e -> Error e
      | Ok (w, tracker, horizon_s) ->
          Ok
            {
              sink_armed = true;
              w;
              slo;
              tracker;
              horizon_s;
              n_events = events;
              closed = false;
              tee = None;
            })

(* Token-style profiling: [emit] runs once per journaled decision, so
   even a closure allocation per call would be visible in the armed
   profile. *)
let emit t r =
  let tok = Rwc_perf.start Rwc_perf.Journal_emit in
  t.n_events <- t.n_events + 1;
  let offset =
    match t.w with
    | Some w ->
        let offset = Rwc_storm.Writer.logical_bytes w in
        Rwc_storm.Writer.write w (Json.to_string (record_to_json r));
        Rwc_storm.Writer.write w "\n";
        offset
    | None -> 0
  in
  (match t.tracker with Some tr -> Slo.feed tr r | None -> ());
  (* The tee fires after the write: a live-stream subscriber can never
     observe a decision the durable log does not yet contain. *)
  (match t.tee with Some f -> f ~seq:(t.n_events - 1) ~offset r | None -> ());
  Rwc_perf.stop tok

let set_tee t f =
  if not t.sink_armed then
    invalid_arg "Rwc_journal.set_tee: cannot tee a disarmed sink";
  t.tee <- Some f

let clear_tee t = if t.sink_armed then t.tee <- None

let adopt_tee t ~from = if t.sink_armed then t.tee <- from.tee

let online_slo t ~at =
  Option.map (fun tr -> Slo.evaluate tr ~horizon_s:at) t.tracker

let start_run t ~policy ~seed ~horizon_s ~n_links =
  if t.sink_armed then begin
    t.horizon_s <- horizon_s;
    (match t.slo with
    | Some cfg -> t.tracker <- Some (Slo.make_tracker cfg ~n_links)
    | None -> ());
    emit t
      {
        t = 0.0;
        link = -1;
        span = Trace.current_id ();
        kind = Run_start { policy; seed; horizon_s; n_links };
      }
  end

let finish_run t =
  match t.tracker with
  | None -> None
  | Some tr ->
      t.tracker <- None;
      (match t.w with Some w -> Rwc_storm.Writer.flush w | None -> ());
      Some (Slo.evaluate_in_place tr ~horizon_s:t.horizon_s)

(* Each emitter checks the armed flag before building its record, so
   the disarmed path is a call, a load and a branch — the same budget
   as a disabled metric increment (bench/obs_bench.ml pins it). *)

let observe t ~link ~now ~snr_db ~fresh =
  if t.sink_armed then
    emit t
      {
        t = now;
        link;
        span = Trace.current_id ();
        kind = Observe { snr_db; fresh };
      }

let intent t ~link ~now action ~from_gbps ~to_gbps =
  if t.sink_armed then
    emit t
      {
        t = now;
        link;
        span = Trace.current_id ();
        kind = Intent { action; from_gbps; to_gbps };
      }

let guard t ~link ~now verdict =
  if t.sink_armed then
    emit t
      { t = now; link; span = Trace.current_id (); kind = Guard { verdict } }

let fault t ~link ~now outcome ~attempt =
  if t.sink_armed then
    emit t
      {
        t = now;
        link;
        span = Trace.current_id ();
        kind = Fault { outcome; attempt };
      }

let commit t ~link ~now ~gbps ~up =
  if t.sink_armed then
    emit t
      { t = now; link; span = Trace.current_id (); kind = Commit { gbps; up } }

let outage t ~link ~now ~up =
  if t.sink_armed then
    emit t { t = now; link; span = Trace.current_id (); kind = Outage { up } }

let rollout t ~link ~now ~rid revent ~wave ~gbps =
  if t.sink_armed then
    emit t
      {
        t = now;
        link;
        span = Trace.current_id ();
        kind = Rollout { rid; revent; wave; gbps };
      }

let anomaly t ~link ~now detector ~snr_db =
  if t.sink_armed then
    emit t
      {
        t = now;
        link;
        span = Trace.current_id ();
        kind = Anomaly { detector; snr_db };
      }
