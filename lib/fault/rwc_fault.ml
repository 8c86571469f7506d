type component =
  | Bvt_reconfig
  | Bvt_timeout
  | Collector_outage
  | Collector_corrupt
  | Adapt_stuck
  | Te_delay
  | Crash
  | Io_short
  | Io_torn_rename
  | Io_enospc
  | Io_bitflip

let all_components =
  [
    Bvt_reconfig; Bvt_timeout; Collector_outage; Collector_corrupt;
    Adapt_stuck; Te_delay; Crash; Io_short; Io_torn_rename; Io_enospc;
    Io_bitflip;
  ]

let component_index = function
  | Bvt_reconfig -> 0
  | Bvt_timeout -> 1
  | Collector_outage -> 2
  | Collector_corrupt -> 3
  | Adapt_stuck -> 4
  | Te_delay -> 5
  | Crash -> 6
  | Io_short -> 7
  | Io_torn_rename -> 8
  | Io_enospc -> 9
  | Io_bitflip -> 10

let n_components = List.length all_components

let component_name = function
  | Bvt_reconfig -> "bvt-fail"
  | Bvt_timeout -> "bvt-timeout"
  | Collector_outage -> "collector-outage"
  | Collector_corrupt -> "collector-corrupt"
  | Adapt_stuck -> "adapt-stuck"
  | Te_delay -> "te-delay"
  | Crash -> "crash"
  | Io_short -> "io_short"
  | Io_torn_rename -> "io_torn_rename"
  | Io_enospc -> "io_enospc"
  | Io_bitflip -> "io_bitflip"

let component_of_name = function
  | "bvt-fail" -> Some Bvt_reconfig
  | "bvt-timeout" -> Some Bvt_timeout
  | "collector-outage" -> Some Collector_outage
  | "collector-corrupt" -> Some Collector_corrupt
  | "adapt-stuck" -> Some Adapt_stuck
  | "te-delay" -> Some Te_delay
  | "crash" -> Some Crash
  | "io_short" -> Some Io_short
  | "io_torn_rename" -> Some Io_torn_rename
  | "io_enospc" -> Some Io_enospc
  | "io_bitflip" -> Some Io_bitflip
  | _ -> None

let io_components = [ Io_short; Io_torn_rename; Io_enospc; Io_bitflip ]

let is_io = function
  | Io_short | Io_torn_rename | Io_enospc | Io_bitflip -> true
  | Bvt_reconfig | Bvt_timeout | Collector_outage | Collector_corrupt
  | Adapt_stuck | Te_delay | Crash ->
      false

type window = { start_s : float; stop_s : float }

type rule = {
  component : component;
  prob : float;
  param : float;
  window : window option;
}

type plan = { seed : int; rules : rule list }

let default_seed = 4242

let none = { seed = default_seed; rules = [] }

let rule ?window ?(param = 0.0) component prob =
  assert (prob >= 0.0 && prob < 1.0);
  { component; prob; param; window }

let default =
  {
    seed = default_seed;
    rules =
      [
        rule Bvt_reconfig 0.15;
        rule Bvt_timeout 0.05 ~param:120.0;
        rule Collector_outage 0.02;
        rule Collector_corrupt 0.01 ~param:2.0;
        rule Adapt_stuck 0.05;
        rule Te_delay 0.10 ~param:1800.0;
      ];
  }

let is_none plan = plan.rules = []

let scaled plan ~factor =
  if factor < 0.0 then invalid_arg "Rwc_fault.scaled: negative factor";
  {
    plan with
    rules =
      List.map
        (fun r -> { r with prob = Float.min 0.999 (r.prob *. factor) })
        plan.rules;
  }

(* ---- plan spec parsing ------------------------------------------------- *)

let window_to_string = function
  | None -> ""
  | Some w -> Printf.sprintf "@%g..%g" w.start_s w.stop_s

let rule_to_string r =
  let param =
    if r.param = 0.0 then "" else Printf.sprintf ":%g" r.param
  in
  Printf.sprintf "%s=%g%s%s" (component_name r.component) r.prob param
    (window_to_string r.window)

let to_string plan =
  if is_none plan then "none"
  else
    let rules = List.map rule_to_string plan.rules in
    let seed =
      if plan.seed = default_seed then [] else [ Printf.sprintf "seed=%d" plan.seed ]
    in
    String.concat "," (rules @ seed)

let float_of_string_opt' s = float_of_string_opt (String.trim s)

let parse_rule token =
  (* NAME=PROB[:PARAM][@START..STOP] *)
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "%S: expected NAME=PROB" token)
  | Some eq -> (
      let name = String.sub token 0 eq in
      let rest = String.sub token (eq + 1) (String.length token - eq - 1) in
      match component_of_name name with
      | None ->
          Error
            (Printf.sprintf "unknown fault component %S (known: %s)" name
               (String.concat ", " (List.map component_name all_components)))
      | Some component -> (
          let rest, window =
            match String.index_opt rest '@' with
            | None -> (rest, Ok None)
            | Some at -> (
                let w = String.sub rest (at + 1) (String.length rest - at - 1) in
                let rest = String.sub rest 0 at in
                match String.index_opt w '.' with
                | Some d
                  when d + 1 < String.length w && w.[d + 1] = '.' -> (
                    let a = String.sub w 0 d in
                    let b = String.sub w (d + 2) (String.length w - d - 2) in
                    match (float_of_string_opt' a, float_of_string_opt' b) with
                    | Some start_s, Some stop_s when start_s <= stop_s ->
                        (rest, Ok (Some { start_s; stop_s }))
                    | _ ->
                        (rest, Error (Printf.sprintf "%S: bad window %S" token w)))
                | _ -> (rest, Error (Printf.sprintf "%S: bad window %S" token w)))
          in
          match window with
          | Error e -> Error e
          | Ok window -> (
              let prob, param =
                match String.index_opt rest ':' with
                | None -> (rest, Ok 0.0)
                | Some c -> (
                    let p = String.sub rest (c + 1) (String.length rest - c - 1) in
                    ( String.sub rest 0 c,
                      match float_of_string_opt' p with
                      | Some v when v >= 0.0 -> Ok v
                      | _ -> Error (Printf.sprintf "%S: bad param %S" token p) ))
              in
              match param with
              | Error e -> Error e
              | Ok param -> (
                  match float_of_string_opt' prob with
                  | Some p when p >= 0.0 && p < 1.0 ->
                      Ok { component; prob = p; param; window }
                  | _ ->
                      Error
                        (Printf.sprintf "%S: probability must be in [0, 1)" token)))))

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else
    let tokens = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> Ok { acc with rules = List.rev acc.rules }
      | "default" :: rest ->
          (* Splice the default rules in at this point. *)
          go { acc with rules = List.rev_append default.rules acc.rules } rest
      | tok :: rest when String.length tok > 5 && String.sub tok 0 5 = "seed=" -> (
          match int_of_string_opt (String.sub tok 5 (String.length tok - 5)) with
          | Some seed -> go { acc with seed } rest
          | None -> Error (Printf.sprintf "%S: bad seed" tok))
      | "" :: rest -> go acc rest
      | tok :: rest -> (
          match parse_rule tok with
          | Ok r -> go { acc with rules = r :: acc.rules } rest
          | Error e -> Error e)
    in
    go { seed = default_seed; rules = [] } tokens

(* ---- compiled injector ------------------------------------------------- *)

type slot = {
  s_prob : float;
  s_param : float;
  s_window : window option;
  s_rng : Rwc_stats.Rng.t;
  mutable s_count : int;
}

type injector = {
  slots : slot option array;  (* indexed by component_index *)
  mutable total : int;
}

let m_injected_total = Rwc_obs.Metrics.counter "fault/injected_total"

let m_component =
  (* Registered eagerly so a chaos run's summary shows every channel,
     fired or not (see DESIGN §8 on absent-vs-zero). *)
  let a = Array.make n_components m_injected_total in
  List.iter
    (fun c ->
      a.(component_index c) <-
        Rwc_obs.Metrics.counter ("fault/" ^ component_name c))
    all_components;
  a

let disarmed = { slots = Array.make n_components None; total = 0 }

let compile plan =
  let root = Rwc_stats.Rng.create plan.seed in
  let slots = Array.make n_components None in
  List.iter
    (fun r ->
      let i = component_index r.component in
      (* Last rule for a component wins; each component draws from its
         own substream so call-frequency in one hook cannot shift the
         fault pattern seen by another. *)
      slots.(i) <-
        Some
          {
            s_prob = r.prob;
            s_param = r.param;
            s_window = r.window;
            s_rng = Rwc_stats.Rng.substream root i;
            s_count = 0;
          })
    plan.rules;
  { slots; total = 0 }

let armed t = Array.exists Option.is_some t.slots

let in_window now = function
  | None -> true
  | Some w -> now >= w.start_s && now < w.stop_s

let fires t component ~now =
  match t.slots.(component_index component) with
  | None -> false
  | Some s ->
      if not (in_window now s.s_window) then false
      else if Rwc_stats.Rng.float s.s_rng < s.s_prob then begin
        s.s_count <- s.s_count + 1;
        t.total <- t.total + 1;
        Rwc_obs.Metrics.incr m_injected_total;
        Rwc_obs.Metrics.incr m_component.(component_index component);
        true
      end
      else false

let param t component =
  match t.slots.(component_index component) with
  | None -> 0.0
  | Some s -> s.s_param

let jitter t component =
  match t.slots.(component_index component) with
  | None -> 0.0
  | Some s ->
      if s.s_param = 0.0 then 0.0
      else Rwc_stats.Rng.uniform s.s_rng ~lo:(-.s.s_param) ~hi:s.s_param

let draw t component =
  match t.slots.(component_index component) with
  | None -> 0.0
  | Some s -> Rwc_stats.Rng.float s.s_rng

let injected t = t.total

let injected_for t component =
  match t.slots.(component_index component) with
  | None -> 0
  | Some s -> s.s_count

(* ---- checkpoint support ------------------------------------------------ *)

type snapshot = {
  snap_total : int;
  snap_slots : (int64 * int) option array;  (* (rng state, count) per slot *)
}

let snapshot t =
  {
    snap_total = t.total;
    snap_slots =
      Array.map
        (Option.map (fun s -> (Rwc_stats.Rng.raw_state s.s_rng, s.s_count)))
        t.slots;
  }

let restore t snap =
  if Array.length snap.snap_slots <> Array.length t.slots then
    invalid_arg "Rwc_fault.restore: snapshot shape mismatch";
  t.total <- snap.snap_total;
  Array.iteri
    (fun i slot ->
      match (slot, snap.snap_slots.(i)) with
      | Some s, Some (state, count) ->
          Rwc_stats.Rng.set_raw_state s.s_rng state;
          s.s_count <- count
      | None, None -> ()
      | _ -> invalid_arg "Rwc_fault.restore: snapshot shape mismatch")
    t.slots

let snapshot_to_list snap = (snap.snap_total, Array.to_list snap.snap_slots)

let snapshot_of_list (snap_total, slots) =
  { snap_total; snap_slots = Array.of_list slots }

type retry_policy = {
  max_attempts : int;
  base_s : float;
  factor : float;
  cap_s : float;
}

let backoff_delay p ~attempt =
  if attempt < 1 then invalid_arg "Rwc_fault.backoff_delay: attempt < 1";
  Float.min p.cap_s (p.base_s *. (p.factor ** float_of_int (attempt - 1)))
