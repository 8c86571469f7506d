module Json = Rwc_obs.Json

(* --- global switch ------------------------------------------------- *)

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

(* --- phases -------------------------------------------------------- *)

type phase =
  | Telemetry_gen
  | Collector_poll
  | Adapt_step
  | Te_solve
  | Mincost
  | Des_drain
  | Journal_emit
  | Checkpoint_write
  | Checkpoint_restore

let all_phases =
  [ Telemetry_gen; Collector_poll; Adapt_step; Te_solve; Mincost;
    Des_drain; Journal_emit; Checkpoint_write; Checkpoint_restore ]

let n_phases = List.length all_phases

let phase_index = function
  | Telemetry_gen -> 0
  | Collector_poll -> 1
  | Adapt_step -> 2
  | Te_solve -> 3
  | Mincost -> 4
  | Des_drain -> 5
  | Journal_emit -> 6
  | Checkpoint_write -> 7
  | Checkpoint_restore -> 8

let phase_name = function
  | Telemetry_gen -> "telemetry_gen"
  | Collector_poll -> "collector_poll"
  | Adapt_step -> "adapt_step"
  | Te_solve -> "te_solve"
  | Mincost -> "mincost"
  | Des_drain -> "des_drain"
  | Journal_emit -> "journal_emit"
  | Checkpoint_write -> "checkpoint_write"
  | Checkpoint_restore -> "checkpoint_restore"

let phase_of_name s =
  List.find_opt (fun p -> String.equal (phase_name p) s) all_phases

(* --- accumulators --------------------------------------------------
   Same log-bucket scheme as Metrics.histogram: 20 buckets per decade
   over [1 ns, 1000 s], so quantile answers agree across the two
   layers to within bucket resolution. *)

let decades = 12
let per_decade = 20
let n_buckets = decades * per_decade
let lo_exp = -9.0 (* 1 ns *)

let bucket_of v =
  if v <= 1e-9 then 0
  else
    let b = int_of_float ((log10 v -. lo_exp) *. float_of_int per_decade) in
    if b < 0 then 0 else if b >= n_buckets then n_buckets - 1 else b

let bucket_mid b =
  let e = lo_exp +. (float_of_int b +. 0.5) /. float_of_int per_decade in
  10.0 ** e

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable min_s : float;
  mutable max_s : float;
  mutable alloc_w : float;
  buckets : int array;
}

let fresh_agg () =
  { count = 0; total_s = 0.0; min_s = infinity; max_s = 0.0;
    alloc_w = 0.0; buckets = Array.make n_buckets 0 }

(* Each domain records into its own slab (one agg per phase) reached
   through domain-local storage, so concurrent phases under
   [--domains > 1] never race on a counter.  Slabs self-register in a
   mutex-guarded list on first use; [snapshot]/[reset]/[pp_summary]
   merge or zero the whole list.  Reads of another domain's slab are
   only well-defined between parallel sections — Rwc_par's fork/join
   mutexes give the happens-before — which is how the profiler is
   used: arm, run, then read on the coordinating domain. *)

let slab_registry : agg array list ref = ref []
let registry_mu = Mutex.create ()

let slab_key =
  Domain.DLS.new_key (fun () ->
      let slab = Array.init n_phases (fun _ -> fresh_agg ()) in
      Mutex.lock registry_mu;
      slab_registry := slab :: !slab_registry;
      Mutex.unlock registry_mu;
      slab)

let slab () = Domain.DLS.get slab_key

let all_slabs () =
  Mutex.lock registry_mu;
  let slabs = !slab_registry in
  Mutex.unlock registry_mu;
  slabs

(* Parallel-section accounting (busy vs wall per phase).  Written only
   by the coordinating domain after a join, so a plain global array is
   race-free. *)
type par_agg = { mutable par_busy : float; mutable par_wall : float }

let par_aggs =
  Array.init n_phases (fun _ -> { par_busy = 0.0; par_wall = 0.0 })

let reset () =
  List.iter
    (Array.iter (fun a ->
         a.count <- 0; a.total_s <- 0.0; a.min_s <- infinity;
         a.max_s <- 0.0; a.alloc_w <- 0.0;
         Array.fill a.buckets 0 n_buckets 0))
    (all_slabs ());
  Array.iter (fun a -> a.par_busy <- 0.0; a.par_wall <- 0.0) par_aggs

(* [Gc.quick_stat].minor_words only advances at minor collections, so
   short intervals would read as zero allocation; [Gc.minor_words ()]
   reads the live allocation pointer instead. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let observe phase ~dt ~dw =
  let a = (slab ()).(phase_index phase) in
  a.count <- a.count + 1;
  a.total_s <- a.total_s +. dt;
  if dt < a.min_s then a.min_s <- dt;
  if dt > a.max_s then a.max_s <- dt;
  if dw > 0.0 then a.alloc_w <- a.alloc_w +. dw;
  let b = a.buckets.(bucket_of dt) in
  a.buckets.(bucket_of dt) <- b + 1

(* --- recording ----------------------------------------------------- *)

type token = Off | On of { phase : phase; t0 : float; a0 : float }

(* [start] and [stop] are only the flag load or the tag test plus a
   tail call to the armed work, which stays out of line, so a disarmed
   call is a frameless leaf.  Each takes one argument: a caller in
   another module compiled with -opaque (dune's dev profile) cannot
   inline them and calls them directly, where a two-argument call
   would go through [caml_apply2]. *)
let[@inline never] start_armed phase =
  On { phase; t0 = Unix.gettimeofday (); a0 = alloc_words () }

let[@inline] start phase = if not !on then Off else start_armed phase

let[@inline never] stop_armed tok =
  match tok with
  | Off -> ()
  | On { phase; t0; a0 } ->
    if !on then
      observe phase
        ~dt:(Unix.gettimeofday () -. t0)
        ~dw:(alloc_words () -. a0)

let[@inline] stop tok = match tok with Off -> () | On _ -> stop_armed tok

let record phase f =
  if not !on then f ()
  else
    let tok = start phase in
    Fun.protect ~finally:(fun () -> stop tok) f

let par_add phase ~busy_s ~wall_s =
  if !on then begin
    let a = par_aggs.(phase_index phase) in
    a.par_busy <- a.par_busy +. busy_s;
    a.par_wall <- a.par_wall +. wall_s
  end

(* --- reading ------------------------------------------------------- *)

type phase_stats = {
  count : int;
  total_s : float;
  p50_s : float;
  p95_s : float;
  max_s : float;
  alloc_words : float;
  par_busy_s : float;
  par_wall_s : float;
}

let percentile (a : agg) p =
  if a.count = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int a.count in
    let seen = ref 0 and b = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         seen := !seen + a.buckets.(i);
         if float_of_int !seen >= rank then begin b := i; raise Exit end
       done;
       b := n_buckets - 1
     with Exit -> ());
    let v = bucket_mid !b in
    let v = if v < a.min_s then a.min_s else v in
    if v > a.max_s then a.max_s else v
  end

let stats_of_agg (a : agg) (pa : par_agg) =
  { count = a.count; total_s = a.total_s;
    p50_s = percentile a 50.0; p95_s = percentile a 95.0;
    max_s = a.max_s; alloc_words = a.alloc_w;
    par_busy_s = pa.par_busy; par_wall_s = pa.par_wall }

(* Merge every domain's slab into one agg per phase. *)
let merged () =
  let slabs = all_slabs () in
  Array.init n_phases (fun i ->
      let m : agg = fresh_agg () in
      List.iter
        (fun (slab : agg array) ->
          let a = slab.(i) in
          m.count <- m.count + a.count;
          m.total_s <- m.total_s +. a.total_s;
          if a.min_s < m.min_s then m.min_s <- a.min_s;
          if a.max_s > m.max_s then m.max_s <- a.max_s;
          m.alloc_w <- m.alloc_w +. a.alloc_w;
          Array.iteri
            (fun b c -> m.buckets.(b) <- m.buckets.(b) + c)
            a.buckets)
        slabs;
      m)

let snapshot () =
  let m = merged () in
  List.filter_map
    (fun p ->
      let i = phase_index p in
      let a = m.(i) and pa = par_aggs.(i) in
      if a.count = 0 && pa.par_wall = 0.0 then None
      else Some (p, stats_of_agg a pa))
    all_phases

let peak_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let pp_duration ppf s =
  if s < 1e-6 then Format.fprintf ppf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else Format.fprintf ppf "%.3fs" s

let pp_summary ppf () =
  let snap = snapshot () in
  if snap = [] then Format.fprintf ppf "perf: no phases recorded@."
  else begin
    let any_par = List.exists (fun (_, s) -> s.par_wall_s > 0.0) snap in
    Format.fprintf ppf "%-20s %8s %10s %10s %10s %10s %12s"
      "phase" "count" "total" "p50" "p95" "max" "alloc-words";
    if any_par then Format.fprintf ppf " %9s" "par-x";
    Format.fprintf ppf "@.";
    let dur s = Format.asprintf "%a" pp_duration s in
    List.iter
      (fun (p, s) ->
        Format.fprintf ppf "%-20s %8d %10s %10s %10s %10s %12.3e"
          (phase_name p) s.count (dur s.total_s) (dur s.p50_s) (dur s.p95_s)
          (dur s.max_s) s.alloc_words;
        if any_par then
          if s.par_wall_s > 0.0 then
            Format.fprintf ppf " %8.2fx" (s.par_busy_s /. s.par_wall_s)
          else Format.fprintf ppf " %9s" "-";
        Format.fprintf ppf "@.")
      snap
  end

(* --- trajectories -------------------------------------------------- *)

module Trajectory = struct
  type phase_point = {
    ph_count : int;
    ph_total_s : float;
    ph_p50_s : float;
    ph_p95_s : float;
    ph_max_s : float;
    ph_alloc_words : float;
    ph_par_busy_s : float;
    ph_par_wall_s : float;
  }

  type point = {
    n_links : int;
    wall_s : float;
    events : int;
    events_per_s : float;
    peak_heap_words : int;
    phases : (string * phase_point) list;
  }

  type t = {
    schema : string;
    label : string;
    domains : int;
    points : point list;
  }

  let schema_version = "rwc-bench/2"
  let schema_v1 = "rwc-bench/1"

  let make ~label ?(domains = 1) points =
    { schema = schema_version; label; domains;
      points = List.sort (fun a b -> compare a.n_links b.n_links) points }

  (* The JSON layer serializes non-finite floats as [null], which the
     reader rejects; sanitize on the way out so a NaN from a degenerate
     run (0 events in 0 s) never poisons a trajectory file. *)
  let sane f = if Float.is_finite f then f else 0.0

  let json_of_phase_point p =
    Json.Assoc
      [ ("count", Json.Int p.ph_count);
        ("total_s", Json.Float (sane p.ph_total_s));
        ("p50_s", Json.Float (sane p.ph_p50_s));
        ("p95_s", Json.Float (sane p.ph_p95_s));
        ("max_s", Json.Float (sane p.ph_max_s));
        ("alloc_words", Json.Float (sane p.ph_alloc_words));
        ("par_busy_s", Json.Float (sane p.ph_par_busy_s));
        ("par_wall_s", Json.Float (sane p.ph_par_wall_s)) ]

  let json_of_point p =
    Json.Assoc
      [ ("n_links", Json.Int p.n_links);
        ("wall_s", Json.Float (sane p.wall_s));
        ("events", Json.Int p.events);
        ("events_per_s", Json.Float (sane p.events_per_s));
        ("peak_heap_words", Json.Int p.peak_heap_words);
        ("phases",
         Json.Assoc (List.map (fun (k, v) -> (k, json_of_phase_point v)) p.phases)) ]

  let to_json t =
    Json.Assoc
      [ ("schema", Json.String t.schema);
        ("label", Json.String t.label);
        ("domains", Json.Int t.domains);
        ("points", Json.List (List.map json_of_point t.points)) ]

  let ( let* ) = Result.bind

  let fnum path = function
    | Json.Int i -> Ok (float_of_int i)
    | Json.Float f -> Ok f
    | _ -> Error (path ^ ": expected a number")

  let inum path = function
    | Json.Int i -> Ok i
    | _ -> Error (path ^ ": expected an integer")

  let field path name j =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: missing field %S" path name)

  let ffield path name j =
    let* v = field path name j in
    fnum (path ^ "." ^ name) v

  let ifield path name j =
    let* v = field path name j in
    inum (path ^ "." ^ name) v

  let rec map_result f = function
    | [] -> Ok []
    | x :: tl ->
      let* y = f x in
      let* ys = map_result f tl in
      Ok (y :: ys)

  (* Optional float field: absent in rwc-bench/1 files, defaulted. *)
  let offield path name ~default j =
    match Json.member name j with
    | None -> Ok default
    | Some v -> fnum (path ^ "." ^ name) v

  let phase_point_of_json path j =
    let* ph_count = ifield path "count" j in
    let* ph_total_s = ffield path "total_s" j in
    let* ph_p50_s = ffield path "p50_s" j in
    let* ph_p95_s = ffield path "p95_s" j in
    let* ph_max_s = ffield path "max_s" j in
    let* ph_alloc_words = ffield path "alloc_words" j in
    let* ph_par_busy_s = offield path "par_busy_s" ~default:0.0 j in
    let* ph_par_wall_s = offield path "par_wall_s" ~default:0.0 j in
    Ok { ph_count; ph_total_s; ph_p50_s; ph_p95_s; ph_max_s; ph_alloc_words;
         ph_par_busy_s; ph_par_wall_s }

  let point_of_json i j =
    let path = Printf.sprintf "points[%d]" i in
    let* n_links = ifield path "n_links" j in
    let* wall_s = ffield path "wall_s" j in
    let* events = ifield path "events" j in
    let* events_per_s = ffield path "events_per_s" j in
    let* peak_heap_words = ifield path "peak_heap_words" j in
    let* phases_j = field path "phases" j in
    let* phases =
      match phases_j with
      | Json.Assoc kvs ->
        map_result
          (fun (name, pj) ->
            let* pp = phase_point_of_json (path ^ ".phases." ^ name) pj in
            Ok (name, pp))
          kvs
      | _ -> Error (path ^ ".phases: expected an object")
    in
    Ok { n_links; wall_s; events; events_per_s; peak_heap_words; phases }

  let of_json j =
    let* schema_j = field "trajectory" "schema" j in
    let* schema =
      match schema_j with
      | Json.String s -> Ok s
      | _ -> Error "trajectory.schema: expected a string"
    in
    if not (String.equal schema schema_version || String.equal schema schema_v1)
    then
      Error
        (Printf.sprintf "unsupported schema %S (this build reads %S and %S)"
           schema schema_version schema_v1)
    else
      let* label_j = field "trajectory" "label" j in
      let* label =
        match label_j with
        | Json.String s -> Ok s
        | _ -> Error "trajectory.label: expected a string"
      in
      (* rwc-bench/1 predates the field: those runs were sequential. *)
      let* domains =
        match Json.member "domains" j with
        | None -> Ok 1
        | Some v -> inum "trajectory.domains" v
      in
      let* points_j = field "trajectory" "points" j in
      let* points =
        match points_j with
        | Json.List l ->
          let* pts = map_result (fun (i, p) -> point_of_json i p)
              (List.mapi (fun i p -> (i, p)) l) in
          Ok pts
        | _ -> Error "trajectory.points: expected a list"
      in
      (* Normalize: a v1 file re-emerges as the current schema with
         defaulted fields, so downstream comparisons are uniform. *)
      Ok { schema = schema_version; label; domains; points }

  let write path t = Json.to_file path (to_json t)

  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | contents ->
      (match Json.parse contents with
       | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
       | Ok j ->
         (match of_json j with
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
          | Ok t -> Ok t))

  let pp ppf t =
    Format.fprintf ppf "trajectory %S (%s, %d domain(s)), %d point(s)@."
      t.label t.schema t.domains (List.length t.points);
    List.iter
      (fun p ->
        Format.fprintf ppf
          "  n=%-5d wall %a  %d events (%.0f ev/s)  peak heap %.1f Mwords@."
          p.n_links pp_duration p.wall_s p.events p.events_per_s
          (float_of_int p.peak_heap_words /. 1e6);
        List.iter
          (fun (name, ph) ->
            Format.fprintf ppf
              "    %-20s count %-7d total %a  p50 %a  p95 %a  max %a" name
              ph.ph_count pp_duration ph.ph_total_s pp_duration ph.ph_p50_s
              pp_duration ph.ph_p95_s pp_duration ph.ph_max_s;
            if ph.ph_par_wall_s > 0.0 then
              Format.fprintf ppf "  par %.2fx"
                (ph.ph_par_busy_s /. ph.ph_par_wall_s);
            Format.fprintf ppf "@.")
          p.phases)
      t.points
end

(* --- diffing ------------------------------------------------------- *)

module Diff = struct
  type tolerance = {
    time_pct : float;
    alloc_pct : float;
    count_pct : float;
    throughput_pct : float;
    time_floor_s : float;
    alloc_floor_w : float;
    count_floor : int;
  }

  let default =
    { time_pct = 50.0; alloc_pct = 20.0; count_pct = 5.0;
      throughput_pct = 33.0; time_floor_s = 1e-3; alloc_floor_w = 262144.0;
      count_floor = 8 }

  let ci =
    { time_pct = 400.0; alloc_pct = 75.0; count_pct = 10.0;
      throughput_pct = 80.0; time_floor_s = 5e-3; alloc_floor_w = 1048576.0;
      count_floor = 16 }

  type level = Pass | Warn | Fail

  type finding = {
    metric : string;
    old_v : float;
    new_v : float;
    delta_pct : float;
    level : level;
  }

  let level_of ~tol_pct pct =
    if pct > tol_pct then Fail else if pct > tol_pct /. 2.0 then Warn else Pass

  (* Higher-is-worse metric (time, allocation): only increases past
     the absolute floor count against the tolerance. *)
  let growth metric ~tol_pct ~floor old_v new_v =
    let delta = new_v -. old_v in
    let pct =
      if old_v > 0.0 then delta /. old_v *. 100.0
      else if delta > 0.0 then infinity
      else 0.0
    in
    let level =
      if delta <= floor then Pass else level_of ~tol_pct pct
    in
    { metric; old_v; new_v; delta_pct = pct; level }

  (* Deterministic metric (counts): drift in either direction matters. *)
  let drift metric ~tol_pct ~floor old_v new_v =
    let delta = new_v -. old_v in
    let pct =
      if old_v > 0.0 then delta /. old_v *. 100.0
      else if delta <> 0.0 then infinity
      else 0.0
    in
    let level =
      if Float.abs delta <= floor then Pass
      else level_of ~tol_pct (Float.abs pct)
    in
    { metric; old_v; new_v; delta_pct = pct; level }

  (* Lower-is-worse metric (events/s): only decreases count. *)
  let shrink metric ~tol_pct old_v new_v =
    let delta = new_v -. old_v in
    let pct = if old_v > 0.0 then delta /. old_v *. 100.0 else 0.0 in
    let level = if delta >= 0.0 then Pass else level_of ~tol_pct (-.pct) in
    { metric; old_v; new_v; delta_pct = pct; level }

  let compare_phase ~tol ~prefix name (o : Trajectory.phase_point)
      (n : Trajectory.phase_point) =
    let m sub = Printf.sprintf "%s %s.%s" prefix name sub in
    [ drift (m "count") ~tol_pct:tol.count_pct
        ~floor:(float_of_int tol.count_floor)
        (float_of_int o.Trajectory.ph_count)
        (float_of_int n.Trajectory.ph_count);
      growth (m "total_s") ~tol_pct:tol.time_pct ~floor:tol.time_floor_s
        o.Trajectory.ph_total_s n.Trajectory.ph_total_s;
      growth (m "p50_s") ~tol_pct:tol.time_pct ~floor:tol.time_floor_s
        o.Trajectory.ph_p50_s n.Trajectory.ph_p50_s;
      growth (m "p95_s") ~tol_pct:tol.time_pct ~floor:tol.time_floor_s
        o.Trajectory.ph_p95_s n.Trajectory.ph_p95_s;
      growth (m "max_s") ~tol_pct:tol.time_pct ~floor:tol.time_floor_s
        o.Trajectory.ph_max_s n.Trajectory.ph_max_s;
      growth (m "alloc_words") ~tol_pct:tol.alloc_pct
        ~floor:tol.alloc_floor_w o.Trajectory.ph_alloc_words
        n.Trajectory.ph_alloc_words ]

  let compare_point ~tol (o : Trajectory.point) (n : Trajectory.point) =
    let prefix = Printf.sprintf "n=%d" o.Trajectory.n_links in
    let m sub = Printf.sprintf "%s %s" prefix sub in
    let top =
      [ growth (m "wall_s") ~tol_pct:tol.time_pct ~floor:tol.time_floor_s
          o.Trajectory.wall_s n.Trajectory.wall_s;
        drift (m "events") ~tol_pct:tol.count_pct
          ~floor:(float_of_int tol.count_floor)
          (float_of_int o.Trajectory.events)
          (float_of_int n.Trajectory.events);
        shrink (m "events_per_s") ~tol_pct:tol.throughput_pct
          o.Trajectory.events_per_s n.Trajectory.events_per_s;
        growth (m "peak_heap_words") ~tol_pct:tol.alloc_pct
          ~floor:tol.alloc_floor_w
          (float_of_int o.Trajectory.peak_heap_words)
          (float_of_int n.Trajectory.peak_heap_words) ]
    in
    let phase_findings =
      List.concat_map
        (fun (name, op) ->
          match List.assoc_opt name n.Trajectory.phases with
          | None ->
            (* The instrumentation for a phase disappearing is itself a
               regression: the new build stopped measuring it. *)
            [ { metric = Printf.sprintf "%s %s (missing in new)" prefix name;
                old_v = float_of_int op.Trajectory.ph_count; new_v = 0.0;
                delta_pct = -100.0; level = Fail } ]
          | Some np -> compare_phase ~tol ~prefix name op np)
        o.Trajectory.phases
    in
    top @ phase_findings

  let compare ?(tol = default) ?(cross_domains = false) (old_t : Trajectory.t)
      (new_t : Trajectory.t) =
    if not (String.equal old_t.Trajectory.schema new_t.Trajectory.schema) then
      Error
        (Printf.sprintf "schema mismatch: old %S vs new %S"
           old_t.Trajectory.schema new_t.Trajectory.schema)
    else if
      old_t.Trajectory.domains <> new_t.Trajectory.domains
      && not cross_domains
    then
      (* Wall-clock comparisons across different parallelism are
         apples-to-oranges; demand an explicit opt-in. *)
      Error
        (Printf.sprintf
           "domains mismatch: old ran with %d, new with %d (pass \
            --cross-domains to compare anyway)"
           old_t.Trajectory.domains new_t.Trajectory.domains)
    else
      let missing =
        List.filter
          (fun (o : Trajectory.point) ->
            not
              (List.exists
                 (fun (n : Trajectory.point) ->
                   n.Trajectory.n_links = o.Trajectory.n_links)
                 new_t.Trajectory.points))
          old_t.Trajectory.points
      in
      match missing with
      | o :: _ ->
        Error
          (Printf.sprintf "new trajectory is missing sweep point n=%d"
             o.Trajectory.n_links)
      | [] ->
        Ok
          (List.concat_map
             (fun (o : Trajectory.point) ->
               let n =
                 List.find
                   (fun (n : Trajectory.point) ->
                     n.Trajectory.n_links = o.Trajectory.n_links)
                   new_t.Trajectory.points
               in
               compare_point ~tol o n)
             old_t.Trajectory.points)

  let worst findings =
    List.fold_left
      (fun acc f ->
        match (acc, f.level) with
        | (Fail, _) | (_, Fail) -> Fail
        | (Warn, _) | (_, Warn) -> Warn
        | (Pass, Pass) -> Pass)
      Pass findings

  let render ppf findings =
    let n_pass = List.length (List.filter (fun f -> f.level = Pass) findings) in
    List.iter
      (fun f ->
        match f.level with
        | Pass -> ()
        | lvl ->
          Format.fprintf ppf "%s %-40s %.4g -> %.4g (%+.1f%%)@."
            (match lvl with Fail -> "FAIL" | _ -> "WARN")
            f.metric f.old_v f.new_v f.delta_pct)
      findings;
    Format.fprintf ppf "%d metric(s) within tolerance.@." n_pass;
    Format.fprintf ppf "perf diff: %s@."
      (match worst findings with
       | Pass -> "PASS"
       | Warn -> "WARN"
       | Fail -> "FAIL")
end

(* --- progress heartbeat -------------------------------------------- *)

module Progress = struct
  type t = {
    out : out_channel;
    tty : bool;
    min_interval_s : float;
    label : string;
    total_days : float;
    extra : (unit -> string) option;
    t_start : float;
    mutable t_last : float;
    mutable drew : bool;
  }

  let create ?(out = stderr) ?min_interval_s ?extra ~label ~total_days () =
    let tty =
      try Unix.isatty (Unix.descr_of_out_channel out) with
      | Unix.Unix_error _ | Sys_error _ -> false
    in
    (* A non-TTY sink (a pipe, a CI log) gets newline-terminated lines
       instead of \r-redraws, so the redraw cadence would spam the log;
       throttle it an order of magnitude harder by default. *)
    let min_interval_s =
      match min_interval_s with
      | Some s -> s
      | None -> if tty then 0.5 else 5.0
    in
    { out; tty; min_interval_s; label; total_days; extra;
      t_start = Unix.gettimeofday (); t_last = neg_infinity; drew = false }

  let fmt_eta s =
    if not (Float.is_finite s) || s < 0.0 then "--:--"
    else
      let s = int_of_float s in
      if s >= 3600 then Printf.sprintf "%d:%02d:%02d" (s / 3600)
          (s mod 3600 / 60) (s mod 60)
      else Printf.sprintf "%02d:%02d" (s / 60) (s mod 60)

  let render ~label ~day ~total_days ~events ~elapsed_s =
    let evps =
      if elapsed_s > 0.0 then float_of_int events /. elapsed_s else 0.0
    in
    if total_days <= 0.0 then
      (* No horizon (e.g. an open-ended watch stream): day/pct/ETA are
         meaningless, report only the event flow. *)
      Printf.sprintf "%s: %d events | %.0f ev/s" label events evps
    else begin
      let pct = day /. total_days *. 100.0 in
      let eta =
        if day > 0.0 && total_days > day then
          elapsed_s /. day *. (total_days -. day)
        else 0.0
      in
      Printf.sprintf "%s: day %.1f/%.1f (%3.0f%%) | %d events | %.0f ev/s | ETA %s"
        label day total_days pct events evps (fmt_eta eta)
    end

  let draw t ~day ~events ~now =
    let line =
      render ~label:t.label ~day ~total_days:t.total_days ~events
        ~elapsed_s:(now -. t.t_start)
    in
    let line =
      match t.extra with
      | None -> line
      | Some f -> (match f () with "" -> line | e -> line ^ " | " ^ e)
    in
    if t.tty then
      (* Pad to wipe leftovers of a longer previous line. *)
      Printf.fprintf t.out "\r%-78s" line
    else Printf.fprintf t.out "%s\n" line;
    flush t.out;
    t.drew <- true;
    t.t_last <- now

  let tick t ~day ~events =
    let now = Unix.gettimeofday () in
    if now -. t.t_last >= t.min_interval_s then draw t ~day ~events ~now

  let finish t =
    if t.drew && t.tty then output_char t.out '\n';
    if t.drew then flush t.out
end
