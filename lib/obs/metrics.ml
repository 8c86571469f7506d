(* One global on/off flag guards every mutation.  A plain [bool ref]
   keeps the disabled path to a single load and branch — the property
   the bench harness verifies. *)
let on = ref false

let enable () = on := true
let disable () = on := false
let enabled () = !on

type counter = { c_name : string; mutable c : int }
type fcounter = { f_name : string; mutable f : float }
type gauge = { g_name : string; mutable g : int }

(* Log-scale buckets: [buckets_per_decade] per decade over
   [1e-9, 1e3) seconds.  Bucket i covers
   [lo * 10^(i/k), lo * 10^((i+1)/k)). *)
let buckets_per_decade = 20
let decades = 12
let n_buckets = buckets_per_decade * decades
let lo_exponent = -9.0 (* 1 ns *)

type histogram = {
  h_name : string;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Fcounter of fcounter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let kind_name = function
  | Counter _ -> "counter"
  | Fcounter _ -> "fcounter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make extract =
  match Hashtbl.find_opt registry name with
  | Some existing -> (
      match extract existing with
      | Some handle -> handle
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name existing)))
  | None ->
      let handle, metric = make () in
      Hashtbl.add registry name metric;
      handle

let counter name =
  register name
    (fun () ->
      let c = { c_name = name; c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let fcounter name =
  register name
    (fun () ->
      let f = { f_name = name; f = 0.0 } in
      (f, Fcounter f))
    (function Fcounter f -> Some f | _ -> None)

let gauge name =
  register name
    (fun () ->
      let g = { g_name = name; g = 0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram name =
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          buckets = Array.make n_buckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c <- 0
      | Fcounter f -> f.f <- 0.0
      | Gauge g -> g.g <- 0
      | Histogram h ->
          Array.fill h.buckets 0 n_buckets 0;
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
    registry

(* ---- recording --------------------------------------------------------- *)

let incr c = if !on then c.c <- c.c + 1
let add c n = if !on then c.c <- c.c + n
let addf f x = if !on then f.f <- f.f +. x
let set g v = if !on then g.g <- v
let set_max g v = if !on && v > g.g then g.g <- v

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let i =
      int_of_float
        (Float.floor ((Float.log10 v -. lo_exponent) *. float_of_int buckets_per_decade))
    in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let observe h v =
  if !on then begin
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end

let time h f =
  if not !on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0))
      f
  end

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ---- reading ----------------------------------------------------------- *)

let value c = c.c
let hcount h = h.h_count
let hsum h = h.h_sum

let bucket_mid i =
  10.0 ** (lo_exponent +. ((float_of_int i +. 0.5) /. float_of_int buckets_per_decade))

let percentile h p =
  assert (p >= 0.0 && p <= 100.0);
  if h.h_count = 0 then 0.0
  else begin
    let target =
      max 1 (int_of_float (Float.ceil (float_of_int h.h_count *. p /. 100.0)))
    in
    let cum = ref 0 and answer = ref h.h_max in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.buckets.(i);
         if !cum >= target then begin
           answer := bucket_mid i;
           raise Exit
         end
       done
     with Exit -> ());
    (* Bucket midpoints can stick out past the true extremes; the exact
       min/max are tracked, so clamp to them. *)
    Float.min h.h_max (Float.max h.h_min !answer)
  end

(* ---- export ------------------------------------------------------------ *)

let sorted_metrics () =
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let metric_to_json = function
  | Counter c -> Json.Assoc [ ("kind", Json.String "counter"); ("value", Json.Int c.c) ]
  | Fcounter f ->
      Json.Assoc [ ("kind", Json.String "fcounter"); ("value", Json.Float f.f) ]
  | Gauge g -> Json.Assoc [ ("kind", Json.String "gauge"); ("value", Json.Int g.g) ]
  | Histogram h ->
      Json.Assoc
        [
          ("kind", Json.String "histogram");
          ("count", Json.Int h.h_count);
          ("sum", Json.Float h.h_sum);
          ("min", Json.Float (if h.h_count = 0 then 0.0 else h.h_min));
          ("max", Json.Float (if h.h_count = 0 then 0.0 else h.h_max));
          ("p50", Json.Float (percentile h 50.0));
          ("p95", Json.Float (percentile h 95.0));
          ("p99", Json.Float (percentile h 99.0));
        ]

let to_json () =
  Json.Assoc (List.map (fun (name, m) -> (name, metric_to_json m)) (sorted_metrics ()))

let snapshot_delta before after =
  match (before, after) with
  | Json.Assoc old_series, Json.Assoc new_series ->
      Json.Assoc
        (List.filter
           (fun (name, m) ->
             match List.assoc_opt name old_series with
             | Some prev -> prev <> m
             | None -> true)
           new_series)
  | _ -> after

let write_json path = Json.to_file path (to_json ())

let pp_duration fmt s =
  if s < 1e-6 then Format.fprintf fmt "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf fmt "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%.2fms" (s *. 1e3)
  else Format.fprintf fmt "%.2fs" s

let pp_summary_rows fmt () =
  Format.fprintf fmt "== metrics =====================================================@,";
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Format.fprintf fmt "%-36s counter    %12d@," name c.c
      | Fcounter f -> Format.fprintf fmt "%-36s fcounter   %12.2f@," name f.f
      | Gauge g -> Format.fprintf fmt "%-36s gauge      %12d@," name g.g
      | Histogram h ->
          if h.h_count = 0 then
            Format.fprintf fmt "%-36s histogram  n=0@," name
          else
            Format.fprintf fmt
              "%-36s histogram  n=%-8d p50=%a  p95=%a  p99=%a  total=%a@," name
              h.h_count pp_duration (percentile h 50.0) pp_duration
              (percentile h 95.0) pp_duration (percentile h 99.0) pp_duration
              h.h_sum)
    (sorted_metrics ());
  Format.fprintf fmt "================================================================"

let pp_summary fmt () = Format.fprintf fmt "@[<v>%a@]" pp_summary_rows ()
