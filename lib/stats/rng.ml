type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let raw_state t = t.state
let set_raw_state t state = t.state <- state

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let substream t i =
  (* Derive child [i] without disturbing [t]: hash the pair (state, i). *)
  let h = mix64 (Int64.add t.state (Int64.of_int (i + 1))) in
  { state = mix64 (Int64.logxor h golden_gamma) }

let float t =
  (* 53 high bits of the 64-bit output, scaled to [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub (Int64.sub raw v) (Int64.of_int (n - 1)) < 0L then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec polar () =
    let u = uniform t ~lo:(-1.0) ~hi:1.0 in
    let v = uniform t ~lo:(-1.0) ~hi:1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then polar ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. polar ())

let exponential t ~rate =
  assert (rate > 0.0);
  let u = 1.0 -. float t in
  -.log u /. rate

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let lognormal_of_mean t ~mean ~cv =
  assert (mean > 0.0 && cv > 0.0);
  let sigma2 = log (1.0 +. (cv *. cv)) in
  let mu = log mean -. (0.5 *. sigma2) in
  lognormal t ~mu ~sigma:(sqrt sigma2)

let poisson t ~mean =
  assert (mean >= 0.0);
  if mean = 0.0 then 0
  else if mean > 60.0 then
    (* Normal approximation with continuity correction. *)
    let x = gaussian t ~mu:mean ~sigma:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec count k p =
      let p = p *. float t in
      if p <= limit then k else count (k + 1) p
    in
    count 0 1.0

let pareto t ~scale ~shape =
  assert (scale > 0.0 && shape > 0.0);
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let categorical t weighted =
  assert (Array.length weighted > 0);
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  assert (total > 0.0);
  let target = float t *. total in
  let rec pick i acc =
    if i = Array.length weighted - 1 then snd weighted.(i)
    else
      let w, x = weighted.(i) in
      let acc = acc +. w in
      if target < acc then x else pick (i + 1) acc
  in
  pick 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
