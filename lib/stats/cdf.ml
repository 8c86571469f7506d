type t = { sorted : float array }

let of_samples xs =
  assert (Array.length xs > 0);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  { sorted }

let count t = Array.length t.sorted

(* Number of elements <= x, by binary search for the upper bound. *)
let rank t x =
  let a = t.sorted in
  let n = Array.length a in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then search (mid + 1) hi else search lo mid
  in
  search 0 n

let eval t x = float_of_int (rank t x) /. float_of_int (count t)

let quantile t q =
  assert (q >= 0.0 && q <= 1.0);
  let n = count t in
  if q = 0.0 then t.sorted.(0)
  else
    let k = int_of_float (ceil (q *. float_of_int n)) in
    t.sorted.(min (k - 1) (n - 1) |> max 0)

let points t ?(max_points = 100) () =
  let n = count t in
  let step = max 1 (n / max_points) in
  let rec collect i acc =
    if i >= n then List.rev ((t.sorted.(n - 1), 1.0) :: acc)
    else
      let p = float_of_int (i + 1) /. float_of_int n in
      collect (i + step) ((t.sorted.(i), p) :: acc)
  in
  collect 0 []
