module J = Rwc_journal

(* Append-only int vectors.  Growth is by a quarter, not a doubling, so
   the spare capacity stays under a quarter word per entry and the two
   vectors a record lands in cost at most 2.5 words between them. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make cap 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (v.n + (v.n / 4) + 4) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* First position whose entry is >= [x]; entries are ascending. *)
  let lower_bound v x =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if v.a.(mid) < x then go (mid + 1) hi else go lo mid
    in
    go 0 v.n
end

type run = { policy : string; horizon_s : float; n_links : int }
type segment = { first : int; offset : int; run : run option }

type t = {
  offsets : Vec.t;  (* ordinal -> first byte of its line *)
  links : (int, Vec.t) Hashtbl.t;  (* link -> ordinals of its records *)
  mutable segments : segment array;  (* one per run; a handful *)
  mutable scratch : Bytes.t;  (* line reads; grows to the longest line *)
}

let create () =
  {
    offsets = Vec.create 64;
    links = Hashtbl.create 64;
    segments = [||];
    scratch = Bytes.create 512;
  }

let length t = t.offsets.Vec.n
let offset t ord = t.offsets.Vec.a.(ord)
let segments t = Array.length t.segments
let segment t i = t.segments.(i)

let add t ~offset r =
  let ord = length t in
  Vec.push t.offsets offset;
  match r with
  | None -> ()
  | Some (r : J.record) ->
      let open_segment run =
        t.segments <- Array.append t.segments [| { first = ord; offset; run } |]
      in
      (match r.J.kind with
      | J.Run_start { policy; horizon_s; n_links; _ } ->
          open_segment (Some { policy; horizon_s; n_links })
      | _ -> if t.segments = [||] then open_segment None);
      let v =
        match Hashtbl.find_opt t.links r.J.link with
        | Some v -> v
        | None ->
            let v = Vec.create 4 in
            Hashtbl.add t.links r.J.link v;
            v
      in
      Vec.push v ord

let ordinal t ~offset =
  let i = Vec.lower_bound t.offsets offset in
  if i < length t && t.offsets.Vec.a.(i) = offset then Some i else None

let link_tail t ~link i ~limit =
  match Hashtbl.find_opt t.links link with
  | None -> (0, [])
  | Some v ->
      let stop =
        if i + 1 < segments t then t.segments.(i + 1).first else length t
      in
      let lo = Vec.lower_bound v t.segments.(i).first in
      let hi = Vec.lower_bound v stop in
      let k = min limit (hi - lo) in
      (hi - lo, List.init k (fun j -> v.Vec.a.(hi - k + j)))

(* Read from [fd] at its current position until a newline lands in
   [t.scratch] (doubling it for a longer line) or the file ends. *)
let read_line t fd =
  let rec go have =
    if have = Bytes.length t.scratch then
      t.scratch <- Bytes.extend t.scratch 0 (Bytes.length t.scratch);
    match Unix.read fd t.scratch have (Bytes.length t.scratch - have) with
    | 0 -> Bytes.sub_string t.scratch 0 have
    | n -> (
        match Bytes.index_from_opt t.scratch have '\n' with
        | Some i when i < have + n -> Bytes.sub_string t.scratch 0 i
        | _ -> go (have + n))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go have
  in
  go 0

let lines t path ords =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd -> (
      match
        List.map
          (fun ord ->
            ignore (Unix.lseek fd (offset t ord) Unix.SEEK_SET);
            read_line t fd)
          ords
      with
      | lines ->
          Unix.close fd;
          Ok lines
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
