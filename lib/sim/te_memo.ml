type entry = { key : int array; total : float; flow : float array }

(* Most recently used first; at most [size] entries. *)
type t = { mutable entries : entry list }

let size = 8
let create () = { entries = [] }
let lookup t key = List.find_opt (fun e -> e.key = key) t.entries

let find t key ~into =
  match lookup t key with
  | None -> None
  | Some e ->
      t.entries <- e :: List.filter (fun x -> x != e) t.entries;
      Array.blit e.flow 0 into 0 (Array.length e.flow);
      Some e.total

let peek t key = Option.map (fun e -> e.total) (lookup t key)

let add t key ~total ~flow =
  let e = { key = Array.copy key; total; flow = Array.copy flow } in
  t.entries <- e :: List.filteri (fun i _ -> i < size - 1) t.entries
