type framing = Jsonl | Content_length

let framing_name = function
  | Jsonl -> "jsonl"
  | Content_length -> "content-length"

let encode framing payload =
  match framing with
  | Jsonl -> payload ^ "\n"
  | Content_length ->
      Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length payload)
        payload

(* Pending bytes are [pending] from [pos] on.  Taking a message only
   advances [pos]; a feed copies the unconsumed rest once.  So draining
   a read's worth of buffered messages allocates their payloads and
   nothing else, however many arrived together. *)
type decoder = { framing : framing; mutable pending : string; mutable pos : int }

let decoder framing = { framing; pending = ""; pos = 0 }

let feed_bytes d b n =
  if n > 0 then begin
    let rest = String.length d.pending - d.pos in
    let s = Bytes.create (rest + n) in
    Bytes.blit_string d.pending d.pos s 0 rest;
    Bytes.blit b 0 s rest n;
    d.pending <- Bytes.unsafe_to_string s;
    d.pos <- 0
  end

let feed d s = feed_bytes d (Bytes.unsafe_of_string s) (String.length s)

(* Index of the first header/body separator at or after [from] and
   just past it: \r\n\r\n or, for hand-typed clients, bare \n\n. *)
let header_end s from =
  let n = String.length s in
  let rec go i =
    if i >= n then None
    else if
      i + 3 < n && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
      && s.[i + 3] = '\n'
    then Some (i, i + 4)
    else if i + 1 < n && s.[i] = '\n' && s.[i + 1] = '\n' then Some (i, i + 2)
    else go (i + 1)
  in
  go from

let max_header_bytes = 4096

let content_length_of headers =
  let lines = String.split_on_char '\n' headers in
  List.find_map
    (fun line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
          if key <> "content-length" then None
          else
            let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            int_of_string_opt v)
    lines

let next d =
  match d.framing with
  | Jsonl -> (
      match String.index_from_opt d.pending d.pos '\n' with
      | None -> Ok None
      | Some i ->
          let stop = if i > d.pos && d.pending.[i - 1] = '\r' then i - 1 else i in
          let line = String.sub d.pending d.pos (stop - d.pos) in
          d.pos <- i + 1;
          Ok (Some line))
  | Content_length -> (
      match header_end d.pending d.pos with
      | None ->
          if String.length d.pending - d.pos > max_header_bytes then
            Error "header block exceeds 4096 bytes without terminating"
          else Ok None
      | Some (hdr_end, body_start) -> (
          match content_length_of (String.sub d.pending d.pos (hdr_end - d.pos)) with
          | None -> Error "header block has no valid Content-Length"
          | Some len when len < 0 -> Error "negative Content-Length"
          | Some len ->
              if String.length d.pending < body_start + len then Ok None
              else begin
                let payload = String.sub d.pending body_start len in
                d.pos <- body_start + len;
                Ok (Some payload)
              end))

let detect s =
  let n = String.length s in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
  let rec skip i = if i < n && is_ws s.[i] then skip (i + 1) else i in
  let i = skip 0 in
  if i >= n then None
  else if s.[i] = '{' || s.[i] = '[' then Some Jsonl
  else begin
    let prefix = "content-length" in
    let avail = min (n - i) (String.length prefix) in
    let matches = ref true in
    for j = 0 to avail - 1 do
      if Char.lowercase_ascii s.[i + j] <> prefix.[j] then matches := false
    done;
    if not !matches then
      (* Neither JSON nor an LSP header: let the Jsonl path hand the
         garbage to the JSON parser, which answers with -32700. *)
      Some Jsonl
    else if avail = String.length prefix then Some Content_length
    else None
  end
