type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* ---- serialization ---------------------------------------------------- *)

(* Bytes that print as themselves inside a JSON string literal. *)
let plain c = c >= ' ' && c <> '"' && c <> '\\'

(* Runs of plain bytes are copied with one [add_substring]; only the
   bytes that need an escape are written one at a time. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if not (plain c) then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* [string_of_int] without the intermediate string.  A negative [i] is
   split into quotient and last digit while still negative, because
   [-min_int] overflows. *)
let add_int buf i =
  if i >= 0 then add_digits buf i
  else begin
    Buffer.add_char buf '-';
    let q = i / 10 in
    if q <> 0 then add_digits buf (-q);
    Buffer.add_char buf (Char.unsafe_chr (48 - (i mod 10)))
  end

(* Integral floats keep a ".0" so the value round-trips as a [Float],
   not an [Int]; non-finite values have no JSON spelling and degrade
   to null.  Below 1e15 an integral float is exactly an int, so it is
   printed as one — what [%.1f] would print, sign of -0.0 included. *)
let float_to buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0.0"
    else begin
      add_int buf (int_of_float f);
      Buffer.add_string buf ".0"
    end
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let newline ~indent buf level =
  if indent then begin
    Buffer.add_char buf '\n';
    for _ = 1 to 2 * level do
      Buffer.add_char buf ' '
    done
  end

let rec write ~indent ~level buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> float_to buf f
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          newline ~indent buf (level + 1);
          write ~indent ~level:(level + 1) buf item)
        items;
      newline ~indent buf level;
      Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          newline ~indent buf (level + 1);
          escape_to buf k;
          Buffer.add_char buf ':';
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf item)
        fields;
      newline ~indent buf level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  write ~indent ~level:0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

let default_file_writer path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* Indirection point for the I/O layer: lib/obs sits below lib/storm
   in the dependency order, so the storm writer (fault injection,
   crash-boundary accounting) installs itself here at link time. *)
let file_writer = ref default_file_writer
let set_file_writer f = file_writer := f
let to_file path v = !file_writer path (to_string_pretty v ^ "\n")

(* [List.assoc_opt] with [String.equal] instead of polymorphic compare:
   every decoder reads its fields through here. *)
let rec field key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else field key rest

let member key = function Assoc fields -> field key fields | _ -> None

(* ---- parsing -----------------------------------------------------------

   One cursor record and top-level functions over it, so a parse
   allocates its result and nothing per input byte: [peek] is an int
   code (-1 at end of input) instead of a [char option], scans are
   index loops, and an escape-free string is a single [String.sub]. *)

exception Fail of int * string

type cursor = { s : string; n : int; mutable pos : int }

let fail cur msg = raise (Fail (cur.pos, msg))
let fail_at at msg = raise (Fail (at, msg))
let peek cur =
  if cur.pos < cur.n then Char.code (String.unsafe_get cur.s cur.pos) else -1
let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let i = ref cur.pos in
  while
    !i < cur.n
    && match String.unsafe_get cur.s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  cur.pos <- !i

let expect cur c =
  if peek cur = Char.code c then advance cur
  else fail cur (Printf.sprintf "expected %C" c)

let rec matches_at s at word i =
  i = String.length word
  || (String.unsafe_get s (at + i) = String.unsafe_get word i
     && matches_at s at word (i + 1))

let literal cur word v =
  let len = String.length word in
  if cur.pos + len <= cur.n && matches_at cur.s cur.pos word 0 then begin
    cur.pos <- cur.pos + len;
    v
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Encode a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if u < 0x80 then byte u
  else if u < 0x800 then begin
    byte (0xC0 lor (u lsr 6));
    byte (0x80 lor (u land 0x3F))
  end
  else if u < 0x10000 then begin
    byte (0xE0 lor (u lsr 12));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end
  else begin
    byte (0xF0 lor (u lsr 18));
    byte (0x80 lor ((u lsr 12) land 0x3F));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end

(* The four hex digits at [at], read the way [int_of_string "0x..."]
   reads them (underscores and all). *)
let hex4 s at = int_of_string_opt ("0x" ^ String.sub s at 4)

(* After "\u": one UTF-16 code unit, or a high surrogate immediately
   followed by "\u" and a low one, which together name one scalar.  A
   surrogate in any other position is rejected at its own offset. *)
let unicode_escape cur buf =
  let at = cur.pos in
  if at + 4 > cur.n then fail cur "truncated \\u escape";
  let u =
    match hex4 cur.s at with Some u -> u | None -> fail cur "bad \\u escape"
  in
  cur.pos <- at + 4;
  if u < 0xD800 || u > 0xDFFF then add_utf8 buf u
  else
    let low =
      if u <= 0xDBFF && cur.pos + 6 <= cur.n
         && String.unsafe_get cur.s cur.pos = '\\'
         && String.unsafe_get cur.s (cur.pos + 1) = 'u'
      then hex4 cur.s (cur.pos + 2)
      else None
    in
    match low with
    | Some lo when lo >= 0xDC00 && lo <= 0xDFFF ->
        cur.pos <- cur.pos + 6;
        add_utf8 buf (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
    | _ -> fail_at at "bad \\u escape"

let escape cur buf =
  let c = peek cur in
  if c < 0 then fail cur "bad escape";
  if c = Char.code 'u' then begin
    advance cur;
    unicode_escape cur buf
  end
  else begin
    Buffer.add_char buf
      (match Char.unsafe_chr c with
      | ('"' | '\\' | '/') as c -> c
      | 'n' -> '\n'
      | 'r' -> '\r'
      | 't' -> '\t'
      | 'b' -> '\b'
      | 'f' -> '\012'
      | _ -> fail cur "bad escape");
    advance cur
  end

(* First index at or after [i] holding a quote or a backslash, or [n]. *)
let scan_plain s i n =
  let j = ref i in
  while
    !j < n
    && match String.unsafe_get s !j with '"' | '\\' -> false | _ -> true
  do
    incr j
  done;
  !j

let rec string_tail cur buf =
  if cur.pos >= cur.n then fail cur "unterminated string"
  else
    match String.unsafe_get cur.s cur.pos with
    | '"' -> advance cur
    | '\\' ->
        advance cur;
        escape cur buf;
        string_tail cur buf
    | _ ->
        let j = scan_plain cur.s cur.pos cur.n in
        Buffer.add_substring buf cur.s cur.pos (j - cur.pos);
        cur.pos <- j;
        string_tail cur buf

let parse_string cur =
  expect cur '"';
  let start = cur.pos in
  let j = scan_plain cur.s start cur.n in
  if j < cur.n && String.unsafe_get cur.s j = '"' then begin
    cur.pos <- j + 1;
    String.sub cur.s start (j - start)
  end
  else begin
    let buf = Buffer.create (max 16 (2 * (j - start))) in
    Buffer.add_substring buf cur.s start (j - start);
    cur.pos <- j;
    string_tail cur buf;
    Buffer.contents buf
  end

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* A token of one to 18 decimal digits after an optional '-' cannot
   overflow and means what [int_of_string] makes of it, so it is summed
   during the scan; every other token ('+', '.', exponents, 19 digits
   or more, stray signs) takes the general path. *)
let max_inline_digits = 18

let parse_number cur =
  let s = cur.s and n = cur.n and start = cur.pos in
  let first =
    if start < n && String.unsafe_get s start = '-' then start + 1 else start
  in
  let stop = ref first and acc = ref 0 in
  while
    !stop < n
    && match String.unsafe_get s !stop with '0' .. '9' -> true | _ -> false
  do
    acc := (10 * !acc) + Char.code (String.unsafe_get s !stop) - 48;
    incr stop
  done;
  let digits = !stop - first in
  while !stop < n && is_num_char (String.unsafe_get s !stop) do
    incr stop
  done;
  cur.pos <- !stop;
  if !stop = start then fail cur "expected a value";
  if digits >= 1 && digits <= max_inline_digits && first + digits = !stop then
    Int (if first > start then - !acc else !acc)
  else
    let tok = String.sub s start (!stop - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail cur "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  let c = peek cur in
  if c < 0 then fail cur "unexpected end of input"
  else
    match Char.unsafe_chr c with
    | 'n' -> literal cur "null" Null
    | 't' -> literal cur "true" (Bool true)
    | 'f' -> literal cur "false" (Bool false)
    | '"' -> String (parse_string cur)
    | '[' ->
        advance cur;
        skip_ws cur;
        if peek cur = Char.code ']' then begin
          advance cur;
          List []
        end
        else begin
          let first = parse_value cur in
          let items = first :: parse_items cur in
          expect cur ']';
          List items
        end
    | '{' ->
        advance cur;
        skip_ws cur;
        if peek cur = Char.code '}' then begin
          advance cur;
          Assoc []
        end
        else begin
          let first = parse_field cur in
          let fields = first :: parse_fields cur in
          expect cur '}';
          Assoc fields
        end
    | _ -> parse_number cur

(* The ", element" tails of a container, built in order rather than
   reversed at the end. *)
and parse_items cur =
  skip_ws cur;
  if peek cur <> Char.code ',' then []
  else begin
    advance cur;
    let item = parse_value cur in
    item :: parse_items cur
  end

and parse_field cur =
  skip_ws cur;
  let k = parse_string cur in
  skip_ws cur;
  expect cur ':';
  let v = parse_value cur in
  (k, v)

and parse_fields cur =
  skip_ws cur;
  if peek cur <> Char.code ',' then []
  else begin
    advance cur;
    let field = parse_field cur in
    field :: parse_fields cur
  end

let parse s =
  let cur = { s; n = String.length s; pos = 0 } in
  try
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> cur.n then
      Error (Printf.sprintf "trailing input at offset %d" cur.pos)
    else Ok v
  with Fail (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)
