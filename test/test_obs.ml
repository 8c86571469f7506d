module Json = Rwc_obs.Json
module Metrics = Rwc_obs.Metrics
module Trace = Rwc_obs.Trace
module Manifest = Rwc_obs.Manifest

(* --- json ---------------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Assoc
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("whole", Json.Float 21.0);
        ("text", Json.String "line\n\"quoted\"\tand \\ slash");
        ("list", Json.List [ Json.Int 1; Json.Int 2; Json.Assoc [] ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "compact round-trips" true (parsed = v)
  | Error e -> Alcotest.fail e);
  match Json.parse (Json.to_string_pretty v) with
  | Ok parsed -> Alcotest.(check bool) "pretty round-trips" true (parsed = v)
  | Error e -> Alcotest.fail e

let test_json_parse_escapes () =
  (match Json.parse {|"aA\n"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "unicode escape" "aA\n" s
  | _ -> Alcotest.fail "string expected");
  (* \uXXXX escapes decode to UTF-8: 1-byte (A), 2-byte (e-acute),
     3-byte (CJK) sequences. *)
  (match Json.parse {|"\u0041\u00e9\u4e16"|} with
  | Ok (Json.String s) ->
      Alcotest.(check string) "utf8 from \\u" "A\xc3\xa9\xe4\xb8\x96" s
  | _ -> Alcotest.fail "unicode string expected");
  Alcotest.(check bool) "truncated \\u rejected" true
    (match Json.parse {|"\u00"|} with Error _ -> true | Ok _ -> false);
  (match Json.parse "[1, 2.5, -3e2]" with
  | Ok (Json.List [ Json.Int 1; Json.Float b; Json.Float c ]) ->
      Alcotest.(check (float 1e-9)) "float" 2.5 b;
      Alcotest.(check (float 1e-9)) "exponent" (-300.0) c
  | _ -> Alcotest.fail "number kinds");
  Alcotest.(check bool) "trailing garbage rejected" true
    (match Json.parse "1 2" with Error _ -> true | Ok _ -> false)

(* --- json: round-trip property ------------------------------------------- *)

(* The serializer canonicalizes on the way out: non-finite floats
   become [null] (valid JSON has no NaN/Infinity), and [%.12g] keeps
   ~12 significant digits.  The property compares the parse of the
   rendering against the canonicalized input, with a relative
   tolerance on floats. *)
let rec json_canon = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List l -> Json.List (List.map json_canon l)
  | Json.Assoc kvs -> Json.Assoc (List.map (fun (k, v) -> (k, json_canon v)) kvs)
  | v -> v

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y ->
      Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | Json.String x, Json.String y -> String.equal x y
  | Json.List x, Json.List y -> (
      try List.for_all2 json_eq x y with Invalid_argument _ -> false)
  | Json.Assoc x, Json.Assoc y -> (
      try
        List.for_all2
          (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_eq v1 v2)
          x y
      with Invalid_argument _ -> false)
  | _ -> false

let json_gen =
  QCheck.Gen.(
    (* Arbitrary bytes, including control characters (forcing the
       \uXXXX escape path) and non-ASCII. *)
    let any_char = map Char.chr (int_range 0 255) in
    let string_g = string_size ~gen:any_char (int_bound 12) in
    let float_g =
      frequency
        [
          (5, float);
          (2, map float_of_int small_signed_int);
          (1, return nan);
          (1, return infinity);
          (1, return neg_infinity);
        ]
    in
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) float_g;
                 map (fun s -> Json.String s) string_g;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kvs -> Json.Assoc kvs)
                     (list_size (int_bound 4) (pair string_g (self (n / 2)))) );
               ]))

let prop_json_round_trip =
  QCheck.Test.make ~count:500
    ~name:"json: parse of both renderings recovers the value"
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v ->
      let expect = json_canon v in
      let check_via render =
        match Json.parse (render v) with
        | Error e -> QCheck.Test.fail_reportf "parse error: %s" e
        | Ok parsed -> json_eq expect parsed
      in
      check_via Json.to_string && check_via Json.to_string_pretty)

(* --- json: codec oracle ----------------------------------------------------

   The printer and parser as they stood before their fast paths
   (run-copying escapes, Printf-free ints, option-free peeking, inline
   ints), kept verbatim as a test-only oracle.  The properties
   below demand the library agree with it byte for byte on output and
   exactly — trees, error texts, offsets — on input.  The one intended
   difference, surrogate-pair decoding, is pinned by its own tests and
   excluded from the parse property. *)
module Oracle = struct
  type t = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Assoc of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_to buf f =
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)

  let rec write ~indent ~level buf v =
    let nl lvl =
      if indent then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * lvl) ' ')
      end
    in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> float_to buf f
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            write ~indent ~level:(level + 1) buf item)
          items;
        nl level;
        Buffer.add_char buf ']'
    | Assoc [] -> Buffer.add_string buf "{}"
    | Assoc fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            escape_to buf k;
            Buffer.add_char buf ':';
            if indent then Buffer.add_char buf ' ';
            write ~indent ~level:(level + 1) buf item)
          fields;
        nl level;
        Buffer.add_char buf '}'

  let render ~indent v =
    let buf = Buffer.create 256 in
    write ~indent ~level:0 buf v;
    Buffer.contents buf

  let to_string v = render ~indent:false v
  let to_string_pretty v = render ~indent:true v

  exception Fail of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some got when got = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* Encode a Unicode scalar value as UTF-8. *)
    let add_utf8 buf u =
      if u < 0x80 then Buffer.add_char buf (Char.chr u)
      else if u < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char buf '"'; advance ()
            | Some '\\' -> Buffer.add_char buf '\\'; advance ()
            | Some '/' -> Buffer.add_char buf '/'; advance ()
            | Some 'n' -> Buffer.add_char buf '\n'; advance ()
            | Some 'r' -> Buffer.add_char buf '\r'; advance ()
            | Some 't' -> Buffer.add_char buf '\t'; advance ()
            | Some 'b' -> Buffer.add_char buf '\b'; advance ()
            | Some 'f' -> Buffer.add_char buf '\012'; advance ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                let u =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                add_utf8 buf u
            | _ -> fail "bad escape");
            loop ()
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      if tok = "" then fail "expected a value";
      let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
      if is_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt tok with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [ parse_value () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              items := parse_value () :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Assoc []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              (k, v)
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while peek () = Some ',' do
              advance ();
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Assoc (List.rev !fields)
          end
      | Some _ -> parse_number ()
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
      else Ok v
    with Fail (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)
end

(* Structural equality that tells -0.0 from 0.0. *)
let rec json_identical a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List x, Json.List y -> (
      try List.for_all2 json_identical x y with Invalid_argument _ -> false)
  | Json.Assoc x, Json.Assoc y -> (
      try
        List.for_all2
          (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_identical v1 v2)
          x y
      with Invalid_argument _ -> false)
  | _ -> a = b

let same_parse a b =
  match (a, b) with
  | Ok x, Ok y -> json_identical x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let show_parse = function
  | Ok v -> "Ok " ^ Json.to_string v
  | Error e -> "Error " ^ e

(* Values that reach every printer branch: strings over all 256 byte
   values (quotes, backslashes and control characters included), the
   int extremes, and the float cases at the edges of the integral fast
   path. *)
let codec_value_gen =
  QCheck.Gen.(
    let any_char = map Char.chr (int_range 0 255) in
    let string_g =
      frequency
        [
          (4, string_size ~gen:any_char (int_bound 24));
          (1, string_size ~gen:printable (int_range 20 80));
          (1, oneofl [ ""; "\""; "\\"; "\x00"; "\x1f"; "\x7f"; "\xff"; "a\"b\\c" ]);
        ]
    in
    let int_g =
      frequency
        [
          (4, int);
          (3, small_signed_int);
          (1, oneofl [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1 ]);
        ]
    in
    let float_g =
      frequency
        [
          (3, float);
          (2, map float_of_int small_signed_int);
          (2, map (fun i -> float_of_int (i mod 1_000_000_000_000_000)) int);
          (1, map (fun i -> float_of_int i /. 8.0) small_signed_int);
          ( 1,
            oneofl
              [
                0.0; -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; nan;
                infinity; neg_infinity; 0.5; -0.5; 1e-300; 5e-324; 1e300;
                9007199254740993.0; max_float; min_float; -1.0;
              ] );
        ]
    in
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (3, map (fun i -> Json.Int i) int_g);
                 (3, map (fun f -> Json.Float f) float_g);
                 (3, map (fun s -> Json.String s) string_g);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 5) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Json.Assoc kvs)
                     (list_size (int_bound 5) (pair string_g (self (n / 2)))) );
               ]))

let prop_printer_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"json: printer bytes = oracle bytes"
    (QCheck.make ~print:Oracle.to_string codec_value_gen)
    (fun v ->
      String.equal (Json.to_string v) (Oracle.to_string v)
      && String.equal (Json.to_string_pretty v) (Oracle.to_string_pretty v))

(* Number tokens at the edges of the inline int path and of the
   fallback through [int_of_string]/[float_of_string], plus fragments
   that break strings, literals and containers. *)
let edge_tokens =
  [
    "+5"; "007"; "-0"; "-"; "1-2"; "--1"; "1+"; "+"; "0"; "-007";
    "123456789012345678"; "-123456789012345678"; "999999999999999999";
    "1234567890123456789"; "-1234567890123456789"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "12345678901234567890"; "-12345678901234567890"; "1e5"; "1E5"; "1.5e-3";
    "-.5"; ".5"; "1."; "1e"; "1e+"; "e5"; "01.5"; "1.2.3"; "1e999"; "-1e999";
    "tru"; "nul"; "fals"; "null"; "true"; "\"\\u00e9\""; "\"\\x\""; "\"\\u12G4\"";
    "\"\\u1_23\""; "\"\\u00\""; "\"\\/\""; "[]"; "{}"; "[,]"; "{\"a\"}";
    "{\"a\":}"; " "; "\t\n\r"; ","; ":"; "]"; "}"; "["; "{"; "\""; "\\";
  ]

let json_alphabet = " \t\n\r\"\\/:,[]{}-+.eE0123456789ntrufalsbu_xG\x00\x7f\xc3\xa9"

let rec mutate st s k =
  if k = 0 then s
  else
    let n = String.length s in
    let at = if n = 0 then 0 else Random.State.int st (n + 1) in
    let s =
      match Random.State.int st 5 with
      | 0 -> String.sub s 0 at
      | 1 ->
          let tok = List.nth edge_tokens (Random.State.int st (List.length edge_tokens)) in
          String.sub s 0 at ^ tok ^ String.sub s at (n - at)
      | 2 when n > 0 ->
          let i = min at (n - 1) in
          let c = json_alphabet.[Random.State.int st (String.length json_alphabet)] in
          String.sub s 0 i ^ String.make 1 c ^ String.sub s (i + 1) (n - i - 1)
      | 3 when n > 0 ->
          let i = min at (n - 1) in
          String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
      | _ ->
          let c = Char.chr (Random.State.int st 256) in
          String.sub s 0 at ^ String.make 1 c ^ String.sub s at (n - at)
    in
    mutate st s (k - 1)

let parse_input_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map Oracle.to_string codec_value_gen);
        (1, map Oracle.to_string_pretty codec_value_gen);
        ( 4,
          map3
            (fun v k seed -> mutate (Random.State.make [| seed |]) (Oracle.to_string v) k)
            codec_value_gen (int_range 1 3) int );
        (1, oneofl edge_tokens);
        ( 1,
          map
            (fun toks -> String.concat "" toks)
            (list_size (int_range 1 4) (oneofl edge_tokens)) );
        ( 1,
          string_size
            ~gen:(map (String.get json_alphabet) (int_bound (String.length json_alphabet - 1)))
            (int_bound 16) );
      ])

(* A [\u] escape naming a UTF-16 surrogate: the one input class where
   the parser deliberately departs from the oracle. *)
let has_surrogate_escape s =
  let n = String.length s in
  let rec scan i =
    i + 5 < n
    && ((s.[i] = '\\' && s.[i + 1] = 'u'
        && match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
           | Some u -> u >= 0xD800 && u <= 0xDFFF
           | None -> false)
       || scan (i + 1))
  in
  scan 0

let prop_parser_matches_oracle =
  QCheck.Test.make ~count:3000 ~name:"json: parse = oracle parse (trees, errors)"
    (QCheck.make ~print:String.escaped parse_input_gen)
    (fun s ->
      QCheck.assume (not (has_surrogate_escape s));
      let got = Json.parse s and want = Oracle.parse s in
      same_parse got want
      || QCheck.Test.fail_reportf "got %s, oracle %s" (show_parse got)
           (show_parse want))

let test_parse_edge_tokens () =
  List.iter
    (fun tok ->
      List.iter
        (fun doc ->
          let got = Json.parse doc and want = Oracle.parse doc in
          if not (same_parse got want) then
            Alcotest.failf "%S: got %s, oracle %s" doc (show_parse got)
              (show_parse want))
        [ tok; "[" ^ tok ^ "]"; "{\"k\":" ^ tok ^ "}"; " " ^ tok ^ " "; tok ^ "," ])
    edge_tokens

(* --- json: surrogate pairs ----------------------------------------------- *)

let test_surrogate_pairs () =
  let decodes doc want =
    match Json.parse doc with
    | Ok (Json.String s) -> Alcotest.(check string) doc want s
    | Ok v -> Alcotest.failf "%s: parsed to %s" doc (Json.to_string v)
    | Error e -> Alcotest.failf "%s: %s" doc e
  in
  (* A high surrogate followed by a low one is one supplementary-plane
     scalar: a single 4-byte UTF-8 sequence, not two 3-byte halves. *)
  decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  decodes {|"\uD83D\uDE00"|} "\xf0\x9f\x98\x80";
  decodes {|"a\ud800\udc00b"|} "a\xf0\x90\x80\x80b";
  decodes {|"\udbff\udfff"|} "\xf4\x8f\xbf\xbf";
  (* The BMP neighbours of the surrogate block are ordinary. *)
  decodes {|"\ud7ff\ue000"|} "\xed\x9f\xbf\xee\x80\x80";
  (* The scalar survives a print/parse round trip as raw UTF-8. *)
  (match Json.parse (Json.to_string (Json.String "\xf0\x9f\x98\x80")) with
  | Ok (Json.String s) -> Alcotest.(check string) "round trip" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "round trip")

let test_lone_surrogates () =
  let rejects doc want =
    match Json.parse doc with
    | Error e -> Alcotest.(check string) doc want e
    | Ok v -> Alcotest.failf "%s accepted as %s" doc (Json.to_string v)
  in
  (* The offset is that of the lone surrogate's hex digits, where every
     other bad [\u] escape reports too. *)
  rejects {|"\ud83d"|} "bad \\u escape at offset 3";
  rejects {|"\ud83dx"|} "bad \\u escape at offset 3";
  rejects {|"\ud83d\u0041"|} "bad \\u escape at offset 3";
  rejects {|"\ud83d\ud83d"|} "bad \\u escape at offset 3";
  rejects {|"\ud83d\n"|} "bad \\u escape at offset 3";
  rejects {|"ab\ude00"|} "bad \\u escape at offset 5";
  rejects {|["x","\udfff\ud800"]|} "bad \\u escape at offset 8"

(* --- metrics ------------------------------------------------------------- *)

let test_registry_uniqueness () =
  Metrics.enable ();
  let a = Metrics.counter "obs-test/uniq" in
  let b = Metrics.counter "obs-test/uniq" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "one underlying counter" (Metrics.value a)
    (Metrics.value b);
  Alcotest.(check bool) "same handle" true (a == b);
  (try
     ignore (Metrics.gauge "obs-test/uniq");
     Alcotest.fail "kind clash accepted"
   with Invalid_argument _ -> ());
  Metrics.disable ()

let test_disabled_is_noop () =
  let c = Metrics.counter "obs-test/noop" in
  let h = Metrics.histogram "obs-test/noop_h" in
  Metrics.disable ();
  let before = Metrics.value c in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" before (Metrics.value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.hcount h)

let test_histogram_percentiles () =
  Metrics.enable ();
  let h = Metrics.histogram "obs-test/hist" in
  (* Uniform 1ms..1s: the p-th percentile is p/100 seconds. *)
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.hcount h);
  Alcotest.(check (float 0.01)) "sum" 500.5 (Metrics.hsum h);
  let check_quantile p expected =
    let got = Metrics.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f %.4f within 8%% of %.3f" p got expected)
      true
      (Float.abs (got -. expected) /. expected < 0.08)
  in
  check_quantile 50.0 0.5;
  check_quantile 95.0 0.95;
  check_quantile 99.0 0.99;
  (* Extremes are quantized to bucket midpoints but clamped to the
     tracked min/max, so they are within one bucket ratio (~6%). *)
  Alcotest.(check (float 1e-4)) "p0 near min" 0.001 (Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 clamped to max" 1.0
    (Metrics.percentile h 100.0);
  Metrics.disable ()

(* --- trace --------------------------------------------------------------- *)

let test_span_nesting () =
  Trace.enable ();
  Trace.with_span "a" (fun () ->
      Trace.with_span "b" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.with_span "c" (fun () -> ignore (Sys.opaque_identity 2)));
  Alcotest.(check int) "balanced" 0 (Trace.depth ());
  let spans = Trace.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  let a = find "a" and b = find "b" and c = find "c" in
  Alcotest.(check int) "root depth" 1 a.Trace.depth;
  Alcotest.(check int) "child depth" 2 b.Trace.depth;
  Alcotest.(check string) "child path" "a;b" b.Trace.path;
  Alcotest.(check string) "sibling path" "a;c" c.Trace.path;
  let inside child =
    child.Trace.ts >= a.Trace.ts -. 1e-9
    && child.Trace.ts +. child.Trace.dur <= a.Trace.ts +. a.Trace.dur +. 1e-9
  in
  Alcotest.(check bool) "children nested in parent" true (inside b && inside c);
  (* Export must be valid JSON with one "X" event per span, preceded by
     the process/thread-name metadata events Perfetto labels tracks
     with. *)
  (match Json.parse (Json.to_string (Trace.to_json ())) with
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.List events) ->
          let ph e =
            match Json.member "ph" e with
            | Some (Json.String s) -> s
            | _ -> "?"
          in
          let name e =
            match Json.member "name" e with
            | Some (Json.String s) -> s
            | _ -> "?"
          in
          Alcotest.(check int) "trace_event count" 3
            (List.length (List.filter (fun e -> ph e = "X") events));
          let meta = List.filter (fun e -> ph e = "M") events in
          Alcotest.(check bool) "process_name metadata" true
            (List.exists (fun e -> name e = "process_name") meta);
          Alcotest.(check bool) "thread_name metadata" true
            (List.exists (fun e -> name e = "thread_name") meta)
      | _ -> Alcotest.fail "traceEvents missing")
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "flame summary mentions spans" true
    (let s = Trace.flame_summary () in
     let contains sub =
       let n = String.length s and m = String.length sub in
       let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
       at 0
     in
     contains "a" && contains "b" && contains "c");
  Trace.disable ()

let test_span_rebalances_on_exception () =
  Trace.enable ();
  (try Trace.with_span "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "stack re-balanced" 0 (Trace.depth ());
  Alcotest.(check int) "span still recorded" 1 (List.length (Trace.spans ()));
  Trace.disable ()

(* Spans opened on worker domains must carry their domain's id as
   [tid] and each distinct tid must get its own thread_name track in
   the export, so Perfetto renders parallel sections as parallel. *)
let test_span_tids_across_domains () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      Trace.reset ();
      Trace.with_span "control" (fun () -> ignore (Sys.opaque_identity 1));
      (* One index per domain: the caller keeps one range (tid 0), the
         two workers get the others. *)
      Rwc_par.with_pool ~domains:3 (fun pool ->
          Rwc_par.iter_ranges pool ~n:3 (fun ~lo ~hi:_ ->
              Trace.with_span (Printf.sprintf "range-%d" lo) (fun () ->
                  ignore (Sys.opaque_identity lo))));
      let spans = Trace.spans () in
      Alcotest.(check int) "four spans" 4 (List.length spans);
      let control = List.find (fun s -> s.Trace.name = "control") spans in
      Alcotest.(check int) "control-loop span on tid 0" 0 control.Trace.tid;
      let all_tids =
        List.sort_uniq compare (List.map (fun s -> s.Trace.tid) spans)
      in
      Alcotest.(check int) "three distinct tids" 3 (List.length all_tids);
      Alcotest.(check int) "worker spans off the control loop" 2
        (List.length (List.filter (fun t -> t > 0) all_tids));
      match Json.parse (Json.to_string (Trace.to_json ())) with
      | Error e -> Alcotest.fail e
      | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.List events) ->
              let thread_name_tids =
                List.filter_map
                  (fun e ->
                    match (Json.member "name" e, Json.member "tid" e) with
                    | Some (Json.String "thread_name"), Some (Json.Int t) ->
                        Some t
                    | _ -> None)
                  events
                |> List.sort_uniq compare
              in
              Alcotest.(check (list int)) "one track per tid" all_tids
                thread_name_tids
          | _ -> Alcotest.fail "traceEvents missing"))

let test_span_disabled_is_identity () =
  Trace.disable ();
  Trace.reset ();
  Alcotest.(check int) "passes value through" 7
    (Trace.with_span "ghost" (fun () -> 7));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

(* --- manifest ------------------------------------------------------------ *)

let test_manifest_round_trip () =
  let m =
    Manifest.make ~version:"rwc-test-1" ~argv:[ "rwc"; "simulate"; "--days"; "2" ]
      ~seed:42
      ~config:[ ("days", Json.Float 2.0); ("policy", Json.String "adaptive") ]
      ~reports:[ ("adaptive", Json.Assoc [ ("flaps", Json.Int 3) ]) ]
      ~metrics:(Json.Assoc [ ("sim/flaps", Json.Int 3) ])
      ~command:"simulate" ()
  in
  match Json.parse (Json.to_string_pretty (Manifest.to_json m)) with
  | Error e -> Alcotest.fail e
  | Ok parsed -> (
      match Manifest.of_json parsed with
      | Error e -> Alcotest.fail e
      | Ok m' -> Alcotest.(check bool) "round-trips" true (m = m'))

let test_manifest_file () =
  let path = Filename.temp_file "rwc-manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let m = Manifest.make ~version:"rwc-test-2" ~command:"figures" () in
      Manifest.write path m;
      match Manifest.load path with
      | Ok m' ->
          Alcotest.(check string) "version survives" "rwc-test-2"
            m'.Manifest.version
      | Error e -> Alcotest.fail e)

(* --- collector max_fill guard -------------------------------------------- *)

let test_fill_gaps_max_fill () =
  let s i = { Rwc_telemetry.Collector.index = i; snr_db = float_of_int i } in
  let samples = [ s 0; s 1; s 5 ] in
  (* Longest gap is 3 slots (2..4). *)
  Metrics.enable ();
  let rejected = Metrics.counter "collector/gaps_rejected" in
  let before = Metrics.value rejected in
  Alcotest.(check bool) "within limit fills" true
    (Rwc_telemetry.Collector.fill_gaps ~max_fill:3 samples ~n:6 <> None);
  Alcotest.(check bool) "over limit refuses" true
    (Rwc_telemetry.Collector.fill_gaps ~max_fill:2 samples ~n:6 = None);
  Alcotest.(check bool) "trailing gap counts" true
    (Rwc_telemetry.Collector.fill_gaps ~max_fill:3 samples ~n:10 = None);
  Alcotest.(check int) "gaps_rejected bumped" (before + 2)
    (Metrics.value rejected);
  Alcotest.(check bool) "unguarded keeps historic behavior" true
    (Rwc_telemetry.Collector.fill_gaps samples ~n:100 <> None);
  Metrics.disable ()

let test_analyze_of_samples_guard () =
  let fleet = Rwc_telemetry.Fleet.(scaled default ~factor:50) in
  let link = (Rwc_telemetry.Fleet.links fleet).(0) in
  let trace = Rwc_telemetry.Fleet.trace fleet link in
  let n = Array.length trace in
  let rng = Rwc_stats.Rng.create 3 in
  let samples = Rwc_telemetry.Collector.poll rng trace ~loss_prob:0.01 in
  (* 1% iid loss: gaps are short, reconstruction must succeed... *)
  Alcotest.(check bool) "light loss analyzable" true
    (Rwc_telemetry.Analyze.link_report_of_samples link samples ~n <> None);
  (* ...but knocking out a contiguous day must trip the guard. *)
  let holed =
    List.filter
      (fun s -> s.Rwc_telemetry.Collector.index < 100
                || s.Rwc_telemetry.Collector.index > 196)
      samples
  in
  Alcotest.(check bool) "long outage refused" true
    (Rwc_telemetry.Analyze.link_report_of_samples link holed ~n = None)

(* --- runner end-to-end ---------------------------------------------------- *)

let test_runner_metrics_match_report () =
  Metrics.enable ();
  let flaps = Metrics.counter "sim/flaps" in
  let failures = Metrics.counter "sim/failures" in
  let reconfigs = Metrics.counter "sim/reconfigurations" in
  let te_recomputes = Metrics.counter "te/recomputes" in
  let te_hist = Metrics.histogram "te/recompute" in
  let te_hits = Metrics.counter "te/cache_hits" in
  let te_solves = Metrics.histogram "te/mcf_solve" in
  let dispatched = Metrics.counter "des/events_dispatched" in
  let base_flaps = Metrics.value flaps
  and base_failures = Metrics.value failures
  and base_reconfigs = Metrics.value reconfigs
  and base_te = Metrics.value te_recomputes
  and base_te_obs = Metrics.hcount te_hist
  and base_hits = Metrics.value te_hits
  and base_solves = Metrics.hcount te_solves
  and base_dispatched = Metrics.value dispatched in
  let config =
    {
      Rwc_sim.Runner.days = 2.0;
      te_interval_h = 6.0;
      seed = 11;
      wavelengths = 4;
      demand_fraction = 1.0;
      top_demands = 15;
      epsilon = 0.25;
      faults = Rwc_fault.none;
      retry = Rwc_sim.Orchestrator.default_retry_policy;
      guard = Rwc_guard.none;
      rollout = Rwc_rollout.none;
      journal = Rwc_journal.disarmed;
      progress = false;
      domains = 1;
      hooks = Rwc_sim.Runner.no_hooks;
    }
  in
  let r =
    Rwc_sim.Runner.run ~config (Rwc_sim.Runner.Adaptive Rwc_sim.Runner.Efficient)
  in
  Alcotest.(check int) "flap metric = report flaps" r.Rwc_sim.Runner.flaps
    (Metrics.value flaps - base_flaps);
  Alcotest.(check int) "failure metric = report failures"
    r.Rwc_sim.Runner.failures
    (Metrics.value failures - base_failures);
  Alcotest.(check int) "reconfig metric = report reconfigurations"
    r.Rwc_sim.Runner.reconfigurations
    (Metrics.value reconfigs - base_reconfigs);
  let te_delta = Metrics.value te_recomputes - base_te in
  Alcotest.(check bool) "at least one TE recompute" true (te_delta >= 1);
  Alcotest.(check int) "every recompute timed" te_delta
    (Metrics.hcount te_hist - base_te_obs);
  (* Every recompute is either a memo hit or a real solve, and only
     real solves reach the solver's histogram. *)
  let hits = Metrics.value te_hits - base_hits in
  let solves = Metrics.hcount te_solves - base_solves in
  Alcotest.(check bool) "repeated inputs hit the memo" true (hits >= 1);
  Alcotest.(check int) "recomputes = memo hits + solves" te_delta (hits + solves);
  Alcotest.(check bool) "TE durations positive" true
    (Metrics.percentile te_hist 50.0 > 0.0);
  Alcotest.(check bool) "DES dispatched events" true
    (Metrics.value dispatched - base_dispatched > 0);
  Metrics.disable ()

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json escapes" `Quick test_json_parse_escapes;
    QCheck_alcotest.to_alcotest prop_json_round_trip;
    QCheck_alcotest.to_alcotest prop_printer_matches_oracle;
    QCheck_alcotest.to_alcotest prop_parser_matches_oracle;
    Alcotest.test_case "json edge tokens = oracle" `Quick test_parse_edge_tokens;
    Alcotest.test_case "json surrogate pairs" `Quick test_surrogate_pairs;
    Alcotest.test_case "json lone surrogates" `Quick test_lone_surrogates;
    Alcotest.test_case "registry uniqueness" `Quick test_registry_uniqueness;
    Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception balance" `Quick
      test_span_rebalances_on_exception;
    Alcotest.test_case "span tids across domains" `Quick
      test_span_tids_across_domains;
    Alcotest.test_case "span disabled identity" `Quick
      test_span_disabled_is_identity;
    Alcotest.test_case "manifest round trip" `Quick test_manifest_round_trip;
    Alcotest.test_case "manifest file io" `Quick test_manifest_file;
    Alcotest.test_case "fill_gaps max_fill guard" `Quick test_fill_gaps_max_fill;
    Alcotest.test_case "analyze lossy samples guard" `Quick
      test_analyze_of_samples_guard;
    Alcotest.test_case "runner metrics match report" `Slow
      test_runner_metrics_match_report;
  ]
