(* Tests for the serve control plane, bottom-up through its layers:
   wire framing round-trips (both framings, any chunking), the
   JSON-RPC dispatcher's full error-code surface, the stream hub's
   bounded-queue drop accounting, and — against real 1-day runs — the
   headline contracts: a served run is byte-identical to the batch
   simulate it embeds, what-if previews perturb nothing, and a mid-run
   subscriber's journal replay plus the live tee cover every decision
   ordinal exactly once.  The satellite pieces ride along: read_from's
   torn-tail discipline, Metrics.snapshot_delta, and the progress
   heartbeat's non-TTY / open-ended forms. *)

module Json = Rwc_obs.Json
module Metrics = Rwc_obs.Metrics
module Progress = Rwc_perf.Progress
module J = Rwc_journal
module Runner = Rwc_sim.Runner
module T = Rwc_serve.Transport
module Rpc = Rwc_serve.Rpc
module Stream = Rwc_serve.Stream
module D = Rwc_serve.Daemon

let slurp p = In_channel.with_open_bin p In_channel.input_all

let spew p s =
  Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let jget j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing key %S in %s" k (Json.to_string j))

let jint j k =
  match jget j k with
  | Json.Int n -> n
  | v -> Alcotest.fail (Printf.sprintf "%S not an int: %s" k (Json.to_string v))

let jbool j k =
  match jget j k with
  | Json.Bool b -> b
  | v -> Alcotest.fail (Printf.sprintf "%S not a bool: %s" k (Json.to_string v))

let error_code resp = jint (jget resp "error") "code"

(* --- transport framing ----------------------------------------------------- *)

let pull_all dec =
  let rec go acc =
    match T.next dec with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.fail e
  in
  go []

let payloads =
  [
    {|{"jsonrpc":"2.0","id":1,"method":"server.ping"}|};
    {|{"jsonrpc":"2.0","id":"x","method":"fleet.status","params":{}}|};
    "[1,2,3]";
  ]

let test_jsonl_round_trip () =
  let dec = T.decoder T.Jsonl in
  T.feed dec (String.concat "" (List.map (T.encode T.Jsonl) payloads));
  Alcotest.(check (list string)) "all payloads recovered" payloads (pull_all dec);
  Alcotest.(check bool) "drained" true (T.next dec = Ok None);
  (* CRLF-terminated lines lose only the terminator. *)
  T.feed dec "{\"a\":1}\r\n";
  Alcotest.(check (list string)) "crlf stripped" [ {|{"a":1}|} ] (pull_all dec)

let test_content_length_round_trip () =
  let with_newline = "{\"text\":\"line one\\nline two\"}\n{not-a-frame}" in
  let all = payloads @ [ with_newline ] in
  let dec = T.decoder T.Content_length in
  T.feed dec (String.concat "" (List.map (T.encode T.Content_length) all));
  Alcotest.(check (list string))
    "payloads with embedded newlines survive" all (pull_all dec);
  (* Hand-typed clients may separate header from body with bare \n\n. *)
  let dec = T.decoder T.Content_length in
  T.feed dec "content-length: 7\n\n{\"a\":1}";
  Alcotest.(check (list string)) "bare-LF header accepted" [ {|{"a":1}|} ]
    (pull_all dec)

let test_byte_by_byte_feed () =
  List.iter
    (fun framing ->
      let dec = T.decoder framing in
      let wire = String.concat "" (List.map (T.encode framing) payloads) in
      let got = ref [] in
      String.iter
        (fun c ->
          T.feed dec (String.make 1 c);
          got := !got @ pull_all dec)
        wire;
      Alcotest.(check (list string))
        (T.framing_name framing ^ " byte-by-byte")
        payloads !got)
    [ T.Jsonl; T.Content_length ]

let test_malformed_headers () =
  let errors s =
    let dec = T.decoder T.Content_length in
    T.feed dec s;
    match T.next dec with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "non-numeric length" true
    (errors "Content-Length: xyz\r\n\r\n");
  Alcotest.(check bool) "missing header" true (errors "X-Whatever: 3\r\n\r\nabc");
  Alcotest.(check bool) "negative length" true
    (errors "Content-Length: -4\r\n\r\n");
  Alcotest.(check bool) "oversized header block" true
    (errors (String.make 5000 'h'));
  (* An incomplete frame is patience, not an error. *)
  let dec = T.decoder T.Content_length in
  T.feed dec "Content-Length: 10\r\n\r\n12345";
  Alcotest.(check bool) "short body pends" true (T.next dec = Ok None)

let test_detect () =
  let check name input expected =
    Alcotest.(check bool) name true (T.detect input = expected)
  in
  check "object opener" "{\"a\"" (Some T.Jsonl);
  check "array opener" "  [1" (Some T.Jsonl);
  check "lsp header" "Content-Length: 5" (Some T.Content_length);
  check "lsp header lowercase" "content-length" (Some T.Content_length);
  check "prefix undecidable" "Content-Le" None;
  check "empty undecidable" "" None;
  check "whitespace only" " \r\n" None;
  check "garbage falls back to jsonl" "GET / HTTP/1.1" (Some T.Jsonl)

(* --- json-rpc dispatch ----------------------------------------------------- *)

let handlers =
  [
    ( "echo",
      fun p -> Ok (match p with Some v -> v | None -> Json.Null) );
    ("boom", fun _ -> raise (Failure "kaput"));
    ("badargs", fun _ -> raise (Invalid_argument "nope"));
    ("refuse", fun _ -> Error (Rpc.Invalid_params, "refused"));
  ]

let dispatch_exn raw =
  match Rpc.dispatch handlers raw with
  | Some resp -> resp
  | None -> Alcotest.fail ("expected a response for " ^ raw)

let test_dispatch_error_codes () =
  let code raw = error_code (dispatch_exn raw) in
  Alcotest.(check int) "parse error" (-32700) (code "{nope");
  Alcotest.(check int) "wrong version" (-32600)
    (code {|{"jsonrpc":"1.0","id":1,"method":"echo"}|});
  Alcotest.(check int) "method not a string" (-32600)
    (code {|{"jsonrpc":"2.0","id":1,"method":5}|});
  Alcotest.(check int) "ill-typed id" (-32600)
    (code {|{"jsonrpc":"2.0","id":true,"method":"echo"}|});
  Alcotest.(check int) "non-object request" (-32600) (code "[1,2]");
  Alcotest.(check int) "method not found" (-32601)
    (code {|{"jsonrpc":"2.0","id":1,"method":"nope"}|});
  Alcotest.(check int) "handler refuses params" (-32602)
    (code {|{"jsonrpc":"2.0","id":1,"method":"refuse"}|});
  Alcotest.(check int) "Invalid_argument maps to invalid params" (-32602)
    (code {|{"jsonrpc":"2.0","id":1,"method":"badargs"}|});
  Alcotest.(check int) "Failure maps to internal error" (-32603)
    (code {|{"jsonrpc":"2.0","id":1,"method":"boom"}|});
  (* A parse error cannot know the id; the spec says id null. *)
  Alcotest.(check bool) "parse error id is null" true
    (jget (dispatch_exn "{nope") "id" = Json.Null)

let test_dispatch_success_and_notifications () =
  let resp =
    dispatch_exn {|{"jsonrpc":"2.0","id":42,"method":"echo","params":{"k":7}}|}
  in
  Alcotest.(check int) "id echoed" 42 (jint resp "id");
  Alcotest.(check int) "result carries params" 7 (jint (jget resp "result") "k");
  (* Notifications are never answered — success, unknown method, even
     a crashing handler. *)
  List.iter
    (fun raw ->
      Alcotest.(check bool) ("no response: " ^ raw) true
        (Rpc.dispatch handlers raw = None))
    [
      {|{"jsonrpc":"2.0","method":"echo"}|};
      {|{"jsonrpc":"2.0","method":"nope"}|};
    ]

(* A string id carrying a \u surrogate pair comes back as the one
   4-byte UTF-8 scalar it names, so the reply is valid UTF-8; a lone
   surrogate is not JSON text the server can echo at all. *)
let test_dispatch_surrogate_id () =
  let emoji = "\xf0\x9f\x98\x80" in
  let resp =
    dispatch_exn
      {|{"jsonrpc":"2.0","id":"\ud83d\ude00","method":"echo","params":["\ud83d\ude00"]}|}
  in
  Alcotest.(check bool) "id decoded to one scalar" true
    (jget resp "id" = Json.String emoji);
  Alcotest.(check bool) "params decoded alike" true
    (jget resp "result" = Json.List [ Json.String emoji ]);
  Alcotest.(check string) "echoed bytes"
    ({|{"jsonrpc":"2.0","id":"|} ^ emoji ^ {|","result":["|} ^ emoji ^ {|"]}|})
    (Json.to_string resp);
  Alcotest.(check int) "lone surrogate id is a parse error" (-32700)
    (error_code (dispatch_exn {|{"jsonrpc":"2.0","id":"\ud83d","method":"echo"}|}))

(* --- stream hub ------------------------------------------------------------ *)

let test_slow_consumer_drops () =
  let h = Stream.hub () in
  let slow = Stream.subscribe h ~max_queue:2 ~topics:[ Stream.Decision ] () in
  let fast = Stream.subscribe h ~max_queue:16 ~topics:[ Stream.Decision ] () in
  for seq = 0 to 4 do
    Stream.publish h ~topic:Stream.Decision ~seq (Json.Int seq)
  done;
  Alcotest.(check int) "slow queue capped" 2 (Stream.pending slow);
  Alcotest.(check int) "slow drops counted" 3 (Stream.dropped slow);
  Alcotest.(check int) "fast consumer keeps all" 5 (Stream.pending fast);
  Alcotest.(check int) "hub totals drops" 3 (Stream.total_dropped h);
  Alcotest.(check int) "hub counts publishes once" 5 (Stream.published h);
  (* Drop-newest: the queued history survives; the subscriber sees the
     seq gap at the tail and can re-subscribe from its high-water mark. *)
  let seqs = List.map (fun e -> jint e "seq") (Stream.drain slow) in
  Alcotest.(check (list int)) "oldest events retained" [ 0; 1 ] seqs;
  Alcotest.(check int) "drain empties" 0 (Stream.pending slow)

let test_push_direct_exempt_from_cap () =
  let h = Stream.hub () in
  let s = Stream.subscribe h ~max_queue:2 ~topics:[ Stream.Decision ] () in
  for seq = 0 to 9 do
    Stream.push_direct s ~topic:Stream.Decision ~seq (Json.Int seq)
  done;
  Alcotest.(check int) "replay burst not capped" 10 (Stream.pending s);
  Alcotest.(check int) "replay never drops" 0 (Stream.dropped s)

let test_topic_filter_and_seqs () =
  let h = Stream.hub () in
  let s = Stream.subscribe h ~max_queue:8 ~topics:[ Stream.Metrics ] () in
  Stream.publish h ~topic:Stream.Decision ~seq:0 Json.Null;
  Alcotest.(check int) "other topics filtered" 0 (Stream.pending s);
  Stream.publish h ~topic:Stream.Metrics ~seq:0 Json.Null;
  Alcotest.(check int) "subscribed topic delivered" 1 (Stream.pending s);
  (* Per-topic counters are independent. *)
  let m0 = Stream.next_seq h Stream.Metrics in
  let m1 = Stream.next_seq h Stream.Metrics in
  Alcotest.(check (list int)) "metrics seqs" [ 0; 1 ] [ m0; m1 ];
  Alcotest.(check int) "slo seq unaffected" 0 (Stream.next_seq h Stream.Slo);
  Stream.unsubscribe h s;
  Alcotest.(check int) "unsubscribed" 0 (Stream.subscribers h)

(* --- engine against real runs ---------------------------------------------- *)

let policy = Runner.Adaptive Runner.Efficient

let run_config jnl hooks =
  {
    Runner.default_config with
    days = 1.0;
    seed = 7;
    faults = Rwc_fault.default;
    guard = Rwc_guard.default;
    journal = jnl;
    hooks;
  }

(* The batch baseline: exactly what [rwc simulate] computes. *)
let batch =
  lazy
    (let path = Filename.temp_file "rwc_test_serve_batch" ".jsonl" in
     let jnl = J.create ~path ~slo:J.Slo.default () in
     let report = Runner.run ~config:(run_config jnl Runner.no_hooks) policy in
     J.close jnl;
     let bytes = slurp path in
     Sys.remove path;
     (report, bytes))

(* Wrap [h] to log the run's solve-memo hits and TE recomputes at every
   sweep boundary, after everything else the hook does there, and to
   keep the live window for queries after the run.  The counters are
   process-global and count only while the registry is armed, so the
   log is relative to the wrap and the run goes through [armed]. *)
let memo_logged (h : Runner.hooks) =
  let hits = Metrics.counter "te/cache_hits"
  and recomputes = Metrics.counter "te/recomputes" in
  let h0 = Metrics.value hits and r0 = Metrics.value recomputes in
  let counts () = (Metrics.value hits - h0, Metrics.value recomputes - r0) in
  let live = ref None and log = ref [] in
  let hooks =
    {
      h with
      Runner.on_run_start =
        Some
          (fun lv ->
            live := Some lv;
            Option.iter (fun f -> f lv) h.Runner.on_run_start);
      on_sweep =
        Some
          (fun ~k ~now_s ~events ->
            Option.iter (fun f -> f ~k ~now_s ~events) h.Runner.on_sweep;
            log := counts () :: !log);
    }
  in
  let finish () =
    match !live with
    | Some lv -> (lv, List.rev (counts () :: !log))
    | None -> Alcotest.fail "run never started"
  in
  (hooks, finish)

(* Run [f] with the metrics registry armed, as [rwc serve] runs. *)
let armed f =
  let was = Metrics.enabled () in
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Metrics.disable ()) f

(* The same run served: engine installed, tee live, no client activity. *)
let served_plain =
  lazy
    (let path = Filename.temp_file "rwc_test_serve_plain" ".jsonl" in
     let jnl = J.create ~path ~slo:J.Slo.default () in
     let engine = D.Engine.create ~journal:jnl ~journal_path:path () in
     D.Engine.install engine;
     let hooks, memo_log = memo_logged (D.Engine.hooks engine) in
     let report =
       armed (fun () -> Runner.run ~config:(run_config jnl hooks) policy)
     in
     D.Engine.on_policy_done engine
       (Runner.policy_name policy, "", Json.Assoc []);
     J.close jnl;
     D.Engine.seal engine;
     let bytes = slurp path in
     Sys.remove path;
     (report, bytes, snd (memo_log ())))

type active = {
  av_report : Runner.report;
  av_bytes : string;
  av_n_records : int;
  av_engine : D.Engine.t;
  av_sub_resp : Json.t;
  av_seqs : int list;  (* decision seqs the mid-run subscriber received *)
  av_live : Runner.live;
  av_memo : (int * int) list;  (* (memo hits, TE recomputes) at each sweep *)
}

(* The same run served under load: what-if previews fired throughout
   and a subscriber attached mid-run with a full journal replay. *)
let served_active =
  lazy
    (let path = Filename.temp_file "rwc_test_serve_active" ".jsonl" in
     let jnl = J.create ~path ~slo:J.Slo.default () in
     let engine = D.Engine.create ~journal:jnl ~journal_path:path () in
     D.Engine.install engine;
     let sub = ref None in
     let sub_resp = ref Json.Null in
     let eh = D.Engine.hooks engine in
     let on_sweep ~k ~now_s ~events =
       (match eh.Runner.on_sweep with
       | Some f -> f ~k ~now_s ~events
       | None -> ());
       if k mod 7 = 3 then begin
         let whatif g =
           Printf.sprintf
             {|{"jsonrpc":"2.0","id":%d,"method":"whatif.capacity","params":%s}|}
             k g
         in
         (match D.Engine.dispatch engine (whatif {|{"link":0,"gbps":150}|}) with
         | Some r when Json.member "error" r = None ->
             Alcotest.(check bool) "what-if never commits" false
               (jbool (jget r "result") "committed")
         | _ -> Alcotest.fail "gbps what-if failed");
         match D.Engine.dispatch engine (whatif {|{"link":1,"snr_db":6.0}|}) with
         | Some r when Json.member "error" r = None -> ()
         | _ -> Alcotest.fail "snr_db what-if failed"
       end;
       if k = 30 then
         let raw =
           {|{"jsonrpc":"2.0","id":1,"method":"stream.subscribe","params":{"topics":["decision"],"from":0,"max_queue":1000000}}|}
         in
         match D.Engine.dispatch engine ~on_subscribe:(fun s -> sub := Some s) raw with
         | Some r when Json.member "error" r = None -> sub_resp := jget r "result"
         | _ -> Alcotest.fail "mid-run subscribe failed"
     in
     let hooks, memo_log = memo_logged { eh with Runner.on_sweep = Some on_sweep } in
     let report =
       armed (fun () -> Runner.run ~config:(run_config jnl hooks) policy)
     in
     D.Engine.on_policy_done engine
       (Runner.policy_name policy, "", Json.Assoc []);
     J.close jnl;
     D.Engine.seal engine;
     let bytes = slurp path in
     let records =
       match J.read_file path with
       | Ok (r, 0) -> r
       | Ok (_, bad) -> Alcotest.fail (Printf.sprintf "%d bad lines" bad)
       | Error e -> Alcotest.fail e
     in
     Sys.remove path;
     let seqs =
       match !sub with
       | None -> Alcotest.fail "subscriber never bound"
       | Some s -> List.map (fun e -> jint e "seq") (Stream.drain s)
     in
     let live, memo = memo_log () in
     {
       av_report = report;
       av_live = live;
       av_memo = memo;
       av_bytes = bytes;
       av_n_records = List.length records;
       av_engine = engine;
       av_sub_resp = !sub_resp;
       av_seqs = seqs;
     })

let test_served_matches_batch () =
  let batch_report, batch_bytes = Lazy.force batch in
  let served_report, served_bytes, _ = Lazy.force served_plain in
  Alcotest.(check bool) "reports identical" true (batch_report = served_report);
  Alcotest.(check bool) "journals byte-identical" true
    (batch_bytes = served_bytes);
  Alcotest.(check bool) "journal non-trivial" true
    (String.length batch_bytes > 0)

let test_whatif_purity () =
  let plain_report, plain_bytes, plain_memo = Lazy.force served_plain in
  let a = Lazy.force served_active in
  (* Dozens of mid-run what-ifs (both the forced-denomination and the
     controller-peek form) and a mid-run replay left the run's journal
     and report byte-identical to the untouched serve. *)
  Alcotest.(check bool) "journal untouched by what-ifs" true
    (plain_bytes = a.av_bytes);
  Alcotest.(check bool) "report untouched by what-ifs" true
    (plain_report = a.av_report);
  (* What-ifs only read the solve memo: the run hit and missed it at
     exactly the same recomputations. *)
  Alcotest.(check bool) "run hit the memo" true
    (fst (List.hd (List.rev plain_memo)) > 0);
  Alcotest.(check (list (pair int int)))
    "memo hits and recomputes untouched by what-ifs" plain_memo a.av_memo

(* A what-if that previews a link's current rung while TE is clean asks
   for the input the run last solved, which the memo holds: it answers
   with the run's own routed total, bit for bit, without a solve.  The
   run is over, and the TE tick at the horizon came after its last
   capacity change, so TE is clean. *)
let test_whatif_current_rung_hits_memo () =
  let lv = (Lazy.force served_active).av_live in
  let link =
    let rec up i =
      if i >= lv.Runner.lv_n_ducts then Alcotest.fail "no link up"
      else
        let d = lv.Runner.lv_duct i in
        if d.Runner.dv_up && d.Runner.dv_gbps > 0 then i else up (i + 1)
    in
    up 0
  in
  let gbps = (lv.Runner.lv_duct link).Runner.dv_gbps in
  let solves () =
    List.fold_left
      (fun acc (p, st) -> if p = Rwc_perf.Te_solve then st.Rwc_perf.count else acc)
      0 (Rwc_perf.snapshot ())
  in
  let was_enabled = Rwc_perf.enabled () in
  Rwc_perf.enable ();
  let solves0 = solves () in
  let before, after =
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Rwc_perf.disable ())
      (fun () -> lv.Runner.lv_whatif ~link ~gbps)
  in
  Alcotest.(check int64) "routed after = before, bit for bit"
    (Int64.bits_of_float before) (Int64.bits_of_float after);
  Alcotest.(check int64) "before is the run's routed total"
    (Int64.bits_of_float (lv.Runner.lv_routed_gbps ()))
    (Int64.bits_of_float before);
  Alcotest.(check int) "no te_solve recorded" solves0 (solves ())

let test_catchup_no_gaps_no_duplicates () =
  let a = Lazy.force served_active in
  let replayed = jint a.av_sub_resp "replayed" in
  Alcotest.(check bool) "replay returned history" true (replayed > 0);
  Alcotest.(check int) "replay covered the journal so far" replayed
    (jint a.av_sub_resp "next_seq");
  Alcotest.(check bool) "live tail followed the replay" true
    (List.length a.av_seqs > replayed);
  (* The headline: replay + live tee cover every decision ordinal
     exactly once, in order. *)
  Alcotest.(check (list int)) "seqs contiguous from 0"
    (List.init a.av_n_records Fun.id)
    a.av_seqs

let test_engine_queries_after_seal () =
  let a = Lazy.force served_active in
  let call raw =
    match D.Engine.dispatch a.av_engine raw with
    | Some r -> r
    | None -> Alcotest.fail ("no response: " ^ raw)
  in
  let ping = call {|{"jsonrpc":"2.0","id":1,"method":"server.ping"}|} in
  Alcotest.(check bool) "ping pongs" true (jget ping "result" = Json.String "pong");
  let st =
    jget (call {|{"jsonrpc":"2.0","id":2,"method":"fleet.status"}|}) "result"
  in
  Alcotest.(check bool) "not running" false (jbool st "running");
  Alcotest.(check bool) "sealed" true (jbool st "sealed");
  Alcotest.(check int) "journal events counted" a.av_n_records
    (jint st "journal_events");
  (match jget st "links" with
  | Json.List links ->
      Alcotest.(check bool) "live link table survives the run" true
        (List.length links > 0)
  | _ -> Alcotest.fail "links not a list");
  (match jget st "reports" with
  | Json.List [ row ] ->
      Alcotest.(check bool) "report row named" true
        (jget row "policy" = Json.String (Runner.policy_name policy))
  | _ -> Alcotest.fail "expected one report row");
  Alcotest.(check int) "unknown method still -32601" (-32601)
    (error_code (call {|{"jsonrpc":"2.0","id":3,"method":"fleet.nope"}|}))

(* --- satellite: read_from torn-tail discipline ----------------------------- *)

let test_read_from_torn_tail () =
  let rec_line t link kind =
    Json.to_string (J.record_to_json { J.t; link; span = 0; kind })
  in
  let l1 = rec_line 0.0 0 (J.Commit { gbps = 100; up = true }) in
  let l2 = rec_line 900.0 1 (J.Outage { up = false }) in
  let path = Filename.temp_file "rwc_test_serve_tail" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      spew path (l1 ^ "\n" ^ l2 ^ "\n" ^ String.sub l1 0 10);
      let complete = String.length l1 + String.length l2 + 2 in
      (match J.read_from path ~offset:0 with
      | Ok (records, 0, next) ->
          Alcotest.(check int) "complete lines consumed" 2
            (List.length records);
          Alcotest.(check int) "torn tail not consumed" complete next
      | Ok (_, bad, _) -> Alcotest.fail (Printf.sprintf "%d bad lines" bad)
      | Error e -> Alcotest.fail e);
      (* The writer finishes the record: the follower picks it up whole. *)
      spew path
        (l1 ^ "\n" ^ l2 ^ "\n" ^ l1 ^ "\n");
      (match J.read_from path ~offset:complete with
      | Ok ([ r ], 0, _) ->
          Alcotest.(check bool) "completed record parses" true
            (r.J.kind = J.Commit { gbps = 100; up = true })
      | Ok _ -> Alcotest.fail "expected exactly the completed record"
      | Error e -> Alcotest.fail e);
      (* Truncation since the last poll is an error, the restart signal. *)
      Alcotest.(check bool) "offset past eof errors" true
        (match J.read_from path ~offset:100000 with
        | Error _ -> true
        | Ok _ -> false))

(* --- client read buffer ----------------------------------------------------- *)

(* [rwc watch] calls [Client.recv] once per event.  Once a read has
   buffered a burst of events, taking each of them must cost only its
   own (minor-heap) payload and parse: no fresh read buffer, no copy of
   what is still pending. *)
let test_client_recv_buffered_no_major () =
  let dir = Filename.temp_file "rwc_test_serve_client" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      (try Sys.remove path with Sys_error _ -> ());
      Sys.rmdir dir)
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX path);
      Unix.listen lfd 1;
      let client = D.Client.connect path in
      let server, _ = Unix.accept ~cloexec:true lfd in
      let n = 200 in
      let burst =
        String.concat ""
          (List.init n (fun seq ->
               T.encode T.Jsonl
                 (Json.to_string
                    (Rpc.notification ~meth:"stream.event"
                       (Json.Assoc
                          [
                            ("topic", Json.String "decision");
                            ("seq", Json.Int seq);
                            ("data", Json.Assoc [ ("link", Json.Int (seq mod 43)) ]);
                          ])))))
      in
      Alcotest.(check bool) "burst spans several KiB" true (String.length burst > 8192);
      ignore (Unix.write_substring server burst 0 (String.length burst));
      let seq_of = function
        | Ok msg -> (
            match Json.member "params" msg with
            | Some p -> jint p "seq"
            | None -> Alcotest.fail "not a notification")
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "first event" 0 (seq_of (D.Client.recv client));
      Gc.minor ();
      let _, _, major0 = Gc.counters () in
      let seqs = List.init (n - 1) (fun _ -> seq_of (D.Client.recv client)) in
      let _, _, major1 = Gc.counters () in
      Alcotest.(check (list int)) "the rest, in order" (List.init (n - 1) succ) seqs;
      Alcotest.(check (float 0.0)) "no major words" 0.0 (major1 -. major0);
      D.Client.close client;
      Unix.close server)

(* --- satellite: metrics snapshot deltas ------------------------------------ *)

let test_snapshot_delta () =
  let before =
    Json.Assoc
      [ ("a", Json.Int 1); ("b", Json.Int 2); ("gone", Json.Int 9) ]
  in
  let after =
    Json.Assoc [ ("a", Json.Int 1); ("b", Json.Int 3); ("fresh", Json.Int 7) ]
  in
  (match Metrics.snapshot_delta before after with
  | Json.Assoc kvs ->
      Alcotest.(check (list string)) "only changed/new series, after order"
        [ "b"; "fresh" ] (List.map fst kvs)
  | v -> Alcotest.fail ("delta not an object: " ^ Json.to_string v));
  Alcotest.(check bool) "identical snapshots diff empty" true
    (Metrics.snapshot_delta before before = Json.Assoc []);
  Alcotest.(check bool) "non-object falls back to full snapshot" true
    (Metrics.snapshot_delta Json.Null after = after)

(* --- satellite: progress heartbeat forms ----------------------------------- *)

let test_progress_render_forms () =
  Alcotest.(check string) "open-ended form (watch streams)"
    "watch: 42 events | 21 ev/s"
    (Progress.render ~label:"watch" ~day:0.0 ~total_days:0.0 ~events:42
       ~elapsed_s:2.0);
  Alcotest.(check string) "bounded form (simulate)"
    "sim: day 1.0/2.0 ( 50%) | 10 events | 5 ev/s | ETA 00:02"
    (Progress.render ~label:"sim" ~day:1.0 ~total_days:2.0 ~events:10
       ~elapsed_s:2.0)

let test_progress_non_tty_lines () =
  let path = Filename.temp_file "rwc_test_serve_progress" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let out = open_out path in
      let hb =
        Progress.create ~out ~min_interval_s:0.0
          ~extra:(fun () -> "serve 1 sub")
          ~label:"serve" ~total_days:0.0 ()
      in
      Progress.tick hb ~day:0.0 ~events:5;
      Progress.tick hb ~day:0.0 ~events:9;
      Progress.finish hb;
      close_out out;
      let lines = String.split_on_char '\n' (slurp path) in
      (* A pipe gets newline-terminated lines, never \r overdraws, and
         each draw is flushed — a CI log tails cleanly. *)
      Alcotest.(check int) "one line per draw" 3 (List.length lines);
      Alcotest.(check bool) "no carriage returns" false
        (String.contains (slurp path) '\r');
      match lines with
      | first :: second :: _ ->
          Alcotest.(check bool) "open-ended form with extra segment" true
            (String.starts_with ~prefix:"serve: 5 events | " first
            && String.ends_with ~suffix:" | serve 1 sub" first);
          Alcotest.(check bool) "second draw present" true
            (String.starts_with ~prefix:"serve: 9 events | " second)
      | _ -> Alcotest.fail "expected two drawn lines")

let suite =
  [
    Alcotest.test_case "jsonl framing round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "content-length framing round trip" `Quick
      test_content_length_round_trip;
    Alcotest.test_case "byte-by-byte feed" `Quick test_byte_by_byte_feed;
    Alcotest.test_case "malformed headers" `Quick test_malformed_headers;
    Alcotest.test_case "framing detection" `Quick test_detect;
    Alcotest.test_case "dispatch error codes" `Quick test_dispatch_error_codes;
    Alcotest.test_case "dispatch success + notifications" `Quick
      test_dispatch_success_and_notifications;
    Alcotest.test_case "dispatch surrogate-pair id" `Quick
      test_dispatch_surrogate_id;
    Alcotest.test_case "slow-consumer drop accounting" `Quick
      test_slow_consumer_drops;
    Alcotest.test_case "replay exempt from queue cap" `Quick
      test_push_direct_exempt_from_cap;
    Alcotest.test_case "topic filters + per-topic seqs" `Quick
      test_topic_filter_and_seqs;
    Alcotest.test_case "served matches batch byte-for-byte" `Slow
      test_served_matches_batch;
    Alcotest.test_case "what-ifs perturb nothing" `Slow test_whatif_purity;
    Alcotest.test_case "current-rung what-if hits the memo" `Slow
      test_whatif_current_rung_hits_memo;
    Alcotest.test_case "catch-up covers every ordinal once" `Slow
      test_catchup_no_gaps_no_duplicates;
    Alcotest.test_case "queries on a sealed daemon" `Slow
      test_engine_queries_after_seal;
    Alcotest.test_case "read_from skips torn tails" `Quick
      test_read_from_torn_tail;
    Alcotest.test_case "client recv of buffered events: no major words" `Quick
      test_client_recv_buffered_no_major;
    Alcotest.test_case "metrics snapshot deltas" `Quick test_snapshot_delta;
    Alcotest.test_case "progress render forms" `Quick test_progress_render_forms;
    Alcotest.test_case "progress non-tty lines" `Quick
      test_progress_non_tty_lines;
  ]
