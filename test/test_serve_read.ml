(* The serve daemon's journal-backed read RPCs — link.timeline,
   slo.scorecard and stream.subscribe's catch-up replay — pinned byte
   for byte.  The goldens below are digests of the full response bytes
   (and, for subscribe, of every replayed event envelope) captured
   before these RPCs moved from re-parsing the journal on every call to
   the journal index; the index must answer exactly as the re-read did.

   Scenarios: one policy queried mid-run (from an on_sweep hook) and
   sealed; two policies, so the journal holds two run segments; and the
   same two policies served by a checkpointed daemon that is stopped
   mid-way through the second run and resumed, so the index is rebuilt
   from the retained file.  A qcheck property holds the timeline against
   the re-read path, kept here as an oracle, on random (link, run,
   limit) triples. *)

module Json = Rwc_obs.Json
module J = Rwc_journal
module Runner = Rwc_sim.Runner
module R = Rwc_recover
module Stream = Rwc_serve.Stream
module D = Rwc_serve.Daemon

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let temp_dir () =
  let dir = Filename.temp_file "rwc_test_serve_read" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let config jnl hooks =
  {
    Runner.default_config with
    days = 1.0;
    seed = 7;
    faults = Rwc_fault.default;
    guard = Rwc_guard.default;
    journal = jnl;
    hooks;
  }

let two_policies = [ Runner.Adaptive Runner.Stock; Runner.Adaptive Runner.Efficient ]
let n_links = Array.length Rwc_topology.Backbone.north_america.Rwc_topology.Backbone.ducts

(* --- batteries ------------------------------------------------------------- *)

(* One request and its full response, as one listing entry. *)
let call ?on_subscribe engine meth params =
  let raw =
    Printf.sprintf {|{"jsonrpc":"2.0","id":1,"method":"%s","params":%s}|} meth params
  in
  match D.Engine.dispatch engine ?on_subscribe raw with
  | Some resp -> raw ^ "\n" ^ Json.to_string resp ^ "\n"
  | None -> Alcotest.fail ("no response: " ^ raw)

let opt_field name = function
  | None -> []
  | Some v -> [ Printf.sprintf {|"%s":%d|} name v ]

(* Every link (the fleet-level -1 included) and an absent one on the
   default run and limit, then runs 0..3 against limits 1, default and
   far above any total for a few links. *)
let timeline_battery engine =
  let every =
    List.map
      (fun l -> call engine "link.timeline" (Printf.sprintf {|{"link":%d}|} l))
      (List.init (n_links + 1) (fun i -> i - 1) @ [ 9999 ])
  in
  let grid =
    List.concat_map
      (fun link ->
        List.concat_map
          (fun run ->
            List.map
              (fun limit ->
                let fields =
                  (Printf.sprintf {|"link":%d|} link :: opt_field "run" run)
                  @ opt_field "limit" limit
                in
                call engine "link.timeline" ("{" ^ String.concat "," fields ^ "}"))
              [ None; Some 1; Some 100000 ])
          [ None; Some 0; Some 1; Some 2; Some 3 ])
      [ -1; 0; 7 ]
  in
  String.concat "" ((call engine "link.timeline" "{}" :: every) @ grid)

let scorecard_battery engine =
  String.concat ""
    (List.map
       (call engine "slo.scorecard")
       [
         "{}";
         {|{"plan":"default"}|};
         {|{"plan":"availability=99.9,class=150,at-class=90"}|};
         {|{"plan":"bogus=1"}|};
         {|{"plan":"none"}|};
       ])

(* The response plus every envelope the replay queued. *)
let subscribe engine params =
  let sub = ref None in
  let resp = call engine ~on_subscribe:(fun s -> sub := Some s) "stream.subscribe" params in
  match !sub with
  | None -> resp
  | Some s ->
      let events = List.map (fun e -> Json.to_string e ^ "\n") (Stream.drain s) in
      Stream.unsubscribe (D.Engine.hub engine) s;
      String.concat "" (resp :: events)

let subscribe_battery engine jnl =
  let n = J.events_emitted jnl in
  String.concat ""
    (List.map
       (fun from ->
         subscribe engine
           (Printf.sprintf {|{"topics":["decision"],"from":%d,"max_queue":4}|} from))
       [ 0; n / 2; n; n + 5 ]
    @ [ subscribe engine {|{"topics":["metrics"],"from":0}|} ])

type battery = { timeline : string; scorecard : string; subscribe : string }

let battery engine jnl =
  let timeline = timeline_battery engine in
  let scorecard = scorecard_battery engine in
  { timeline; scorecard; subscribe = subscribe_battery engine jnl }

let digest s = Digest.to_hex (Digest.string s)

let check_battery name (tl, sc, sb) b =
  Alcotest.(check string) (name ^ " link.timeline") tl (digest b.timeline);
  Alcotest.(check string) (name ^ " slo.scorecard") sc (digest b.scorecard);
  Alcotest.(check string) (name ^ " stream.subscribe") sb (digest b.subscribe)

(* Wrap an engine's hooks so [at] runs once, at the first sweep of the
   [run]th run started under them with k >= [k]. *)
let hooks_with engine ~run ~k at =
  let eh = D.Engine.hooks engine in
  let started = ref 0 and fired = ref false in
  {
    eh with
    Runner.on_run_start =
      Some
        (fun lv ->
          incr started;
          Option.iter (fun f -> f lv) eh.Runner.on_run_start);
    on_sweep =
      Some
        (fun ~k:kk ~now_s ~events ->
          Option.iter (fun f -> f ~k:kk ~now_s ~events) eh.Runner.on_sweep;
          if (not !fired) && !started = run && kk >= k then begin
            fired := true;
            at ()
          end);
  }

(* --- scenarios ------------------------------------------------------------- *)

type scenario = {
  mid : battery option;
  sealed : battery;
  engine : D.Engine.t;
  path : string;
}

(* Scenario journals outlive their lazy: the property tests re-read
   them. *)
let keep_dir () =
  let dir = temp_dir () in
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

(* One policy.  The sink carries no SLO plan and the daemon does, so a
   mid-run scorecard comes from the daemon's own fold, not the sink's
   online tracker. *)
let single =
  lazy
    (let path = Filename.concat (keep_dir ()) "journal.jsonl" in
     let jnl = J.create ~path () in
     let engine = D.Engine.create ~slo:J.Slo.default ~journal:jnl ~journal_path:path () in
     D.Engine.install engine;
     let mid = ref None in
     let hooks = hooks_with engine ~run:1 ~k:48 (fun () -> mid := Some (battery engine jnl)) in
     let policy = Runner.Adaptive Runner.Efficient in
     ignore (Runner.run ~config:(config jnl hooks) policy);
     D.Engine.on_policy_done engine (Runner.policy_name policy, "", Json.Assoc []);
     J.close jnl;
     D.Engine.seal engine;
     { mid = !mid; sealed = battery engine jnl; engine; path })

(* Two policies into one sink, as [rwc serve] without --checkpoint runs
   them; sink and daemon both carry the default plan, as the benchmark's
   daemon does. *)
let two_runs =
  lazy
    (let path = Filename.concat (keep_dir ()) "journal.jsonl" in
     let jnl = J.create ~path ~slo:J.Slo.default () in
     let engine = D.Engine.create ~slo:J.Slo.default ~journal:jnl ~journal_path:path () in
     D.Engine.install engine;
     let hooks = D.Engine.hooks engine in
     List.iter
       (fun p ->
         ignore (Runner.run ~config:(config jnl hooks) p);
         D.Engine.on_policy_done engine (Runner.policy_name p, "", Json.Assoc []))
       two_policies;
     J.close jnl;
     D.Engine.seal engine;
     { mid = None; sealed = battery engine jnl; engine; path })

(* The same two policies under a checkpointed daemon: stopped at sweep
   40 of the second run (a final checkpoint is cut there), then a fresh
   sink and engine resume from it.  The resumed engine's index and fold
   start from the retained file. *)
let resumed =
  lazy
    (let dir = keep_dir () in
     let path = Filename.concat dir "journal.jsonl" in
     let ckdir = Filename.concat dir "ck" in
     let context ~resume =
       match
         R.create ~dir:ckdir ~every:16 ~journal_path:path ~faults:Rwc_fault.default ~resume ()
       with
       | Ok pair -> pair
       | Error e -> Alcotest.fail e
     in
     let ctx, _ = context ~resume:false in
     let jnl = J.create ~path () in
     let first = D.Engine.create ~slo:J.Slo.default ~journal:jnl ~journal_path:path () in
     D.Engine.install first;
     let hooks = hooks_with first ~run:2 ~k:40 (fun () -> R.request_stop ctx) in
     (match
        Runner.run_recoverable ~config:(config jnl hooks) ~ctx ~resume_from:None
          ~policies:two_policies ()
      with
     | _ -> Alcotest.fail "the stop request was not honored"
     | exception R.Interrupted -> ());
     let ctx, resume_from = context ~resume:true in
     let ck =
       match resume_from with
       | Some c -> c
       | None -> Alcotest.fail "no checkpoint to resume from"
     in
     let jnl =
       match
         J.resume ~path ~at:ck.R.ck_journal_bytes ~events:ck.R.ck_journal_events ()
       with
       | Ok j -> j
       | Error e -> Alcotest.fail e
     in
     let engine = D.Engine.create ~slo:J.Slo.default ~journal:jnl ~journal_path:path () in
     D.Engine.install engine;
     let mid = ref None in
     (* Only the second policy runs after the resume; the first replays. *)
     let hooks = hooks_with engine ~run:1 ~k:60 (fun () -> mid := Some (battery engine jnl)) in
     ignore
       (Runner.run_recoverable ~config:(config jnl hooks) ~ctx ~resume_from:(Some ck)
          ~policies:two_policies ());
     D.Engine.seal engine;
     { mid = !mid; sealed = battery engine jnl; engine; path })

(* --- goldens --------------------------------------------------------------- *)

let single_mid_golden =
  ( "a72a02f8929b828c0b54d75e673bf3c9",
    "9a55c4630caa1aefc8969e719f73c9ac",
    "67326b442433e5e3f06c79470b70ae87" )

let single_sealed_golden =
  ( "dbc1878d723490c56e5b10ade0d8897b",
    "ceab3f91a1b9564753276d442825977d",
    "bc5833722c2042d965cd57b888387fe5" )

let two_runs_golden =
  ( "e11c2698105ab0aa782ed4364b0a6b57",
    "ceab3f91a1b9564753276d442825977d",
    "7a38cc16e5e3735a8cd90e495d0d0a35" )

let resumed_mid_golden =
  ( "e53f7f6cf3aabdae22fda60d3ba15e67",
    "825923f886ce0f128e3d830bcf3ef69c",
    "58bc687d5fe8266caee71c6dd1066956" )

let resumed_sealed_golden =
  ( "e11c2698105ab0aa782ed4364b0a6b57",
    "ceab3f91a1b9564753276d442825977d",
    "7829ec97e3acac5b540104d0be7adc1d" )

let mid_of s =
  match s.mid with Some b -> b | None -> Alcotest.fail "the mid-run hook never fired"

let test_single_goldens () =
  let s = Lazy.force single in
  check_battery "one run, mid-run" single_mid_golden (mid_of s);
  check_battery "one run, sealed" single_sealed_golden s.sealed

let test_two_runs_golden () =
  check_battery "two runs, sealed" two_runs_golden (Lazy.force two_runs).sealed

let test_resumed_goldens () =
  let s = Lazy.force resumed in
  check_battery "resumed mid-run" resumed_mid_golden (mid_of s);
  check_battery "resumed sealed" resumed_sealed_golden s.sealed;
  (* A resumed daemon answers every journal query as one that never
     stopped: same file, same index. *)
  let plain = (Lazy.force two_runs).sealed in
  Alcotest.(check string) "timeline = uninterrupted" (digest plain.timeline)
    (digest s.sealed.timeline);
  Alcotest.(check string) "scorecard = uninterrupted" (digest plain.scorecard)
    (digest s.sealed.scorecard)

(* Journals with nothing to segment: empty, and records without a run
   header. *)
let test_degenerate_journals () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      let jnl = J.create ~path () in
      let bare = D.Engine.create ~journal:jnl ~journal_path:path () in
      D.Engine.install bare;
      let planned = D.Engine.create ~slo:J.Slo.default ~journal:jnl ~journal_path:path () in
      let expect name want got = Alcotest.(check string) name want got in
      expect "no plan"
        ({|{"jsonrpc":"2.0","id":1,"method":"slo.scorecard","params":{}}|} ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"error":{"code":-32602,"message":"no SLO plan: pass params.plan or start the daemon with --slo"}}|}
       ^ "\n")
        (call bare "slo.scorecard" "{}");
      D.Engine.install planned;
      expect "empty timeline"
        ({|{"jsonrpc":"2.0","id":1,"method":"link.timeline","params":{"link":0}}|} ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"error":{"code":-32602,"message":"journal has no run segments yet"}}|}
       ^ "\n")
        (call planned "link.timeline" {|{"link":0}|});
      expect "empty scorecard"
        ({|{"jsonrpc":"2.0","id":1,"method":"slo.scorecard","params":{}}|} ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"error":{"code":-32602,"message":"journal has no run segments yet"}}|}
       ^ "\n")
        (call planned "slo.scorecard" "{}");
      J.commit jnl ~link:0 ~now:0.0 ~gbps:100 ~up:true;
      J.observe jnl ~link:1 ~now:900.0 ~snr_db:12.5 ~fresh:true;
      J.commit jnl ~link:0 ~now:1800.25 ~gbps:150 ~up:true;
      expect "headerless timeline"
        ({|{"jsonrpc":"2.0","id":1,"method":"link.timeline","params":{"link":0,"limit":1}}|}
       ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"result":{"link":0,"run":1,"policy":null,"total":2,"events":[{"t":1800.25,"link":0,"span":0,"ev":"commit","gbps":150,"up":true}]}}|}
       ^ "\n")
        (call planned "link.timeline" {|{"link":0,"limit":1}|});
      expect "headerless scorecard"
        ({|{"jsonrpc":"2.0","id":1,"method":"slo.scorecard","params":{}}|} ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"error":{"code":-32603,"message":"slo: journal segment has no run header"}}|}
       ^ "\n")
        (call planned "slo.scorecard" "{}");
      expect "headerless replay"
        ({|{"jsonrpc":"2.0","id":1,"method":"stream.subscribe","params":{"topics":["decision"],"from":1}}|}
       ^ "\n"
       ^ {|{"jsonrpc":"2.0","id":1,"result":{"subscriber":1,"topics":["decision"],"max_queue":256,"replayed":2,"next_seq":3}}|}
       ^ "\n"
       ^ {|{"topic":"decision","seq":1,"data":{"t":900.0,"link":1,"span":0,"ev":"observe","snr_db":12.5,"fresh":true}}|}
       ^ "\n"
       ^ {|{"topic":"decision","seq":2,"data":{"t":1800.25,"link":0,"span":0,"ev":"commit","gbps":150,"up":true}}|}
       ^ "\n")
        (subscribe planned {|{"topics":["decision"],"from":1}|});
      J.close jnl)

(* A malformed line in a resumed prefix costs one record, not the seqs
   of every record after it: each replayed event carries its own line
   ordinal, and the live tee carries on from the sink's counter with no
   collision. *)
let test_replay_seq_after_bad_line () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "journal.jsonl" in
      let jnl = J.create ~path () in
      J.start_run jnl ~policy:"p" ~seed:1 ~horizon_s:86_400.0 ~n_links:3;
      for i = 1 to 9 do
        J.commit jnl ~link:(i mod 3) ~now:(float_of_int (900 * i)) ~gbps:100 ~up:true
      done;
      J.close jnl;
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      let bad = 4 in
      let damaged =
        String.concat ""
          (List.mapi (fun i l -> (if i = bad then "{\"t\":oops}" else l) ^ "\n") lines)
      in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged);
      let n = List.length lines in
      let jnl =
        match J.resume ~path ~at:(String.length damaged) ~events:n () with
        | Ok j -> j
        | Error e -> Alcotest.fail e
      in
      let engine = D.Engine.create ~journal:jnl ~journal_path:path () in
      D.Engine.install engine;
      let sub = ref None in
      let resp =
        call engine ~on_subscribe:(fun s -> sub := Some s) "stream.subscribe"
          {|{"topics":["decision"],"from":0}|}
      in
      Alcotest.(check bool) "replayed every readable line" true
        (Json.parse (List.nth (String.split_on_char '\n' resp) 1)
        |> Result.get_ok |> Json.member "result"
        = Some
            (Json.Assoc
               [
                 ("subscriber", Json.Int 1);
                 ("topics", Json.List [ Json.String "decision" ]);
                 ("max_queue", Json.Int 256);
                 ("replayed", Json.Int (n - 1));
                 ("next_seq", Json.Int n);
               ]));
      J.commit jnl ~link:0 ~now:9000.0 ~gbps:150 ~up:true;
      let seqs =
        match !sub with
        | None -> Alcotest.fail "subscriber never bound"
        | Some s ->
            List.map
              (fun e ->
                match Json.member "seq" e with
                | Some (Json.Int q) -> q
                | _ -> Alcotest.fail "envelope without seq")
              (Stream.drain s)
      in
      Alcotest.(check (list int)) "replayed seqs are line ordinals, then live"
        (List.filter (( <> ) bad) (List.init (n + 1) Fun.id))
        seqs;
      J.close jnl)

(* The daemon keeps offsets and ordinals, never decoded records: its
   index, everything reachable from it counted, stays within 3 words
   per journal line — whether the tee built it or a resume rebuilt it. *)
let test_index_words () =
  List.iter
    (fun (name, scenario) ->
      let s = Lazy.force scenario in
      let idx = D.Engine.index s.engine in
      let lines =
        In_channel.with_open_bin s.path In_channel.input_lines |> List.length
      in
      Alcotest.(check int) (name ^ ": one ordinal per line") lines
        (Rwc_serve.Journal_index.length idx);
      let words = Obj.reachable_words (Obj.repr idx) in
      if words > 3 * lines then
        Alcotest.failf "%s: index holds %d words for %d lines (> 3 per line)" name
          words lines)
    [ ("two runs", two_runs); ("resumed", resumed) ]

(* --- the re-read path, kept as an oracle ----------------------------------- *)

let reread_timeline path ~link ~run ~limit =
  let limit = match limit with Some n when n > 0 -> n | _ -> 200 in
  match J.read_file path with
  | Error e -> Error (-32603, e)
  | Ok (records, _bad) -> (
      let segs = J.segments records in
      let nsegs = List.length segs in
      if nsegs = 0 then Error (-32602, "journal has no run segments yet")
      else
        let idx = match run with Some r -> r - 1 | None -> nsegs - 1 in
        if idx < 0 || idx >= nsegs then
          Error (-32602, Printf.sprintf "run must be in 1..%d" nsegs)
        else
          let seg = List.nth segs idx in
          let policy =
            match
              List.find_map
                (fun r ->
                  match r.J.kind with J.Run_start { policy; _ } -> Some policy | _ -> None)
                seg
            with
            | Some p -> Json.String p
            | None -> Json.Null
          in
          let mine = List.filter (fun r -> r.J.link = link) seg in
          let total = List.length mine in
          let rec drop n l =
            if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
          in
          Ok
            (Json.Assoc
               [
                 ("link", Json.Int link);
                 ("run", Json.Int (idx + 1));
                 ("policy", policy);
                 ("total", Json.Int total);
                 ("events", Json.List (List.map J.record_to_json (drop (total - limit) mine)));
               ]))

let index_timeline engine ~link ~run ~limit =
  let fields =
    (Printf.sprintf {|"link":%d|} link :: opt_field "run" run) @ opt_field "limit" limit
  in
  let raw =
    Printf.sprintf {|{"jsonrpc":"2.0","id":1,"method":"link.timeline","params":{%s}}|}
      (String.concat "," fields)
  in
  match D.Engine.dispatch engine raw with
  | None -> Alcotest.fail "no response"
  | Some resp -> (
      match (Json.member "result" resp, Json.member "error" resp) with
      | Some r, _ -> Ok r
      | None, Some e -> (
          match (Json.member "code" e, Json.member "message" e) with
          | Some (Json.Int c), Some (Json.String m) -> Error (c, m)
          | _ -> Alcotest.fail "malformed error")
      | None, None -> Alcotest.fail "neither result nor error")

let timeline_matches_reread name scenario =
  QCheck.Test.make ~count:150 ~name
    QCheck.(
      triple (int_range (-2) (n_links + 2))
        (option (int_range (-1) 4))
        (option (int_range (-2) 400)))
    (fun (link, run, limit) ->
      let s = Lazy.force scenario in
      let render = function
        | Ok j -> "ok " ^ Json.to_string j
        | Error (c, m) -> Printf.sprintf "error %d %s" c m
      in
      render (index_timeline s.engine ~link ~run ~limit)
      = render (reread_timeline s.path ~link ~run ~limit))

let suite =
  [
    Alcotest.test_case "one run: mid-run and sealed goldens" `Slow test_single_goldens;
    Alcotest.test_case "two runs: sealed golden" `Slow test_two_runs_golden;
    Alcotest.test_case "checkpoint-resumed daemon goldens" `Slow test_resumed_goldens;
    Alcotest.test_case "empty and headerless journals" `Quick test_degenerate_journals;
    Alcotest.test_case "replay seqs survive a bad resumed line" `Quick
      test_replay_seq_after_bad_line;
    Alcotest.test_case "index within 3 words per line" `Slow test_index_words;
    QCheck_alcotest.to_alcotest
      (timeline_matches_reread "timeline = re-read oracle (two runs)" two_runs);
    QCheck_alcotest.to_alcotest
      (timeline_matches_reread "timeline = re-read oracle (resumed)" resumed);
  ]
