module Json = Rwc_obs.Json
module Obs_metrics = Rwc_obs.Metrics
module Runner = Rwc_sim.Runner
module Adapt = Rwc_core.Adapt
module Modulation = Rwc_optical.Modulation
module J = Rwc_journal

exception Shutdown

(* ------------------------------------------------------------------ *)
(* Engine: the socket-free core — method table, hooks, stream wiring.  *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  type t = {
    hub : Stream.hub;
    journal : J.t;
    journal_path : string;
    metrics_interval : int;
    default_max_queue : int;
    slo_plan : J.Slo.plan;
    index : Journal_index.t;
    mutable fold : J.Slo.tracker option;
        (* [slo_plan]'s fold over the current segment, restarted at each
           run header. *)
    mutable live : Runner.live option;
    mutable running : bool;
    mutable sealed : bool;
    mutable des_events : int;
    mutable reports : (string * string * Json.t) list;  (* oldest first *)
    mutable last_metrics : Json.t;
        (* Previous full snapshot; starts empty so the first published
           delta is the full registry. *)
    mutable want_shutdown : bool;
    mutable external_stop : unit -> bool;
    mutable on_stop : unit -> unit;
    mutable pump : unit -> unit;
    mutable rate_mark : float * int;  (* wall clock, published count *)
    mutable rate : float;
  }

  let create ?(metrics_interval = 96) ?(max_queue = 256) ?(slo = J.Slo.none)
      ~journal ~journal_path () =
    {
      hub = Stream.hub ();
      journal;
      journal_path;
      metrics_interval = max 1 metrics_interval;
      default_max_queue = max 1 max_queue;
      slo_plan = slo;
      index = Journal_index.create ();
      fold = None;
      live = None;
      running = false;
      sealed = false;
      des_events = 0;
      reports = [];
      last_metrics = Json.Assoc [];
      want_shutdown = false;
      external_stop = (fun () -> false);
      on_stop = (fun () -> raise Shutdown);
      pump = ignore;
      rate_mark = (Unix.gettimeofday (), 0);
      rate = 0.0;
    }

  let hub t = t.hub
  let index t = t.index
  let want_shutdown t = t.want_shutdown
  let request_shutdown t = t.want_shutdown <- true
  let set_pump t f = t.pump <- f

  let set_stop t ~external_stop ~on_stop =
    t.external_stop <- external_stop;
    t.on_stop <- on_stop

  (* The sink buffers through Rwc_storm.Writer; force the tail out
     before reading the file back.  [byte_offset] flushes. *)
  let flush_journal t = if not t.sealed then ignore (J.byte_offset t.journal)

  (* One journal line, [r] its record as read back from the file. *)
  let ingest t ~offset r =
    Journal_index.add t.index ~offset r;
    match r with
    | None -> ()
    | Some r -> (
        (match (t.slo_plan, r.J.kind) with
        | Some cfg, J.Run_start { n_links; _ } ->
            t.fold <- Some (J.Slo.make_tracker cfg ~n_links)
        | _ -> ());
        match t.fold with Some tr -> J.Slo.feed tr r | None -> ())

  let install t =
    (* The tee sees each record as written; the index and the fold take
       it as the file will read it back (12 significant digits for a
       fractional time), so their answers match a re-read of the file. *)
    J.set_tee t.journal (fun ~seq ~offset r ->
        let json = J.record_to_json r in
        Stream.publish t.hub ~topic:Stream.Decision ~seq json;
        ingest t ~offset (Result.to_option (J.record_of_line (Json.to_string json))));
    (* Whatever the file already holds — a resumed run's retained
       prefix — is indexed once, before the tee adds to it. *)
    flush_journal t;
    match
      J.scan_from t.journal_path ~offset:0 (fun ~offset ~line:_ r ->
          ingest t ~offset (Result.to_option r))
    with
    | Ok _ -> ()
    | Error e -> failwith ("Daemon.Engine.install: " ^ e)

  let publish_lifecycle t fields =
    Stream.publish t.hub ~topic:Stream.Lifecycle
      ~seq:(Stream.next_seq t.hub Stream.Lifecycle)
      (Json.Assoc fields)

  let heartbeat_extra t () =
    let now = Unix.gettimeofday () in
    let t0, p0 = t.rate_mark in
    let p = Stream.published t.hub in
    let dt = now -. t0 in
    if dt >= 1.0 then begin
      t.rate <- float_of_int (p - p0) /. dt;
      t.rate_mark <- (now, p)
    end;
    Printf.sprintf "serve %d sub | %.0f ev/s | %d dropped"
      (Stream.subscribers t.hub) t.rate (Stream.total_dropped t.hub)

  let on_sweep t ~k ~now_s ~events =
    t.des_events <- events;
    if k mod t.metrics_interval = 0 then begin
      if Obs_metrics.enabled () then begin
        let snap = Obs_metrics.to_json () in
        let delta = Obs_metrics.snapshot_delta t.last_metrics snap in
        t.last_metrics <- snap;
        match delta with
        | Json.Assoc [] -> ()  (* nothing moved this interval *)
        | _ ->
            Stream.publish t.hub ~topic:Stream.Metrics
              ~seq:(Stream.next_seq t.hub Stream.Metrics)
              (Json.Assoc [ ("now_s", Json.Float now_s); ("delta", delta) ])
      end;
      match J.online_slo t.journal ~at:now_s with
      | Some summary ->
          Stream.publish t.hub ~topic:Stream.Slo
            ~seq:(Stream.next_seq t.hub Stream.Slo)
            (Json.Assoc
               [
                 ("now_s", Json.Float now_s);
                 ("scorecard", J.Slo.summary_to_json summary);
               ])
      | None -> ()
    end;
    t.pump ();
    if t.want_shutdown || t.external_stop () then begin
      t.want_shutdown <- true;
      t.on_stop ()
    end

  let hooks t =
    {
      Runner.on_run_start =
        Some
          (fun live ->
            t.live <- Some live;
            t.running <- true;
            publish_lifecycle t
              [
                ("event", Json.String "run-start");
                ("policy", Json.String live.Runner.lv_policy);
                ("n_links", Json.Int live.Runner.lv_n_ducts);
              ]);
      on_sweep = Some (fun ~k ~now_s ~events -> on_sweep t ~k ~now_s ~events);
      progress_extra = Some (heartbeat_extra t);
    }

  let on_policy_done t ((name, _pp, json) as row) =
    t.running <- false;
    t.reports <- t.reports @ [ row ];
    publish_lifecycle t
      [
        ("event", Json.String "run-finish");
        ("policy", Json.String name);
        ("report", json);
      ]

  let seal t =
    t.running <- false;
    t.sealed <- true;
    publish_lifecycle t [ ("event", Json.String "idle") ]

  (* ---------------------------- RPCs ---------------------------- *)

  let ( let* ) = Result.bind
  let ok v = Ok v
  let invalid m = Error (Rpc.Invalid_params, m)

  let fleet_status t _params =
    let base =
      [
        ("running", Json.Bool t.running);
        ("sealed", Json.Bool t.sealed);
        ("journal", Json.String t.journal_path);
        ("journal_events", Json.Int (J.events_emitted t.journal));
        ("des_events", Json.Int t.des_events);
        ("subscribers", Json.Int (Stream.subscribers t.hub));
        ("published_events", Json.Int (Stream.published t.hub));
        ("dropped_events", Json.Int (Stream.total_dropped t.hub));
        ( "reports",
          Json.List
            (List.map
               (fun (name, _, json) ->
                 Json.Assoc
                   [ ("policy", Json.String name); ("report", json) ])
               t.reports) );
      ]
    in
    let live_fields =
      match t.live with
      | None -> []
      | Some lv ->
          let links =
            List.init lv.Runner.lv_n_ducts (fun i ->
                let d = lv.Runner.lv_duct i in
                Json.Assoc
                  [
                    ("link", Json.Int d.Runner.dv_link);
                    ("gbps", Json.Int d.Runner.dv_gbps);
                    ("up", Json.Bool d.Runner.dv_up);
                    ("snr_db", Json.Float d.Runner.dv_snr_db);
                    ("reconfiguring", Json.Bool d.Runner.dv_reconfiguring);
                  ])
          in
          [
            ("policy", Json.String lv.Runner.lv_policy);
            ("now_s", Json.Float (lv.Runner.lv_now ()));
            ("routed_gbps", Json.Float (lv.Runner.lv_routed_gbps ()));
            ("capacity_gbps", Json.Float (lv.Runner.lv_capacity_gbps ()));
            ("links", Json.List links);
          ]
    in
    ok (Json.Assoc (base @ live_fields))

  let no_segments = invalid "journal has no run segments yet"

  let link_timeline t params =
    let* link = Rpc.Params.req_int params "link" in
    let* run = Rpc.Params.int_opt params "run" in
    let* limit = Rpc.Params.int_opt params "limit" in
    let limit = match limit with Some n when n > 0 -> n | _ -> 200 in
    let nsegs = Journal_index.segments t.index in
    if nsegs = 0 then no_segments
    else
      let idx = match run with Some r -> r - 1 | None -> nsegs - 1 in
      if idx < 0 || idx >= nsegs then
        invalid (Printf.sprintf "run must be in 1..%d" nsegs)
      else
        let seg = Journal_index.segment t.index idx in
        let total, tail = Journal_index.link_tail t.index ~link idx ~limit in
        flush_journal t;
        let* lines =
          Result.map_error
            (fun e -> (Rpc.Internal_error, e))
            (Journal_index.lines t.index t.journal_path tail)
        in
        let* events =
          List.fold_right
            (fun line acc ->
              let* acc = acc in
              match J.record_of_line line with
              | Ok r -> Ok (J.record_to_json r :: acc)
              | Error e ->
                  Error (Rpc.Internal_error, "journal changed under the index: " ^ e))
            lines (Ok [])
        in
        ok
          (Json.Assoc
             [
               ("link", Json.Int link);
               ("run", Json.Int (idx + 1));
               ( "policy",
                 match seg.Journal_index.run with
                 | Some r -> Json.String r.Journal_index.policy
                 | None -> Json.Null );
               ("total", Json.Int total);
               ("events", Json.List events);
             ])

  let slo_scorecard t params =
    let* plan_s = Rpc.Params.string_opt params "plan" in
    let scorecard source summary =
      ok
        (Json.Assoc
           [
             ("source", Json.String source);
             ("scorecard", J.Slo.summary_to_json summary);
           ])
    in
    let no_plan =
      invalid "no SLO plan: pass params.plan or start the daemon with --slo"
    in
    let with_last f =
      match Journal_index.segments t.index with
      | 0 -> no_segments
      | n -> f (Journal_index.segment t.index (n - 1))
    in
    (* An explicit plan folds the last segment's byte range afresh. *)
    let replan cfg =
      with_last (fun last ->
        flush_journal t;
        match J.read_from t.journal_path ~offset:last.Journal_index.offset with
        | Error e -> Error (Rpc.Internal_error, e)
        | Ok (records, _bad, _next) -> (
            match J.Slo.of_records cfg records with
            | Ok summary -> scorecard "journal" summary
            | Error e -> Error (Rpc.Internal_error, e)))
    in
    (* The daemon's own plan has been folded record by record. *)
    let folded () =
      with_last (fun last ->
        match (last.Journal_index.run, t.fold) with
        | Some r, Some tr ->
            scorecard "journal" (J.Slo.evaluate tr ~horizon_s:r.Journal_index.horizon_s)
        | _ -> Error (Rpc.Internal_error, "slo: journal segment has no run header"))
    in
    match plan_s with
    | Some s -> (
        match J.Slo.of_string s with
        | Error e -> invalid e
        | Ok None -> no_plan
        | Ok (Some cfg) -> replan cfg)
    | None -> (
        let online =
          match t.live with
          | Some lv when t.running ->
              J.online_slo t.journal ~at:(lv.Runner.lv_now ())
          | _ -> None
        in
        match (online, t.slo_plan) with
        | Some summary, _ -> scorecard "online" summary
        | None, None -> no_plan
        | None, Some _ -> folded ())

  let whatif_capacity t params =
    let* link = Rpc.Params.req_int params "link" in
    let* gbps = Rpc.Params.int_opt params "gbps" in
    let* snr_db = Rpc.Params.float_opt params "snr_db" in
    match t.live with
    | None -> Error (Rpc.Internal_error, "no run has started yet")
    | Some lv -> (
        let propose ~action ~from_gbps ~to_gbps =
          let before, after = lv.Runner.lv_whatif ~link ~gbps:to_gbps in
          ok
            (Json.Assoc
               [
                 ("link", Json.Int link);
                 ("action", Json.String action);
                 ("from_gbps", Json.Int from_gbps);
                 ("to_gbps", Json.Int to_gbps);
                 ("routed_gbps_before", Json.Float before);
                 ("routed_gbps_after", Json.Float after);
                 ("routed_delta_gbps", Json.Float (after -. before));
                 ("committed", Json.Bool false);
               ])
        in
        let current () = (lv.Runner.lv_duct link).Runner.dv_gbps in
        match (gbps, snr_db) with
        | Some _, Some _ -> invalid "pass either gbps or snr_db, not both"
        | None, None -> invalid "missing required param: gbps or snr_db"
        | Some g, None ->
            if g <> 0 && Modulation.of_gbps g = None then
              invalid (Printf.sprintf "no modulation provides %d Gbps" g)
            else
              let from_gbps = current () in
              let action =
                if g = 0 then "go-dark"
                else if from_gbps = 0 then "come-back"
                else if g > from_gbps then "step-up"
                else if g < from_gbps then "step-down"
                else "no-change"
              in
              propose ~action ~from_gbps ~to_gbps:g
        | None, Some snr -> (
            match lv.Runner.lv_peek ~link ~snr_db:snr with
            | None ->
                invalid
                  "policy is static: snr_db what-ifs need an adaptive \
                   controller"
            | Some a -> (
                let from0 = current () in
                match a with
                | Adapt.No_change ->
                    propose ~action:"no-change" ~from_gbps:from0 ~to_gbps:from0
                | Adapt.Step_up { from_gbps; to_gbps } ->
                    propose ~action:"step-up" ~from_gbps ~to_gbps
                | Adapt.Step_down { from_gbps; to_gbps } ->
                    propose ~action:"step-down" ~from_gbps ~to_gbps
                | Adapt.Go_dark { from_gbps } ->
                    propose ~action:"go-dark" ~from_gbps ~to_gbps:0
                | Adapt.Come_back { to_gbps } ->
                    propose ~action:"come-back" ~from_gbps:0 ~to_gbps
                | Adapt.Stuck { wanted_gbps } ->
                    (* peek never returns Stuck; keep the match total *)
                    propose ~action:"stuck" ~from_gbps:from0
                      ~to_gbps:wanted_gbps)))

  let stream_subscribe t ~on_subscribe params =
    let* topic_names = Rpc.Params.string_list_opt params "topics" in
    let* from = Rpc.Params.int_opt params "from" in
    let* max_queue = Rpc.Params.int_opt params "max_queue" in
    let* topics =
      match topic_names with
      | None -> Ok Stream.all_topics
      | Some names ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | n :: rest -> (
                match Stream.topic_of_name n with
                | Some tp -> go (tp :: acc) rest
                | None -> invalid (Printf.sprintf "unknown topic %S" n))
          in
          go [] names
    in
    let* () =
      match from with
      | Some n when n < 0 -> invalid "from must be >= 0"
      | _ -> Ok ()
    in
    let max_queue =
      match max_queue with Some n -> n | None -> t.default_max_queue
    in
    let sub = Stream.subscribe t.hub ~max_queue ~topics () in
    (* The subscriber exists before the replay reads the file, and the
       engine is single-threaded, so live decisions emitted after this
       point land behind the replayed ones: the replay covers ordinals
       [from, events_emitted) and the tee covers [events_emitted, ...)
       — no gap, no duplicate.  The replay reads from ordinal [from]'s
       line on, and each record's seq is its line's ordinal in the
       index: a malformed line costs its own record, never the seqs
       after it. *)
    let replayed =
      match from with
      | Some start
        when List.mem Stream.Decision topics && start < Journal_index.length t.index
        -> (
          flush_journal t;
          let n = ref 0 in
          match
            J.scan_from t.journal_path
              ~offset:(Journal_index.offset t.index start)
              (fun ~offset ~line:_ r ->
                match (r, Journal_index.ordinal t.index ~offset) with
                | Ok r, Some seq ->
                    incr n;
                    Stream.push_direct sub ~topic:Stream.Decision ~seq
                      (J.record_to_json r)
                | _ -> ())
          with
          | Error e ->
              Stream.unsubscribe t.hub sub;
              Error (Rpc.Internal_error, e)
          | Ok _ -> Ok !n)
      | _ -> Ok 0
    in
    match replayed with
    | Error (c, m) -> Error (c, m)
    | Ok replayed ->
        on_subscribe sub;
        ok
          (Json.Assoc
             [
               ("subscriber", Json.Int (Stream.subscriber_id sub));
               ( "topics",
                 Json.List
                   (List.map
                      (fun tp -> Json.String (Stream.topic_name tp))
                      topics) );
               ("max_queue", Json.Int max_queue);
               ("replayed", Json.Int replayed);
               ("next_seq", Json.Int (J.events_emitted t.journal));
             ])

  (* The first mutating RPCs, and they mutate {e journal-first}: the
     handler validates, appends the intent event ([R_proposed] /
     [R_approved] / ...) and queues a command on the run's rollout
     engine — nothing else.  The sweep loop applies the command at the
     next sample boundary, exactly as a crash-resumed run would replay
     it from the checkpointed queue, so the journal stays the source
     of truth and an RPC landing between a checkpoint cut and a crash
     is lost {e atomically} (intent and effect together, never one
     without the other). *)
  let rollout_engine t =
    match t.live with
    | None -> Error (Rpc.Internal_error, "no run has started yet")
    | Some lv -> (
        match lv.Runner.lv_rollout with
        | Some eng -> Ok (lv, eng)
        | None ->
            Error
              ( Rpc.Invalid_params,
                "policy is static: there are no capacity upgrades to stage" ))

  let rollout_propose t params =
    let* plan = Rpc.Params.string_opt params "plan" in
    let* lv, eng = rollout_engine t in
    let* cfg =
      match plan with
      | None -> Ok Rwc_rollout.default_config
      | Some s -> (
          match Rwc_rollout.of_string s with
          | Ok (Some c) -> Ok c
          | Ok None -> invalid "plan \"none\" cannot be proposed"
          | Error e -> invalid e)
    in
    match Rwc_rollout.request_propose eng ~now:(lv.Runner.lv_now ()) cfg with
    | Error e -> Error (Rpc.Invalid_params, e)
    | Ok rid ->
        ok
          (Json.Assoc
             [
               ("rid", Json.Int rid);
               ("plan", Json.String (Rwc_rollout.to_string (Some cfg)));
               ("queued", Json.Bool true);
             ])

  let rollout_apply t req _params =
    let* lv, eng = rollout_engine t in
    match req eng ~now:(lv.Runner.lv_now ()) with
    | Error e -> Error (Rpc.Invalid_params, e)
    | Ok () -> ok (Json.Assoc [ ("queued", Json.Bool true) ])

  let dispatch t ?(on_subscribe = fun _ -> ()) raw =
    Rpc.dispatch
      [
        ("server.ping", fun _ -> ok (Json.String "pong"));
        ( "server.shutdown",
          fun _ ->
            t.want_shutdown <- true;
            ok (Json.Assoc [ ("stopping", Json.Bool true) ]) );
        ("fleet.status", fleet_status t);
        ("link.timeline", link_timeline t);
        ("slo.scorecard", slo_scorecard t);
        ("whatif.capacity", whatif_capacity t);
        ("rollout.propose", rollout_propose t);
        ("rollout.approve", rollout_apply t Rwc_rollout.request_approve);
        ("rollout.pause", rollout_apply t Rwc_rollout.request_pause);
        ("rollout.abort", rollout_apply t Rwc_rollout.request_abort);
        ("stream.subscribe", stream_subscribe t ~on_subscribe);
      ]
      raw
end

(* ------------------------------------------------------------------ *)
(* Transport shell: Unix socket / stdio, non-blocking, single thread.  *)
(* ------------------------------------------------------------------ *)

type transport = Socket of string | Stdio

type run_mode =
  | Fresh
  | Checkpointed of Rwc_recover.ctx * Rwc_recover.checkpoint option

type client = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_sock : bool;  (* own the fds: close on drop *)
  mutable framing : Transport.framing;
  mutable dec : Transport.decoder option;  (* None until detected *)
  mutable preamble : string;
  inbuf : Bytes.t;  (* this connection's read buffer, reused every pump *)
  outbuf : Buffer.t;
  mutable sub : Stream.subscriber option;
  mutable alive : bool;
  mutable closing : bool;  (* stop reading, flush outbuf, then close *)
}

type server = {
  engine : Engine.t;
  listener : Unix.file_descr option;
  socket_path : string option;
  stdio : bool;
  mutable clients : client list;
}

let read_size = 65536

let new_client ~sock c_in c_out =
  {
    c_in;
    c_out;
    c_sock = sock;
    framing = Transport.Jsonl;
    dec = None;
    preamble = "";
    inbuf = Bytes.create read_size;
    outbuf = Buffer.create 256;
    sub = None;
    alive = true;
    closing = false;
  }

let listen_unix path =
  (match Unix.lstat path with
  | st ->
      if st.Unix.st_kind = Unix.S_SOCK then
        (try Unix.unlink path with Unix.Unix_error _ -> ())
      else
        failwith (Printf.sprintf "rwc serve: %s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 16;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let create_server mode engine =
  match mode with
  | Socket path ->
      {
        engine;
        listener = Some (listen_unix path);
        socket_path = Some path;
        stdio = false;
        clients = [];
      }
  | Stdio ->
      Unix.set_nonblock Unix.stdin;
      {
        engine;
        listener = None;
        socket_path = None;
        stdio = true;
        clients = [ new_client ~sock:false Unix.stdin Unix.stdout ];
      }

let close_client srv c =
  if c.alive then begin
    c.alive <- false;
    (match c.sub with
    | Some s -> Stream.unsubscribe (Engine.hub srv.engine) s
    | None -> ());
    c.sub <- None;
    if c.c_sock then try Unix.close c.c_in with Unix.Unix_error _ -> ()
  end

let on_subscribe_for srv c sub =
  (* One subscription per connection: a re-subscribe (e.g. after a seq
     gap) replaces the old stream. *)
  (match c.sub with
  | Some old -> Stream.unsubscribe (Engine.hub srv.engine) old
  | None -> ());
  c.sub <- Some sub

let handle_payload srv c payload =
  match Engine.dispatch srv.engine ~on_subscribe:(on_subscribe_for srv c) payload with
  | Some resp ->
      Buffer.add_string c.outbuf (Transport.encode c.framing (Json.to_string resp))
  | None -> ()

let drain_decoder srv c =
  match c.dec with
  | None -> ()
  | Some dec ->
      let rec loop () =
        if c.alive && not c.closing then
          match Transport.next dec with
          | Ok (Some payload) ->
              handle_payload srv c payload;
              loop ()
          | Ok None -> ()
          | Error e ->
              (* Framing poisoned: answer once, flush, drop the client. *)
              Buffer.add_string c.outbuf
                (Transport.encode c.framing
                   (Json.to_string
                      (Rpc.error_response ~id:None Rpc.Parse_error e)));
              c.closing <- true
      in
      loop ()

let feed_client c n =
  match c.dec with
  | Some dec -> Transport.feed_bytes dec c.inbuf n
  | None -> (
      c.preamble <- c.preamble ^ Bytes.sub_string c.inbuf 0 n;
      match Transport.detect c.preamble with
      | None -> ()
      | Some f ->
          c.framing <- f;
          let dec = Transport.decoder f in
          Transport.feed dec c.preamble;
          c.preamble <- "";
          c.dec <- Some dec)

let read_client srv c =
  if c.alive && not c.closing then begin
    let rec loop () =
      match Unix.read c.c_in c.inbuf 0 read_size with
      | 0 ->
          (* EOF: stop reading but let pending responses drain before
             the close — a piped stdio client sends its requests and
             closes stdin in one shot. *)
          c.closing <- true
      | n ->
          feed_client c n;
          drain_decoder srv c;
          if c.alive && not c.closing then loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          close_client srv c
    in
    loop ()
  end

(* Past this buffered-bytes threshold the pump stops draining a
   subscriber's queue into its buffer, so the bounded queue — not the
   buffer — is where a slow consumer's events pile up and get dropped
   with accounting. *)
let out_limit = 256 * 1024

let drain_subs srv =
  List.iter
    (fun c ->
      match c.sub with
      | Some sub when c.alive && Buffer.length c.outbuf < out_limit ->
          List.iter
            (fun env ->
              Buffer.add_string c.outbuf
                (Transport.encode c.framing
                   (Json.to_string (Rpc.notification ~meth:"stream.event" env))))
            (Stream.drain sub)
      | _ -> ())
    srv.clients

let write_client srv c =
  if c.alive && Buffer.length c.outbuf > 0 then begin
    let s = Buffer.contents c.outbuf in
    match Unix.write_substring c.c_out s 0 (String.length s) with
    | n ->
        Buffer.clear c.outbuf;
        if n < String.length s then
          Buffer.add_substring c.outbuf s n (String.length s - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        close_client srv c
  end

let accept_clients srv =
  match srv.listener with
  | None -> ()
  | Some lfd ->
      let rec loop () =
        match Unix.accept ~cloexec:true lfd with
        | fd, _ ->
            Unix.set_nonblock fd;
            srv.clients <- srv.clients @ [ new_client ~sock:true fd fd ];
            loop ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
      in
      loop ()

let pump srv =
  accept_clients srv;
  List.iter (read_client srv) srv.clients;
  drain_subs srv;
  List.iter (write_client srv) srv.clients;
  List.iter
    (fun c ->
      if c.alive && c.closing && Buffer.length c.outbuf = 0 then
        close_client srv c)
    srv.clients;
  srv.clients <- List.filter (fun c -> c.alive) srv.clients

let wait_readable srv timeout =
  let fds =
    (match srv.listener with Some l -> [ l ] | None -> [])
    @ List.filter_map
        (fun c -> if c.alive && not c.closing then Some c.c_in else None)
        srv.clients
  in
  match Unix.select fds [] [] timeout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let shutdown_server srv =
  List.iter
    (fun c ->
      write_client srv c;
      close_client srv c)
    srv.clients;
  srv.clients <- [];
  (match srv.listener with
  | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
  | None -> ());
  match srv.socket_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ()

let rec linger srv stop =
  let stdio_gone =
    srv.stdio && match srv.clients with [] -> true | _ :: _ -> false
  in
  if not (!stop || Engine.want_shutdown srv.engine || stdio_gone) then begin
    wait_readable srv 0.25;
    pump srv;
    linger srv stop
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let row_of_report (r : Runner.report) =
  ( Runner.policy_name r.Runner.policy,
    Format.asprintf "%a" Runner.pp_report r,
    Runner.json_of_report r )

let serve ~mode ?(metrics_interval = 96) ?(max_queue = 256) ~config ~backbone
    ~policies ~journal_path ~slo ~run_mode () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let engine =
    Engine.create ~metrics_interval ~max_queue ~slo
      ~journal:config.Runner.journal ~journal_path ()
  in
  Engine.install engine;
  let srv = create_server mode engine in
  Engine.set_pump engine (fun () -> pump srv);
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  let on_stop =
    match run_mode with
    | Checkpointed (ctx, _) -> fun () -> Rwc_recover.request_stop ctx
    | Fresh -> fun () -> raise Shutdown
  in
  Engine.set_stop engine ~external_stop:(fun () -> !stop) ~on_stop;
  let config = { config with Runner.hooks = Engine.hooks engine } in
  let print_rows rows =
    (* Stdout is the RPC channel in stdio mode; otherwise the report
       rows print exactly as [rwc simulate] prints them. *)
    match mode with
    | Socket _ -> List.iter (fun (_, pp, _) -> print_endline pp) rows
    | Stdio -> ()
  in
  let completed =
    match run_mode with
    | Fresh -> (
        match
          List.map
            (fun p ->
              let row = row_of_report (Runner.run ~config ~backbone p) in
              Engine.on_policy_done engine row;
              row)
            policies
        with
        | rows ->
            J.close config.Runner.journal;
            print_rows rows;
            true
        | exception Shutdown ->
            J.close config.Runner.journal;
            false)
    | Checkpointed (ctx, resume_from) -> (
        match
          Runner.run_recoverable ~config ~backbone ~ctx ~resume_from ~policies
            ()
        with
        | outcomes ->
            let rows =
              List.map
                (function
                  | Runner.Ran r -> row_of_report r
                  | Runner.Replayed { policy; pp; json } ->
                      ( Runner.policy_name policy,
                        pp,
                        match Json.parse json with
                        | Ok j -> j
                        | Error _ -> Json.Null ))
                outcomes
            in
            List.iter (Engine.on_policy_done engine) rows;
            print_rows rows;
            true
        | exception Rwc_recover.Interrupted ->
            (* run_recoverable cut a final checkpoint and closed the
               journal before raising: this is the clean-stop path. *)
            false)
  in
  Engine.seal engine;
  if completed then linger srv stop;
  (* Best-effort final flush: the seal event, any queued responses. *)
  pump srv;
  shutdown_server srv;
  0

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    dec : Transport.decoder;
    buf : Bytes.t;  (* read buffer, reused by every [recv] *)
    mutable next_id : int;
  }

  let connect path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    {
      fd;
      dec = Transport.decoder Transport.Jsonl;
      buf = Bytes.create read_size;
      next_id = 1;
    }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send t json =
    let s = Transport.encode Transport.Jsonl (Json.to_string json) in
    let n = String.length s in
    let rec go off =
      if off < n then
        match Unix.write_substring t.fd s off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let recv t =
    let rec go () =
      match Transport.next t.dec with
      | Error e -> Error e
      | Ok (Some payload) -> (
          match Json.parse payload with
          | Ok j -> Ok j
          | Error e -> Error ("bad JSON from server: " ^ e))
      | Ok None -> (
          match Unix.read t.fd t.buf 0 read_size with
          | 0 -> Error "connection closed"
          | n ->
              Transport.feed_bytes t.dec t.buf n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    in
    go ()

  let call t ~meth ?params () =
    let id = t.next_id in
    t.next_id <- id + 1;
    send t (Rpc.request ~id:(Json.Int id) ~meth ?params ());
    let rec await () =
      match recv t with
      | Error e -> Error e
      | Ok msg -> (
          match Json.member "id" msg with
          | Some (Json.Int got) when got = id -> (
              match (Json.member "result" msg, Json.member "error" msg) with
              | Some r, _ -> Ok r
              | None, Some e -> Error (Json.to_string e)
              | None, None -> Error "response carries neither result nor error")
          | _ -> await () (* notification or stale response: skip *))
    in
    await ()
end
