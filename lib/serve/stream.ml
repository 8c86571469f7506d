module Json = Rwc_obs.Json
module Obs_metrics = Rwc_obs.Metrics

type topic = Decision | Metrics | Slo | Lifecycle

let all_topics = [ Decision; Metrics; Slo; Lifecycle ]

let topic_name = function
  | Decision -> "decision"
  | Metrics -> "metrics"
  | Slo -> "slo"
  | Lifecycle -> "lifecycle"

let topic_of_name = function
  | "decision" -> Some Decision
  | "metrics" -> Some Metrics
  | "slo" -> Some Slo
  | "lifecycle" -> Some Lifecycle
  | _ -> None

let topic_index = function Decision -> 0 | Metrics -> 1 | Slo -> 2 | Lifecycle -> 3

let m_dropped = Obs_metrics.counter "serve/dropped_events"

type subscriber = {
  sub_id : int;
  topics : topic list;
  max_queue : int;
  queue : Json.t Queue.t;
  mutable sub_dropped : int;
}

type hub = {
  mutable subs : subscriber list;
  mutable next_id : int;
  mutable n_published : int;
  mutable n_dropped : int;
  seqs : int array;  (* per-topic counters for hub-originated events *)
}

let hub () =
  { subs = []; next_id = 1; n_published = 0; n_dropped = 0; seqs = Array.make 4 0 }

let subscribe h ?(max_queue = 256) ~topics () =
  let s =
    {
      sub_id = h.next_id;
      topics;
      max_queue = max 1 max_queue;
      queue = Queue.create ();
      sub_dropped = 0;
    }
  in
  h.next_id <- h.next_id + 1;
  h.subs <- h.subs @ [ s ];
  s

let unsubscribe h s = h.subs <- List.filter (fun x -> x.sub_id <> s.sub_id) h.subs

let envelope ~topic ~seq data =
  Json.Assoc
    [
      ("topic", Json.String (topic_name topic));
      ("seq", Json.Int seq);
      ("data", data);
    ]

let offer h s ~topic ~seq data =
  if List.mem topic s.topics then begin
    if Queue.length s.queue >= s.max_queue then begin
      (* Drop-newest: queued history survives, the subscriber sees the
         seq gap and can re-subscribe from its high-water mark. *)
      s.sub_dropped <- s.sub_dropped + 1;
      h.n_dropped <- h.n_dropped + 1;
      Obs_metrics.incr m_dropped
    end
    else Queue.push (envelope ~topic ~seq data) s.queue
  end

let publish h ~topic ~seq data =
  h.n_published <- h.n_published + 1;
  List.iter (fun s -> offer h s ~topic ~seq data) h.subs

let push_direct s ~topic ~seq data =
  (* Catch-up replay: a one-shot burst already bounded by the journal's
     length, exempt from the live-queue cap — dropping it would discard
     the very history the subscriber asked for. *)
  if List.mem topic s.topics then Queue.push (envelope ~topic ~seq data) s.queue

let next_seq h topic =
  let i = topic_index topic in
  let v = h.seqs.(i) in
  h.seqs.(i) <- v + 1;
  v

let drain s =
  let out = List.of_seq (Queue.to_seq s.queue) in
  Queue.clear s.queue;
  out

let pending s = Queue.length s.queue
let dropped s = s.sub_dropped
let subscriber_id s = s.sub_id
let subscribers h = List.length h.subs
let published h = h.n_published
let total_dropped h = h.n_dropped
