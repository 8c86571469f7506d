type t = {
  mutable clock : float;
  mutable dispatched : int;
  queue : (t -> unit) Event_queue.t;
}

let m_dispatched = Rwc_obs.Metrics.counter "des/events_dispatched"
let m_high_water = Rwc_obs.Metrics.gauge "des/queue_high_water"

let create () = { clock = 0.0; dispatched = 0; queue = Event_queue.create () }
let now t = t.clock

let schedule t ~at handler =
  if at < t.clock then invalid_arg "Des.schedule: event in the past";
  Event_queue.add t.queue ~time:at handler;
  Rwc_obs.Metrics.set_max m_high_water (Event_queue.size t.queue)

let schedule_in t ~after handler =
  assert (after >= 0.0);
  schedule t ~at:(t.clock +. after) handler

(* The DES loop phase includes the handlers it dispatches, so nested
   phases (a TE solve fired from an event) overlap it by design. *)
let run t ~until =
  Rwc_perf.record Rwc_perf.Des_drain (fun () ->
      let continue = ref true in
      while !continue do
        match Event_queue.peek_time t.queue with
        | Some time when time <= until ->
            (match Event_queue.pop t.queue with
            | Some (time, handler) ->
                t.clock <- time;
                t.dispatched <- t.dispatched + 1;
                Rwc_obs.Metrics.incr m_dispatched;
                handler t
            | None -> continue := false)
        | Some _ | None -> continue := false
      done;
      t.clock <- until)

let pending t = Event_queue.size t.queue

let dispatched t = t.dispatched
