(* The storage I/O layer: every durable artifact in the pipeline
   (journal, checkpoints, resume marks, JSON sinks, perf trajectories)
   is written through the [Writer] below, so storage faults and
   crash-point kills can be injected at one choke point and counted
   against one boundary ordinal sequence.

   The layer has three observable modes, all process-global (writers
   are created deep inside the journal/checkpoint code, far from where
   a torture harness or a [--storm] flag decides the mode):

   - real (default): plain buffered writes, fsync on sync/close, and a
     boundary counter that the torture harness reads to enumerate
     kill points;
   - faulting: each flushed chunk and each rename consults an
     {!Rwc_fault} injector for the io_* components and may land short,
     vanish, arrive with a flipped bit, or lose its rename;
   - dead: after an armed kill fires, every writer operation becomes a
     no-op (file descriptors still get closed).  This emulates process
     death at the boundary: unwind code runs, but nothing it does can
     reach the disk, exactly as if the process had been SIGKILLed. *)

type boundary = Write | Sync | Rename

let boundary_name = function
  | Write -> "write"
  | Sync -> "sync"
  | Rename -> "rename"

exception Killed of { ordinal : int; kind : boundary }

type backend = Real | Faulting of Rwc_fault.injector

type state = {
  mutable backend : backend;
  mutable kill_at : int;  (* boundary ordinal to die at; -1 = disarmed *)
  mutable ordinal : int;  (* boundaries crossed since the last [reset] *)
  mutable dead : bool;
  mutable n_writes : int;
  mutable n_syncs : int;
  mutable n_renames : int;
}

let st =
  {
    backend = Real;
    kill_at = -1;
    ordinal = 0;
    dead = false;
    n_writes = 0;
    n_syncs = 0;
    n_renames = 0;
  }

let m_boundaries = Rwc_obs.Metrics.counter "storm/boundaries"

let reset () =
  st.backend <- Real;
  st.kill_at <- -1;
  st.ordinal <- 0;
  st.dead <- false;
  st.n_writes <- 0;
  st.n_syncs <- 0;
  st.n_renames <- 0

let inject inj =
  st.backend <- (if Rwc_fault.armed inj then Faulting inj else Real)

let arm_kill ordinal = st.kill_at <- ordinal
let boundaries () = st.ordinal
let dead () = st.dead

let counts () = (st.n_writes, st.n_syncs, st.n_renames)

(* One boundary crossing.  Returns [Some ordinal] when the armed kill
   fires here: the caller finishes its half-done damage (torn write,
   skipped rename) and raises {!Killed}.  [dead] is set before the
   caller raises, so any cleanup running during the unwind is already
   inert. *)
let cross kind =
  let o = st.ordinal in
  st.ordinal <- o + 1;
  Rwc_obs.Metrics.incr m_boundaries;
  (match kind with
  | Write -> st.n_writes <- st.n_writes + 1
  | Sync -> st.n_syncs <- st.n_syncs + 1
  | Rename -> st.n_renames <- st.n_renames + 1);
  if o = st.kill_at then begin
    st.dead <- true;
    Some o
  end
  else None

(* Storage-fault application for one flushed chunk.  Draws come from
   the io_* components' own substreams; [now] is the boundary ordinal,
   so @START..STOP windows select boundary ranges. *)
let apply_faults chunk =
  match st.backend with
  | Real -> chunk
  | Faulting inj ->
      let now = float_of_int st.ordinal in
      if Rwc_fault.fires inj Rwc_fault.Io_enospc ~now then ""
      else begin
        let chunk =
          if Rwc_fault.fires inj Rwc_fault.Io_short ~now then
            String.sub chunk 0 (String.length chunk / 2)
          else chunk
        in
        if String.length chunk > 0 && Rwc_fault.fires inj Rwc_fault.Io_bitflip ~now
        then begin
          let len = String.length chunk in
          let pos =
            min (len - 1)
              (int_of_float (Rwc_fault.draw inj Rwc_fault.Io_bitflip *. float_of_int len))
          in
          let bit =
            int_of_float (Rwc_fault.draw inj Rwc_fault.Io_bitflip *. 8.0) land 7
          in
          let b = Bytes.of_string chunk in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          Bytes.to_string b
        end
        else chunk
      end

let rename_lost () =
  match st.backend with
  | Real -> false
  | Faulting inj ->
      Rwc_fault.fires inj Rwc_fault.Io_torn_rename
        ~now:(float_of_int st.ordinal)

(* Only a regular file's fsync is checked: EIO or ENOSPC there means
   the bytes may not be on disk, a failed write like a short
   [write(2)].  Devices, pipes and sockets (/dev/null sinks) reject
   fsync with EINVAL, and directories may on some file systems; for
   them it stays best-effort. *)
let sync_strict fd = (Unix.fstat fd).Unix.st_kind = Unix.S_REG

(* A [Sync] boundary, then the fsync itself. *)
let sync_fd fd =
  (match cross Sync with
  | Some ordinal -> raise (Killed { ordinal; kind = Sync })
  | None -> ());
  try Unix.fsync fd
  with Unix.Unix_error (_, _, _) as e -> if sync_strict fd then raise e

module Writer = struct
  type t = {
    path : string;
    mutable fd : Unix.file_descr option;  (* None: dead-mode or closed *)
    buf : Buffer.t;
    mutable logical : int;  (* bytes accepted, regardless of faults *)
    mutable closed : bool;
  }

  (* Auto-flush threshold: large enough that short runs flush only at
     explicit boundaries (keeping torture enumeration small), small
     enough to bound memory on long journals. *)
  let flush_threshold = 1 lsl 18

  let open_fd path flags =
    try Unix.openfile path flags 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))

  let make path flags =
    if st.dead then
      { path; fd = None; buf = Buffer.create 16; logical = 0; closed = false }
    else
      {
        path;
        fd = Some (open_fd path flags);
        buf = Buffer.create 4096;
        logical = 0;
        closed = false;
      }

  let create path = make path Unix.[ O_WRONLY; O_CREAT; O_TRUNC ]

  let append path =
    let t = make path Unix.[ O_WRONLY; O_CREAT; O_APPEND ] in
    (match t.fd with
    | Some fd -> t.logical <- (Unix.fstat fd).Unix.st_size
    | None -> ());
    t

  let path t = t.path
  let logical_bytes t = t.logical

  let really_write fd s =
    let n = String.length s in
    let rec go off =
      if off < n then
        let k = Unix.write_substring fd s off (n - off) in
        go (off + k)
    in
    go 0

  (* One non-empty flushed chunk: a [Write] boundary, and the unit of
     fault application. *)
  let write_chunk t chunk =
    match t.fd with
    | None -> ()
    | Some fd ->
        if not st.dead then begin
          match cross Write with
          | Some ordinal ->
              (* Die mid-flush: the first half of the chunk reaches
                 the disk, the rest never does — the torn journal tail
                 or checkpoint slot fsck must be able to repair. *)
              really_write fd (String.sub chunk 0 (String.length chunk / 2));
              raise (Killed { ordinal; kind = Write })
          | None -> really_write fd (apply_faults chunk)
        end

  let flush t =
    if Buffer.length t.buf > 0 then begin
      let chunk = Buffer.contents t.buf in
      Buffer.clear t.buf;
      write_chunk t chunk
    end

  (* [write] then [flush] without copying [s] through the buffer. *)
  let write_flush t s =
    flush t;
    t.logical <- t.logical + String.length s;
    if s <> "" then write_chunk t s

  let write t s =
    t.logical <- t.logical + String.length s;
    Buffer.add_string t.buf s;
    if Buffer.length t.buf >= flush_threshold then flush t

  let sync t =
    flush t;
    match t.fd with
    | None -> ()
    | Some fd -> if not st.dead then sync_fd fd

  let close t =
    if not t.closed then
      Fun.protect
        ~finally:(fun () ->
          t.closed <- true;
          match t.fd with
          | None -> ()
          | Some fd ->
              t.fd <- None;
              (try Unix.close fd with Unix.Unix_error (_, _, _) -> ()))
        (fun () -> sync t)
end

let rename ~src ~dst =
  if not st.dead then begin
    (match cross Rename with
    | Some ordinal ->
        (* Die before the rename commits: [src] (the temp file) stays
           behind as the orphan the checkpoint-directory sweep and
           fsck must clean up. *)
        raise (Killed { ordinal; kind = Rename })
    | None -> ());
    if rename_lost () then () else Sys.rename src dst
  end

let remove path =
  if not st.dead then try Sys.remove path with Sys_error _ -> ()

(* Write [content] through [w] and close it.  A kill inside
   write/close has already set dead-mode, so the second close on the
   way out is a pure fd release. *)
let write_all w content =
  try
    Writer.write_flush w content;
    Writer.close w
  with e ->
    (try Writer.close w with _ -> ());
    raise e

(* The directory entry a rename made is durable only once the
   directory itself is fsynced. *)
let sync_dir dir =
  if not st.dead then begin
    let fd = Writer.open_fd dir Unix.[ O_RDONLY; O_CLOEXEC ] in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () -> sync_fd fd)
  end

let atomic_write path content =
  let tmp = path ^ ".tmp" in
  write_all (Writer.create tmp) content;
  rename ~src:tmp ~dst:path;
  sync_dir (Filename.dirname path)

(* In-place (no tmp+rename): callers pass device paths such as
   /dev/null, which a rename would replace with a regular file. *)
let write_file path content = write_all (Writer.create path) content

(* No O_TRUNC: bytes past [content] stay, and a file already at least
   this long keeps its size and blocks, so the fsync commits data
   only. *)
let overwrite path content =
  write_all (Writer.make path Unix.[ O_WRONLY; O_CREAT ]) content

let plan_of_string s =
  match Rwc_fault.of_string s with
  | Error _ as e -> e
  | Ok plan -> (
      match
        List.find_opt
          (fun r -> not (Rwc_fault.is_io r.Rwc_fault.component))
          plan.Rwc_fault.rules
      with
      | None -> Ok plan
      | Some r ->
          Error
            (Printf.sprintf
               "%s is not a storage fault (storm plans may only use: %s)"
               (Rwc_fault.component_name r.Rwc_fault.component)
               (String.concat ", "
                  (List.map Rwc_fault.component_name Rwc_fault.io_components))))

(* Route the lib/obs JSON sinks (metrics, traces, manifests, perf
   trajectories) through this layer.  Runs once at link time in any
   binary that links rwc_storm. *)
let () = Rwc_obs.Json.set_file_writer write_file
