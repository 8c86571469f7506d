(** Wire framing for the serve daemon, pluggable per client.

    Two framings are supported on the same listener:

    - {b Jsonl}: one JSON payload per newline-terminated line — the
      journal's own convention, trivially driven from a shell.
    - {b Content_length}: LSP-style [Content-Length: N] header block
      (CRLF-separated, blank-line terminated) followed by exactly [N]
      payload bytes — safe for payloads containing newlines.

    The framing is auto-detected per connection from the first bytes a
    client sends ({!detect}), so [rwc watch], an LSP-style tool and a
    [socat] one-liner can all talk to the same socket.  The decoder is
    purely incremental — feed it arbitrary byte chunks, pull complete
    payloads — and has no I/O of its own, so framing round-trips are
    unit-testable without sockets. *)

type framing = Jsonl | Content_length

val framing_name : framing -> string

val encode : framing -> string -> string
(** Frame one payload for the wire. *)

type decoder

val decoder : framing -> decoder

val feed : decoder -> string -> unit
(** Append received bytes; any chunking is fine, including one byte at
    a time. *)

val feed_bytes : decoder -> Bytes.t -> int -> unit
(** [feed_bytes d buf n] appends the first [n] bytes of [buf] — a
    connection's reused read buffer — without an intermediate string.
    Pulling buffered payloads with {!next} allocates only the payloads:
    the decoder never copies what is still pending. *)

val next : decoder -> (string option, string) result
(** Pull the next complete payload: [Ok None] = need more bytes.
    Errors (malformed or oversized header block) poison the stream —
    the caller should answer with a parse error and drop the client. *)

val detect : string -> framing option
(** Sniff the framing from a connection's first bytes: a payload
    opener ([{] or [[]) is Jsonl, a (case-insensitive) prefix of
    ["Content-Length"] is Content_length once enough bytes have
    arrived to tell, anything else falls back to Jsonl so the JSON
    parser can produce a proper -32700.  [None] = undecidable yet,
    keep accumulating. *)
