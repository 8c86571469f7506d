(** JSON-RPC 2.0 core for the serve daemon: request validation,
    response/notification construction and a table-driven dispatcher.

    This layer is pure string/JSON plumbing — no sockets, no state —
    so the full protocol surface (error codes included) is exercised
    by unit tests without a daemon.  Transport framing lives in
    {!Transport}; subscription state lives in {!Stream}. *)

module Json = Rwc_obs.Json

type error_code =
  | Parse_error  (** -32700: the payload is not valid JSON. *)
  | Invalid_request  (** -32600: valid JSON, not a valid request. *)
  | Method_not_found  (** -32601 *)
  | Invalid_params  (** -32602 *)
  | Internal_error  (** -32603 *)

val code : error_code -> int

val response : id:Json.t -> Json.t -> Json.t

val error_response :
  ?data:Json.t -> id:Json.t option -> error_code -> string -> Json.t
(** [id = None] (the request's id could not even be read) serializes
    as [null], per the spec. *)

val notification : meth:string -> Json.t -> Json.t
(** Server-push message: a request without an [id]. *)

val request : id:Json.t -> meth:string -> ?params:Json.t -> unit -> Json.t
(** Client-side constructor. *)

type handler = Json.t option -> (Json.t, error_code * string) result
(** A method implementation: receives the request's [params]. *)

val dispatch : (string * handler) list -> string -> Json.t option
(** Run one raw (unframed) payload through parse → validate → method
    lookup → handler.  A valid request has [jsonrpc] the string
    ["2.0"], [method] a string, [params] (if present) an object or
    array and [id] (if present) a number, string or null.  Returns the response to send — [None] when
    the request was a notification that succeeded or named an unknown
    method (the spec forbids replying to notifications).  A handler
    raising [Invalid_argument] maps to [Invalid_params], [Failure] to
    [Internal_error]; other exceptions propagate to the caller. *)

(** Typed accessors over a request's [params] object.  [req_*] variants
    error with [Invalid_params] when the key is missing. *)
module Params : sig
  val int_opt :
    Json.t option -> string -> (int option, error_code * string) result

  val req_int : Json.t option -> string -> (int, error_code * string) result

  val float_opt :
    Json.t option -> string -> (float option, error_code * string) result

  val string_opt :
    Json.t option -> string -> (string option, error_code * string) result

  val string_list_opt :
    Json.t option -> string -> (string list option, error_code * string) result
end
