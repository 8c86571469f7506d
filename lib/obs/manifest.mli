(** Structured run manifests.

    Every artifact-producing command can drop a [manifest.json] next
    to its CSV output recording what produced it: the tool version, the
    exact command line, the seed, the effective configuration, any
    per-policy/per-figure result summaries, and a snapshot of the
    metric registry.  The paper's measurement study lives and dies by
    provenance (2.5 years of polls, per-link reproducibility from a
    seed); this is the reproduction's equivalent. *)

type t = {
  version : string;  (** git-describe-ish tool version. *)
  command : string;  (** Subcommand that ran, e.g. ["simulate"]. *)
  argv : string list;  (** Full command line as invoked. *)
  seed : int option;
  config : (string * Json.t) list;  (** Effective configuration. *)
  reports : (string * Json.t) list;  (** Result summaries by name. *)
  metrics : Json.t;  (** {!Metrics.to_json} snapshot (or [Null]). *)
}

val make :
  ?version:string ->
  ?argv:string list ->
  ?seed:int ->
  ?config:(string * Json.t) list ->
  ?reports:(string * Json.t) list ->
  ?metrics:Json.t ->
  command:string ->
  unit ->
  t
(** [version] defaults to [$RWC_VERSION] if set, else ["rwc-" ^ git
    describe --always --dirty] when inside a git checkout, else
    ["rwc-dev"]; [argv] defaults to [Sys.argv]; [metrics] defaults to
    [Json.Null]. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; missing optional fields get defaults, a
    non-object or missing mandatory field is an error. *)

val write : string -> t -> unit
(** Pretty-printed JSON at [path]. *)

val load : string -> (t, string) result
(** Read and parse a manifest file. *)
