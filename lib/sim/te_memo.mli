(** Exact-match memo of TE solves for one run.

    A run's topology, commodities and epsilon are fixed, and the TE
    solve is a pure function of its input, so a solve is determined by
    the per-duct capacity vector alone.  Capacities move between a few
    modulation rungs and settle there, so most solves repeat an input
    seen shortly before.  The memo keeps the last {!size} distinct
    inputs, most recently used first, with what the runner needs from
    each solve: the routed total and the per-duct flow.  A hit returns
    exactly the stored bits, which are the bits a fresh solve would
    produce.

    Keys and flows are copied in and out, so no caller can change what
    the memo stores. *)

type t

val size : int
(** Most entries held: 8.  A constant, not a knob. *)

val create : unit -> t
(** Empty. *)

val find : t -> int array -> into:float array -> float option
(** [find t key ~into] on a hit writes the stored per-duct flow into
    [into], makes the entry the most recently used and returns the
    stored total.  [None] (and [into] untouched) on a miss. *)

val peek : t -> int array -> float option
(** The stored total for [key], leaving the recency order as it is:
    a read that cannot change what later {!find}s hit. *)

val add : t -> int array -> total:float -> flow:float array -> unit
(** Store a solve of an input the memo does not hold (after a {!find}
    miss) as the most recently used entry, evicting the least recently
    used one beyond {!size}. *)
