(** The serve daemon's in-memory journal index: where every journal
    line starts, which lines belong to which link, and where each run
    segment begins — offsets and ints, never decoded records.

    It is fed once per record, in file order: by a scan of the file's
    existing contents when the daemon attaches (a resumed run's
    retained prefix), then by the journal tee as each record is
    written.  Ordinals count the file's non-blank lines, malformed ones
    included (they take an ordinal and join no link or segment), which
    is the numbering {!Rwc_journal.events_emitted} and the tee's [seq]
    follow.

    Cost: one word per record for its offset and one in its link's
    ordinal list, each vector grown by a quarter, so at most 2.5 words
    per record plus a constant per distinct link and per segment. *)

type run = { policy : string; horizon_s : float; n_links : int }
(** A segment's {!Rwc_journal.Run_start} header fields. *)

type segment = {
  first : int;  (** Ordinal of the segment's first record. *)
  offset : int;  (** Byte offset of that record's line. *)
  run : run option;
      (** [None] for records before the first header (a headerless
          file's leading segment), as {!Rwc_journal.segments} splits. *)
}

type t

val create : unit -> t

val add : t -> offset:int -> Rwc_journal.record option -> unit
(** Index the next line: it starts at byte [offset] and decodes to the
    record ([None] for a malformed line).  A {!Rwc_journal.Run_start}
    opens a segment; so does the first record of a file that has no
    header yet. *)

val length : t -> int
(** Lines indexed so far. *)

val offset : t -> int -> int
(** First byte of ordinal [i]'s line. *)

val ordinal : t -> offset:int -> int option
(** The ordinal of the line starting at [offset], if one does. *)

val segments : t -> int
val segment : t -> int -> segment

val link_tail : t -> link:int -> int -> limit:int -> int * int list
(** [link_tail t ~link i ~limit] is the number of [link]'s records in
    segment [i] and the ordinals of the last [limit] of them, in file
    order.  O(log n + limit). *)

val lines : t -> string -> int list -> (string list, string) result
(** The lines of the given ordinals, without their newline, read from
    the journal at [path]: one seek and (for lines under the scratch
    buffer's size) one read each.  The file must hold every indexed
    line — flush the writer first. *)
