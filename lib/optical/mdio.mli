(** MDIO register-file emulation.

    The paper programs modulation changes through the Acacia
    transceiver's MDIO management interface; our {!Bvt} does the same
    against this emulated register file, so the reconfiguration
    procedure is exercised as a register sequence rather than a direct
    function call.  The layout is a simplified CFP-MSA-style map. *)

type t

(* Register addresses. *)

val reg_control : int
(** Control register. Bit 0: laser enable. Bit 1: transmitter enable. *)

val reg_modulation : int
(** Modulation select: 0 = QPSK, 1 = 8QAM, 2 = 16QAM. *)

val reg_commit : int
(** Writing 1 applies the staged modulation; self-clears. *)

val reg_status : int
(** Status. Bit 0: laser on. Bit 1: carrier locked. Bit 2: ready. *)

val create : unit -> t
(** Fresh register file: laser on, QPSK, locked and ready. *)

val read : t -> int -> int
(** Read a 16-bit register.  Raises [Invalid_argument] on an unmapped
    address. *)

val write : t -> int -> int -> unit
(** Write a 16-bit register.  Raises [Invalid_argument] on an unmapped
    or read-only address, or a value outside [0, 0xFFFF]. *)

val access_log : t -> (string * int * int) list
(** All accesses so far, oldest first, as (op, addr, value) with op
    "r" or "w" — lets tests assert the exact programming sequence. *)

(* Bit helpers over the registers above. *)

val laser_enabled : t -> bool
val set_laser : t -> bool -> unit
val staged_modulation : t -> int
val clear_commit : t -> unit
val set_locked : t -> bool -> unit
val locked : t -> bool
