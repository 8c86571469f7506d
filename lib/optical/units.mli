(** Decibel arithmetic and optical unit conversions.

    SNR, launch power and span loss in the paper are all stated in dB;
    noise accumulation happens in linear units.  Keeping the conversions
    in one place avoids the classic dB-vs-linear mixups. *)

val db_of_linear : float -> float
(** [10 * log10 x]; requires [x > 0]. *)

val linear_of_db : float -> float
(** [10 ** (x / 10)]. *)

val add_powers_dbm : float -> float -> float
(** Sum of two powers expressed in dBm (converts to mW, adds, converts
    back) — used when accumulating amplifier noise along a fiber. *)
