let db_of_linear x =
  assert (x > 0.0);
  10.0 *. log10 x

let linear_of_db x = 10.0 ** (x /. 10.0)

let dbm_of_mw mw = db_of_linear mw
let mw_of_dbm dbm = linear_of_db dbm

let add_powers_dbm a b = dbm_of_mw (mw_of_dbm a +. mw_of_dbm b)
