type t = {
  regs : (int, int) Hashtbl.t;
  mutable log_rev : (string * int * int) list;
}

let reg_control = 0x8000
let reg_modulation = 0x8010
let reg_commit = 0x8012
let reg_status = 0x8020

let mapped = [ reg_control; reg_modulation; reg_commit; reg_status ]
let read_only = [ reg_status ]

let create () =
  let regs = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace regs a 0) mapped;
  Hashtbl.replace regs reg_control 0b11;
  (* laser on, locked, ready *)
  Hashtbl.replace regs reg_status 0b111;
  { regs; log_rev = [] }

let check_mapped addr =
  if not (List.mem addr mapped) then
    invalid_arg (Printf.sprintf "Mdio: unmapped register 0x%04x" addr)

let read t addr =
  check_mapped addr;
  let v = Hashtbl.find t.regs addr in
  t.log_rev <- ("r", addr, v) :: t.log_rev;
  v

let write t addr v =
  check_mapped addr;
  if List.mem addr read_only then
    invalid_arg (Printf.sprintf "Mdio: register 0x%04x is read-only" addr);
  if v < 0 || v > 0xFFFF then invalid_arg "Mdio: value out of 16-bit range";
  Hashtbl.replace t.regs addr v;
  t.log_rev <- ("w", addr, v) :: t.log_rev

let access_log t = List.rev t.log_rev

(* Internal (unlogged) status update used by the device model. *)
let poke_status t f =
  Hashtbl.replace t.regs reg_status (f (Hashtbl.find t.regs reg_status))

let laser_enabled t = Hashtbl.find t.regs reg_control land 1 = 1

let set_laser t on =
  let c = Hashtbl.find t.regs reg_control in
  let c = if on then c lor 1 else c land lnot 1 in
  t.log_rev <- ("w", reg_control, c) :: t.log_rev;
  Hashtbl.replace t.regs reg_control c;
  (* Laser state reflects into status bit 0. *)
  poke_status t (fun s -> if on then s lor 1 else s land lnot 1)

let staged_modulation t = Hashtbl.find t.regs reg_modulation
let clear_commit t = Hashtbl.replace t.regs reg_commit 0
let set_locked t v = poke_status t (fun s -> if v then s lor 2 else s land lnot 2)
let locked t = Hashtbl.find t.regs reg_status land 2 = 2
