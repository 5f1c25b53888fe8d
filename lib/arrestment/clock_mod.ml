module Store = Propane.Signal_store

type t = {
  mutable ms : int;
  slot : Store.handle;
  mscnt : Store.handle;
}

let name = Propagation.Signal.name

let create store =
  {
    ms = 0;
    slot = Store.handle store (name Signals.ms_slot_nbr);
    mscnt = Store.handle store (name Signals.mscnt);
  }

let step t =
  let slot = Store.read_handle t.slot in
  Store.write_handle t.slot ((slot + 1) mod 7);
  t.ms <- (t.ms + 1) land 0xFFFF;
  Store.write_handle t.mscnt t.ms

let descriptor =
  Propagation.Sw_module.make ~name:"CLOCK"
    ~inputs:[ Signals.ms_slot_nbr ]
    ~outputs:[ Signals.mscnt; Signals.ms_slot_nbr ]

type state = int

let save t = t.ms
let restore t ms = t.ms <- ms
let matches t ms = t.ms = ms
