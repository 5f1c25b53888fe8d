module Store = Propane.Signal_store

type t = {
  set_value : Store.handle;
  in_value : Store.handle;
  out_value : Store.handle;
  mutable integ : int;
}

let name = Propagation.Signal.name

let create store =
  {
    set_value = Store.handle store (name Signals.set_value);
    in_value = Store.handle store (name Signals.in_value);
    out_value = Store.handle store (name Signals.out_value);
    integ = 0;
  }

let clamp lo hi v = max lo (min hi v)

let step t =
  let sv = Store.read_handle t.set_value in
  let iv = Store.read_handle t.in_value in
  let err = sv - iv in
  t.integ <-
    clamp (-Params.integrator_limit) Params.integrator_limit (t.integ + err);
  let out =
    sv
    + (Params.kp_num * err / Params.kp_den)
    + (Params.ki_num * t.integ / Params.ki_den)
  in
  Store.write_handle t.out_value (clamp 0 Params.pressure_full_scale out)

let descriptor =
  Propagation.Sw_module.make ~name:"V_REG"
    ~inputs:[ Signals.set_value; Signals.in_value ]
    ~outputs:[ Signals.out_value ]

type state = int

let save t = t.integ
let restore t integ = t.integ <- integ
let matches t integ = t.integ = integ
