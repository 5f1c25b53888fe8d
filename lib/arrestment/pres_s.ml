module Store = Propane.Signal_store

type t = {
  start_conversion : unit -> unit;
  adc : Store.handle;
  in_value : Store.handle;
  mutable last : int;
  mutable have_last : bool;
  mutable rejected_once : bool;
}

let name = Propagation.Signal.name

let create store ~start_conversion =
  {
    start_conversion;
    adc = Store.handle store (name Signals.adc);
    in_value = Store.handle store (name Signals.in_value);
    last = 0;
    have_last = false;
    rejected_once = false;
  }

let step t =
  t.start_conversion ();
  let raw = Store.read_handle t.adc in
  let value =
    if
      t.have_last
      && abs (raw - t.last) > Params.pres_spike_limit
      && not t.rejected_once
    then begin
      (* One-shot spike rejection: hold the previous conditioned value;
         a second consecutive out-of-band sample is accepted as a real
         step change. *)
      t.rejected_once <- true;
      t.last
    end
    else begin
      t.rejected_once <- false;
      raw
    end
  in
  t.last <- value;
  t.have_last <- true;
  Store.write_handle t.in_value value

let descriptor =
  Propagation.Sw_module.make ~name:"PRES_S" ~inputs:[ Signals.adc ]
    ~outputs:[ Signals.in_value ]

type state = { s_last : int; s_have_last : bool; s_rejected_once : bool }

let save t =
  {
    s_last = t.last;
    s_have_last = t.have_last;
    s_rejected_once = t.rejected_once;
  }

let restore t s =
  t.last <- s.s_last;
  t.have_last <- s.s_have_last;
  t.rejected_once <- s.s_rejected_once
