module Store = Propane.Signal_store

type t = {
  physics : Physics.t;
  tcnt : Store.handle;
  tic1 : Store.handle;
  pacnt : Store.handle;
  adc : Store.handle;
  toc2 : Store.handle;
  mutable prev_pulses : int;
  mutable latch_pending : bool;  (* a pulse arrived in the previous ms *)
  mutable elapsed_ms : int;
  mutable rest_ms : int;  (* consecutive ms at rest *)
}

let name = Propagation.Signal.name

let create store ~mass_kg ~velocity_mps =
  {
    physics = Physics.create ~mass_kg ~velocity_mps;
    tcnt = Store.handle store (name Signals.tcnt);
    tic1 = Store.handle store (name Signals.tic1);
    pacnt = Store.handle store (name Signals.pacnt);
    adc = Store.handle store (name Signals.adc);
    toc2 = Store.handle store (name Signals.toc2);
    prev_pulses = 0;
    latch_pending = false;
    elapsed_ms = 0;
    rest_ms = 0;
  }

let physics t = t.physics

let pre_step t =
  (* The free-running timer and the pulse counter are hardware counters:
     they accumulate on top of whatever the register holds, so injected
     corruption is carried along rather than overwritten. *)
  Store.poke_handle t.tcnt
    (Store.peek_handle t.tcnt + Params.tcnt_ticks_per_ms);
  (* Input capture: TIC1 latches the timer at each pulse.  On the 1 ms
     grid the latch becomes visible at the start of the millisecond
     following the pulse (capture latency). *)
  if t.latch_pending then Store.poke_handle t.tic1 (Store.peek_handle t.tcnt);
  let pulses = Physics.total_pulses t.physics in
  let delta = pulses - t.prev_pulses in
  if delta > 0 then
    Store.poke_handle t.pacnt (Store.peek_handle t.pacnt + delta);
  t.latch_pending <- delta > 0;
  t.prev_pulses <- pulses

let convert_adc t =
  (* A full register write: the conversion result replaces the cell
     content, clobbering any injected corruption (see Signal_store). *)
  Store.poke_handle t.adc (Physics.applied_pressure t.physics)

let post_step t =
  let toc2 = Store.read_handle t.toc2 in
  let commanded_pressure = toc2 lsl Params.toc2_shift in
  Physics.step_ms t.physics ~commanded_pressure;
  t.elapsed_ms <- t.elapsed_ms + 1;
  if Physics.at_rest t.physics then t.rest_ms <- t.rest_ms + 1
  else t.rest_ms <- 0

let elapsed_ms t = t.elapsed_ms

let finished t =
  t.rest_ms >= Params.finished_hold_ms || Physics.overrun t.physics

type state = {
  s_physics : Physics.state;
  s_prev_pulses : int;
  s_latch_pending : bool;
  s_elapsed_ms : int;
  s_rest_ms : int;
}

let save t =
  {
    s_physics = Physics.save t.physics;
    s_prev_pulses = t.prev_pulses;
    s_latch_pending = t.latch_pending;
    s_elapsed_ms = t.elapsed_ms;
    s_rest_ms = t.rest_ms;
  }

let restore t s =
  Physics.restore t.physics s.s_physics;
  t.prev_pulses <- s.s_prev_pulses;
  t.latch_pending <- s.s_latch_pending;
  t.elapsed_ms <- s.s_elapsed_ms;
  t.rest_ms <- s.s_rest_ms
