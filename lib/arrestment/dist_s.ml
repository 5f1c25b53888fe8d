module Store = Propane.Signal_store

(* Cross-validated pulse counting.  The module fuses all three sensor
   registers: PACNT deltas are plausibility-checked against the
   input-capture gap (TCNT - TIC1) before being accumulated into
   pulscnt, the gap drives the slow-speed condition, and a sliding
   window of raw deltas backs it up.  The fusion is what gives every
   input a propagation path into pulscnt and slow_speed (cf. the
   non-zero structure of the paper's Table 4), while the stopped flag
   is computed from pulse *presence* over a long horizon and therefore
   cannot be forced by any single value error (paper OB2). *)

let window_ms = 32
let glitch_gap_ticks = 2_500
let max_pulses_per_ms = 3

type t = {
  pacnt : Store.handle;
  tic1 : Store.handle;
  tcnt : Store.handle;
  pulscnt : Store.handle;
  slow_speed : Store.handle;
  stopped : Store.handle;
  mutable prev_pacnt : int;
  mutable total : int;
  mutable no_pulse_ms : int;
  mutable saw_pulse : bool;
  mutable slow_ms : int;  (* consecutive ms a slow condition held *)
  window : int array;  (* ring of the last [window_ms] raw deltas *)
  mutable window_pos : int;
  mutable window_sum : int;
}

let name = Propagation.Signal.name

let create store =
  {
    pacnt = Store.handle store (name Signals.pacnt);
    tic1 = Store.handle store (name Signals.tic1);
    tcnt = Store.handle store (name Signals.tcnt);
    pulscnt = Store.handle store (name Signals.pulscnt);
    slow_speed = Store.handle store (name Signals.slow_speed);
    stopped = Store.handle store (name Signals.stopped);
    prev_pacnt = 0;
    total = 0;
    no_pulse_ms = 0;
    saw_pulse = false;
    slow_ms = 0;
    window = Array.make window_ms 0;
    window_pos = 0;
    window_sum = 0;
  }

let mask16 = 0xFFFF

(* Counter deltas are interpreted as signed 16-bit quantities. *)
let sign_extend_16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

let step t =
  let pacnt = Store.read_handle t.pacnt in
  let tic1 = Store.read_handle t.tic1 in
  let tcnt = Store.read_handle t.tcnt in
  let delta = sign_extend_16 ((pacnt - t.prev_pacnt) land mask16) in
  t.prev_pacnt <- pacnt;
  let gap = (tcnt - tic1) land mask16 in
  (* A pulse delta is only trusted when the capture gap confirms that
     pulses are actually arriving at a compatible rate. *)
  let accepted =
    if delta <= 0 then 0
    else if gap > glitch_gap_ticks then 0
    else min delta max_pulses_per_ms
  in
  t.total <- (t.total + accepted) land mask16;
  Store.write_handle t.pulscnt t.total;
  t.window_sum <- t.window_sum - t.window.(t.window_pos) + delta;
  t.window.(t.window_pos) <- delta;
  t.window_pos <- (t.window_pos + 1) mod window_ms;
  if delta > 0 then begin
    t.saw_pulse <- true;
    t.no_pulse_ms <- 0
  end
  else t.no_pulse_ms <- t.no_pulse_ms + 1;
  let slow_now =
    t.saw_pulse && (gap > Params.slow_speed_gap_ticks || t.window_sum <= 0)
  in
  if slow_now then t.slow_ms <- t.slow_ms + 1 else t.slow_ms <- 0;
  let slow = t.slow_ms > Params.slow_speed_debounce_ms in
  Store.write_handle t.slow_speed (if slow then 1 else 0);
  let stopped = t.saw_pulse && t.no_pulse_ms >= Params.stopped_debounce_ms in
  Store.write_handle t.stopped (if stopped then 1 else 0)

let descriptor =
  Propagation.Sw_module.make ~name:"DIST_S"
    ~inputs:[ Signals.pacnt; Signals.tic1; Signals.tcnt ]
    ~outputs:[ Signals.pulscnt; Signals.slow_speed; Signals.stopped ]

type state = {
  s_prev_pacnt : int;
  s_total : int;
  s_no_pulse_ms : int;
  s_saw_pulse : bool;
  s_slow_ms : int;
  s_window : int array;  (* a copy, never the live ring *)
  s_window_pos : int;
  s_window_sum : int;
}

let save t =
  {
    s_prev_pacnt = t.prev_pacnt;
    s_total = t.total;
    s_no_pulse_ms = t.no_pulse_ms;
    s_saw_pulse = t.saw_pulse;
    s_slow_ms = t.slow_ms;
    s_window = Array.copy t.window;
    s_window_pos = t.window_pos;
    s_window_sum = t.window_sum;
  }

let restore t s =
  t.prev_pacnt <- s.s_prev_pacnt;
  t.total <- s.s_total;
  t.no_pulse_ms <- s.s_no_pulse_ms;
  t.saw_pulse <- s.s_saw_pulse;
  t.slow_ms <- s.s_slow_ms;
  Array.blit s.s_window 0 t.window 0 window_ms;
  t.window_pos <- s.s_window_pos;
  t.window_sum <- s.s_window_sum

let matches t s =
  t.prev_pacnt = s.s_prev_pacnt
  && t.total = s.s_total
  && t.no_pulse_ms = s.s_no_pulse_ms
  && Bool.equal t.saw_pulse s.s_saw_pulse
  && t.slow_ms = s.s_slow_ms
  && t.window_pos = s.s_window_pos
  && t.window_sum = s.s_window_sum
  &&
  let i = ref 0 in
  while !i < window_ms && t.window.(!i) = s.s_window.(!i) do
    incr i
  done;
  !i = window_ms
