(** Executable dataflow systems as PROPANE targets.

    The paper's system model (Section 3) is a network of black boxes
    exchanging signals.  This library turns such a description directly
    into a runnable {!Propane.Sut.t}: give each block a transfer
    function, a period and a phase, wire blocks by naming signals, and
    the library derives the {!Propagation.System_model}, builds the
    trap-instrumented signal store, schedules the blocks, and drives
    system inputs from stimulus functions.

    Use it to prototype propagation studies of systems that do not have
    (or need) a physical environment — the executable twin of the
    five-module example of Figs. 2-5 lives in {!Fig2_system} and is
    built entirely from this module. *)

type block

val block :
  name:string ->
  ?period_ms:int ->
  ?offset_ms:int ->
  ?tag:string ->
  inputs:Propagation.Signal.t list ->
  outputs:Propagation.Signal.t list ->
  (unit -> int array -> int array) ->
  block
(** [block ~name ~inputs ~outputs factory] describes a software module.
    The block executes every [period_ms] (default 1) starting at
    [offset_ms] (default 0).  [factory] is invoked once per run and
    must return a transfer function mapping the current input values
    (in port order) to the output values (in port order) — keep any
    block state inside the closure so runs stay independent.  The input
    array is valid only during the call: the builder refills the same
    array before every call, so the function must not keep it (it may
    return it, or copy what it needs).  A transfer function returning
    the wrong number of outputs fails the run with [Invalid_argument].

    [tag] (default [""]) feeds the block's content digest
    ({!Propane.Sut.digests}) alongside the wiring and schedule: the
    digest is what cell-level campaign reuse ({!Propane.Cell}) keys
    cached estimates on, and the transfer closure itself cannot be
    hashed — so change the tag whenever the transfer function's
    behaviour changes, and cached cells that observed the block are
    invalidated exactly then.

    @raise Invalid_argument on an empty name, no inputs/outputs, a
    duplicate input or output port, a non-positive period or a negative
    offset. *)

type stimulus = {
  signal : Propagation.Signal.t;
  drive : unit -> int -> int;
      (** per-run factory; the resulting function maps the millisecond
          index to the system-input value written at the {e start} of
          that millisecond *)
}

val stimulus :
  Propagation.Signal.t -> (unit -> int -> int) -> stimulus

val ramp : ?slope:int -> Propagation.Signal.t -> stimulus
(** [value(ms) = slope * ms], truncated to the signal width. *)

val constant : int -> Propagation.Signal.t -> stimulus

type plant
(** A stateful environment model closing the loop: every millisecond,
    {e before} the blocks execute, the plant reads the values its
    [reads] signals held at the end of the previous millisecond (the
    actuator commands) and produces fresh values for its [writes]
    signals (the sensor readings).  The [writes] become system inputs
    of the derived model; the [reads] must be produced by blocks and
    are marked system outputs.

    Reads go through the trap layer (a corrupted actuator command is
    what the physical plant acts on) and writes are raw register
    refreshes (clobbering injected sensor corruption, like the
    arrestment system's A/D conversion). *)

val plant :
  name:string ->
  reads:Propagation.Signal.t list ->
  writes:Propagation.Signal.t list ->
  (unit -> int array -> int array) ->
  plant
(** [plant ~name ~reads ~writes factory]: the per-run transfer function
    maps the read values to the written values, keeping physics state
    in its closure.  As for {!block}, the array of read values is valid
    only during the call and must not be kept.
    @raise Invalid_argument on an empty name or no writes. *)

type t

val create :
  ?name:string ->
  ?width:int ->
  ?duration_ms:int ->
  ?plants:plant list ->
  blocks:block list ->
  stimuli:stimulus list ->
  unit ->
  (t, string) result
(** Assembles the system.  All signals share one [width] (default 16).
    The derived model takes the stimulus and plant-written signals as
    system inputs, and as system outputs every signal no block consumes
    plus every plant-read signal.  Validation errors (unknown stimulus
    signals, unwired inputs, duplicate producers, plant reads nobody
    produces, ...) are reported as [Error].  [duration_ms] (default
    1000) is the natural run length reported through
    {!Propane.Sut.instance.finished}. *)

val create_exn :
  ?name:string ->
  ?width:int ->
  ?duration_ms:int ->
  ?plants:plant list ->
  blocks:block list ->
  stimuli:stimulus list ->
  unit ->
  t

val model : t -> Propagation.System_model.t
val sut : ?fault:Propane.Fault.spec -> t -> Propane.Sut.t
(** [fault] wraps the SUT in a {!Propane.Fault} chaos harness (crash /
    hang after injection); omitted, the SUT is returned as built. *)

val injection_targets : t -> string list
(** All distinct block-input signals, the natural campaign targets. *)

val synthetic :
  ?width:int ->
  ?duration_ms:int ->
  modules:int ->
  fan_in:int ->
  fan_out:int ->
  feedback:int ->
  seed:int64 ->
  unit ->
  t
(** A deterministic, randomly wired, layered system for scale studies
    and service benchmarks.  [modules] blocks are generated in layers:
    block [i] consumes [fan_in] distinct signals drawn from the
    stimuli and the outputs of blocks [0..i-1], and produces [fan_out]
    fresh signals; [feedback] extra edges make earlier blocks also
    consume later blocks' outputs (the final block excepted, so the
    system keeps outputs).  Stimuli are [fan_in] ramps with
    seed-drawn slopes and phases.  All wiring, schedules (periods
    drawn from 1/2/4 ms) and transfer constants derive from [seed]
    via {!Simkernel.Rng} (SplitMix64), and block tags embed the seed —
    the same seed always yields a bit-identical system, and different
    seeds yield differently tagged cells.  [duration_ms] defaults to
    200 (synthetic systems are for throughput, not physics).

    @raise Invalid_argument unless [modules >= 1], [fan_in >= 1],
    [fan_out >= 1] and [feedback >= 0]. *)
