(** The system-under-test interface.

    PROPANE instruments a target with "high-level software traps" for
    logging and injection (Section 7.3).  In this reproduction a target
    plugs into the tool by implementing this record: the runner creates
    one fresh instance per run, steps it millisecond by millisecond,
    reads every observable signal after each step, and writes corrupted
    values into signals to inject errors.

    Writing into a signal corrupts the stored value exactly like
    PROPANE's trap-based injection: consumers see the corrupted value
    until the producer next overwrites it. *)

type state = ..
(** An instance's saved execution state.  Each SUT extends the type
    with a private constructor of its own, so no other SUT (and no
    generic code) can read, build or mistake it for another's. *)

type state_hook = {
  save : unit -> state;
      (** a copy of everything the instance's future behaviour depends
          on; the result must share no mutable structure with the
          instance, since it outlives it and is restored into other
          instances, possibly concurrently from several domains *)
  restore : state -> unit;
      (** overwrite this instance's state with a saved one; the saved
          value itself is never mutated (copy out of it, never alias
          it).  @raise Invalid_argument for another SUT's state *)
}
(** Save and restore of an instance's state: the contract that lets
    the runner start an injection run at its first fire instead of at
    millisecond 0.

    {b Contract.}  Let [a] be an instance that took [k] {!instance.step}s
    from instantiation with no injection and no [write], and [b] a
    fresh instance of the same SUT and test case.  After
    [b.restore (a.save ())], stepping, sampling, [read], [inject] and
    [finished] on [b] must behave exactly as they would on [a] from
    then on.  [save] therefore captures every piece of mutable state:
    signal values, module-internal variables, the environment and
    physics, the scheduler's position, and any internal random
    generator.  [restore] is called at most once, right after
    instantiation, and only with a state saved from the same test
    case's golden run.

    A wrapper that builds instances with [{ inner with step; ... }]
    inherits its inner instance's hook: restore then rewinds the inner
    state while the wrapper's own per-run state stays fresh.  That is
    only right when the wrapper's behaviour depends on nothing that
    happened before the run's first injection ({!Fault}, for example,
    arms on [inject]).  A wrapper whose behaviour depends on the
    number of steps (or anything else) since instantiation must set
    [state_hook = None]. *)

type instance = {
  read : string -> int;
      (** raw current value of a signal (tracing; never fires traps);
          must accept every name in the SUT's signal list *)
  write : string -> int -> unit;
      (** overwrite a signal's stored value directly (test setup) *)
  inject : string -> (int -> int) -> unit;
      (** register a one-shot corruption applied at the signal's trap
          point, i.e. the next time the software reads it (see
          {!Signal_store.inject}); this is what campaigns use *)
  step : unit -> unit;  (** advance the system by one millisecond *)
  finished : unit -> bool;
      (** natural end of the run (e.g. aircraft stopped) *)
  snapshot : (int array -> unit) option;
      (** optional bulk peek: [snap buf] fills [buf.(i)] with the raw
          current value of the [i]-th signal in the SUT's signal-list
          order, with {!instance.read}'s never-fires-traps semantics.
          The runner's streaming observer loop uses it when present to
          avoid one name lookup per signal per millisecond; [None]
          falls back to per-name [read]. *)
  state_hook : state_hook option;
      (** optional save/restore of the instance's state (see
          {!state_hook}).  With it, each injection run starts from the
          golden run's state at its first fire instead of re-simulating
          the golden prefix from millisecond 0; [None] keeps every run
          starting at 0. *)
}

type t = {
  name : string;
  signals : (string * int) list;
      (** observable/injectable signals with their bit widths *)
  digests : (string * string) list;
      (** stable per-module content digests (module name → opaque
          digest string).  Two SUT builds whose module [m] carries the
          same digest promise bit-identical behaviour of [m]'s
          implementation, so per-cell campaign results keyed on the
          digest ({!Cell}, {!Cache}) may be reused across builds.  An
          empty list (or a missing module) simply makes the module
          uncacheable — campaigns still run, nothing is reused. *)
  instantiate : Testcase.t -> instance;
      (** fresh, deterministic instance for a workload *)
}

val signal_names : t -> string list

val digest_of : t -> string -> string option
(** [digest_of t m] is module [m]'s content digest, when declared. *)

val signal_width : t -> string -> int
(** @raise Invalid_argument for an unknown signal. *)

val has_signal : t -> string -> bool
