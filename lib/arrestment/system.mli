(** The complete target system as a PROPANE system under test.

    Wires the six modules, the slot scheduler and the environment
    simulator around a trap-instrumented signal store:

    - the hardware registers [PACNT], [TIC1], [TCNT], [ADC] and [TOC2]
      use {!Propane.Signal_store.Immediate} injection semantics, all
      software signals use [At_read] traps;
    - each millisecond runs: environment pre-step (sensor registers),
      one scheduler tick (slot tasks, then the CALC background task),
      environment post-step (valve command and physics);
    - the scheduler's slot source reads [ms_slot_nbr] through its trap,
      so slot-number errors genuinely disturb dispatching.

    Slot layout (7 x 1 ms, Section 7.1): CLOCK and DIST_S every slot;
    PRES_S in slot 1, V_REG in slot 3, PRES_A in slot 5 (7 ms periods);
    CALC as the background task. *)

type guard = {
  signal : string;  (** signal whose writes are wrapped *)
  make_transform : unit -> int -> int;
      (** factory producing a fresh (possibly stateful) transformer for
          each run — the EDM/ERM hook; called once per instance so
          detector state never leaks between runs *)
}

val testcase : mass_kg:float -> velocity_mps:float -> Propane.Testcase.t
(** Test case with parameters ["mass"] and ["velocity"]. *)

val sut : ?guards:guard list -> ?fault:Propane.Fault.spec -> unit -> Propane.Sut.t
(** Fresh SUT description.  Its instances carry a
    {!Propane.Sut.state_hook} saving the signal store, every module's
    variables, the environment and physics, and the scheduler's
    position, so injection runs start at their first fire.  Its
    [matches] compares the same parts in place, the store's values and
    pending traps first and floats by their bits, so a run stops once
    it has rejoined the golden run.  [guards]
    are installed on every instance (and therefore present in golden
    and injection runs alike); a guarded instance carries no hook,
    because guard closures hold per-run state the saved state cannot
    copy.
    [fault] wraps the SUT in a {!Propane.Fault} chaos harness, making
    injected runs crash or hang on schedule — the vehicle for
    exercising the runner's failure handling against the real system.
    Test cases must provide ["mass"] (kg) and ["velocity"] (m/s). *)

val mission_failed :
  golden:Propane.Trace_set.t -> run:Propane.Trace_set.t -> bool
(** Service judgement for {!Propane.Severity}: the arrestment failed
    when the aircraft ran past the available cable, or was still rolling
    at the reference stop time (no [stopped] flag while the pulse count
    kept growing past the golden run's final count). *)
