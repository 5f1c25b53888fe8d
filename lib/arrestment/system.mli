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

val paper_testcases : Propane.Testcase.t list
(** The paper's 25-case workload: 5 masses uniformly in 8,000-20,000 kg
    x 5 velocities uniformly in 40-80 m/s (Section 7.3). *)

val sut : ?guards:guard list -> ?fault:Propane.Fault.spec -> unit -> Propane.Sut.t
(** Fresh SUT description.  Its instances carry a
    {!Propane.Sut.state_hook} saving the signal store, every module's
    variables, the environment and physics, and the scheduler's
    position, so injection runs start at their first fire.  [guards]
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

val paper_campaign :
  ?name:string -> ?testcases:Propane.Testcase.t list -> unit -> Propane.Campaign.t
(** The full Section 7.3 campaign: bit-flips in all 16 bit positions at
    10 instants (0.5-5.0 s) under the 25 test cases, for each of the 13
    module-input signals — 4,000 injections per signal, 52,000 runs.
    Pass a smaller [testcases] list to scale the workload down. *)
