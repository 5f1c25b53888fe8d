(** PRES_S — "reads the pressure that is actually being applied by the
    pressure valves, using [ADC] from the internal A/D-converter.  This
    value is provided in [InValue].  Period = 7 ms."

    Each activation starts an A/D conversion (the environment writes the
    digitised pressure into the [ADC] register) and then reads the
    register.  Because the conversion is a full register write, an
    injected corruption of [ADC] is always clobbered before the module
    samples it — the mechanism behind the paper's estimated
    [P(ADC -> InValue) = 0] (OB3).  The module also carries standard
    spike rejection ({!Params.pres_spike_limit}) as the production code
    would; under this fault model the filter never fires. *)

type t

val create : Propane.Signal_store.t -> start_conversion:(unit -> unit) -> t
(** [start_conversion] is the glue callback that performs the A/D
    conversion into the [ADC] register. *)

val step : t -> unit

type state
(** The spike filter's variables, saved for {!Propane.Sut.state_hook}.
    Immutable: saving copies, restoring copies back. *)

val save : t -> state
val restore : t -> state -> unit

val descriptor : Propagation.Sw_module.t
(** inputs [ADC]; outputs [InValue]. *)
