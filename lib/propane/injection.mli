(** Single-injection descriptors.

    The paper's campaigns inject exactly one error, in one signal, at
    one time instant per run ("For each injection run only one error was
    injected at one time, i.e., no multiple errors were injected",
    Section 7.3). *)

type t = {
  target : string;  (** signal to corrupt *)
  at : Simkernel.Sim_time.t;
      (** the error is applied at the start of this millisecond, before
          any module executes in it *)
  error : Error_model.t;
}

val make : target:string -> at:Simkernel.Sim_time.t -> error:Error_model.t -> t
(** @raise Invalid_argument on an empty target name or a nested
    temporal error model. *)

val inject_ms : t -> int
(** [Sim_time.to_ms t.at] — the campaign's scheduled injection time. *)

val first_fire_ms : t -> int
(** First millisecond at which the error model corrupts the target
    ({!Error_model.fires}): exactly [t.at] for spatial models, later
    for temporal ones. *)

val last_fire_ms : t -> int
(** Last millisecond at which the error model corrupts the target — the
    injection lifetime's end; runs must stay alive through it to
    realise the full model. *)
