(** Uniform-propagation analysis (the paper's Section 2 rebuttal).

    [12] reported "evidence of uniform propagation of data errors": at
    a given program location, either (nearly) all injected data errors
    propagate to the system output or (nearly) none do.  The paper
    states "Our findings do not corroborate this assertion of uniform
    propagation."  This module reproduces that check on campaign data:
    a {e location} is an (injected signal, test case, injection time)
    triple; its propagation ratio is the fraction of its error
    instances (the 16 bit positions) whose error reached a system
    output.  Uniform propagation predicts a bimodal ratio distribution
    concentrated at 0 and 1. *)

type location = {
  target : string;
  testcase : string;
  at_ms : int;
  injections : int;
  propagated : int;  (** runs whose error reached a system output *)
}

val locations : outputs:string list -> Results.t -> location list
(** Groups the outcomes by location, in first-seen order. *)

type report = {
  locations : int;
  uniform_all : int;  (** ratio = 1: every error propagated *)
  uniform_none : int;  (** ratio = 0: no error propagated *)
  mixed : int;  (** strictly between — evidence against [12] *)
  histogram : int array;
      (** ratio distribution over 10 equal-width bins, [0, 0.1) ... *)
}

val analyse : outputs:string list -> Results.t -> report

val uniform_fraction : report -> float
(** [(uniform_all + uniform_none) / locations]; [12] predicts close to
    1, the paper's data (and ours) does not. *)

val pp_report : Format.formatter -> report -> unit
