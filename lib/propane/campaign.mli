(** Campaign plans.

    A campaign is the cartesian product {e targets x test cases x
    injection times x error instances}, each element being one
    injection run compared against the golden run of its test case.
    The paper's plan for its target system (Section 7.3) is built by
    the arrestment recipe, not here. *)

type t = private {
  name : string;
  targets : string list;  (** signals to inject into *)
  testcases : Testcase.t list;
  times : Simkernel.Sim_time.t list;
  errors : Error_model.t list;
}

val make :
  name:string ->
  targets:string list ->
  testcases:Testcase.t list ->
  times:Simkernel.Sim_time.t list ->
  errors:Error_model.t list ->
  t
(** @raise Invalid_argument if any dimension is empty or [targets]
    contains duplicates. *)

val size : t -> int
(** Total number of injection runs. *)

val runs_per_target : t -> int

val experiments : t -> (Testcase.t * Injection.t) list
(** The full expansion in deterministic order: targets, then test
    cases, then times, then errors. *)

val pp : Format.formatter -> t -> unit
