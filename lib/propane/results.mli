(** Raw campaign outcomes.

    One {!outcome} per injection run: which injection was performed
    under which test case, and the first divergence (against the test
    case's golden run) of every signal that diverged at all.  The
    estimator consumes this database; keeping first-divergence times
    rather than whole traces keeps paper-scale campaigns (52,000 runs)
    small in memory. *)

(** How an injection run terminated.  Real SWIFI campaigns against an
    embedded target do not always end cleanly: the injected error can
    crash the target software or drive it into a livelock.  PROPANE-style
    tools record those as first-class experiment outcomes rather than
    aborting the campaign. *)
type status =
  | Completed  (** the run executed to its scheduled end *)
  | Crashed of { at_ms : int; reason : string }
      (** the target raised at simulated millisecond [at_ms]; [reason]
          is the (sanitised, separator-free) exception description *)
  | Hung of { budget_ms : int }
      (** the run exceeded its wall-clock watchdog budget
          ({!Runner.run}[ ~run_timeout_ms]) and was cut off *)

val is_failed : status -> bool
(** [true] for {!Crashed} and {!Hung}. *)

val pp_status : Format.formatter -> status -> unit

type outcome = {
  testcase : string;  (** test case id *)
  injection : Injection.t;
  divergences : Golden.divergence list;
      (** signals whose trace diverged from the golden run, with the
          millisecond of first divergence; signals that never diverged
          are absent.  For a {!Crashed} run these cover the samples up
          to the crash (every remaining signal diverges at the crash
          instant via the length-mismatch rule); a {!Hung} run carries
          none — how far it got is wall-clock dependent, so
          partial divergences are discarded for determinism *)
  status : status;
}

type t

val create : sut:string -> campaign:string -> t
val sut : t -> string
val campaign : t -> string

val add : t -> outcome -> unit
val count : t -> int

val crashed_count : t -> int
val hung_count : t -> int

val failed_count : t -> int
(** [crashed_count + hung_count]. *)

val outcomes : t -> outcome list
(** In insertion (i.e. deterministic campaign) order. *)

val by_target : t -> string -> outcome list
(** Outcomes whose injection targeted the given signal. *)

val injections_into : t -> string -> int
(** [List.length (by_target t s)], computed without building the list. *)

val divergence_of : outcome -> string -> int option
(** First divergence of a signal within one outcome. *)
