(** The traces of one run, keyed by signal name.

    A trace set is created with a fixed signal list; {!sample} appends
    one synchronized sample per signal each millisecond, so all traces
    always have equal length. *)

type t

val create : signals:string list -> unit -> t
(** @raise Invalid_argument on duplicate or empty signal lists. *)

val signals : t -> string list
(** In creation order. *)

val sample : t -> (string -> int) -> unit
(** [sample t read] appends [read s] to the trace of each signal [s].
    Called once per simulated millisecond by the runner. *)

val sample_array : t -> int array -> unit
(** [sample_array t values] appends [values.(i)] to the trace of the
    [i]-th signal (creation order).  @raise Invalid_argument if the
    array length differs from the signal count. *)

val duration_ms : t -> int
val trace : t -> string -> Trace.t
(** @raise Not_found for an unknown signal. *)

val find_trace : t -> string -> Trace.t option
