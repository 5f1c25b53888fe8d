(** The traces of one run, in one flat array.

    PROPANE "is capable of creating traces of individual variables ...
    during the execution.  Each trace of a variable from an injection
    experiment is compared to the corresponding trace in the Golden Run"
    (Section 6).  A set holds one sample per signal per simulated
    millisecond, sample [ms] being the signal's value at the end of
    millisecond [ms].  It is created with a fixed signal list and keeps
    every sample in one [int array], millisecond-major: signal [s]
    (creation order) at millisecond [ms] sits at
    [ms * signal_count + s].  A frozen golden ({!Golden.frozen}) keeps
    its samples in the same layout. *)

type t

val create : ?capacity:int -> signals:string list -> unit -> t
(** An empty set with room for [capacity] milliseconds (default 1,024)
    before its array grows.
    @raise Invalid_argument on duplicate or empty signal names, or an
    empty list. *)

val signals : t -> string list
(** In creation order. *)

val duration_ms : t -> int

val sample_array : t -> int array -> unit
(** [sample_array t values] appends one millisecond, [values.(s)] being
    the [s]-th signal's sample.
    @raise Invalid_argument if the array length differs from the signal
    count. *)

val sample_block : t -> int array -> from:int -> until:int -> unit
(** [sample_block t block ~from ~until] appends milliseconds
    [\[from, until)] of [block], an array in this layout (such as a
    frozen golden's samples): how a restored run's recording starts
    with the golden prefix, and how a run that rejoined the golden run
    ends with the golden suffix.
    @raise Invalid_argument if [block] holds fewer samples, or the
    range is negative or reversed. *)

val get : t -> string -> int -> int
(** [get t signal ms] is [signal]'s sample at millisecond [ms].  The
    name is looked up once [get t signal] is applied, so a scan over
    one signal binds that first.
    @raise Invalid_argument for a signal the set does not trace, or a
    millisecond outside [\[0, duration_ms t)]. *)

val samples : t -> int array
(** A copy of every sample, [duration_ms t] milliseconds in this
    layout. *)
