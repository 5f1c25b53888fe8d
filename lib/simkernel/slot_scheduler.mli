(** Slot-based non-preemptive scheduler.

    The target system "operates in seven 1-ms-slots.  In each slot, one
    or more modules (except for CALC) are invoked" and CALC "runs when
    other modules are dormant" (Section 7.1).  This scheduler reproduces
    that structure: tasks are statically assigned to slots; advancing
    the simulation by one millisecond runs every task of the current
    slot in registration order, then the background task once.

    The slot number is read from a pluggable {e slot source} on each
    tick.  The arrestment system wires the source to the [ms_slot_nbr]
    output of its CLOCK module, so an injected error in [ms_slot_nbr]
    genuinely disturbs dispatching, exactly as on the real target. *)

type t

val create : ?slots:int -> slot_source:(unit -> int) -> unit -> t
(** [slots] is the cycle length (default 7).  [slot_source] is queried
    once per tick and its result reduced modulo [slots] (a corrupted
    slot number must select {e some} slot, never crash the kernel).
    @raise Invalid_argument unless [slots >= 1]. *)

val add_task : t -> slot:int -> name:string -> (unit -> unit) -> unit
(** Assigns a task to one slot (0-based).
    @raise Invalid_argument if the slot is out of range. *)

val add_every_slot : t -> name:string -> (unit -> unit) -> unit
(** Assigns a task to every slot (a 1 ms period task such as DIST_S). *)

val set_background : t -> name:string -> (unit -> unit) -> unit
(** Registers the background task (CALC).  At most one; a second call
    replaces the first. *)

val tick : t -> unit
(** Advance one millisecond: read the slot source, run that slot's
    tasks, then the background task. *)

val run : t -> ms:int -> unit
(** [run t ~ms] performs [ms] ticks.  @raise Invalid_argument if
    negative. *)

val ticks : t -> int
(** Number of ticks performed so far. *)

val last_slot : t -> int option
(** Slot selected by the most recent tick. *)

type state
(** The scheduler's position: tick count and last selected slot.  The
    task table is wiring, not state, and is not part of it. *)

val save : t -> state
val restore : t -> state -> unit
(** [restore t s] sets [t]'s position to [s]; [t] must have the same
    wiring as the scheduler [s] was saved from. *)

val matches : t -> state -> bool
(** [t]'s position equals [s]. *)
