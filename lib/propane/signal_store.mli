(** Trap-instrumented signal storage.

    PROPANE instruments the target with "high-level software traps"
    reached as the software reads its signals (Section 7.3).  This store
    is that instrumentation layer, reusable by any system under test:

    - producers {!write} values (truncated to the signal width);
    - consumers {!read} values through the trap: a pending injection is
      applied to the stored value the first time the signal is read at
      or after the injection instant, so the corruption lands between
      the producer's write and the consumer's read exactly like a trap
      placed at the read site;
    - the tracing runner uses {!peek} or {!snapshot}, which never
      trigger traps.

    A corrupted value persists until the producer overwrites it — the
    transient-data-error semantics of the paper's SWIFI model. *)

type t

type mode =
  | At_read
      (** software signal: the corruption is applied the first time the
          software reads the signal after the injection instant — the
          trap sits at the consumer's read site, so a producer write in
          between does not clear it.  Default. *)
  | Immediate
      (** hardware register: the corruption lands in the register cell
          at the injection instant; a later full register write (e.g. an
          A/D conversion result) clobbers it, while read-modify-write
          updates (hardware counters) carry it along.  This asymmetry is
          what makes the paper's [ADC -> InValue] permeability exactly
          zero while [PACNT -> pulscnt] is high: conversions refresh the
          ADC register before the software samples it, but counters
          accumulate on top of the corrupted count. *)

val create : ?modes:(string * mode) list -> signals:(string * int) list -> unit -> t
(** [(name, width)] pairs.  All values start at 0; signals default to
    {!At_read} unless listed in [modes].
    @raise Invalid_argument on duplicates, empty names, widths outside
    [1, 30], or a mode for an unknown signal. *)

(** {1 Access by name}

    Each call below looks the signal up by name.  That serves set-up,
    injection and tests; code that runs every simulated millisecond
    resolves a {!handle} once instead. *)

val read : t -> string -> int
(** Trap-aware read (applies and clears a pending injection first).
    @raise Invalid_argument for an unknown signal. *)

val peek : t -> string -> int
(** Raw read; never fires traps.  Used for tracing. *)

val write : t -> string -> int -> unit
(** Producer write; truncates to the signal width.  Does {e not} clear a
    pending injection: the error then corrupts the freshly produced
    value, as a trap at the consumer side would. *)

val poke : t -> string -> int -> unit
(** Direct overwrite bypassing traps (test setup, not injection). *)

val inject : t -> string -> (int -> int) -> unit
(** Registers a one-shot corruption.  For an {!At_read} signal it fires
    at the next {!read}; for an {!Immediate} signal it corrupts the
    stored value right away.  A second registration before an [At_read]
    trap fires replaces the first. *)

val mode : t -> string -> mode

(** {1 Handles}

    Hot paths (module bodies executing every simulated millisecond)
    resolve a signal once and then access its cell directly; the bulk
    values below serve a module's ports, or the whole store, in one
    call. *)

type handle

val handle : t -> string -> handle
(** @raise Invalid_argument for an unknown signal. *)

val read_handle : handle -> int
(** Same trap semantics as {!read}.  An {!Immediate} signal never holds
    a pending injection, so on one this is a raw read: hardware models
    use it for read-modify-write register updates. *)

val write_handle : handle -> int -> unit
(** Same guard semantics as {!write}. *)

val poke_handle : handle -> int -> unit
(** Same semantics as {!poke} (no guards). *)

(** {2 Bulk access}

    One call per millisecond instead of one per signal.  Each raises
    [Invalid_argument] when the array's length differs from the number
    of handles or signals. *)

val read_ports : handle array -> int array -> unit
(** [read_ports handles buf] sets [buf.(i)] to {!read_handle}[ handles.(i)]
    for every [i], in index order: trap semantics included. *)

val write_ports : handle array -> int array -> unit
(** [write_ports handles values] is {!write_handle}[ handles.(i)
    values.(i)] for every [i], in index order: guard semantics
    included. *)

val snapshot : t -> int array -> unit
(** [snapshot t buf] sets [buf.(i)] to the raw value of the [i]-th
    signal of [create ~signals], as {!peek} would: no trap fires.  A
    store-backed SUT passes [snapshot store] as
    {!Sut.instance.snapshot}. *)

val load : t -> int array -> unit
(** [load t values] overwrites every signal with [values.(i)] (same
    order as {!snapshot}), truncated to its width, as {!poke} would
    (no guards), and drops every pending injection.  With {!snapshot}
    it saves and restores a store's values. *)

val matches : t -> int array -> bool
(** [matches t values] holds when every signal's raw value equals
    [values.(i)] (same order as {!snapshot}) and no injection is
    pending: the store is in the state {!load}[ t values] leaves.  It
    stops at the first difference and allocates nothing. *)

val add_write_guard : t -> string -> (int -> int) -> unit
(** Appends a transformer applied (in registration order) whenever a
    value crosses the signal's software boundary: on every {!write},
    and on the value produced by a fired injection trap inside {!read}
    — the hook EDM/ERM wrappers attach to.  Guards do not apply to
    {!poke}. *)
