(** SWIFI error models.

    The paper's campaign injects single bit-flips (Section 7.3); the
    other models are the standard SWIFI repertoire, implemented because
    Section 6 flags error-model sensitivity ("the type of injected
    errors can also effect the estimates") and the benchmark suite runs
    an error-model ablation.

    Models are either {e spatial} (how the value is corrupted) or
    {e temporal} ({!Intermittent}/{!Delayed}: when the corruption
    fires, wrapping a spatial payload).  Temporal models never nest. *)

type t =
  | Bit_flip of int  (** toggle bit [b] (0 = LSB) of the current value *)
  | Multi_bit of int list  (** toggle each listed bit (distinct positions) *)
  | Burst of { first : int; len : int }
      (** toggle [len] adjacent bits starting at [first] *)
  | Stuck_at of int  (** replace the value with a constant *)
  | Offset of int  (** add a (possibly negative) delta, wrapping *)
  | Noise of int
      (** add a uniform nonzero delta in [[-amp, amp]], wrapping *)
  | Replace_uniform  (** replace with a uniform random {e different} value *)
  | Intermittent of { model : t; period_ms : int; window_ms : int }
      (** re-apply [model] every [period_ms] while [ms - inject_ms <
          window_ms], starting at the injection time *)
  | Delayed of { model : t; delay_ms : int }
      (** arm at injection time, apply [model] once [delay_ms] later *)

val apply : t -> width:int -> rng:Simkernel.Rng.t -> int -> int
(** [apply e ~width ~rng v] is the corrupted value; the result is always
    truncated to [width] bits.  Only [Replace_uniform] and [Noise]
    consume randomness (exactly one draw each).  [Replace_uniform]
    never returns [v] itself: it draws from the [2^width - 1] other
    values.  Temporal models corrupt with their payload; {e when} they
    fire is the runner's business, via {!fires}.
    @raise Invalid_argument if [validate] rejects the model or [width]
    is outside [1, 30]. *)

val validate : width:int -> t -> (unit, string) result
(** Structural validity at a signal width: bit positions inside
    [[0, width)], distinct multi-bit positions, burst inside the word,
    noise amplitude in [[1, 2^width - 1]], positive periods/windows,
    non-negative delays, and no temporal nesting. *)

val is_temporal : t -> bool
(** [Intermittent]/[Delayed] at the top level. *)

val payload : t -> t
(** The spatial model that actually corrupts: the wrapped model for
    temporal values, [t] itself otherwise. *)

val fires : t -> inject_ms:int -> ms:int -> bool
(** Does the model corrupt the signal at millisecond [ms] of the run,
    given the campaign injection time [inject_ms]?  Spatial models fire
    exactly at [inject_ms]; [Delayed] fires once at
    [inject_ms + delay_ms]; [Intermittent] fires at
    [inject_ms + k * period_ms] for every offset inside the window. *)

val first_fire_ms : t -> inject_ms:int -> int
(** The first millisecond at which {!fires} holds. *)

val last_fire_ms : t -> inject_ms:int -> int
(** The last millisecond at which {!fires} holds — the end of the
    injection lifetime; the runner must keep the run alive through it. *)

val canonicalize : width:int -> t -> t
(** Width-aware normal form: [Stuck_at]/[Offset] constants reduced
    modulo [2^width], [Multi_bit] positions sorted (singleton becomes
    [Bit_flip], as does a length-1 [Burst]), degenerate temporal
    wrappers ([delay_ms = 0], or a window that never reaches a second
    period) unwrapped.  Behaviourally identical models canonicalize to
    equal values, and [apply (canonicalize ~width e)] agrees with
    [apply e] on every input and RNG stream — so cache keys and journal
    descriptions built from the canonical form never split spuriously. *)

val bit_flips : width:int -> t list
(** One [Bit_flip] per bit position, LSB first — the paper's "bit-flips
    in each bit position" of a 16-bit signal. *)

val roster_of_string : width:int -> string -> (t list, string) result
(** Parse a CLI roster spec into a campaign error list:
    ["single-bit"] (one flip per bit — the default, the paper's model),
    ["multi-bit:K"] (one K-bit flip per rotation, positions spread
    evenly), ["burst:L"] (every L-bit adjacent burst),
    ["stuck-at"] (stuck-at-0 and stuck-at-ones), ["stuck-at:C"],
    ["offset:D"] ([+D] and [-D]), ["noise:A"], ["uniform"],
    ["delayed:MS[:SPEC]"] and ["intermittent:PERIOD:WINDOW[:SPEC]"]
    (wrapping every model of the inner spec, default single-bit). *)

val equal : t -> t -> bool
val describe : t -> string

val encode : t -> string
(** The separator-free text form that journals and the wire protocol
    carry, e.g. ["bitflip:3"], ["stuck:17"], ["offset:-2"],
    ["uniform"], ["delayed:40:bitflip:3"]. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects malformed fields and nested temporal
    wrappers. *)
