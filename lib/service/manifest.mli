(** The service-level campaign ledger.

    An append-only, line-based file (like {!Propane.Journal}) naming
    every campaign ever submitted and its latest state, so a restarted
    service rebuilds its queue without touching any journal:
    {v
    propane-service-manifest 1
    campaign <TAB> c0001 <TAB> <escaped submission body>
    state    <TAB> c0001 <TAB> running <TAB>
    state    <TAB> c0001 <TAB> done    <TAB>
    v}
    The submission body is stored verbatim ([String.escaped]-encoded,
    so tabs and newlines round-trip) and re-parsed on restart: the
    manifest records {e what was asked}, the per-campaign journal
    records {e what already ran} — together they resume byte-identically.
    Every append is flushed.  Only newline-terminated lines count: a
    torn trailing fragment from a crash is ignored on load and cut off
    by the next {!append}, exactly like the journal's torn-fragment
    rule. *)

type state = Queued | Running | Done | Cancelled | Failed

val state_to_string : state -> string

val terminal : state -> bool
(** [Done], [Cancelled] and [Failed] are terminal: they never leave
    the manifest's history, but they occupy no queue slot. *)

type entry = { id : string; body : string; state : state; reason : string }
(** The latest state per campaign; [reason] explains [Failed] (and is
    [""] otherwise). *)

val load : string -> (entry list, string) result
(** Entries in submission order; a missing file is an empty ledger. *)

type t
(** An open, append-mode ledger. *)

val append : string -> (t, string) result
(** Opens for appending after the last complete line, writing the
    header if the file has none yet (new, or torn inside the
    header). *)

val submit : t -> id:string -> body:string -> unit
(** Records a new campaign (implicitly [Queued]); flushed. *)

val transition : t -> id:string -> state -> reason:string -> unit
(** Records a state change; flushed. *)

val close : t -> unit
