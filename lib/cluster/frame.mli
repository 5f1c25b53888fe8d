(** Length-prefixed framing.

    The cluster wire protocol is a stream of {e frames}: a 4-byte
    big-endian payload length followed by the payload bytes.  Framing
    is the only thing this module knows — payloads are opaque (see
    {!Protocol} for their meaning), may be empty, and may contain any
    byte value, so crash reasons with newlines, tabs or colons travel
    unharmed where the line-based {!Propane.Journal} format would have
    to reject them.

    Both a pure incremental {!decoder} (the coordinator feeds it
    whatever [read] returned, frames pop out as they complete) and
    blocking per-frame I/O for the worker side are provided.

    Payloads are at most 16 MiB.  A length prefix beyond that is a
    protocol violation — the peer is talking something else, or
    garbage — and decoding fails instead of allocating an absurd
    buffer. *)

val encode : string -> string
(** [encode payload] is the frame as raw bytes.
    @raise Invalid_argument if the payload exceeds 16 MiB. *)

(** {1 Incremental decoding} *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> string -> unit
(** Append received bytes; any chunking is fine, including frames
    split at arbitrary byte boundaries or many frames in one chunk. *)

val next : decoder -> (string option, string) result
(** The next complete frame's payload, [Ok None] if more bytes are
    needed, or [Error] on a violating length prefix.  A decoder that
    returned [Error] is poisoned and keeps failing. *)

val buffered : decoder -> int
(** Bytes fed but not yet returned — non-zero at connection close
    means the peer died mid-frame. *)

(** {1 Blocking I/O} *)

val write : Unix.file_descr -> string -> unit
(** Frames the payload and writes it entirely, retrying on partial
    writes and [EINTR]/[EAGAIN] (waiting for writability on the
    latter).  @raise Unix.Unix_error when the peer is gone. *)

val write_many : Unix.file_descr -> string list -> unit
(** Frames every payload and writes the concatenation in one go —
    concatenated frames are a valid frame stream, so receivers need no
    change; this just amortises the per-message syscall when a worker
    flushes a whole batch of results.  No-op on [[]].
    @raise Unix.Unix_error as {!write};  @raise Invalid_argument if any
    payload exceeds 16 MiB. *)

type reader

val reader : Unix.file_descr -> reader

val read : reader -> (string option, string) result
(** Blocks until one whole frame arrives.  [Ok None] is a clean EOF at
    a frame boundary; an EOF mid-frame or a violating prefix is
    [Error]. *)
