(** The versioned cluster wire protocol.

    One {!Frame} payload carries one message.  Messages are encoded in
    a compact binary form — tag byte, big-endian fixed-width integers,
    length-prefixed strings — so every field round-trips byte for
    byte, including crash reasons containing colons, tabs or newlines
    that the line-based on-disk formats must sanitise away
    (property-tested; see [test_cluster.ml]).

    The conversation is strictly pull-based, and the same whether a
    single-campaign coordinator ([propane campaign --listen]) or the
    multi-campaign service ([propane serve]) is on the other end:
    {v
    worker                         server
      Join {version; host; pid} ->
                                <- Assign {sut; campaign; seed; total; config}
                                   | Reject reason
      Request_batch             ->
                                <- Batch [i0; i1; ...]
      Result {index; outcome}   ->      (one per run, in batch order)
      ...
      Request_batch             ->
                                <- Batch [...] | Assign {...} | Done
    v}
    [Heartbeat] may be sent at any time to prove liveness; every
    message counts as one.  The server answers a [Request_batch] that
    finds no work with silence (the worker blocks reading) until new
    work appears — a dead worker's batch being reassigned, or a newly
    submitted campaign — or until it sends [Done].  [Ping] asks a
    blocked worker to prove liveness with a [Heartbeat].

    [Assign] (re)targets the worker at a campaign: the worker rebuilds
    its executor from the [welcome] and resumes with [Request_batch].
    A coordinator assigns its one campaign right after [Join]; the
    service assigns whichever campaign its fair share picks once one is
    runnable (until then the joined worker waits, answering pings), and
    may retarget the worker between batches.  A worker pinned to one
    recipe checks each [Assign] itself and leaves on a mismatch.

    A [Join] with another protocol version receives [Reject] naming
    both versions, and the worker must exit.  [Join] keeps the tag and
    layout it had in version 2, so a version-2 worker gets that
    [Reject] too; a version-2 [Hello] no longer decodes, and the
    server disconnects it. *)

val version : int
(** Current protocol version (3).  Bump on any change to the message
    encodings below. *)

type welcome = {
  sut : string;  (** SUT name, for worker-side validation *)
  campaign : string;  (** campaign name, idem *)
  seed : int64;  (** campaign seed — workers derive per-run RNG from it *)
  total : int;  (** campaign size; indices are [0 .. total-1] *)
  config : string;
      (** opaque application recipe: the CLI encodes the campaign
          construction parameters here so worker processes rebuild the
          exact same campaign without their own flags *)
}

type to_coordinator =
  | Join of { version : int; host : string; pid : int }
      (** the handshake: the server answers with [Assign] when it has
          a campaign for the worker, or [Reject] on version skew *)
  | Request_batch
  | Result of { index : int; retries : int; outcome : Propane.Results.outcome }
  | Heartbeat

type to_worker =
  | Assign of welcome
      (** (re)targeting: rebuild the executor for this campaign, then
          continue requesting batches *)
  | Batch of int list  (** experiment indices to execute, in order *)
  | Ping
  | Done
  | Reject of string

val encode_to_coordinator : to_coordinator -> string
val decode_to_coordinator : string -> (to_coordinator, string) result
val encode_to_worker : to_worker -> string
val decode_to_worker : string -> (to_worker, string) result
(** Decoders never raise: any byte string either decodes or yields a
    descriptive [Error]. *)

val pp_to_coordinator : Format.formatter -> to_coordinator -> unit
val pp_to_worker : Format.formatter -> to_worker -> unit
(** Compact debug rendering (no payload dumps). *)
