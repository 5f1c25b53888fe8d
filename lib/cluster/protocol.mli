(** The versioned cluster wire protocol.

    One {!Frame} payload carries one message.  Messages are encoded in
    a compact binary form — tag byte, big-endian fixed-width integers,
    length-prefixed strings — so every field round-trips byte for
    byte, including crash reasons containing colons, tabs or newlines
    that the line-based on-disk formats must sanitise away
    (property-tested; see [test_cluster.ml]).

    The conversation is pull-based and pipelined, and the same whether
    a single-campaign coordinator ([propane campaign --listen]) or the
    multi-campaign service ([propane serve]) is on the other end:
    {v
    worker                         server
      Join {version; host; pid} ->
                                <- Assign {sut; campaign; seed; total; config}
                                   | Reject reason
      Request_batch             ->
                                <- Batch [i0; i1; ...]
      Request_batch             ->      (asks ahead, then runs i0, i1, ...)
                                <- Batch [j0; ...]   (held while i runs)
      Result {index; outcome}   ->      (one per run, in batch order,
      ...                               in one write per batch)
      Request_batch             ->      (on reading Batch [j0; ...])
                                <- Batch [...] | Assign {...} | Done
    v}
    A worker asks for its next batch as soon as a [Batch] arrives,
    before running it, so the server answers and records the previous
    batch while the worker runs.  It holds at most the batch it runs
    and one ahead, and has at most one [Request_batch] unanswered.
    [Heartbeat] may be sent at any time to prove liveness; every
    message counts as one.  Before a run, a worker that has written
    nothing for 100 ms flushes its buffered results, or sends a
    [Heartbeat] if it has none, so a worker holding runs writes at
    least once per 100 ms plus one run.  The server answers a
    [Request_batch] that finds no work with silence (the worker blocks
    reading once its batch is done) until new work appears — a dead
    worker's batch being reassigned, or a newly submitted campaign —
    or until it sends [Done].  [Ping] asks a blocked worker to prove
    liveness with a [Heartbeat].

    [Assign] (re)targets the worker at a campaign: the worker rebuilds
    its executor from the [welcome] and resumes with [Request_batch].
    A coordinator assigns its one campaign right after [Join]; the
    service assigns whichever campaign its fair share picks once one is
    runnable (until then the joined worker waits, answering pings), and
    may retarget the worker between batches, once every run it holds
    has its result.  A worker pinned to one recipe checks each
    [Assign] itself and leaves on a mismatch.

    A [Join] with another protocol version receives [Reject] naming
    both versions, and the worker must exit.  [Join] keeps the tag and
    layout it had in version 2, so a version-2 worker gets that
    [Reject] too; a version-2 [Hello] no longer decodes, and the
    server disconnects it. *)

val version : int
(** Current protocol version (4).  Bump on any change to the message
    encodings below or to the conversation above. *)

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
(** Compact debug rendering (no payload dumps). *)
