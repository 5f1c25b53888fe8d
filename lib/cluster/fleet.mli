(** The worker connections of a campaign server.

    A fleet is the connection half that a single-campaign
    {!Coordinator} and the multi-campaign service share: it accepts
    workers on a listening socket, decodes their frames, vets each
    {!Protocol.Join}, hands batches out, records results, watches
    heartbeat deadlines and returns a dead worker's runs to its
    campaign.  What to run is not its business.  A {!source} supplies
    the work choice: which campaign a work-hungry worker should serve,
    and that campaign's next batch.

    The fleet is generic in ['c], the server's campaign.  Campaigns are
    compared physically ([==]): a worker serves [c] when it was sent
    [c]'s {!Protocol.Assign}.

    {b Robustness rules.}
    - A connection must send [Join] within [heartbeat_timeout_s] of
      being accepted.  A [Join] with another protocol version gets a
      [Reject] naming both versions.  Any other message before [Join]
      closes the connection.
    - A worker that holds runs and sends nothing for
      [heartbeat_timeout_s] is dead (a worker holding runs writes at
      least once per 100 ms plus one run, so the timeout must exceed
      the slowest run plus 100 ms).  So is one whose connection drops,
      or that sends a frame that does not decode.  Its outstanding
      runs, of both batches it may hold, go back to its campaign
      through the source's [requeue], ahead of unstarted work.
    - A worker may hold the batch it runs plus one batch ahead, and
      have one [Request_batch] unanswered.  A [Request_batch] sent
      while one is pending, or while it holds runs of two batches,
      closes the connection, as does a result for a run it does not
      hold: only handed-out runs are ever recorded, each in the
      campaign that handed it out.
    - A worker that holds runs is never retargeted.  When [choose]
      picks another campaign, the worker stays parked until every run
      it holds has its result, and only then is sent the [Assign].
    - A joined worker whose request found no work is parked.  One
      that also holds nothing is sent [Ping] after half the timeout
      of silence, which its [Heartbeat] answers.

    [SIGPIPE] is ignored from {!create} on: a write racing a worker's
    death fails with [EPIPE] and closes that connection only. *)

type 'c t

type 'c source = {
  choose : 'c option -> 'c option;
      (** [choose serving] is the campaign a work-hungry worker that
          now serves [serving] should serve next, or [None] to park
          it.  A campaign other than [serving] is sent as an
          [Assign]. *)
  welcome : 'c -> Protocol.welcome;  (** the campaign's [Assign] payload *)
  attached : 'c -> worker:int -> host:string -> pid:int -> unit;
      (** called after a worker was assigned to the campaign *)
  take : 'c -> workers:int -> int list;
      (** the campaign's next batch, [[]] parks the worker; [workers]
          is how many joined workers serve the campaign *)
  record :
    'c ->
    index:int ->
    worker:int ->
    retries:int ->
    Propane.Results.outcome ->
    unit;  (** a result for a run the worker was handed *)
  requeue : 'c -> int list -> unit;  (** a dead worker's outstanding runs *)
}
(** The work choice of the server driving the fleet. *)

type 'c worker = private {
  id : int;
  mutable host : string;
  mutable pid : int;
  mutable serving : 'c option;  (** the campaign last assigned *)
  mutable parked : bool;
      (** waiting for work: its [Request_batch] (or its [Join]) has no
          answer yet.  It may still be running the batch it holds. *)
  mutable outstanding : int list;
      (** handed out, not yet resulted: the runs of the batch it runs
          and of the one ahead, in hand-out order *)
  mutable completed : int;  (** results received *)
  mutable last_seen : float;  (** [Unix.gettimeofday] of its last message *)
}
(** A joined worker, as the roster reports it. *)

val create : heartbeat_timeout_s:float -> Unix.file_descr -> 'c t
(** [create ~heartbeat_timeout_s listen] is a fleet accepting on
    [listen], an already-listening socket from
    {!Address.listen}.  The caller keeps ownership of the listener. *)

val poll :
  ?extra:Unix.file_descr list -> 'c t -> 'c source -> Unix.file_descr list
(** One scheduler tick of I/O: waits at most 250 ms (less when a
    deadline falls due) until a descriptor is readable, accepts new
    connections, reads and handles every readable worker, then closes
    the connections whose deadline passed and pings silent parked
    workers.  [extra] descriptors join the wait; the readable ones are
    returned for the caller to serve. *)

val distribute : 'c t -> 'c source -> unit
(** Offers work to every parked worker. *)

val serving : 'c t -> 'c -> int
(** Joined workers serving the campaign. *)

val outstanding : 'c t -> 'c -> int
(** Runs of the campaign handed out and not yet resulted. *)

val workers : 'c t -> 'c worker list
(** Joined workers, by id. *)

val dismiss : 'c t -> unit
(** Sends [Done] to every joined worker, then closes every
    connection. *)

val close : 'c t -> unit
(** Closes every connection without a word, as a crash would.
    Idempotent. *)
