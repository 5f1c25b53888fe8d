(** The worker side of a distributed campaign.

    A worker connects to a server — a single-campaign {!Coordinator}
    or the campaign service — joins it, and then pulls batches of
    experiment indices until the server says it is done.  Every run
    streams back as its own {!Protocol.Result} message, so the
    server's journal loses at most the runs in flight when a worker
    dies — the same guarantee the local engine gives per domain.

    The worker never decides {e what} to run: each
    {!Protocol.Assign} names the SUT, campaign, seed and size, plus an
    opaque [config] recipe, and the [make] callback turns that into an
    executor — typically {!Propane.Runner.executor} over a campaign
    rebuilt from the recipe.  Returning [Error] from [make] (an
    unknown SUT, a mismatched size) aborts before any run of that
    campaign executes. *)

val run :
  ?host:string ->
  ?pid:int ->
  ?config_digest:string ->
  ?on_result:(completed:int -> unit) ->
  connect:Address.t ->
  make:(Protocol.welcome -> (int -> Propane.Results.outcome * int, string) result) ->
  unit ->
  (int, string) result
(** Serves whatever campaigns the server assigns, rebuilding the
    executor through [make] on every assignment; returns the number of
    runs this worker executed once the server sends [Done], or an
    error if the connection, the handshake or [make] failed.  [host]
    (default [Unix.gethostname]) and [pid] (default [Unix.getpid])
    label this worker in the server's telemetry.

    [config_digest] (default [""], meaning "any") pins this worker to
    one recipe: an assignment whose recipe's [Digest.to_hex] differs
    ends [run] with an error naming both digests, before any of its
    runs execute.  Use it when pointing long-lived worker hosts at
    rotating servers, so a stale one cannot feed them the wrong
    campaign.

    [on_result] is called after each run's result has been sent — a
    test harness hook ({!Propane.Fault}-style): raising from it
    abandons the connection mid-campaign exactly like a crashed worker
    process would, which is how the reassignment path is exercised
    in-process.  The socket is closed however [run] exits, and
    [SIGPIPE] is set to ignored so a dying server surfaces as a
    connection error rather than killing the worker. *)
