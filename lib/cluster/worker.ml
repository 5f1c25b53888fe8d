let src = Logs.Src.create "cluster.worker" ~doc:"campaign worker process"

module Log = (val Logs.src_log src : Logs.LOG)

let run ?host ?pid ?(config_digest = "") ?on_result ~connect ~make () =
  (* A dying server must surface as EPIPE on our next send, not as a
     fatal SIGPIPE. *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let host = match host with Some h -> h | None -> Unix.gethostname () in
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  match Address.connect connect with
  | Error msg -> Error msg
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let reader = Frame.reader fd in
          let send msg = Frame.write fd (Protocol.encode_to_coordinator msg) in
          let recv () =
            match Frame.read reader with
            | Error msg -> Error msg
            | Ok None -> Error "server closed the connection"
            | Ok (Some payload) -> Protocol.decode_to_worker payload
          in
          let ( let* ) = Result.bind in
          let completed = ref 0 in
          (* Every Assign rebuilds the executor: a new campaign means
             new goldens.  The pin is checked here, on each Assign, so
             it holds however often a service retargets us. *)
          let assign (w : Protocol.welcome) =
            let digest = Digest.to_hex (Digest.string w.config) in
            if config_digest <> "" && config_digest <> digest then
              Error
                (Printf.sprintf
                   "config digest: worker pinned %s, server assigned %s/%s \
                    with %s"
                   config_digest w.sut w.campaign digest)
            else
              let* execute = make w in
              Log.info (fun m ->
                  m "serving %s/%s (%d runs) as %s/%d" w.sut w.campaign
                    w.total host pid);
              Ok execute
          in
          (* Results are buffered and flushed in one write per batch,
             halving the per-run syscalls on the hot path; the per-run
             heartbeat still flows, covering the watchdog.  A failed
             outcome flushes at once so a fail-fast server aborts
             promptly. *)
          let run_batch execute indices =
            let buffered = ref [] in
            let flush_results () =
              Frame.write_many fd (List.rev !buffered);
              buffered := []
            in
            List.iter
              (fun index ->
                (* The heartbeat covers the (possibly lazy golden plus
                   injection) run about to start. *)
                send Protocol.Heartbeat;
                let outcome, retries = execute index in
                buffered :=
                  Protocol.encode_to_coordinator
                    (Protocol.Result { index; retries; outcome })
                  :: !buffered;
                if Propane.Results.is_failed outcome.Propane.Results.status
                then flush_results ();
                incr completed;
                match on_result with
                | Some f -> f ~completed:!completed
                | None -> ())
              indices;
            flush_results ()
          in
          (* [await] blocks for the server's next message: a parked
             worker may wait here through pings until work appears. *)
          let rec await execute =
            let* msg = recv () in
            match (msg, execute) with
            | Protocol.Ping, _ ->
                send Protocol.Heartbeat;
                await execute
            | Protocol.Done, _ -> Ok !completed
            | Protocol.Reject reason, _ ->
                Error (Printf.sprintf "server rejected us: %s" reason)
            | Protocol.Assign w, _ ->
                let* execute = assign w in
                request (Some execute)
            | Protocol.Batch indices, Some execute ->
                run_batch execute indices;
                request (Some execute)
            | Protocol.Batch _, None -> Error "batch before any assignment"
          and request execute =
            match send Protocol.Request_batch with
            | () -> await execute
            | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> (
                (* The server may have completed the campaign and closed
                   our socket while this request was in flight; the
                   [Done] it sent first is still readable. *)
                match recv () with
                | Ok Protocol.Done -> Ok !completed
                | Ok _ | Error _ ->
                    Error "connection to server lost: EPIPE (write)")
          in
          try
            send (Protocol.Join { version = Protocol.version; host; pid });
            await None
          with Unix.Unix_error (err, fn, _) ->
            Error
              (Printf.sprintf "connection to server lost: %s (%s)"
                 (Unix.error_message err) fn))
