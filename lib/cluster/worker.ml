let src = Logs.Src.create "cluster.worker" ~doc:"campaign worker process"

module Log = (val Logs.src_log src : Logs.LOG)

(* The clock rule: before a run, a worker that has written nothing for
   this long flushes its buffered results, or heartbeats if it has
   none.  So a worker holding runs writes at least once per
   [silence_s] plus one run, which is what the server's watchdog
   relies on. *)
let silence_s = 0.1

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
          let exception Server_gone in
          let last_write = ref (Unix.gettimeofday ()) in
          let write payloads =
            (match Frame.write_many fd payloads with
            | () -> ()
            | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
                raise Server_gone);
            last_write := Unix.gettimeofday ()
          in
          let send msg = write [ Protocol.encode_to_coordinator msg ] in
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
          (* Results are buffered and flushed in one write per batch.
             The clock rule keeps a long batch from going silent, and a
             failed outcome flushes at once so a fail-fast server
             aborts promptly. *)
          let run_batch execute indices =
            let buffered = ref [] in
            let flush_results () =
              let sent = List.rev !buffered in
              buffered := [];
              write sent;
              List.iter
                (fun _ ->
                  incr completed;
                  Option.iter (fun f -> f ~completed:!completed) on_result)
                sent
            in
            List.iter
              (fun index ->
                if Unix.gettimeofday () -. !last_write >= silence_s then
                  if !buffered = [] then send Protocol.Heartbeat
                  else flush_results ();
                let outcome, retries = execute index in
                buffered :=
                  Protocol.encode_to_coordinator
                    (Protocol.Result { index; retries; outcome })
                  :: !buffered;
                if Propane.Results.is_failed outcome.Propane.Results.status
                then flush_results ())
              indices;
            flush_results ()
          in
          (* [await] blocks for the server's next message: a parked
             worker may wait here through pings until work appears.
             Each batch is asked for before the previous one runs, so
             the server answers, and records, while we execute. *)
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
                send Protocol.Request_batch;
                await (Some execute)
            | Protocol.Batch indices, Some execute ->
                send Protocol.Request_batch;
                run_batch execute indices;
                await (Some execute)
            | Protocol.Batch _, None -> Error "batch before any assignment"
          in
          (* A server that ends the campaign (or fails fast) sends
             [Done] and closes: a write racing that close fails, and
             the [Done] is still readable behind whatever the server
             sent before it. *)
          let rec find_done () =
            match recv () with
            | Ok Protocol.Done -> Ok !completed
            | Ok _ -> find_done ()
            | Error _ -> Error "connection to server lost: EPIPE (write)"
          in
          try
            send (Protocol.Join { version = Protocol.version; host; pid });
            await None
          with
          | Server_gone -> (
              try find_done ()
              with Unix.Unix_error _ ->
                Error "connection to server lost: EPIPE (write)")
          | Unix.Unix_error (err, fn, _) ->
              Error
                (Printf.sprintf "connection to server lost: %s (%s)"
                   (Unix.error_message err) fn))
