let src = Logs.Src.create "cluster.local" ~doc:"local worker pool"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  command : string array;
  mutable pids : int list;
  mutable budget : int;
  mutable stopped : bool;
}

let spawn_one command =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close devnull)
    (fun () ->
      Unix.create_process command.(0) command devnull Unix.stdout Unix.stderr)

let spawn ?respawn_budget ~command ~n () =
  if n < 1 then invalid_arg "Local.spawn: n must be >= 1";
  if Array.length command = 0 then invalid_arg "Local.spawn: empty command";
  let budget = match respawn_budget with Some b -> max 0 b | None -> 4 * n in
  let t = { command; pids = []; budget; stopped = false } in
  for _ = 1 to n do
    t.pids <- spawn_one command :: t.pids
  done;
  t

let reap t =
  let gone, alive =
    List.partition
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> false
        | _, status ->
            Log.info (fun m ->
                m "worker process %d exited (%s)" pid
                  (match status with
                  | Unix.WEXITED c -> Printf.sprintf "code %d" c
                  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
                  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
            true
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true)
      t.pids
  in
  t.pids <- alive;
  List.length gone

let tend t =
  if not t.stopped then
    let gone = reap t in
    for _ = 1 to min gone t.budget do
      t.budget <- t.budget - 1;
      Log.warn (fun m ->
          m "respawning a worker (%d respawns left)" t.budget);
      t.pids <- spawn_one t.command :: t.pids
    done

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    ignore (reap t);
    List.iter
      (fun pid ->
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      t.pids;
    (* Grace period, then escalate: a worker blocked in [Unix.read] on
       the coordinator socket dies to SIGTERM immediately; SIGKILL only
       matters if one is wedged in uninterruptible state.  Poll finely:
       a worker dismissed with [Done] is usually still tearing down when
       the coordinator gets here, and every poll interval is paid at the
       end of each campaign. *)
    let deadline = Unix.gettimeofday () +. 2.0 in
    while t.pids <> [] && Unix.gettimeofday () < deadline do
      if reap t = 0 then Unix.sleepf 0.001
    done;
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ())
      t.pids;
    t.pids <- []
  end
