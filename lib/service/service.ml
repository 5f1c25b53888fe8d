let src = Logs.Src.create "service" ~doc:"campaign-as-a-service daemon"

module Log = (val Logs.src_log src : Logs.LOG)
module Session = Propane.Runner.Session

type spec = {
  tenant : string;
  weight : int;
  name : string;
  sut : string;
  total : int;
  recipe : string;
  config : Propane.Runner.Config.t;
  live : Propane.Live.t option;
  plan : Propane.Plan.t option;
}

type config = {
  listen : Cluster.Address.t;
  http : Cluster.Address.t;
  state_dir : string;
  queue_max : int;
  tenant_quota : int;
  batch_max : int;
  heartbeat_timeout_s : float;
  exit_when_idle : bool;
  parse : string -> (spec, string) result;
}

let config ?(queue_max = 16) ?(tenant_quota = 4) ?(batch_max = 16)
    ?(heartbeat_timeout_s = 30.) ?(exit_when_idle = false) ~listen ~http
    ~state_dir ~parse () =
  {
    listen;
    http;
    state_dir;
    queue_max;
    tenant_quota;
    batch_max;
    heartbeat_timeout_s;
    exit_when_idle;
    parse;
  }

(* ------------------------- internal state ------------------------- *)

type phase =
  | Active
  | Draining of Manifest.state * string
      (** no new batches; finalize to the target state once the last
          in-flight run lands *)
  | Final of Manifest.state * string

type campaign = {
  cid : string;
  spec : spec;
  session : Session.t;
  telemetry : Propane.Telemetry.t;
  mutable phase : phase;
  mutable started : bool;  (* manifest flipped to Running *)
}

(* An HTTP connection must deliver its request within [deadline]. *)
type hconn = {
  hid : int;
  hfd : Unix.file_descr;
  hc : Http.conn;
  deadline : float;
}

type t = {
  cfg : config;
  manifest : Manifest.t;
  campaigns : (string, campaign) Hashtbl.t;
  mutable order : string list;  (* submission order, oldest first *)
  mutable next_id : int;
  fleet : campaign Cluster.Fleet.t;
  https : (int, hconn) Hashtbl.t;
  mutable next_hid : int;
  fleet_listen : Unix.file_descr;
  http_listen : Unix.file_descr;
}

let journal_path t cid = Filename.concat t.cfg.state_dir (cid ^ ".journal")
let results_path t cid = Filename.concat t.cfg.state_dir (cid ^ ".results")
let manifest_path state_dir = Filename.concat state_dir "manifest"

let campaigns_in_order t =
  List.filter_map (Hashtbl.find_opt t.campaigns) t.order

let active c = match c.phase with Active -> true | _ -> false

let phase_state c =
  match c.phase with
  | Active ->
      if Session.completed c.session > 0 || c.started then
        Manifest.Running
      else Manifest.Queued
  | Draining (s, _) | Final (s, _) -> s

let phase_reason c =
  match c.phase with Active -> "" | Draining (_, r) | Final (_, r) -> r

(* A campaign occupies a queue slot until it reaches a terminal
   state — draining ones still do, their runs are still in flight. *)
let occupied c = match c.phase with Final _ -> false | _ -> true

(* ------------------------- campaign lifecycle --------------------- *)

let mark_running t c =
  if not c.started then begin
    c.started <- true;
    Manifest.transition t.manifest ~id:c.cid Manifest.Running ~reason:""
  end

let finalize t c state reason =
  (match c.phase with
  | Final _ -> ()
  | _ ->
      c.phase <- Final (state, reason);
      Manifest.transition t.manifest ~id:c.cid state ~reason;
      Log.info (fun m ->
          m "campaign %s (%s): %s%s" c.cid c.spec.name
            (Manifest.state_to_string state)
            (if reason = "" then "" else ": " ^ reason)))

(* Runs [Session.finish]: the one place Failed_run surfaces. *)
let finish_session t c =
  match Session.finish c.session with
  | results ->
      (* The campaign's deliverable outlives its session: save the
         results next to the journal so GET /campaigns/:id/results can
         stream them after the daemon restarts.  A failed write is
         logged, not fatal — the journal still holds every outcome. *)
      (match Propane.Storage.save_results (results_path t c.cid) results with
      | Ok () -> ()
      | Error msg | (exception Sys_error msg) ->
          Log.warn (fun m ->
              m "campaign %s: results not saved: %s" c.cid msg));
      finalize t c Manifest.Done ""
  | exception Propane.Runner.Failed_run { index; outcome } ->
      finalize t c Manifest.Failed
        (Fmt.str "run %d failed (%a)" index Propane.Results.pp_status
           outcome.Propane.Results.status)
  | exception Invalid_argument msg -> finalize t c Manifest.Failed msg

let create_campaign t ~cid spec =
  let path = journal_path t cid in
  let config =
    {
      spec.config with
      Propane.Runner.Config.journal = Some path;
      resume = Sys.file_exists path;
    }
  in
  let telemetry = Propane.Telemetry.create () in
  let session =
    Session.create ~label:"Service"
      ~on_event:(Propane.Telemetry.observe telemetry)
      ~recipe:spec.recipe ?live:spec.live ?plan:spec.plan ~config
      ~sut:spec.sut ~campaign:spec.name ~total:spec.total ()
  in
  (* Fleet workers run their goldens lazily in their own processes. *)
  Propane.Telemetry.observe telemetry
    (Propane.Runner.Goldens_done { testcases = 0 });
  { cid; spec; session; telemetry; phase = Active; started = false }

let submit t body =
  match t.cfg.parse body with
  | Error msg -> Error (400, Printf.sprintf "invalid submission: %s" msg)
  | Ok spec ->
      let open_campaigns = List.filter occupied (campaigns_in_order t) in
      if List.length open_campaigns >= t.cfg.queue_max then
        Error
          ( 429,
            Printf.sprintf
              "queue full: %d campaigns queued or running (max %d)"
              (List.length open_campaigns) t.cfg.queue_max )
      else begin
        let of_tenant =
          List.filter (fun c -> c.spec.tenant = spec.tenant) open_campaigns
        in
        if List.length of_tenant >= t.cfg.tenant_quota then
          Error
            ( 429,
              Printf.sprintf
                "tenant %s has %d campaigns queued or running (quota %d)"
                spec.tenant (List.length of_tenant) t.cfg.tenant_quota )
        else begin
          let cid = Printf.sprintf "c%04d" t.next_id in
          t.next_id <- t.next_id + 1;
          Manifest.submit t.manifest ~id:cid ~body;
          match create_campaign t ~cid spec with
          | c ->
              Hashtbl.replace t.campaigns cid c;
              t.order <- t.order @ [ cid ];
              Log.info (fun m ->
                  m "campaign %s: %s/%s, %d runs, tenant %s (weight %d)" cid
                    spec.sut spec.name spec.total spec.tenant spec.weight);
              Ok c
          | exception Invalid_argument msg ->
              Manifest.transition t.manifest ~id:cid Manifest.Failed
                ~reason:msg;
              Error (400, msg)
        end
      end

let cancel t c =
  match c.phase with
  | Final _ -> ()
  | Draining _ -> ()
  | Active ->
      c.phase <- Draining (Manifest.Cancelled, "cancelled by operator");
      Log.info (fun m ->
          m "campaign %s (%s): cancelling, draining %d in-flight runs" c.cid
            c.spec.name
            (Cluster.Fleet.outstanding t.fleet c))

(* Restart recovery: every non-terminal manifest entry is re-parsed
   and its session recreated with resume semantics — the journal
   already holds everything that ran, so the service picks up exactly
   where the dead one stopped, byte-identically. *)
let recover t =
  match Manifest.load (manifest_path t.cfg.state_dir) with
  | Error msg -> invalid_arg (Printf.sprintf "Service.run: %s" msg)
  | Ok entries ->
      List.iter
        (fun (e : Manifest.entry) ->
          (match
             int_of_string_opt
               (String.sub e.id 1 (String.length e.id - 1))
           with
          | Some n when n >= t.next_id -> t.next_id <- n + 1
          | _ -> ());
          if not (Manifest.terminal e.state) then begin
            match t.cfg.parse e.body with
            | Error msg ->
                Manifest.transition t.manifest ~id:e.id Manifest.Failed
                  ~reason:(Printf.sprintf "unparseable on recovery: %s" msg)
            | Ok spec -> (
                match create_campaign t ~cid:e.id spec with
                | c ->
                    c.started <- e.state = Manifest.Running;
                    Hashtbl.replace t.campaigns e.id c;
                    t.order <- t.order @ [ e.id ];
                    Log.info (fun m ->
                        m "recovered campaign %s (%s): %d of %d runs \
                           journalled"
                          e.id spec.name
                          (Session.completed c.session)
                          spec.total)
                | exception Invalid_argument msg ->
                    Manifest.transition t.manifest ~id:e.id Manifest.Failed
                      ~reason:msg)
          end)
        entries

(* --------------------------- scheduling --------------------------- *)

let runnable c =
  active c
  && (not (Session.stopping c.session))
  && Session.failed c.session = None
  && Session.pending c.session > 0

(* Weighted fair share of the fleet: apportion the joined workers over
   the runnable campaigns proportionally to their weights (largest
   remainder, ties to the earliest submission).  Workers stick to
   their campaign while its allocation is not exceeded — switching
   costs a golden-run rebuild — so the fleet partitions itself and
   only rebalances when the campaign mix changes. *)
let allocation_targets ~nworkers runnables =
  let total_w =
    List.fold_left (fun acc c -> acc + max 1 c.spec.weight) 0 runnables
  in
  if total_w = 0 then []
  else begin
    let exact =
      List.map
        (fun c ->
          ( c.cid,
            float_of_int (nworkers * max 1 c.spec.weight)
            /. float_of_int total_w ))
        runnables
    in
    let floors = List.map (fun (cid, x) -> (cid, int_of_float x)) exact in
    let used = List.fold_left (fun acc (_, n) -> acc + n) 0 floors in
    let remainders =
      (* Stable sort: ties stay in submission order. *)
      List.stable_sort
        (fun (_, a) (_, b) -> Float.compare b a)
        (List.map (fun (cid, x) -> (cid, x -. Float.of_int (int_of_float x)))
           exact)
    in
    let bonus = ref (nworkers - used) in
    let extra =
      List.filter_map
        (fun (cid, _) ->
          if !bonus > 0 then begin
            decr bonus;
            Some cid
          end
          else None)
        remainders
    in
    List.map
      (fun (cid, n) ->
        (cid, n + if List.mem cid extra then 1 else 0))
      floors
  end

let welcome_of (c : campaign) =
  {
    Cluster.Protocol.sut = c.spec.sut;
    campaign = c.spec.name;
    seed = c.spec.config.Propane.Runner.Config.seed;
    total = c.spec.total;
    config = c.spec.recipe;
  }

(* The campaign a work-hungry worker should serve next. *)
let choose t serving =
  match List.filter runnable (campaigns_in_order t) with
  | [] -> None
  | runnables -> (
      let workers = List.length (Cluster.Fleet.workers t.fleet) in
      let targets = allocation_targets ~nworkers:(max 1 workers) runnables in
      let target c =
        match List.assoc_opt c.cid targets with Some n -> n | None -> 0
      in
      let assigned c = Cluster.Fleet.serving t.fleet c in
      let current =
        match serving with
        | Some c when List.memq c runnables -> Some c
        | _ -> None
      in
      match current with
      | Some c when assigned c <= target c -> Some c
      | _ -> (
          (* Most under-allocated runnable campaign; earliest
             submission wins ties (runnables are in order). *)
          let best =
            List.fold_left
              (fun acc c ->
                let deficit = target c - assigned c in
                match acc with
                | Some (_, d) when d >= deficit -> acc
                | _ -> Some (c, deficit))
              None runnables
          in
          match (best, current) with
          | Some (c, deficit), _ when deficit > 0 -> Some c
          | _, Some c -> Some c (* everyone is full; stay put *)
          | Some (c, _), None -> Some c
          | None, None -> None))

let source t =
  {
    Cluster.Fleet.choose = choose t;
    welcome = welcome_of;
    attached =
      (fun c ~worker ~host ~pid ->
        mark_running t c;
        Propane.Telemetry.observe c.telemetry
          (Propane.Runner.Worker_attached { worker; host; pid }));
    take =
      (fun c ~workers ->
        Session.take c.session ~batch_max:t.cfg.batch_max ~workers);
    record =
      (fun c ~index ~worker ~retries outcome ->
        match c.phase with
        | Final _ ->
            (* A straggler for a finalized campaign: the journal is
               closed, the run's outcome already recorded (or
               deliberately dropped by a cancel). *)
            ()
        | Active | Draining _ ->
            Session.record c.session ~index ~worker ~retries outcome);
    requeue =
      (fun c lost ->
        (* A draining or finalized campaign no longer wants them. *)
        if active c then Session.requeue c.session lost);
  }

(* ----------------------------- HTTP ------------------------------- *)

let estimate_json (e : Propagation.Estimate.t) =
  Json.Obj
    [
      ("value", Json.Num e.Propagation.Estimate.value);
      ("lo", Json.Num e.Propagation.Estimate.lo);
      ("hi", Json.Num e.Propagation.Estimate.hi);
    ]

let rankings_json c =
  match Session.live c.session with
  | None -> Json.Null
  | Some live -> (
      match Propane.Live.snapshot live with
      | Error _ -> Json.Null
      | Ok analysis ->
          let rows =
            Propagation.Ranking.sort_module_rows
              Propagation.Ranking.By_relative_permeability
              (Propagation.Ranking.module_rows
                 analysis.Propagation.Analysis.graph)
          in
          Json.List
            (List.map
               (fun (r : Propagation.Ranking.module_row) ->
                 Json.Obj
                   [
                     ("module", Json.Str r.Propagation.Ranking.module_name);
                     ( "relative_permeability",
                       estimate_json
                         r.Propagation.Ranking.relative_permeability_est );
                     ( "exposure",
                       estimate_json r.Propagation.Ranking.exposure_est );
                     ("resolved", Json.Bool r.Propagation.Ranking.resolved);
                   ])
               rows))

let digest_json c =
  match Session.live c.session with
  | None -> Json.Null
  | Some live ->
      let d = Propane.Live.digest live in
      Json.Obj
        [
          ("runs_observed", Json.Num (float_of_int d.Propane.Live.runs_observed));
          ("max_ci_width", Json.Num d.Propane.Live.max_ci_width);
          ("stable_for", Json.Num (float_of_int d.Propane.Live.stable_for));
          ( "resolved_modules",
            Json.Num (float_of_int d.Propane.Live.resolved_modules) );
          ("module_count", Json.Num (float_of_int d.Propane.Live.module_count));
        ]

let campaign_json ?(verbose = false) t c =
  let base =
    [
      ("id", Json.Str c.cid);
      ("tenant", Json.Str c.spec.tenant);
      ("weight", Json.Num (float_of_int c.spec.weight));
      ("name", Json.Str c.spec.name);
      ("sut", Json.Str c.spec.sut);
      ("state", Json.Str (Manifest.state_to_string (phase_state c)));
      ("reason", Json.Str (phase_reason c));
      ("total", Json.Num (float_of_int c.spec.total));
      ( "scheduled",
        Json.Num (float_of_int (Session.scheduled c.session)) );
      ( "completed",
        Json.Num (float_of_int (Session.completed c.session)) );
      ("pending", Json.Num (float_of_int (Session.pending c.session)));
      ( "outstanding",
        Json.Num (float_of_int (Cluster.Fleet.outstanding t.fleet c)) );
      ("workers", Json.Num (float_of_int (Cluster.Fleet.serving t.fleet c)));
    ]
  in
  if not verbose then Json.Obj base
  else begin
    let telemetry =
      match
        Json.parse
          (Propane.Telemetry.to_json (Propane.Telemetry.snapshot c.telemetry))
      with
      | Ok j -> j
      | Error _ -> Json.Null
    in
    Json.Obj
      (base
      @ [
          ("telemetry", telemetry);
          ("analysis", digest_json c);
          ("rankings", rankings_json c);
        ])
  end

let fleet_json t =
  let now = Unix.gettimeofday () in
  let roster = Cluster.Fleet.workers t.fleet in
  let workers =
    List.map
      (fun (w : campaign Cluster.Fleet.worker) ->
        Json.Obj
          [
            ("id", Json.Num (float_of_int w.id));
            ("host", Json.Str w.host);
            ("pid", Json.Num (float_of_int w.pid));
            ( "campaign",
              match w.serving with
              | Some c -> Json.Str c.cid
              | None -> Json.Null );
            ( "outstanding",
              Json.Num (float_of_int (List.length w.outstanding)) );
            ("completed", Json.Num (float_of_int w.completed));
            ("idle", Json.Bool w.parked);
            ("last_seen_s", Json.Num (Float.max 0.0 (now -. w.last_seen)));
          ])
      roster
  in
  (* Bottleneck diagnosis: queued runs with no idle worker means the
     fleet is the constraint; each extra worker could immediately take
     a full batch, so that is the unit the sizing hint speaks in. *)
  let queue_depth =
    List.fold_left
      (fun acc c -> acc + Session.pending c.session)
      0
      (List.filter runnable (campaigns_in_order t))
  in
  let idle =
    List.length
      (List.filter (fun (w : campaign Cluster.Fleet.worker) -> w.parked) roster)
  in
  let bottleneck, hint =
    if queue_depth > 0 && idle = 0 then begin
      let wanted = (queue_depth + t.cfg.batch_max - 1) / t.cfg.batch_max in
      ( "workers",
        Printf.sprintf
          "%d more worker%s would help: %d runs queued and every worker busy"
          wanted
          (if wanted = 1 then "" else "s")
          queue_depth )
    end
    else if queue_depth = 0 && idle > 0 then
      ( "work",
        Printf.sprintf
          "%d worker%s idle: the fleet is waiting on submissions (or a \
           plan-round barrier)"
          idle
          (if idle = 1 then "" else "s") )
    else ("none", "")
  in
  Json.Obj
    [
      ("count", Json.Num (float_of_int (List.length workers)));
      ("idle", Json.Num (float_of_int idle));
      ("queue_depth", Json.Num (float_of_int queue_depth));
      ("bottleneck", Json.Str bottleneck);
      ("hint", Json.Str hint);
      ("workers", Json.List workers);
    ]

let error_json msg = Json.to_string (Json.Obj [ ("error", Json.Str msg) ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Streams the saved results file ({!Propane.Storage}) of a finished
   campaign.  The file outlives the session — and the daemon — so this
   also serves campaigns that finished before a restart and are no
   longer in the live table. *)
let serve_results t cid =
  let path = results_path t cid in
  if Sys.file_exists path then
    match read_file path with
    | body -> (200, Some "text/plain", body)
    | exception Sys_error msg -> (500, None, error_json msg)
  else
    match Hashtbl.find_opt t.campaigns cid with
    | Some c when occupied c ->
        ( 409,
          None,
          error_json
            (Printf.sprintf "campaign %s has no results yet (%s)" cid
               (Manifest.state_to_string (phase_state c))) )
    | Some _ ->
        ( 404,
          None,
          error_json
            (Printf.sprintf "campaign %s finished without results" cid) )
    | None -> (404, None, error_json (Printf.sprintf "no campaign %s" cid))

let route t (req : Http.request) =
  let campaign_id path =
    let prefix = "/campaigns/" in
    let pl = String.length prefix in
    if
      String.length path > pl
      && String.equal (String.sub path 0 pl) prefix
    then Some (String.sub path pl (String.length path - pl))
    else None
  in
  (* [/campaigns/:id/results] arrives as ["<id>/results"] after the
     prefix strip. *)
  let results_of sub =
    let suffix = "/results" in
    let sl = String.length suffix and cl = String.length sub in
    if cl > sl && String.equal (String.sub sub (cl - sl) sl) suffix then
      Some (String.sub sub 0 (cl - sl))
    else None
  in
  let json (status, body) = (status, None, body) in
  match (req.Http.meth, req.Http.path) with
  | "POST", "/campaigns" -> (
      match submit t req.Http.body with
      | Ok c ->
          json
            ( 201,
              Json.to_string
                (Json.Obj
                   [
                     ("id", Json.Str c.cid);
                     ( "state",
                       Json.Str (Manifest.state_to_string (phase_state c)) );
                   ]) )
      | Error (status, msg) -> json (status, error_json msg))
  | "GET", "/campaigns" ->
      json
        ( 200,
          Json.to_string
            (Json.Obj
               [
                 ( "campaigns",
                   Json.List
                     (List.map (campaign_json t) (campaigns_in_order t)) );
               ]) )
  | "GET", "/fleet" -> json (200, Json.to_string (fleet_json t))
  | meth, path -> (
      match (meth, campaign_id path) with
      | "GET", Some sub -> (
          match results_of sub with
          | Some cid -> serve_results t cid
          | None -> (
              match Hashtbl.find_opt t.campaigns sub with
              | Some c ->
                  json (200, Json.to_string (campaign_json ~verbose:true t c))
              | None ->
                  json (404, error_json (Printf.sprintf "no campaign %s" sub))
              ))
      | "DELETE", Some cid -> (
          match Hashtbl.find_opt t.campaigns cid with
          | Some c ->
              cancel t c;
              json
                ( 202,
                  Json.to_string
                    (Json.Obj
                       [
                         ("id", Json.Str c.cid);
                         ( "state",
                           Json.Str
                             (Manifest.state_to_string (phase_state c)) );
                       ]) )
          | None ->
              json (404, error_json (Printf.sprintf "no campaign %s" cid)))
      | _ ->
          json
            ( 404,
              error_json
                (Printf.sprintf "no resource %s %s" req.Http.meth
                   req.Http.path) ))

let handle_http t h =
  let respond ?content_type status body =
    (try Http.write_all h.hfd (Http.response ~status ?content_type body)
     with Unix.Unix_error _ -> ());
    Hashtbl.remove t.https h.hid;
    try Unix.close h.hfd with Unix.Unix_error _ -> ()
  in
  match Http.next h.hc with
  | Error msg -> respond 400 (error_json msg)
  | Ok None -> ()
  | Ok (Some req) ->
      let status, content_type, body =
        try route t req
        with exn ->
          ( 500,
            None,
            error_json
              (Printf.sprintf "internal error: %s" (Printexc.to_string exn))
          )
      in
      respond ?content_type status body

(* --------------------------- main loop ---------------------------- *)

let close_http t h =
  Hashtbl.remove t.https h.hid;
  try Unix.close h.hfd with Unix.Unix_error _ -> ()

let read_http t h =
  let buf = Bytes.create 16384 in
  match Unix.read h.hfd buf 0 (Bytes.length buf) with
  | 0 -> close_http t h
  | n ->
      Http.feed h.hc (Bytes.sub_string buf 0 n);
      handle_http t h
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (_, _, _) -> close_http t h

(* The control surface serves one request per connection; a client
   that has not delivered it within the heartbeat budget is cut off,
   like a worker that never joins. *)
let serve_http t readable =
  if List.memq t.http_listen readable then
    List.iter
      (fun hfd ->
        let deadline = Unix.gettimeofday () +. t.cfg.heartbeat_timeout_s in
        let h = { hid = t.next_hid; hfd; hc = Http.conn (); deadline } in
        t.next_hid <- t.next_hid + 1;
        Hashtbl.add t.https h.hid h)
      (Cluster.Address.accept t.http_listen);
  let now = Unix.gettimeofday () in
  List.iter
    (fun h ->
      if List.memq h.hfd readable then read_http t h
      else if now > h.deadline then close_http t h)
    (Hashtbl.fold (fun _ h acc -> h :: acc) t.https [])

let advance_campaigns t =
  List.iter
    (fun c ->
      match c.phase with
      | Final _ -> ()
      | Draining (target, reason) ->
          if Cluster.Fleet.outstanding t.fleet c = 0 then begin
            Session.abort c.session;
            finalize t c target reason
          end
      | Active ->
          if Session.failed c.session <> None then finish_session t c
          else if Session.complete c.session then begin
            if Session.stopping c.session then begin
              (* Adaptive stop: drain in-flight runs first so their
                 outcomes reach the journal tail. *)
              if Cluster.Fleet.outstanding t.fleet c = 0 then
                finish_session t c
            end
            else finish_session t c
          end
          else if
            Session.stopping c.session
            && Cluster.Fleet.outstanding t.fleet c = 0
          then finish_session t c)
    (campaigns_in_order t)

let close_everything t =
  Cluster.Fleet.close t.fleet;
  Hashtbl.iter
    (fun _ h -> try Unix.close h.hfd with Unix.Unix_error _ -> ())
    t.https;
  Hashtbl.reset t.https;
  (try Unix.close t.fleet_listen with Unix.Unix_error _ -> ());
  (try Unix.close t.http_listen with Unix.Unix_error _ -> ());
  Cluster.Address.unlink t.cfg.listen;
  Cluster.Address.unlink t.cfg.http

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let run ?on_tick ?(stop = fun () -> `Continue) cfg =
  if cfg.queue_max < 1 then invalid_arg "Service.run: queue_max must be >= 1";
  if cfg.tenant_quota < 1 then
    invalid_arg "Service.run: tenant_quota must be >= 1";
  if cfg.batch_max < 1 then invalid_arg "Service.run: batch_max must be >= 1";
  if cfg.heartbeat_timeout_s <= 0.0 then
    invalid_arg "Service.run: heartbeat_timeout_s must be positive";
  mkdir_p cfg.state_dir;
  let manifest =
    match Manifest.append (manifest_path cfg.state_dir) with
    | Ok m -> m
    | Error msg -> invalid_arg (Printf.sprintf "Service.run: %s" msg)
  in
  let fleet_listen = Cluster.Address.listen cfg.listen in
  let http_listen = Cluster.Address.listen cfg.http in
  let t =
    {
      cfg;
      manifest;
      campaigns = Hashtbl.create 16;
      order = [];
      next_id = 1;
      fleet =
        Cluster.Fleet.create ~heartbeat_timeout_s:cfg.heartbeat_timeout_s
          fleet_listen;
      https = Hashtbl.create 8;
      next_hid = 0;
      fleet_listen;
      http_listen;
    }
  in
  recover t;
  Log.info (fun m ->
      m "service up: fleet on %s, control on %s, state in %s (%d campaigns \
         recovered)"
        (Cluster.Address.to_string cfg.listen)
        (Cluster.Address.to_string cfg.http)
        cfg.state_dir
        (Hashtbl.length t.campaigns));
  let source = source t in
  let finished = ref None in
  while !finished = None do
    let extra =
      t.http_listen :: Hashtbl.fold (fun _ h acc -> h.hfd :: acc) t.https []
    in
    serve_http t (Cluster.Fleet.poll ~extra t.fleet source);
    advance_campaigns t;
    Cluster.Fleet.distribute t.fleet source;
    List.iter
      (fun c -> if occupied c then Session.flush c.session)
      (campaigns_in_order t);
    Option.iter (fun f -> f ()) on_tick;
    (match stop () with
    | `Continue ->
        if
          cfg.exit_when_idle
          && t.order <> []
          && List.for_all
               (fun c -> not (occupied c))
               (campaigns_in_order t)
        then finished := Some `Drain
    | (`Drain | `Abort) as f -> finished := Some f)
  done;
  match !finished with
  | Some `Abort ->
      (* Crash simulation for tests: drop everything on the floor —
         no journal flush, no manifest transition, no Done — exactly
         the state a SIGKILL leaves behind (modulo OS buffers).  Only
         the fds close, so in-process workers see EOF and exit. *)
      close_everything t;
      Error "aborted"
  | _ ->
      (* Graceful drain: dismiss the fleet, flush what ran, leave
         every open campaign in the manifest for the next start. *)
      Cluster.Fleet.dismiss t.fleet;
      List.iter
        (fun c -> if occupied c then Session.close c.session)
        (campaigns_in_order t);
      Manifest.close t.manifest;
      close_everything t;
      Log.info (fun m -> m "service drained and stopped");
      Ok ()
