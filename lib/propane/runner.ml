let src = Logs.Src.create "propane.runner" ~doc:"PROPANE campaign runner"

module Log = (val Logs.src_log src : Logs.LOG)

let default_max_ms = 20_000

(* ------------------------------------------------------------------ *)
(* Per-domain execution arena.

   Everything an injection run needs besides the (immutable, shared)
   frozen golden lives here and is reused across every run a domain
   executes: the signal-name table for per-name sampling, the flat
   sample buffer handed to observers, and the divergence observer's
   per-signal scratch.  One arena per worker domain means the
   millisecond loop allocates nothing and domains never contend on
   mutable state — goldens are frozen int arrays shared read-only. *)

type arena = {
  a_names : string array;  (* signal-list order, as trace sets use *)
  a_buf : int array;  (* one slot per traced signal *)
  a_first : int array;  (* divergence scratch, one slot per signal *)
}

let make_arena (sut : Sut.t) =
  let names = Array.of_list (Sut.signal_names sut) in
  let n = Array.length names in
  { a_names = names; a_buf = Array.make n 0; a_first = Array.make n (-1) }

(* One flat read of every traced signal (signal-list order) into a
   reusable buffer.  SUTs exposing a bulk [snapshot] skip the per-name
   lookup of [read]. *)
let sampler_of ~arena (instance : Sut.instance) =
  match instance.Sut.snapshot with
  | Some snap -> snap
  | None ->
      fun buf ->
        Array.iteri (fun i n -> buf.(i) <- instance.Sut.read n) arena.a_names

(* The golden loop.  With a state hook, the instance's state is saved
   at the start of every millisecond in [instants] (ascending, each
   > 0) the run reaches; [instants] is only forced then, so SUTs without
   the hook never pay for collecting them. *)
let golden_saving ~max_ms ~instants (sut : Sut.t) testcase =
  let arena = make_arena sut in
  let instance = sut.Sut.instantiate testcase in
  let traces = Trace_set.create ~signals:(Sut.signal_names sut) () in
  let sampler = sampler_of ~arena instance in
  let buf = arena.a_buf in
  let hook = instance.Sut.state_hook in
  let save_at = if Option.is_some hook then instants () else [||] in
  let saved = ref [] and next = ref 0 in
  let rec go ms =
    if ms < max_ms && not (instance.Sut.finished ()) then begin
      if !next < Array.length save_at && save_at.(!next) = ms then begin
        Option.iter (fun h -> saved := (ms, h.Sut.save ()) :: !saved) hook;
        incr next
      end;
      instance.Sut.step ();
      sampler buf;
      Trace_set.sample_array traces buf;
      go (ms + 1)
    end
  in
  go 0;
  (traces, List.rev !saved)

let golden_run ?(max_ms = default_max_ms) sut testcase =
  fst (golden_saving ~max_ms ~instants:(fun () -> [||]) sut testcase)

let frozen_of ~max_ms ~instants sut testcase =
  let traces, saved = golden_saving ~max_ms ~instants sut testcase in
  Golden.freeze_saved ~saved traces

let frozen_golden ?(max_ms = default_max_ms) ?(save_at = []) sut testcase =
  let instants () =
    Array.of_list (List.sort_uniq Int.compare (List.filter (( < ) 0) save_at))
  in
  frozen_of ~max_ms ~instants sut testcase

(* Crash reasons travel through tab-separated journals and result
   files; separators inside an exception message must not break a
   record in two. *)
let sanitize_reason s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let observed_run_in ~arena ?rng ?run_timeout_ms ?from (sut : Sut.t)
    ~duration_ms testcase injection (observer : Observer.t) =
  let target = injection.Injection.target in
  if not (Sut.has_signal sut target) then
    invalid_arg
      (Printf.sprintf "Runner: %S has no signal %S" sut.Sut.name target);
  let rng =
    match rng with Some r -> r | None -> Simkernel.Rng.create 0x5EEDL
  in
  let deadline =
    match run_timeout_ms with
    | None -> None
    | Some budget_ms ->
        if budget_ms < 1 then
          invalid_arg "Runner: run_timeout_ms must be >= 1";
        Some
          (budget_ms, Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.))
  in
  let width = Sut.signal_width sut target in
  let inject_at = Simkernel.Sim_time.to_ms injection.Injection.at in
  let error = injection.Injection.error in
  let first_fire = Injection.first_fire_ms injection in
  let run_ms = ref duration_ms in
  let status = ref Results.Completed in
  let crash ~ms exn =
    run_ms := ms;
    status :=
      Results.Crashed
        { at_ms = ms; reason = sanitize_reason (Printexc.to_string exn) }
  in
  (match
     let instance = sut.Sut.instantiate testcase in
     (* [from] is a golden state saved no later than the first fire:
        everything before it would re-simulate the golden run. *)
     match (from, instance.Sut.state_hook) with
     | Some (ms, state), Some hook ->
         hook.Sut.restore state;
         (instance, ms)
     | _ -> (instance, 0)
   with
  | exception e -> crash ~ms:0 e
  | instance, start ->
      let sampler = sampler_of ~arena instance in
      let buf = arena.a_buf in
      (* Each millisecond: watchdog, finish check, injection, step,
         sample.  Any exception out of the SUT is this run's crash, not
         the campaign's. *)
      let rec go ms =
        if ms >= duration_ms then ()
        else
          match deadline with
          | Some (budget_ms, d) when Unix.gettimeofday () > d ->
              run_ms := ms;
              status := Results.Hung { budget_ms }
          | _ -> (
              match
                if instance.Sut.finished () then `Finished
                else begin
                  if Error_model.fires error ~inject_ms:inject_at ~ms then
                    instance.Sut.inject target (fun v ->
                        Error_model.apply error ~width ~rng v);
                  instance.Sut.step ();
                  sampler buf;
                  `Stepped
                end
              with
              | exception e -> crash ~ms e
              | `Finished ->
                  (* The SUT reached its end state before the golden
                     duration (an injected run may finish early); the
                     observer's length-mismatch rule sees the true
                     length. *)
                  run_ms := ms
              | `Stepped ->
                  observer.Observer.on_sample ~ms buf;
                  (* Saturation is only consulted once the first
                     corruption happened: a deterministic SUT cannot
                     diverge before it, and stopping earlier would skip
                     the injection itself (a [Delayed] model arms at
                     [inject_at] but fires later). *)
                  if ms >= first_fire && observer.Observer.saturated () then
                    run_ms := ms + 1
                  else go (ms + 1))
      in
      go start);
  observer.Observer.finish ~run_ms:!run_ms;
  (!run_ms, !status)

(* Truncation counts from the *last* firing of the error model, so a
   delayed or intermittent injection's whole lifetime survives the
   cut; for single-shot models this is the injection time, as before. *)
let truncated_duration ?truncate_after_ms injection duration_ms =
  match truncate_after_ms with
  | None -> duration_ms
  | Some extra ->
      min duration_ms (Injection.last_fire_ms injection + extra + 1)

let run_experiment_in ~arena ?rng ?truncate_after_ms ?run_timeout_ms
    ?(observers = []) sut ~golden testcase injection =
  let duration_ms =
    truncated_duration ?truncate_after_ms injection
      (Golden.frozen_duration_ms golden)
  in
  let until_ms =
    (* A truncated run only vouches for the window it covers. *)
    match truncate_after_ms with None -> None | Some _ -> Some duration_ms
  in
  let div, divergences =
    Observer.divergence ?until_ms ~scratch:arena.a_first golden
  in
  (* Riders such as a recorder must see every sample, so only a bare
     divergence run skips the golden prefix. *)
  let from =
    match observers with
    | [] ->
        Golden.latest_saved golden ~upto:(Injection.first_fire_ms injection)
    | _ :: _ -> None
  in
  let _run_ms, status =
    observed_run_in ~arena ?rng ?run_timeout_ms ?from sut ~duration_ms
      testcase injection
      (Observer.combine (div :: observers))
  in
  let divergences =
    (* How far a hung run got before the watchdog fired is wall-clock
       dependent; partial divergences are dropped so outcomes (and
       resumed journals) stay deterministic.  A crash happens at a
       simulated instant, so its divergences are kept. *)
    match status with Results.Hung _ -> [] | _ -> divergences ()
  in
  { Results.testcase = Testcase.id testcase; injection; divergences; status }

let run_experiment ?rng ?truncate_after_ms ?run_timeout_ms ?observers sut
    ~golden testcase injection =
  run_experiment_in ~arena:(make_arena sut) ?rng ?truncate_after_ms
    ?run_timeout_ms ?observers sut ~golden testcase injection

(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    max_ms : int;
    seed : int64;
    truncate_after_ms : int option;
    run_timeout_ms : int option;
    retries : int;
    fail_fast : bool;
    jobs : int;
    journal : string option;
    resume : bool;
    journal_batch : int;
    keep_traces : bool;
    stop_when : Live.rule option;
    budget : int option;
    plan : Plan.mode;
  }

  type role = [ `Outcome | `Resumable | `Plan ]

  (* The one classification of the fields by what they can change,
     keyed by their [encode] names.  A field listed nowhere counts as
     [`Outcome]: over-keying a cached estimate costs only a miss. *)
  let role = function
    | "jobs" | "journal_batch" | "fail_fast" | "stop_when" | "keep_traces" ->
        `Resumable
    | "budget" | "plan" -> `Plan
    | _ -> `Outcome

  let default =
    {
      max_ms = default_max_ms;
      seed = 42L;
      truncate_after_ms = None;
      run_timeout_ms = None;
      retries = 0;
      fail_fast = false;
      jobs = 1;
      journal = None;
      resume = false;
      journal_batch = 32;
      keep_traces = false;
      stop_when = None;
      budget = None;
      plan = Plan.Adaptive;
    }

  let make ?(max_ms = default.max_ms) ?(seed = default.seed)
      ?truncate_after_ms ?run_timeout_ms ?(retries = default.retries)
      ?(fail_fast = default.fail_fast) ?(jobs = default.jobs) ?journal
      ?(resume = default.resume) ?(journal_batch = default.journal_batch)
      ?(keep_traces = default.keep_traces) ?stop_when ?budget
      ?(plan = default.plan) () =
    {
      max_ms;
      seed;
      truncate_after_ms;
      run_timeout_ms;
      retries;
      fail_fast;
      jobs;
      journal;
      resume;
      journal_batch;
      keep_traces;
      stop_when;
      budget;
      plan;
    }

  let restrict keep t =
    let field name v d = if keep (role name) then v else d in
    {
      max_ms = field "max_ms" t.max_ms default.max_ms;
      seed = field "seed" t.seed default.seed;
      truncate_after_ms =
        field "truncate_after_ms" t.truncate_after_ms default.truncate_after_ms;
      run_timeout_ms =
        field "run_timeout_ms" t.run_timeout_ms default.run_timeout_ms;
      retries = field "retries" t.retries default.retries;
      fail_fast = field "fail_fast" t.fail_fast default.fail_fast;
      jobs = field "jobs" t.jobs default.jobs;
      journal = t.journal;
      resume = t.resume;
      journal_batch = field "journal_batch" t.journal_batch default.journal_batch;
      keep_traces = field "keep_traces" t.keep_traces default.keep_traces;
      stop_when = field "stop_when" t.stop_when default.stop_when;
      budget = field "budget" t.budget default.budget;
      plan = field "plan" t.plan default.plan;
    }

  let validate t =
    if t.max_ms < 1 then Error "max_ms must be >= 1"
    else if match t.truncate_after_ms with Some ms -> ms < 0 | None -> false
    then Error "truncate_after_ms must be >= 0"
    else if t.jobs < 1 then Error "jobs must be >= 1"
    else if t.retries < 0 then Error "retries must be >= 0"
    else if
      match t.run_timeout_ms with Some ms -> ms < 1 | None -> false
    then Error "run_timeout_ms must be >= 1"
    else if t.journal_batch < 1 then Error "journal_batch must be >= 1"
    else if t.resume && t.journal = None then Error "resume requires a journal"
    else if match t.budget with Some b -> b < 1 | None -> false then
      Error "budget must be >= 1"
    else Ok ()

  (* The encoded form travels inside cluster recipes (one field of a
     [;]-separated recipe), so fields are [,]-separated [k=v] pairs and
     must never contain either separator.  [journal] and [resume] are
     host-local (a path on the coordinator's disk means nothing to a
     worker) and are deliberately not encoded; [decode] leaves them at
     their defaults. *)
  let encode t =
    let b = Buffer.create 96 in
    let add k v =
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v
    in
    add "max_ms" (string_of_int t.max_ms);
    add "seed" (Int64.to_string t.seed);
    Option.iter
      (fun ms -> add "truncate_after_ms" (string_of_int ms))
      t.truncate_after_ms;
    Option.iter
      (fun ms -> add "run_timeout_ms" (string_of_int ms))
      t.run_timeout_ms;
    add "retries" (string_of_int t.retries);
    add "fail_fast" (string_of_bool t.fail_fast);
    add "jobs" (string_of_int t.jobs);
    add "journal_batch" (string_of_int t.journal_batch);
    add "keep_traces" (string_of_bool t.keep_traces);
    Option.iter (fun r -> add "stop_when" (Live.rule_to_string r)) t.stop_when;
    (* Unplanned campaigns encode no plan fields, keeping their recipes
       (and everything content-addressed on them) byte-stable. *)
    Option.iter
      (fun budget ->
        add "budget" (string_of_int budget);
        add "plan" (Plan.mode_to_string t.plan))
      t.budget;
    Buffer.contents b

  let decode s =
    let ( let* ) = Result.bind in
    let int_field k v =
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "Runner.Config: bad %s %S" k v)
    in
    let bool_field k v =
      match bool_of_string_opt v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "Runner.Config: bad %s %S" k v)
    in
    let* config =
      List.fold_left
        (fun acc field ->
          let* t = acc in
          match String.index_opt field '=' with
          | None ->
              Error (Printf.sprintf "Runner.Config: bad field %S" field)
          | Some i -> (
              let k = String.sub field 0 i in
              let v =
                String.sub field (i + 1) (String.length field - i - 1)
              in
              match k with
              | "max_ms" ->
                  let* n = int_field k v in
                  Ok { t with max_ms = n }
              | "seed" -> (
                  match Int64.of_string_opt v with
                  | Some seed -> Ok { t with seed }
                  | None ->
                      Error (Printf.sprintf "Runner.Config: bad seed %S" v))
              | "truncate_after_ms" ->
                  let* n = int_field k v in
                  Ok { t with truncate_after_ms = Some n }
              | "run_timeout_ms" ->
                  let* n = int_field k v in
                  Ok { t with run_timeout_ms = Some n }
              | "retries" ->
                  let* n = int_field k v in
                  Ok { t with retries = n }
              | "fail_fast" ->
                  let* b = bool_field k v in
                  Ok { t with fail_fast = b }
              | "jobs" ->
                  let* n = int_field k v in
                  Ok { t with jobs = n }
              | "journal_batch" ->
                  let* n = int_field k v in
                  Ok { t with journal_batch = n }
              | "keep_traces" ->
                  let* b = bool_field k v in
                  Ok { t with keep_traces = b }
              | "stop_when" ->
                  let* rule =
                    Result.map_error
                      (Printf.sprintf "Runner.Config: %s")
                      (Live.rule_of_string v)
                  in
                  Ok { t with stop_when = Some rule }
              | "budget" ->
                  let* n = int_field k v in
                  Ok { t with budget = Some n }
              | "plan" ->
                  let* mode =
                    Result.map_error
                      (Printf.sprintf "Runner.Config: %s")
                      (Plan.mode_of_string v)
                  in
                  Ok { t with plan = mode }
              | _ -> Error (Printf.sprintf "Runner.Config: unknown field %S" k)))
        (Ok default)
        (String.split_on_char ',' s)
    in
    let* () = validate config in
    Ok config
end

(* ------------------------------------------------------------------ *)

type event =
  | Started of { total : int; skipped : int; jobs : int }
  | Goldens_done of { testcases : int }
  | Worker_attached of { worker : int; host : string; pid : int }
  | Run_done of {
      index : int;
      worker : int;
      completed : int;
      total : int;
      status : Results.status;
      retries : int;
    }
  | Analysis_tick of Live.digest
  | Finished of { completed : int; total : int }

exception Failed_run of { index : int; outcome : Results.outcome }

(* The per-run generator is derived from the seed and the experiment's
   position alone, so run order (and hence parallel scheduling) cannot
   change any outcome.  [attempt] (default 0, the original derivation)
   shifts to a fresh stream per re-execution of a failed run, so a
   retry is not condemned to replay the exact corruption that crashed
   the previous attempt. *)
let rng_for ?(attempt = 0) seed index =
  Simkernel.Rng.create
    (Int64.add
       (Int64.add seed
          (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L))
       (Int64.mul (Int64.of_int attempt) 0xD1B54A32D192ED03L))

module String_map = Map.Make (String)

(* The instants a golden run saves its state at, per test case: the
   distinct first fires (> 0) of [indices], ascending.  Built lazily,
   the first time a golden instance turns out to carry a state hook. *)
let first_fires experiments (indices : int Seq.t) =
  let by_testcase =
    lazy
      (Seq.fold_left
         (fun acc idx ->
           let tc, injection = experiments.(idx) in
           let ms = Injection.first_fire_ms injection in
           if ms <= 0 then acc
           else
             String_map.update (Testcase.id tc)
               (fun l -> Some (ms :: Option.value l ~default:[]))
               acc)
         String_map.empty indices
      |> String_map.map (fun l ->
             Array.of_list (List.sort_uniq Int.compare l)))
  in
  fun tc () ->
    Option.value ~default:[||]
      (String_map.find_opt (Testcase.id tc) (Lazy.force by_testcase))

(* Frozen golden runs for exactly the test cases the remaining
   experiments need — a resumed campaign does not re-execute goldens
   whose injection runs are all journalled — each saving the SUT's state
   at the first fires of those runs.  The recording trace sets are
   dropped immediately after freezing, so a campaign holds one compact
   immutable array (plus its saved states) per test case, shared
   read-only across worker domains. *)
let goldens_for ~max_ms sut experiments remaining =
  let instants = first_fires experiments (List.to_seq remaining) in
  List.fold_left
    (fun acc idx ->
      let tc, _ = experiments.(idx) in
      let id = Testcase.id tc in
      if String_map.mem id acc then acc
      else begin
        Log.debug (fun m -> m "golden run for %s" id);
        String_map.add id
          (frozen_of ~max_ms ~instants:(instants tc) sut tc)
          acc
      end)
    String_map.empty remaining

let or_invalid = function Ok v -> v | Error msg -> invalid_arg msg

(* One injection run of the campaign: streaming by default; with
   [keep] an opt-in recorder rides along, which also disables early
   exit (a recorder never saturates), reproducing the legacy
   record-everything data path.  A crashed or hung attempt is re-run up
   to [retries] times on a fresh RNG stream before its failure stands;
   the returned int is the number of re-executions actually taken. *)
let run_one ~arena ~seed ?truncate_after_ms ?run_timeout_ms ?(retries = 0)
    ~keep ~golden_for (sut : Sut.t) experiments idx =
  let testcase, injection = experiments.(idx) in
  let golden = golden_for testcase in
  let attempt_one attempt =
    let rng = rng_for ~attempt seed idx in
    if keep then begin
      let recorder, traces =
        Observer.recorder ~signals:(Sut.signal_names sut)
      in
      let outcome =
        run_experiment_in ~arena ~rng ?truncate_after_ms ?run_timeout_ms
          ~observers:[ recorder ] sut ~golden testcase injection
      in
      (outcome, Some (traces ()))
    end
    else
      ( run_experiment_in ~arena ~rng ?truncate_after_ms ?run_timeout_ms sut
          ~golden testcase injection,
        None )
  in
  let rec go attempt =
    let outcome, traces = attempt_one attempt in
    if Results.is_failed outcome.Results.status && attempt < retries then begin
      Log.debug (fun m ->
          m "run %d attempt %d %a; retrying" idx attempt Results.pp_status
            outcome.Results.status);
      go (attempt + 1)
    end
    else (outcome, traces, attempt)
  in
  go 0

(* The single-run entry point a cluster worker process drives: the
   campaign is expanded once, golden runs execute lazily the first time
   a test case is needed (a worker that is never handed a test case's
   runs never pays for its golden) and stay memoised for every later
   run.  Outcome determinism is index-based exactly as in {!run}, so
   any partition of indices over any number of processes reproduces the
   serial campaign outcome for outcome. *)
let executor ?(config = Config.default) ~seed (sut : Sut.t) campaign =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Runner.executor: %s" msg));
  let {
    Config.max_ms;
    truncate_after_ms;
    run_timeout_ms;
    retries;
    _;
  } =
    config
  in
  let experiments = Array.of_list (Campaign.experiments campaign) in
  let total = Array.length experiments in
  let arena = make_arena sut in
  (* A worker may be handed any index, so each golden saves the state
     at every first fire of its test case. *)
  let instants = first_fires experiments (Seq.init total Fun.id) in
  let goldens : (string, Golden.frozen) Hashtbl.t = Hashtbl.create 8 in
  let golden_for tc =
    let id = Testcase.id tc in
    match Hashtbl.find_opt goldens id with
    | Some frozen -> frozen
    | None ->
        Log.debug (fun m -> m "golden run for %s" id);
        let frozen = frozen_of ~max_ms ~instants:(instants tc) sut tc in
        Hashtbl.add goldens id frozen;
        frozen
  in
  fun index ->
    if index < 0 || index >= total then
      invalid_arg
        (Printf.sprintf "Runner.executor: index %d outside campaign of %d"
           index total);
    let outcome, _traces, retried =
      run_one ~arena ~seed ?truncate_after_ms ?run_timeout_ms ~retries
        ~keep:false ~golden_for sut experiments index
    in
    (outcome, retried)

(* ------------------------------------------------------------------ *)
(* The scheduling core: one campaign's outcome table, work source,
   index-order journal cursor, live analysis and stop rule, driven by
   every backend — [run]'s in-process transports, the cluster
   coordinator and the campaign service. *)

module Session = struct
  type t = {
    label : string;
    sut : string;
    campaign : string;
    total : int;
    fail_fast : bool;
    stop_when : Live.rule option;
    outcomes : Results.outcome option array;
    on_disk : bool array;  (* replayed, or appended out of order *)
    deselected : bool array;
    writer : Journal.writer option;
    mutable next_to_write : int;
    source : Plan.t;  (* static cursor or budget plan *)
    journal_had_rounds : bool;
        (* the resumed journal already carries plan-round records *)
    mutable completed : int;
    skipped : int;
    live : Live.t option;
    mutable stopping : bool;
    mutable failed : (int * Results.outcome) option;
    mutable closed : bool;
    emit : event -> unit;
  }

  (* Journal replay for resume.  Mismatched metadata means the journal
     belongs to a different campaign — refusing loudly beats silently
     corrupting a resume. *)
  let replay path ~label ~outcomes ~sut ~campaign ~seed ~total =
    match Journal.load path with
    | Error msg -> invalid_arg (Printf.sprintf "%s: %s" label msg)
    | Ok j -> (
        match Journal.validate j ~path ~sut ~campaign ~seed ~total with
        | Error msg -> invalid_arg (Printf.sprintf "%s: %s" label msg)
        | Ok () ->
            let table = Journal.completed j in
            Hashtbl.iter
              (fun index outcome -> outcomes.(index) <- Some outcome)
              table;
            (Hashtbl.length table, j.Journal.rounds <> []))

  (* The reorder buffer: completions arrive in scheduling order, but a
     cursor chasing the first still-missing index writes records in
     strict campaign-index order, so every journal is byte-identical to
     the serial journal's prefix whatever the interleaving.  Completions
     beyond the gap park in [outcomes] until it fills; deselected
     indices never produce a record and the cursor steps over them. *)
  let flush_journal t =
    match t.writer with
    | None -> t.next_to_write <- t.total
    | Some w ->
        while
          t.next_to_write < t.total
          && (t.outcomes.(t.next_to_write) <> None
             || t.deselected.(t.next_to_write))
        do
          (match t.outcomes.(t.next_to_write) with
          | Some outcome when not t.on_disk.(t.next_to_write) ->
              or_invalid (Journal.append w ~index:t.next_to_write outcome)
          | _ -> ());
          t.next_to_write <- t.next_to_write + 1
        done

  let check_stop t =
    match (t.live, t.stop_when) with
    | Some l, Some rule ->
        if (not t.stopping) && Live.satisfied l rule then begin
          Log.info (fun m ->
              m "%s: stop rule %a satisfied after %d runs; draining"
                t.campaign Live.pp_rule rule t.completed);
          t.stopping <- true
        end
    | _ -> ()

  let create ?(label = "Session.create") ?on_event ?(recipe = "") ?live
      ?select ?cells ?plan ~config ~sut ~campaign ~total () =
    (match Config.validate config with
    | Ok () -> ()
    | Error msg -> invalid_arg (Printf.sprintf "%s: %s" label msg));
    let {
      Config.seed;
      fail_fast;
      jobs;
      journal;
      resume;
      journal_batch;
      stop_when;
      budget;
      _;
    } =
      config
    in
    if total < 0 then invalid_arg (Printf.sprintf "%s: negative total" label);
    if stop_when <> None && live = None then
      invalid_arg
        (Printf.sprintf "%s: stop_when requires a live analysis" label);
    if budget <> None && plan = None then
      invalid_arg (Printf.sprintf "%s: a budget requires a plan" label);
    let emit ev = match on_event with Some f -> f ev | None -> () in
    let outcomes = Array.make total None in
    let skipped, journal_had_rounds =
      match journal with
      | Some path when resume && Sys.file_exists path ->
          replay path ~label ~outcomes ~sut ~campaign ~seed ~total
      | _ -> (0, false)
    in
    let deselected =
      match select with
      | None -> Array.make total false
      | Some f -> Array.init total (fun idx -> not (f idx))
    in
    (* Unplanned campaigns get the static single-round source; a budget
       plan is primed with the replayed outcomes so it re-derives its
       round sequence instead of re-executing them. *)
    let source =
      match plan with
      | Some p ->
          Array.iteri
            (fun index -> function
              | Some outcome -> Plan.prime p ~index outcome | None -> ())
            outcomes;
          p
      | None ->
          Plan.static ?select
            ~done_:(fun idx -> outcomes.(idx) <> None)
            ~total ()
    in
    let writer =
      Option.map
        (fun path ->
          or_invalid
            (if skipped > 0 then Journal.append_to ~batch:journal_batch path
             else
               (* The recipe workers receive is journalled for [propane
                  replay], and cell provenance lands right after the
                  header, before any outcome, so even an immediately
                  killed reuse campaign leaves its plan on record.
                  Resumes append and never rewrite either. *)
               let w =
                 Journal.create ~batch:journal_batch
                   ?recipe:
                     (if String.equal recipe "" then None else Some recipe)
                   ~path ~sut ~campaign ~seed ~total ()
               in
               match (w, cells) with
               | Ok w, Some cells ->
                   Result.map (fun () -> w) (Journal.append_cells w cells)
               | w, _ -> w))
        journal
    in
    let t =
      {
        label;
        sut;
        campaign;
        total;
        fail_fast;
        stop_when;
        outcomes;
        on_disk = Array.map Option.is_some outcomes;
        deselected;
        writer;
        next_to_write = 0;
        source;
        journal_had_rounds;
        completed = skipped;
        skipped;
        live;
        stopping = false;
        failed = None;
        closed = false;
        emit;
      }
    in
    Log.info (fun m ->
        m "campaign %s on %s: %d runs (%d journalled)" campaign sut total
          skipped);
    emit (Started { total; skipped; jobs });
    (* Replayed outcomes enter the live analysis in index order before
       anything executes, so a resumed adaptive campaign judges its stop
       rule over exactly the evidence an uninterrupted one has seen. *)
    (match live with
    | Some l when skipped > 0 ->
        Array.iter
          (function Some o -> ignore (Live.observe l o) | None -> ())
          outcomes;
        emit (Analysis_tick (Live.digest l))
    | _ -> ());
    check_stop t;
    flush_journal t;
    t

  let completed t = t.completed

  (* Replays plus every index the source has enqueued so far — constant
     for static sources, growing round by round under a budget plan. *)
  let scheduled t = t.skipped + Plan.fresh_scheduled t.source
  let pending t = Plan.pending t.source
  let candidates t = Plan.candidates t.source
  let stopping t = t.stopping
  let failed t = t.failed
  let live t = t.live
  let complete t = Plan.exhausted t.source

  let take t ~batch_max ~workers =
    if t.stopping || t.failed <> None then []
    else
      (* Single-run takes skip the queue-length probe: the serial loop
         pays one source call per run, as it always has. *)
      let batch =
        if batch_max <= 1 then 1
        else
          max 1 (min batch_max (Plan.pending t.source / max 1 (2 * workers)))
      in
      Plan.take t.source ~max:batch

  (* Back to the head of the queue: the reorder buffer is stalled on
     exactly these indices. *)
  let requeue t lost = Plan.requeue t.source lost

  (* Out-of-order safety valve: the cursor may be stalled before
     [index], but the record must reach the disk now; journals tolerate
     out-of-order records, and [on_disk] keeps the cursor from
     appending it twice. *)
  let append_out_of_order t index outcome =
    if index >= t.next_to_write && not t.on_disk.(index) then begin
      Option.iter
        (fun w -> or_invalid (Journal.append w ~index outcome))
        t.writer;
      t.on_disk.(index) <- true
    end

  let record t ~index ~worker ~retries outcome =
    if index < 0 || index >= t.total then
      invalid_arg
        (Printf.sprintf "%s: result index %d out of range" t.label index);
    match t.outcomes.(index) with
    | Some _ ->
        (* A reassigned run finished twice; outcomes are
           index-deterministic, so both copies are identical and the
           first stands. *)
        Log.debug (fun m ->
            m "%s: duplicate result for run %d from worker %d" t.campaign
              index worker)
    | None ->
        t.outcomes.(index) <- Some outcome;
        t.completed <- t.completed + 1;
        (* A budget plan advances its round barrier here (and may refill
           the queue); a static source just ticks towards exhaustion. *)
        Plan.complete t.source ~index outcome;
        flush_journal t;
        t.emit
          (Run_done
             {
               index;
               worker;
               completed = t.completed;
               total = t.total;
               status = outcome.Results.status;
               retries;
             });
        (match t.live with
        | Some l ->
            t.emit (Analysis_tick (Live.observe l outcome));
            check_stop t
        | None -> ());
        if
          t.fail_fast
          && Results.is_failed outcome.Results.status
          && t.failed = None
        then begin
          t.failed <- Some (index, outcome);
          (* The failure reaches the disk even while the cursor is
             stalled before it. *)
          append_out_of_order t index outcome
        end

  let flush t = Option.iter Journal.flush t.writer

  (* An early stop (fail-fast, stop rule, cancellation, an exception)
     can leave completed runs parked beyond a never-filled gap; they go
     out of order, in index order, so no finished work is lost and
     resume re-runs only the genuinely missing indices. *)
  let write_tail t =
    Array.iteri
      (fun index o ->
        match o with
        | Some outcome -> append_out_of_order t index outcome
        | None -> ())
      t.outcomes

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Option.iter Journal.close t.writer
    end

  let abort t =
    if not t.closed then begin
      write_tail t;
      close t
    end

  let finish t =
    (match t.failed with
    | Some (index, outcome) ->
        (* The caller reports it: [Failed_run] carries the failure. *)
        Log.info (fun m ->
            m "%s: run %d failed and fail_fast is set; aborting" t.campaign
              index);
        abort t;
        raise (Failed_run { index; outcome })
    | None -> ());
    let planned = Plan.is_planned t.source in
    (* A planned campaign leaves never-allocated gaps, so its parked
       records go out first (the journal stays run records, then
       rounds); then an exhausted plan's allocation history lands in
       one batch.  A rule-stopped plan journals no rounds — its resume
       re-derives them at the real finish — and a resumed
       already-finished journal never doubles them. *)
    if t.stopping || planned then write_tail t;
    (match t.writer with
    | Some w
      when planned && (not t.journal_had_rounds) && Plan.exhausted t.source ->
        or_invalid (Journal.append_rounds w (Plan.rounds t.source))
    | _ -> ());
    t.emit (Finished { completed = t.completed; total = t.total });
    let results = Results.create ~sut:t.sut ~campaign:t.campaign in
    (* Only an adaptive stop, a cell-reuse selection or a budget plan may
       leave runs unexecuted.  Judged once, outside the fold: a scan of
       [deselected] per unexecuted run would make it quadratic. *)
    let gaps_allowed =
      t.stop_when <> None || t.stopping || planned
      || Array.exists Fun.id t.deselected
    in
    Array.iter
      (function
        | Some outcome -> Results.add results outcome
        | None -> assert gaps_allowed)
      t.outcomes;
    close t;
    results
end

(* [jobs] worker domains fed by the calling domain, which owns the
   session: it hands each idle domain one index at a time and records
   every result itself — [Coordinator.serve]'s loop with a queue in
   place of a socket.  Each domain runs in a private arena, so the
   frozen goldens are all they share.  An exception escaping a domain
   poisons the campaign: nothing more is handed out, the runs in flight
   drain into the session, and the exception is re-raised. *)
let run_in_domains ~jobs ~session ~run_one ~deliver =
  let mutex = Mutex.create () and cond = Condition.create () in
  let work = Queue.create () and results = Queue.create () in
  let closing = ref false in
  let worker wid () =
    let run = run_one () in
    let rec loop () =
      match
        Mutex.protect mutex (fun () ->
            while Queue.is_empty work && not !closing do
              Condition.wait cond mutex
            done;
            if !closing then None else Some (Queue.pop work))
      with
      | None -> ()
      | Some idx ->
          let r = match run idx with r -> Ok r | exception e -> Error e in
          Mutex.protect mutex (fun () ->
              Queue.push (wid, idx, r) results;
              Condition.broadcast cond);
          if Result.is_ok r then loop ()
    in
    loop ()
  in
  let domains = List.init jobs (fun wid -> Domain.spawn (worker wid)) in
  let live = ref jobs and in_flight = ref 0 and failure = ref None in
  let rec hand_out () =
    if !failure = None && !in_flight < !live then
      match Session.take session ~batch_max:1 ~workers:jobs with
      | [] -> ()
      | idx :: _ ->
          incr in_flight;
          Mutex.protect mutex (fun () ->
              Queue.push idx work;
              Condition.broadcast cond);
          hand_out ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect mutex (fun () ->
          closing := true;
          Condition.broadcast cond);
      List.iter Domain.join domains)
    (fun () ->
      hand_out ();
      (* Under a budget plan an empty take can be a round barrier
         waiting on the runs in flight; only with nothing in flight is
         the source exhausted or the campaign stopped. *)
      while !in_flight > 0 do
        let batch =
          Mutex.protect mutex (fun () ->
              while Queue.is_empty results do
                Condition.wait cond mutex
              done;
              let batch = List.of_seq (Queue.to_seq results) in
              Queue.clear results;
              batch)
        in
        List.iter
          (fun (wid, idx, r) ->
            decr in_flight;
            match r with
            | Ok r -> deliver ~worker:wid idx r
            | Error e ->
                decr live;
                if !failure = None then failure := Some e)
          batch;
        hand_out ()
      done);
  Option.iter raise !failure

let run ?(config = Config.default) ?on_event ?on_run_traces ?live ?select
    ?cells ?recipe ?plan (sut : Sut.t) campaign =
  let experiments = Array.of_list (Campaign.experiments campaign) in
  let session =
    Session.create ~label:"Runner.run" ?on_event ?recipe ?live ?select ?cells
      ?plan ~config ~sut:sut.Sut.name ~campaign:campaign.Campaign.name
      ~total:(Array.length experiments) ()
  in
  Fun.protect
    ~finally:(fun () -> Session.abort session)
    (fun () ->
      let {
        Config.max_ms;
        seed;
        truncate_after_ms;
        run_timeout_ms;
        retries;
        jobs;
        keep_traces;
        _;
      } =
        config
      in
      let goldens =
        goldens_for ~max_ms sut experiments (Session.candidates session)
      in
      Option.iter
        (fun f -> f (Goldens_done { testcases = String_map.cardinal goldens }))
        on_event;
      let golden_for tc = String_map.find (Testcase.id tc) goldens in
      let keep = keep_traces || on_run_traces <> None in
      let run_one ~arena idx =
        run_one ~arena ~seed ?truncate_after_ms ?run_timeout_ms ~retries
          ~keep ~golden_for sut experiments idx
      in
      let deliver ~worker idx (outcome, traces, retried) =
        (match (on_run_traces, traces) with
        | Some f, Some set -> f ~index:idx outcome set
        | _ -> ());
        Session.record session ~index:idx ~worker ~retries:retried outcome
      in
      (if jobs = 1 then begin
         (* A serial barrier resolves synchronously in [record], so an
            empty take means the source is exhausted or the campaign
            stopped. *)
         let arena = make_arena sut in
         let rec serial () =
           match Session.take session ~batch_max:1 ~workers:1 with
           | [] -> ()
           | idx :: _ ->
               deliver ~worker:0 idx (run_one ~arena idx);
               serial ()
         in
         serial ()
       end
       else
         run_in_domains ~jobs ~session
           ~run_one:(fun () -> run_one ~arena:(make_arena sut))
           ~deliver);
      Session.finish session)
