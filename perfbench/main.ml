(* The repository benchmark: one workload per process, timed by block
   minima (see stats.ml), answer-checked on every pass.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints a readable report and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report
   the end-to-end metrics, traced runs the per-layer ones.  See
   README.md in this directory. *)

open Propane
open Perfbench
module P = Propagation
module S = Stats
module Builder = Dataflow.Builder

let block_runs = 16
let replays = 5
let min_passes = 3
let work_root = ".perfbench-work"
let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes path =
  if not (Sys.file_exists path) then 0
  else
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat path f)).Unix.st_size)
      0 (Sys.readdir path)

(* {1 Passes} *)

type ctx = {
  seed : int;
  dir : string;  (** this process's scratch directory *)
  tr : Tracing.t option;
  counters : Tracing.counters option;
  cpu : int option;  (** the CPU this pass runs on, when pinned *)
}

let wrap ctx sut =
  match ctx.counters with Some c -> Tracing.wrap c sut | None -> sut

let within ctx name f = Tracing.within ctx.tr name f

(* One campaign a pass executed, kept for the traced replays. *)
type phase = {
  sut : Sut.t;
  model : P.System_model.t;
  recipe : string option;  (** stored in the journal header *)
  campaign : Campaign.t;
  config : Runner.Config.t;
  order : int list;  (** indices in completion order *)
  outcomes : (int * Results.outcome) list;  (** ascending index *)
}

type pass = {
  blocks : S.block array;
  phases : phase list;
  fresh : int;  (** fresh injection runs *)
  failed_runs : int;
  checks : Checks.t list;
  facts : (string * float) list;  (** workload-specific facts *)
}

(* Watches one campaign's events: cuts run blocks and records the
   completion order. *)
type watch = { marker : S.marker; mutable rev_order : int list }

let watch rec_ = { marker = S.marker rec_ ~block_runs; rev_order = [] }

let on_event w = function
  | Runner.Run_done { index; _ } ->
      w.rev_order <- index :: w.rev_order;
      S.run_done w.marker
  | _ -> ()

let phase_of w ?recipe ~sut ~model ~campaign ~config results =
  S.close_runs w.marker;
  let order = List.rev w.rev_order in
  let outcomes = Results.outcomes results in
  if List.length order <> List.length outcomes then
    failwith "run events and results disagree";
  {
    sut;
    model;
    recipe;
    campaign;
    config;
    order;
    outcomes = List.combine (List.sort compare order) outcomes;
  }

let failed_in results = Results.failed_count results

let estimate_and_analyse ctx ~model results =
  let matrices =
    within ctx "estimator.estimate_all" (fun () ->
        ok_exn "estimate_all" (Estimator.estimate_all ~model results))
  in
  let analysis =
    within ctx "analysis.run" (fun () ->
        ok_exn "analysis" (P.Analysis.run model matrices))
  in
  (matrices, analysis)

(* {1 paper-sweep and paper-sweep-1worker} *)

let arrestment_name = (Arrestment.System.sut ()).Sut.name

let paper_serial ctx ~journal rec_ =
  let campaign = Systems.paper_campaign ~seed:ctx.seed in
  let sut = wrap ctx (Arrestment.System.sut ()) in
  let config = Systems.config ~journal ~seed:ctx.seed () in
  let recipe = Systems.paper_recipe ~seed:ctx.seed in
  let w = watch rec_ in
  let results =
    within ctx "runner.run" (fun () ->
        Runner.run ~config ~recipe ~on_event:(on_event w) sut campaign)
  in
  ( phase_of w ~recipe ~sut ~model:Arrestment.Model.system ~campaign ~config
      results,
    results )

(* The reference answer: every outcome recomputed through
   [Runner.executor], outside any timed pass. *)
let paper_reference ~seed =
  let campaign = Systems.paper_campaign ~seed in
  let sut = Arrestment.System.sut () in
  let config = Systems.config ~seed () in
  let exec = Runner.executor ~config ~seed:config.seed sut campaign in
  let results = Results.create ~sut:sut.name ~campaign:campaign.name in
  List.iteri
    (fun i _ -> Results.add results (fst (exec i)))
    (Campaign.experiments campaign);
  ok_exn "estimate_all"
    (Estimator.estimate_all ~model:Arrestment.Model.system results)

let paper_sweep (base : ctx) =
  let reference = paper_reference ~seed:base.seed in
  let first_journal = ref None in
  fun ctx ->
    let journal = Filename.concat ctx.dir "paper.journal" in
    let rec_ = S.recorder () in
    let phase, results = paper_serial ctx ~journal rec_ in
    let matrices, _ =
      estimate_and_analyse ctx ~model:Arrestment.Model.system results
    in
    S.mark rec_ Other ~runs:0;
    let bytes = read_file journal in
    let expected = Option.value !first_journal ~default:bytes in
    first_journal := Some expected;
    {
      blocks = S.blocks rec_;
      phases = [ phase ];
      fresh = Results.count results;
      failed_runs = failed_in results;
      checks =
        [
          Checks.same_matrices ~what:"matrices vs executor recomputation"
            matrices reference;
          Checks.same_bytes ~what:"journal vs first pass" bytes expected;
        ];
      facts = [];
    }

let worker_main ~connect ~trace ~cpu =
  if cpu >= 0 then ignore (Host.pin_cpu cpu);
  let make (w : Cluster.Protocol.welcome) =
    match Systems.seed_of_paper_recipe w.config with
    | None -> Error ("unknown recipe " ^ w.config)
    | Some seed ->
        let campaign = Systems.paper_campaign ~seed in
        if w.total <> Campaign.size campaign then
          Error "worker rebuilt a campaign of the wrong size"
        else
          let sut = Arrestment.System.sut () in
          let sut =
            if trace then Tracing.wrap (Tracing.counters ()) sut else sut
          in
          Ok
            (Runner.executor ~config:(Systems.config ~seed ()) ~seed:w.seed
               sut campaign)
  in
  match Cluster.Address.of_string connect with
  | Error e -> failwith e
  | Ok connect -> (
      match Cluster.Worker.run ~connect ~make () with
      | Ok _ -> exit 0
      | Error e ->
          prerr_endline ("perfbench worker: " ^ e);
          exit 1)

let paper_sweep_1worker (base : ctx) =
  (* The reference is the serial workload's journal and answer. *)
  let reference_journal, reference =
    let journal = Filename.concat base.dir "serial.journal" in
    let _, results = paper_serial base ~journal (S.recorder ())
    in
    ( read_file journal,
      ok_exn "estimate_all"
        (Estimator.estimate_all ~model:Arrestment.Model.system results) )
  in
  fun ctx ->
    let journal = Filename.concat ctx.dir "cluster.journal" in
    let campaign = Systems.paper_campaign ~seed:ctx.seed in
    let config = Systems.config ~journal ~seed:ctx.seed () in
    let addr =
      Cluster.Address.Unix_sock (Filename.concat ctx.dir "worker.sock")
    in
    let t0 = S.now_ns () in
    let rec_ = S.recorder () in
    let listen = Cluster.Address.listen addr in
    let pool =
      within ctx "cluster.spawn" (fun () ->
          Cluster.Local.spawn ~respawn_budget:0
            ~command:
              [|
                Sys.executable_name;
                "--worker";
                Cluster.Address.to_string addr;
                "--trace";
                (if ctx.tr = None then "0" else "1");
                "--cpu";
                (match ctx.cpu with Some c -> string_of_int c | None -> "-1");
              |]
            ~n:1 ())
    in
    (* the worker keeps the quiet CPU, the coordinator takes another *)
    Option.iter
      (fun c -> ignore (Host.pin_cpu c))
      (Option.bind ctx.cpu (fun _ -> Host.other_cpu ctx.cpu));
    let w = watch rec_ in
    let attached = ref 0 in
    let last_event = ref (S.now_ns ()) in
    let on_event ev =
      last_event := S.now_ns ();
      match ev with
      | Runner.Worker_attached _ -> attached := !last_event - t0
      | ev -> on_event w ev
    in
    let on_tick () =
      Cluster.Local.tend pool;
      if S.now_ns () - !last_event > 60_000_000_000 then
        failwith "cluster: no progress for 60 s"
    in
    let results =
      Fun.protect
        ~finally:(fun () ->
          Cluster.Local.shutdown pool;
          (try Unix.close listen with Unix.Unix_error _ -> ());
          Cluster.Address.unlink addr)
        (fun () ->
          within ctx "cluster.serve" (fun () ->
              Cluster.Coordinator.serve ~on_event ~on_tick
                ~recipe:(Systems.paper_recipe ~seed:ctx.seed)
                ~config ~listen ~sut:arrestment_name ~campaign:campaign.name
                ~total:(Campaign.size campaign) ()))
    in
    let phase =
      phase_of w
        ~recipe:(Systems.paper_recipe ~seed:ctx.seed)
        ~sut:(wrap ctx (Arrestment.System.sut ()))
        ~model:Arrestment.Model.system ~campaign ~config results
    in
    let matrices, _ =
      estimate_and_analyse ctx ~model:Arrestment.Model.system results
    in
    S.mark rec_ Other ~runs:0;
    {
      blocks = S.blocks rec_;
      phases = [ phase ];
      fresh = Results.count results;
      failed_runs = failed_in results;
      checks =
        [
          Checks.same_bytes ~what:"journal vs paper-sweep" (read_file journal)
            reference_journal;
          Checks.same_matrices ~what:"matrices vs paper-sweep" matrices
            reference;
        ];
      facts = [ ("cluster.attach_s", S.seconds_of_ns !attached) ];
    }

(* {1 dag-adaptive} *)

let dag_adaptive (_ : ctx) =
  let first = ref None in
  fun ctx ->
    let rec_ = S.recorder () in
    let dag = Systems.dag ~seed:ctx.seed in
    let campaign = Systems.dag_campaign dag in
    let model = Builder.model dag.system in
    let sut = wrap ctx (Builder.sut dag.system) in
    let budget = Campaign.size campaign in
    let plan =
      within ctx "plan.create" (fun () ->
          Plan.create ~mode:Plan.Adaptive ~budget ~model ~campaign ())
    in
    let config = Systems.config ~budget ~plan:Plan.Adaptive ~seed:ctx.seed () in
    let w = watch rec_ in
    let results =
      within ctx "runner.run" (fun () ->
          Runner.run ~config ~plan ~on_event:(on_event w) sut campaign)
    in
    let phase = phase_of w ~sut ~model ~campaign ~config results in
    let matrices, analysis = estimate_and_analyse ctx ~model results in
    S.mark rec_ Other ~runs:0;
    let exact m = float_of_int (dag.keep m) /. 16.0 in
    let expected = Option.value !first ~default:matrices in
    first := Some expected;
    let rounds =
      List.sort_uniq compare
        (List.map (fun (r : Journal.round) -> r.round) (Plan.rounds plan))
    in
    {
      blocks = S.blocks rec_;
      phases = [ phase ];
      fresh = Results.count results;
      failed_runs = failed_in results;
      checks =
        [
          Checks.cells_near_exact ~z:5.0 ~exact matrices;
          Checks.ranking_consistent ~exact analysis.module_rows;
          Checks.same_matrices ~what:"matrices vs first pass" matrices expected;
        ];
      facts = [ ("plan.rounds", float_of_int (List.length rounds)) ];
    }

(* {1 layered-reuse} *)

let layered_reuse (base : ctx) =
  (* The reference: a from-scratch campaign on the edited system. *)
  let reference =
    let l = Systems.layered ~seed:base.seed in
    let results =
      Runner.run
        ~config:(Systems.config ~seed:base.seed ())
        (Builder.sut l.edited)
        (Systems.layered_campaign l)
    in
    let stream = Estimator.Stream.create ~model:(Builder.model l.edited) () in
    List.iter (Estimator.Stream.observe stream) (Results.outcomes results);
    Estimator.Stream.matrices stream
  in
  fun ctx ->
    let cache = Filename.concat ctx.dir "cache" in
    remove_tree cache;
    let rec_ = S.recorder () in
    let l = Systems.layered ~seed:ctx.seed in
    let campaign = Systems.layered_campaign l in
    let recipe = Systems.layered_recipe ~seed:ctx.seed in
    let config = Systems.config ~seed:ctx.seed () in
    let half system label =
      let sut = wrap ctx (Builder.sut system) in
      let model = Builder.model system in
      let plan =
        within ctx ("reuse.plan." ^ label) (fun () ->
            Reuse.plan ~recipe ~sut ~model ~dir:cache campaign)
      in
      let w = watch rec_ in
      let results =
        within ctx "runner.run" (fun () ->
            Runner.run ~config ~select:(Reuse.select plan)
              ~on_event:(on_event w) sut campaign)
      in
      let phase = phase_of w ~sut ~model ~campaign ~config results in
      let stream =
        within ctx "reuse.compose" (fun () -> Reuse.compose plan results)
      in
      (plan, phase, results, stream)
    in
    let cold, cold_phase, cold_results, cold_stream = half l.base "cold" in
    ok_exn "persist"
      (within ctx "reuse.persist" (fun () ->
           Reuse.persist cold cold_stream cold_results));
    S.mark rec_ Other ~runs:0;
    let warm, warm_phase, warm_results, warm_stream = half l.edited "warm" in
    let model = Builder.model l.edited in
    let matrices =
      within ctx "estimator.matrices" (fun () ->
          Estimator.Stream.matrices warm_stream)
    in
    ignore
      (within ctx "analysis.run" (fun () ->
           ok_exn "analysis" (P.Analysis.run model matrices)));
    S.mark rec_ Other ~runs:0;
    {
      blocks = S.blocks rec_;
      phases = [ cold_phase; warm_phase ];
      fresh = Results.count cold_results + Results.count warm_results;
      failed_runs = failed_in cold_results + failed_in warm_results;
      checks =
        [
          (if Reuse.reused_cells cold = 0 then Ok ()
           else Error "cold half found a warm cache");
          Checks.same_set ~what:"dirty targets" ~expected:l.edited_inputs
            (Reuse.dirty_targets warm);
          Checks.same_matrices ~what:"warm tables vs from-scratch" matrices
            reference;
        ];
      facts =
        [
          ("cache.bytes_written", float_of_int (dir_bytes cache));
          ( "cache.hit_rate",
            float_of_int (Reuse.reused_cells warm)
            /. float_of_int (Reuse.total_cells warm) );
        ];
    }

let workloads =
  [
    ("paper-sweep", paper_sweep);
    ("dag-adaptive", dag_adaptive);
    ("layered-reuse", layered_reuse);
    ("paper-sweep-1worker", paper_sweep_1worker);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* {1 Running passes} *)

type measured = {
  pass : pass;
  peak_heap_mb : float;  (** the process's heap high-water mark so far *)
  minor_words : float;
  major_collections : int;
}

let run_pass ctx ~id ~label make_pass =
  Gc.compact ();
  let host = Host.choose_cpu () in
  Option.iter (fun t -> Tracing.set_pass t id) ctx.tr;
  let gc0 = Gc.quick_stat () in
  let t0 = S.now_ns () in
  let pass = make_pass { ctx with cpu = host.cpu } in
  let wall_s = S.seconds_of_ns (S.now_ns () - t0) in
  let gc1 = Gc.quick_stat () in
  let peak_heap_mb = peak_heap_mb () in
  Printf.printf
    "# %-8s pass %2d  wall %.4f s  peak heap %.2f MB  cpu %s  alu probe %.2f \
     ms  cache probe %s\n%!"
    label id wall_s peak_heap_mb
    (match host.cpu with Some c -> string_of_int c | None -> "-")
    host.alu_ms
    (String.concat " "
       (List.map (fun (c, t) -> Printf.sprintf "cpu%d:%.2fms" c t) host.cache_ms));
  {
    pass;
    peak_heap_mb;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_collections = gc1.major_collections - gc0.major_collections;
  }

(* One discarded warm-up pass, then passes until [seconds] have gone
   (at least [min_passes]).  Returns every pass, warm-up first. *)
let run_passes ctx ~seconds ~label make_pass =
  let forget m = { m with pass = { m.pass with phases = [] } } in
  let warm = forget (run_pass ctx ~id:(-1) ~label make_pass) in
  let t0 = Unix.gettimeofday () in
  (* only the newest pass keeps its outcomes, for the traced replays,
     so the heap does not grow with the number of passes *)
  let rec loop id acc =
    if id >= min_passes && Unix.gettimeofday () -. t0 >= seconds then
      List.rev acc
    else
      let acc = match acc with m :: rest -> forget m :: rest | [] -> [] in
      loop (id + 1) (run_pass ctx ~id ~label make_pass :: acc)
  in
  (warm, loop 0 [])

let minima measured = S.block_minima (List.map (fun m -> m.pass.blocks) measured)

(* {1 Traced replays}

   Layers called from inside [Runner.run] cannot be timed from outside,
   so the traced run replays the last traced pass's outcomes through the
   same public functions, [replays] times, keeping the fastest. *)

let timed f =
  let t0 = S.now_ns () in
  let r = f () in
  (r, S.now_ns () - t0)

let sum_ints = Array.fold_left ( + ) 0

let chunk_sums ~size times =
  let n = Array.length times in
  Array.init
    ((n + size - 1) / size)
    (fun c -> sum_ints (Array.sub times (c * size) (min n ((c + 1) * size) - (c * size))))

let elementwise_min = function
  | [] -> [||]
  | a :: rest ->
      Array.mapi (fun i x -> List.fold_left (fun m b -> min m b.(i)) x rest) a

let best f = List.fold_left min max_int (List.init replays (fun _ -> f ()))

type sweep = {
  per_run : int array;  (** per-run minima over the replays, ns *)
  block_ns : int;  (** sum of the [block_runs]-run block minima *)
  fastest_ns : int;  (** the fastest replay's total *)
  sut_counters : Tracing.counters;  (** of the fastest replay *)
}

(* Every run of the phase re-executed through [Runner.executor], goldens
   primed first so that only injection runs are timed. *)
let executor_replay counters phase =
  let exec =
    Runner.executor ~config:phase.config ~seed:phase.config.seed phase.sut
      phase.campaign
  in
  let experiments = Array.of_list (Campaign.experiments phase.campaign) in
  let primed = Hashtbl.create 4 in
  List.iter
    (fun i ->
      let tc = Testcase.id (fst experiments.(i)) in
      if not (Hashtbl.mem primed tc) then begin
        Hashtbl.add primed tc ();
        ignore (exec i)
      end)
    phase.order;
  Tracing.reset counters;
  let times =
    Array.of_list
      (List.map (fun i -> snd (timed (fun () -> ignore (exec i)))) phase.order)
  in
  (times, Tracing.copy counters)

let sweep counters phase =
  let reps = List.init replays (fun _ -> executor_replay counters phase) in
  let fastest, sut_counters =
    List.fold_left
      (fun (bt, bc) (t, c) -> if sum_ints t < sum_ints bt then (t, c) else (bt, bc))
      (List.hd reps) (List.tl reps)
  in
  {
    per_run = elementwise_min (List.map fst reps);
    block_ns =
      sum_ints
        (elementwise_min
           (List.map (fun (t, _) -> chunk_sums ~size:block_runs t) reps));
    fastest_ns = sum_ints fastest;
    sut_counters;
  }

type journal_replay = { j_total : int; j_append : int; j_bytes : int }

let journal_replay ~dir ~recipe phase =
  let path = Filename.concat dir "replay.journal" in
  let cfg = phase.config in
  let append = ref 0 in
  let (), total =
    timed (fun () ->
        let w =
          ok_exn "journal"
            (Journal.create ~batch:cfg.journal_batch ?recipe ~path
               ~sut:phase.sut.name ~campaign:phase.campaign.name ~seed:cfg.seed
               ~total:(Campaign.size phase.campaign) ())
        in
        List.iter
          (fun (index, o) ->
            let r, ns = timed (fun () -> Journal.append w ~index o) in
            ok_exn "journal append" r;
            append := !append + ns)
          phase.outcomes;
        Journal.close w)
  in
  let bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  { j_total = total; j_append = !append; j_bytes = bytes }

type plan_replay = { p_total : int; p_barrier : int; p_barriers : int }

(* A fresh plan driven through take/complete with the pass's outcomes;
   a completion that allocates the next round (or finishes the plan) is
   a barrier. *)
let plan_replay phase =
  let budget = Option.get phase.config.budget in
  let plan =
    Plan.create ~mode:Plan.Adaptive ~budget ~model:phase.model
      ~campaign:phase.campaign ()
  in
  let bank = Hashtbl.create 1024 in
  List.iter (fun (i, o) -> Hashtbl.replace bank i o) phase.outcomes;
  let barrier = ref 0 and barriers = ref 0 and runs = ref 0 in
  let (), total =
    timed (fun () ->
        while not (Plan.exhausted plan) do
          match Plan.take plan ~max:1 with
          | [ index ] ->
              let before = Plan.allocated plan in
              let (), ns =
                timed (fun () ->
                    Plan.complete plan ~index (Hashtbl.find bank index))
              in
              incr runs;
              if Plan.allocated plan <> before || Plan.exhausted plan then begin
                barrier := !barrier + ns;
                incr barriers
              end
          | _ -> failwith "plan replay stalled"
        done)
  in
  if !runs <> List.length phase.outcomes then
    failwith "plan replay scheduled other runs than the pass";
  { p_total = total; p_barrier = !barrier; p_barriers = !barriers }

let live_replay phase =
  let live = Live.create ~model:phase.model ~targets:phase.campaign.targets () in
  snd
    (timed (fun () ->
         List.iter (fun (_, o) -> ignore (Live.observe live o)) phase.outcomes))

let codec_replay phase =
  let decoder = Cluster.Frame.decoder () in
  snd
    (timed (fun () ->
         List.iter
           (fun (index, outcome) ->
             let payload =
               Cluster.Protocol.encode_to_coordinator
                 (Cluster.Protocol.Result { index; retries = 0; outcome })
             in
             Cluster.Frame.feed decoder (Cluster.Frame.encode payload);
             match Cluster.Frame.next decoder with
             | Ok (Some p) ->
                 ignore
                   (ok_exn "decode" (Cluster.Protocol.decode_to_coordinator p))
             | Ok None | Error _ -> failwith "frame did not round-trip")
           phase.outcomes))

let golden_replay phase =
  List.fold_left
    (fun (run_ns, freeze_ns) tc ->
      let traces, r =
        timed (fun () ->
            Runner.golden_run ~max_ms:phase.config.max_ms phase.sut tc)
      in
      let _, f = timed (fun () -> Golden.freeze traces) in
      (run_ns + r, freeze_ns + f))
    (0, 0) phase.campaign.testcases

(* {1 Metrics} *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let end_to_end ~peak_heap_mb ~fresh minima =
  [
    m "answer_s" "s" (S.total minima);
    m "setup_s" "s" (S.total ~kind:S.Setup minima);
    m "runs_per_s" "runs/s" (S.runs_per_s minima);
    m "runs_to_answer" "runs" (float_of_int fresh);
    m "peak_heap_mb" "MB" peak_heap_mb;
  ]

let last l = List.nth l (List.length l - 1)
let per a n = if n = 0 then 0.0 else float_of_int a /. float_of_int n

(* Every per-layer metric; a layer the workload does not load reads 0. *)
let per_layer ~ctx ~tracer ~counters ~untraced ~traced =
  let pass = (last traced).pass in
  let phases = pass.phases in
  let first = List.hd phases in
  let fresh = List.length first.outcomes in
  let span_s name = Tracing.min_per_pass tracer name in
  let fact name = List.assoc_opt name pass.facts in
  let sweeps = List.map (sweep counters) phases in
  let per_run =
    Array.concat (List.map (fun s -> Array.map float_of_int s.per_run) sweeps)
  in
  let runs = Array.length per_run in
  let c = Tracing.counters () in
  List.iter (fun s -> Tracing.add_into c s.sut_counters) sweeps;
  let fastest_ns = List.fold_left (fun a s -> a + s.fastest_ns) 0 sweeps in
  let golden, freeze =
    List.split
      (List.map
         (fun ph ->
           let reps = List.init replays (fun _ -> golden_replay ph) in
           ( List.fold_left (fun a (g, _) -> min a g) max_int reps,
             List.fold_left (fun a (_, f) -> min a f) max_int reps ))
         phases)
  in
  let journal =
    Option.map
      (fun _ ->
        let reps =
          List.init replays (fun _ ->
              journal_replay ~dir:ctx.dir ~recipe:first.recipe first)
        in
        let low f = List.fold_left (fun a r -> min a (f r)) max_int reps in
        {
          j_total = low (fun r -> r.j_total);
          j_append = low (fun r -> r.j_append);
          j_bytes = (List.hd reps).j_bytes;
        })
      first.config.journal
  in
  let planned = first.config.budget <> None in
  let plan =
    if not planned then None
    else
      let reps = List.init replays (fun _ -> plan_replay first) in
      let low f = List.fold_left (fun a r -> min a (f r)) max_int reps in
      Some
        {
          p_total = low (fun r -> r.p_total);
          p_barrier = low (fun r -> r.p_barrier);
          p_barriers = (List.hd reps).p_barriers;
        }
  in
  let clustered = fact "cluster.attach_s" <> None in
  let codec = if clustered then Some (best (fun () -> codec_replay first)) else None in
  let traced_minima = minima traced in
  let traced_answer = S.total traced_minima in
  let ns_s = S.seconds_of_ns in
  let parts =
    [
      S.total ~kind:S.Setup traced_minima;
      ns_s (List.fold_left (fun a s -> a + s.block_ns) 0 sweeps);
    ]
    @ List.map span_s
        [
          "estimator.estimate_all";
          "estimator.matrices";
          "analysis.run";
          "reuse.compose";
          "reuse.persist";
        ]
    @ List.filter_map Fun.id
        [
          Option.map (fun j -> ns_s j.j_total) journal;
          Option.map (fun p -> ns_s p.p_total) plan;
          Option.map ns_s codec;
        ]
  in
  Printf.printf "# closure: traced answer %.4f s, parts %s\n" traced_answer
    (String.concat " + " (List.map (Printf.sprintf "%.4f") parts));
  let gc_pass = last untraced in
  let pct p = Option.value (S.percentile ~p per_run) ~default:0.0 *. 1e-3 in
  let ms s = s *. 1e3 in
  let sum = List.fold_left ( + ) 0 in
  [
    m "sut.steps_per_run" "steps" (per c.steps runs);
    m "sut.prefix_share" "ratio" (per c.prefix_steps c.steps);
    m "sut.step_ns" "ns" (per c.step_ns c.steps);
    m "sut.sample_ns" "ns" (per c.sample_ns c.samples);
    m "sut.instantiate_us" "us" (per c.instantiate_ns c.instances *. 1e-3);
    m "runner.run_us_p50" "us" (pct 0.5);
    m "runner.run_us_p98" "us" (pct 0.98);
    m "runner.runs" "count" (float_of_int runs);
    m "runner.self_us_per_run" "us"
      (per (fastest_ns - Tracing.sut_ns c) runs *. 1e-3);
    m "runner.golden_ms" "ms" (float_of_int (sum golden) *. 1e-6);
    m "golden.freeze_ms" "ms" (float_of_int (sum freeze) *. 1e-6);
    m "gc.minor_words_per_run" "words"
      (gc_pass.minor_words /. float_of_int (max 1 gc_pass.pass.fresh));
    m "gc.major_collections" "count" (float_of_int gc_pass.major_collections);
    m "journal.append_us" "us"
      (match journal with Some j -> per j.j_append fresh *. 1e-3 | None -> 0.0);
    m "journal.bytes_per_run" "bytes"
      (match journal with Some j -> per j.j_bytes fresh | None -> 0.0);
    m "estimator.estimate_all_ms" "ms" (ms (span_s "estimator.estimate_all"));
    m "analysis.run_ms" "ms" (ms (span_s "analysis.run"));
    m "live.observe_us" "us"
      (if planned then per (best (fun () -> live_replay first)) fresh *. 1e-3
       else 0.0);
    m "plan.priors_ms" "ms"
      (if planned then
         float_of_int
           (best (fun () ->
                snd
                  (timed (fun () ->
                       Plan.priors ~model:first.model
                         ~targets:first.campaign.targets ()))))
         *. 1e-6
       else 0.0);
    m "plan.take_complete_us_per_run" "us"
      (match plan with
      | Some p -> per (p.p_total - p.p_barrier) fresh *. 1e-3
      | None -> 0.0);
    m "plan.barrier_ms" "ms"
      (match plan with
      | Some p -> per p.p_barrier p.p_barriers *. 1e-6
      | None -> 0.0);
    m "plan.rounds" "count" (Option.value (fact "plan.rounds") ~default:0.0);
    m "reuse.plan_cold_ms" "ms" (ms (span_s "reuse.plan.cold"));
    m "reuse.plan_warm_ms" "ms" (ms (span_s "reuse.plan.warm"));
    m "reuse.compose_ms" "ms" (ms (span_s "reuse.compose"));
    m "reuse.persist_ms" "ms" (ms (span_s "reuse.persist"));
    m "cache.bytes_written" "bytes"
      (Option.value (fact "cache.bytes_written") ~default:0.0);
    m "cache.hit_rate" "ratio" (Option.value (fact "cache.hit_rate") ~default:0.0);
    m "cluster.spawn_ms" "ms"
      (if clustered then
         ms
           (List.fold_left
              (fun a p ->
                Float.min a
                  (Option.get (List.assoc_opt "cluster.attach_s" p.pass.facts)))
              infinity traced)
       else 0.0);
    m "cluster.codec_us_per_run" "us"
      (match codec with Some t -> per t fresh *. 1e-3 | None -> 0.0);
    m "trace.overhead_share" "ratio"
      ((traced_answer /. S.total (minima untraced)) -. 1.0);
    m "trace.closure_error" "ratio" (S.closure_error ~parts ~total:traced_answer);
  ]

(* {1 Entry point} *)

let json_of_metrics metrics =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
           x.value x.unit_)
       metrics)

let usage () =
  prerr_endline
    "usage: main.exe --workload (paper-sweep|dag-adaptive|layered-reuse|\
     paper-sweep-1worker) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let trace = get "trace" = Some "1" in
  match get "worker" with
  | Some connect ->
      worker_main ~connect ~trace
        ~cpu:(Option.value (Option.bind (get "cpu") int_of_string_opt) ~default:(-1))
  | None ->
      let int_opt k = Option.bind (get k) int_of_string_opt in
      let workload = Option.value (get "workload") ~default:"" in
      let make =
        match List.assoc_opt workload workloads with
        | Some make -> make
        | None -> usage ()
      in
      let seed = match int_opt "seed" with Some s -> s | None -> usage () in
      let seconds =
        match Option.bind (get "seconds") float_of_string_opt with
        | Some s when s > 0.0 -> s
        | _ -> usage ()
      in
      let dir =
        Filename.concat work_root
          (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
      in
      (try Sys.mkdir work_root 0o755 with Sys_error _ -> ());
      remove_tree dir;
      Sys.mkdir dir 0o755;
      let ctx = { seed; dir; tr = None; counters = None; cpu = None } in
      let correct =
        Fun.protect
        ~finally:(fun () -> remove_tree dir)
        (fun () ->
          Printf.printf "# perfbench %s seed %d, %g s per measurement%s\n%!"
            workload seed seconds
            (if trace then ", traced" else "");
          let make_pass = make ctx in
          let measure ctx seconds label =
            let warm, passes = run_passes ctx ~seconds ~label make_pass in
            (warm :: passes, passes)
          in
          let all, metrics =
            if not trace then
              let all, passes = measure ctx seconds "untraced" in
              let fresh = (List.hd passes).pass.fresh in
              (* The high-water mark after set-up and the warm-up pass: a
                 user's process runs one campaign, while later passes of
                 this one only add allocator fragmentation, which lifts
                 the mark by up to 15% depending on how many passes fit. *)
              ( all,
                end_to_end ~peak_heap_mb:(List.hd all).peak_heap_mb ~fresh
                  (minima passes) )
            else
              let all_u, untraced = measure ctx (seconds /. 2.0) "untraced" in
              let tracer = Tracing.create () in
              let counters = Tracing.counters () in
              let tctx = { ctx with tr = Some tracer; counters = Some counters } in
              let all_t, traced = measure tctx (seconds /. 2.0) "traced" in
              Tracing.set_pass tracer (-1);
              let metrics =
                per_layer ~ctx:tctx ~tracer ~counters ~untraced ~traced
              in
              let spans =
                Filename.concat work_root
                  (Printf.sprintf "spans-%s-seed%d.tsv" workload seed)
              in
              Tracing.write tracer spans;
              Printf.printf "# spans written to %s\n" spans;
              (all_u @ all_t, metrics)
          in
          let runs = List.fold_left (fun a p -> a + p.pass.fresh) 0 all in
          let failed_runs =
            List.fold_left (fun a p -> a + p.pass.failed_runs) 0 all
          in
          let checks = List.concat_map (fun p -> p.pass.checks) all in
          let failures = Checks.all checks in
          List.iter (fun e -> Printf.printf "# CHECK FAILED: %s\n" e) failures;
          let attempted = runs + List.length checks in
          let failed = failed_runs + List.length failures in
          let metrics =
            if trace then
              metrics
              @ [ m "failed_share" "ratio"
                    (float_of_int failed /. float_of_int attempted) ]
            else metrics
          in
          List.iter
            (fun x -> Printf.printf "# %-30s %14.6g %s\n" x.name x.value x.unit_)
            metrics;
          let correct = failed = 0 in
          Printf.printf
            "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
             {%s}}\n%!"
            correct attempted failed (json_of_metrics metrics);
          correct)
      in
      if not correct then exit 1
