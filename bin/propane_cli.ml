(* propane — command-line front end for the PROPANE reproduction; the
   sub-commands are listed in [main] at the end.  Arrestment campaigns
   are defined by [Arrestment.Recipe]: this file parses flags, picks a
   transport and prints. *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let log_term =
  Term.(const setup_logs $ Logs_cli.level ())

(* ------------------------------------------------------------------ *)

(* Inconsistent or mis-dimensioned matrices are a usage problem, not a
   crash: report them like cmdliner reports a bad flag (clean one-line
   message, exit 124) instead of letting Analysis.run_exn escape as an
   Invalid_argument backtrace. *)
let analysis_or_die model matrices =
  match Propagation.Analysis.run model matrices with
  | Ok analysis -> analysis
  | Error msg ->
      prerr_endline ("propane: inconsistent permeability matrices: " ^ msg);
      exit 124

let print_analysis_tables ?reference ?(ci = false) analysis =
  Report.Table.print (Report.Experiments.table1 ?reference ~ci analysis);
  print_newline ();
  Report.Table.print (Report.Experiments.table2 ~ci analysis);
  print_newline ();
  Report.Table.print (Report.Experiments.table3 ~ci analysis);
  print_newline ();
  List.iter
    (fun (output, _) ->
      Report.Table.print (Report.Experiments.table4 ~ci analysis output);
      print_newline ())
    analysis.Propagation.Analysis.output_paths

let ci_arg =
  let doc =
    "Add uncertainty columns to every table: per-pair n_err/n_inj counts and \
     95% confidence intervals (Table 1), interval bounds and rank \
     resolvedness (Tables 2-4).  Postulated values show zero-width \
     intervals."
  in
  Arg.(value & flag & info [ "ci" ] ~doc)

let dump_figures dir analysis =
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  write "permeability_graph.dot"
    (Report.Dot.of_perm_graph analysis.Propagation.Analysis.graph);
  List.iter
    (fun (output, tree) ->
      write
        (Printf.sprintf "backtrack_%s.dot" (Propagation.Signal.name output))
        (Report.Dot.of_backtrack_tree tree))
    analysis.Propagation.Analysis.backtrack_trees;
  List.iter
    (fun (input, tree) ->
      write
        (Printf.sprintf "trace_%s.dot" (Propagation.Signal.name input))
        (Report.Dot.of_trace_tree tree))
    analysis.Propagation.Analysis.trace_trees

let dot_dir =
  let doc = "Also write Graphviz .dot files for every graph and tree into $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DIR" ~doc)

(* analyze_cmd itself is defined after the campaign flags: its
   --by-model mode runs real (reduced) campaigns, one per error-model
   roster, shaped by --cases, --times, --seed, --window and --jobs. *)

(* ------------------------------------------------------------------ *)

(* Validated integer converters: nonsense like --jobs 0 or --retries -1
   must die at the command line with a usage error, not surface later as
   an Invalid_argument from the engine. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n ->
        Error
          (`Msg (Printf.sprintf "%s must be at least %d, got %d" what lo n))
    | None ->
        Error (`Msg (Printf.sprintf "%s must be an integer, got %S" what s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let address_conv =
  let parse s =
    match Cluster.Address.of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"ADDR" (parse, Cluster.Address.pp)

let seed_arg =
  let doc = "Campaign seed (campaigns are fully deterministic)." in
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc)

let cases_arg =
  let doc = "Test cases per axis: $(docv) masses x $(docv) velocities (paper: 5)." in
  Arg.(value & opt (int_at_least 2 "--cases") 3 & info [ "cases" ] ~docv:"N" ~doc)

let times_arg =
  let doc = "Number of injection instants, evenly spread in 0.5-5.0 s (paper: 10)." in
  Arg.(value & opt (int_at_least 1 "--times") 4 & info [ "times" ] ~docv:"N" ~doc)

let full_arg =
  let doc = "Run the paper-scale campaign (25 cases, 10 times, 52,000 runs)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let window_arg =
  let doc = "Direct-attribution window in ms (see Estimator)." in
  Arg.(
    value
    & opt (int_at_least 1 "--window") Propane.Estimator.default_window_ms
    & info [ "window" ] ~docv:"MS" ~doc)

let progress_arg =
  let doc = "Print progress every $(docv) runs (0 = silent)." in
  Arg.(value & opt int 0 & info [ "progress" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Worker domains for the campaign (1 = run serially)." in
  Arg.(value & opt (int_at_least 1 "--jobs") 1 & info [ "jobs" ] ~docv:"N" ~doc)

let workers_arg =
  let doc =
    "Spawn $(docv) local $(b,propane worker) processes and distribute the \
     campaign over them (0 = no worker processes).  Results and journal are \
     byte-identical to a serial run with the same seed."
  in
  Arg.(
    value
    & opt (int_at_least 0 "--workers") 0
    & info [ "workers" ] ~docv:"N" ~doc)

let listen_arg =
  let doc =
    "Accept $(b,propane worker) connections on $(docv) (unix:PATH or \
     tcp:HOST:PORT) instead of a private socket, so workers on other \
     machines can join the campaign.  Combines with $(b,--workers)."
  in
  Arg.(
    value & opt (some address_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let chaos_kill_arg =
  let doc =
    "Chaos harness: spawned workers exit (code 42) after sending $(docv) \
     results, forcing the coordinator down its reassignment and respawn \
     paths."
  in
  Arg.(
    value
    & opt (some (int_at_least 1 "--chaos-worker-kill-after")) None
    & info [ "chaos-worker-kill-after" ] ~docv:"N" ~doc)

let model_conv =
  let parse s =
    match
      Propane.Error_model.roster_of_string ~width:Arrestment.Signals.width s
    with
    | Ok _ -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"SPEC" (parse, Format.pp_print_string)

let model_arg =
  let doc =
    "Error-model roster for the campaign: $(b,single-bit) (default — the \
     paper's one flip per bit position), $(b,multi-bit:K) (K-bit flips, \
     positions spread), $(b,burst:L) (L adjacent bits), $(b,stuck-at) \
     (stuck-at-0 and stuck-at-ones) or $(b,stuck-at:C), $(b,offset:D) (+D \
     and -D), $(b,noise:A) (uniform nonzero delta in [-A,A]), $(b,uniform) \
     (replace with a different uniform value), and the temporal wrappers \
     $(b,delayed:MS)[:SPEC] and $(b,intermittent:PERIOD:WINDOW)[:SPEC] \
     (defaulting to wrapping single-bit)."
  in
  Arg.(
    value
    & opt model_conv Arrestment.Recipe.default_model
    & info [ "model" ] ~docv:"SPEC" ~doc)

let journal_arg =
  let doc =
    "Stream every outcome to an append-only journal at $(docv) as it \
     completes, so an interrupted campaign can be resumed (see \
     Propane.Journal)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Replay the --journal file and continue the campaign, skipping runs it \
     already records.  Results are identical to an uninterrupted campaign \
     with the same seed."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let run_timeout_arg =
  let doc =
    "Wall-clock watchdog per injection run, in milliseconds: a run over \
     budget is recorded as a hung outcome instead of stalling the campaign \
     (0 = no watchdog)."
  in
  Arg.(
    value
    & opt (int_at_least 0 "--run-timeout-ms") 0
    & info [ "run-timeout-ms" ] ~docv:"MS" ~doc)

let retries_arg =
  let doc =
    "Re-execute a crashed or hung run up to $(docv) times, each attempt on \
     a fresh deterministic RNG stream, before its failure stands."
  in
  Arg.(
    value
    & opt (int_at_least 0 "--retries") 0
    & info [ "retries" ] ~docv:"N" ~doc)

let fail_fast_arg =
  let doc =
    "Abort the campaign on the first run still crashed or hung after its \
     retry budget (the failed outcome is journalled before aborting).  \
     Without this flag failures are recorded as outcomes and the campaign \
     continues."
  in
  Arg.(value & flag & info [ "fail-fast" ] ~doc)

let chaos_crash_arg =
  let doc =
    "Chaos harness: make every injected run raise $(docv) simulated \
     milliseconds after its injection (exercises the failure handling; see \
     Propane.Fault)."
  in
  Arg.(
    value
    & opt (some (int_at_least 0 "--chaos-crash-after")) None
    & info [ "chaos-crash-after" ] ~docv:"MS" ~doc)

let chaos_hang_arg =
  let doc =
    "Chaos harness: make every injected run hang (burn wall-clock on each \
     step) from $(docv) simulated milliseconds after its injection on."
  in
  Arg.(
    value
    & opt (some (int_at_least 0 "--chaos-hang-after")) None
    & info [ "chaos-hang-after" ] ~docv:"MS" ~doc)

let stop_when_conv =
  let parse s =
    match Propane.Live.rule_of_string s with
    | Ok rule -> Ok rule
    | Error _ ->
        Error
          (`Msg
             (Printf.sprintf
                "--stop-when must be rankings-stable:N (N >= 1) or ci-width:W \
                 (0 < W <= 1), got %S"
                s))
  in
  Arg.conv ~docv:"RULE" (parse, Propane.Live.pp_rule)

let stop_when_arg =
  let doc =
    "Stop the campaign early once the live analysis satisfies $(docv): \
     $(b,rankings-stable:N) after the module ranking has not changed for N \
     consecutive runs, $(b,ci-width:W) once every 95% interval over the \
     campaign's target pairs is at most W wide.  Runs never executed are \
     absent from results and journal, so an early-stopped campaign remains \
     resumable."
  in
  Arg.(
    value
    & opt (some stop_when_conv) None
    & info [ "stop-when" ] ~docv:"RULE" ~doc)

let plan_mode_conv =
  let parse s =
    match Propane.Plan.mode_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"MODE"
    (parse, fun ppf m -> Format.pp_print_string ppf (Propane.Plan.mode_to_string m))

let budget_arg =
  let doc =
    "Run a budgeted campaign: instead of executing every experiment, a plan \
     ($(b,--plan)) decides which targets get how many of the $(docv) \
     injections, round by round.  Runs never allocated are absent from \
     results and journal; the round history is journalled, so kill-and-resume \
     re-derives the identical schedule."
  in
  Arg.(
    value
    & opt (some (int_at_least 1 "--budget")) None
    & info [ "budget" ] ~docv:"RUNS" ~doc)

let plan_arg =
  let doc =
    "Budget allocation mode (with $(b,--budget)): $(b,adaptive) spends a \
     pilot round proportionally to analytical priors, then refines towards \
     the widest unresolved rankings; $(b,uniform) splits the whole budget \
     evenly across targets in one round (the paper's fixed plan, scaled)."
  in
  Arg.(
    value
    & opt plan_mode_conv Propane.Plan.Adaptive
    & info [ "plan" ] ~docv:"MODE" ~doc)

let journal_batch_arg =
  let doc =
    "Commit journal records to disk every $(docv) appends instead of one \
     fsync-able flush per record.  Journal contents are unaffected — only \
     the crash-loss window: a killed campaign loses at most $(docv) - 1 \
     records, which --resume simply re-runs."
  in
  Arg.(
    value
    & opt
        (int_at_least 1 "--journal-batch")
        Propane.Runner.Config.default.Propane.Runner.Config.journal_batch
    & info [ "journal-batch" ] ~docv:"N" ~doc)

let telemetry_arg =
  let doc =
    "Write a machine-readable JSON campaign summary (throughput, ETA, \
     per-domain utilisation) to $(docv); '-' writes to stdout."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

module Recipe = Arrestment.Recipe

let write_telemetry path telemetry =
  let json =
    Propane.Telemetry.to_json (Propane.Telemetry.snapshot telemetry)
  in
  if String.equal path "-" then print_endline json
  else begin
    let oc = open_out path in
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "telemetry written to %s\n" path
  end

(* Distributed mode: bind the listener, spawn the local pool (each
   worker is this same binary re-invoked as [propane worker]), and let
   the coordinator schedule everything.  The listener is bound before
   any worker starts, so workers never race it.  The Assign carries
   the recipe, from which a bare worker rebuilds the campaign. *)
let run_cluster_campaign ~recipe ~(prepared : Recipe.prepared) ~on_event
    ~workers ~listen ~chaos_kill =
  let addr =
    match listen with
    | Some a -> a
    | None ->
        Cluster.Address.Unix_sock
          (Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "propane-%d.sock" (Unix.getpid ())))
  in
  let fd = Cluster.Address.listen addr in
  let total = Propane.Campaign.size prepared.campaign in
  let pool =
    if workers = 0 then None
    else begin
      let command =
        Array.of_list
          ([ Sys.executable_name; "worker"; "--connect";
             Cluster.Address.to_string addr ]
          @ match chaos_kill with
            | None -> []
            | Some n -> [ "--die-after"; string_of_int n ])
      in
      (* Deliberately suicidal workers need enough respawns to drain
         the whole campaign, not the default crash allowance. *)
      let respawn_budget =
        Option.map (fun n -> (total / max 1 n) + workers + 4) chaos_kill
      in
      Some (Cluster.Local.spawn ?respawn_budget ~command ~n:workers ())
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Cluster.Local.shutdown pool;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Cluster.Address.unlink addr)
    (fun () ->
      Cluster.Coordinator.serve ~on_event
        ~on_tick:(fun () -> Option.iter Cluster.Local.tend pool)
        ?live:prepared.live ?select:prepared.select ?cells:prepared.cells
        ?plan:prepared.plan ~recipe:(Recipe.encode recipe)
        ~config:recipe.Recipe.config ~listen:fd
        ~sut:prepared.sut.Propane.Sut.name
        ~campaign:prepared.campaign.Propane.Campaign.name ~total ())

let refuse msg =
  prerr_endline ("propane campaign: " ^ msg);
  exit 1

(* A resume continues the journal's own campaign: outcomes of two
   experiment grids, or of two engine settings, must never share one
   journal.  Resumable scheduling options may differ: the encoding
   writes them at their defaults. *)
let check_resume (recipe : Recipe.t) =
  match recipe.config.Propane.Runner.Config.journal with
  | Some path when recipe.config.resume && Sys.file_exists path -> (
      match Propane.Journal.load path with
      | Ok { Propane.Journal.recipe = Some line; _ } -> (
          match Recipe.decode line with
          | Error msg -> refuse ("--resume: " ^ msg)
          | Ok journalled -> (
              match Recipe.first_difference journalled recipe with
              | None -> ()
              | Some (field, was, now) ->
                  refuse
                    (Printf.sprintf
                       "--resume: %s records another campaign (%s=%s in the \
                        journal, %s=%s here)"
                       path field was field now)))
      | Ok _ | Error _ ->
          (* no recipe to compare, or a load error the engine reports *)
          ())
  | _ -> ()

let run_measured_campaign ~recipe ~progress ~telemetry ~workers ~listen
    ~chaos_kill ~reuse =
  check_resume recipe;
  let prepared =
    try Recipe.prepare ?reuse recipe with Invalid_argument msg -> refuse msg
  in
  let { Recipe.campaign; reuse; _ } = prepared in
  Format.printf "%a@." Propane.Campaign.pp campaign;
  Option.iter
    (fun plan ->
      Format.printf "reused %d of %d cells@."
        (Propane.Reuse.reused_cells plan)
        (Propane.Reuse.total_cells plan))
    reuse;
  let tele = Propane.Telemetry.create () in
  let on_event ev =
    Propane.Telemetry.observe tele ev;
    match ev with
    | Propane.Runner.Run_done { completed; total; _ }
      when progress > 0 && (completed mod progress = 0 || completed = total)
      ->
        Format.eprintf "\r%a%!" Propane.Telemetry.pp_live
          (Propane.Telemetry.snapshot tele);
        if completed = total then prerr_newline ()
    | _ -> ()
  in
  let results =
    try
      if workers > 0 || listen <> None then
        run_cluster_campaign ~recipe ~prepared ~on_event ~workers ~listen
          ~chaos_kill
      else
        Propane.Runner.run ~config:recipe.config ~on_event
          ?live:prepared.live ?select:prepared.select ?cells:prepared.cells
          ?plan:prepared.plan ~recipe:(Recipe.encode recipe) prepared.sut
          campaign
    with Propane.Runner.Failed_run { index; outcome } ->
      Option.iter (fun path -> write_telemetry path tele) telemetry;
      Format.eprintf "propane campaign: run %d %a; aborting (--fail-fast)@."
        index Propane.Results.pp_status outcome.Propane.Results.status;
      exit 1
  in
  Option.iter (fun path -> write_telemetry path tele) telemetry;
  if Propane.Results.failed_count results > 0 then
    Printf.printf "failed runs: %d crashed, %d hung\n"
      (Propane.Results.crashed_count results)
      (Propane.Results.hung_count results);
  (* Under --reuse the stop rule judged freshly injected runs only, so
     the "N of M" it reports must too: M is the selected (dirty) run
     count, not the campaign size the cache already covers. *)
  let selected_total =
    match reuse with
    | Some plan -> Propane.Reuse.selected_runs plan
    | None -> Propane.Campaign.size campaign
  in
  let { Propane.Runner.Config.stop_when; budget; plan = mode; _ } =
    recipe.config
  in
  (match stop_when with
  | Some rule when Propane.Results.count results < selected_total ->
      Format.printf "stopped early: %d of %d runs (--stop-when %a)@."
        (Propane.Results.count results)
        selected_total Propane.Live.pp_rule rule
  | _ -> ());
  Option.iter
    (fun p ->
      let nrounds =
        List.fold_left
          (fun acc (r : Propane.Journal.round) -> max acc (r.round + 1))
          0 (Propane.Plan.rounds p)
      in
      Format.printf "plan %s: %d of %d runs in %d round%s (--budget %d)@."
        (Propane.Plan.mode_to_string mode)
        (Propane.Results.count results)
        selected_total nrounds
        (if nrounds = 1 then "" else "s")
        (Option.value ~default:0 budget))
    prepared.plan;
  match Recipe.analyse ?reuse ~window:recipe.window results with
  | Ok analysis -> analysis
  | Error msg -> refuse msg

let reuse_arg =
  let doc =
    "Content-addressed estimate cache: classify every (module, input) cell \
     of the campaign against $(docv), skip the injection targets whose \
     cells are all cached, re-inject only dirty modules, and compose cached \
     and fresh estimates into the final tables (reported as \"reused K of M \
     cells\").  Fresh complete measurements flow back into $(docv), and \
     cache-hit statistics land in $(docv)/stats.json."
  in
  Arg.(value & opt (some string) None & info [ "reuse" ] ~docv:"CACHE_DIR" ~doc)

(* ------------------------------------------------------------------ *)

(* Error-model ablation (analyze --by-model; bench models runs the same
   Recipe.ablation at --cases 2 --times 2).  One reduced campaign per
   roster over the identical workload and injection grid, so any
   ranking shift is attributable to the error model alone — the axis
   the paper's Section 6 flags but never measures. *)
let run_model_ablation ~cases ~times ~seed ~window ~jobs ~ci () =
  match Recipe.ablation (Recipe.make ~cases ~times ~seed ~window ~jobs ()) with
  | Error msg ->
      prerr_endline ("propane analyze: " ^ msg);
      exit 124
  | Ok rows ->
      Report.Table.print
        (Report.Table.make ~title:"Module ranking by error model"
           ~columns:
             [
               ("Model", Report.Table.Left);
               ("Runs", Report.Table.Right);
               ("Tau", Report.Table.Right);
               ("Ranking by P~rel (~ = unresolved)", Report.Table.Left);
             ]
           (List.map
              (fun (r : Recipe.ablation_row) ->
                [
                  r.spec;
                  string_of_int r.runs;
                  Printf.sprintf "%+.2f" r.tau_vs_baseline;
                  Recipe.ranking r;
                ])
              rows));
      if ci then begin
        print_newline ();
        Report.Table.print
          (Report.Table.make
             ~title:"Relative permeability per error model (95% CI)"
             ~columns:
               [
                 ("Model", Report.Table.Left);
                 ("Module", Report.Table.Left);
                 ("P~rel", Report.Table.Right);
                 ("95% CI", Report.Table.Left);
               ]
             (List.concat_map
                (fun (r : Recipe.ablation_row) ->
                  List.map
                    (fun (name, (e : Propagation.Estimate.t), _) ->
                      [
                        r.spec;
                        name;
                        Printf.sprintf "%.3f" e.Propagation.Estimate.value;
                        Printf.sprintf "[%.3f, %.3f]" e.lo e.hi;
                      ])
                    r.estimates)
                rows))
      end

let by_model_arg =
  let doc =
    "Instead of analysing the paper's postulated permeabilities, measure \
     them: run one reduced campaign per error-model roster (single-bit \
     baseline, multi-bit, burst, stuck-at, offset, noise, uniform, delayed, \
     intermittent) over the same workload grid and report each model's \
     module ranking with its Kendall tau against the single-bit baseline.  \
     $(b,--cases), $(b,--times), $(b,--seed), $(b,--window) and $(b,--jobs) \
     shape the campaigns; $(b,--ci) adds per-module intervals."
  in
  Arg.(value & flag & info [ "by-model" ] ~doc)

let analyze_cmd =
  let run () dot ci by_model cases times seed window jobs =
    if by_model then run_model_ablation ~cases ~times ~seed ~window ~jobs ~ci ()
    else begin
      let analysis =
        analysis_or_die Arrestment.Model.system
          (Arrestment.Model.paper_matrices ())
      in
      print_analysis_tables ~ci analysis;
      Option.iter (fun dir -> dump_figures dir analysis) dot
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Propagation analysis of the arrestment system from the paper's \
          permeability values (Tables 1-4).  $(b,--ci) adds confidence \
          intervals and rank resolvedness to every table.  $(b,--by-model) \
          switches to a measured error-model ablation: one campaign per \
          roster, reporting permeability-ranking shifts per model.")
    Term.(
      const run $ log_term $ dot_dir $ ci_arg $ by_model_arg $ cases_arg
      $ times_arg $ seed_arg $ window_arg $ jobs_arg)

let campaign_cmd =
  let run () cases times full model seed window progress jobs journal resume
      journal_batch telemetry run_timeout_ms retries fail_fast chaos_crash
      chaos_hang workers listen chaos_kill stop_when ci reuse budget plan =
    let cluster = workers > 0 || listen <> None in
    if resume && journal = None then refuse "--resume requires --journal";
    if cluster && jobs <> 1 then
      refuse
        "--jobs parallelises in-process domains; it cannot combine with \
         --workers/--listen";
    if (not cluster) && chaos_kill <> None then
      refuse "--chaos-worker-kill-after needs worker processes (--workers)";
    (* One recipe drives every mode: the local engine gets its config
       directly, the coordinator reads its scheduling and journal
       fields, and remote workers rebuild the campaign from its
       encoding. *)
    let recipe =
      Recipe.make ~cases ~times ~full ~model ~window ~seed ~run_timeout_ms
        ~retries ~fail_fast
        ~jobs:(if cluster then max workers 1 else jobs)
        ?journal ~resume ~journal_batch ?stop_when ?budget ~plan
        ?chaos_crash ?chaos_hang ()
    in
    let analysis =
      run_measured_campaign ~recipe ~progress ~telemetry ~workers ~listen
        ~chaos_kill ~reuse
    in
    print_analysis_tables ~reference:(Arrestment.Model.paper_matrices ()) ~ci
      analysis
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a SWIFI campaign on the arrestment system and print the \
          measured Tables 1-4 (side by side with the paper's values).  \
          $(b,--jobs) parallelises over worker domains, $(b,--journal) \
          streams outcomes to disk as they complete, $(b,--resume) continues \
          an interrupted campaign from its journal, and $(b,--telemetry) \
          emits a JSON throughput summary; all combinations produce results \
          identical to a serial uninterrupted run with the same seed.  A \
          crashing or hanging SUT does not abort the campaign: failures \
          become recorded outcomes ($(b,--run-timeout-ms), $(b,--retries)) \
          unless $(b,--fail-fast) restores abort semantics.  \
          $(b,--workers) distributes the campaign over local worker \
          processes, and $(b,--listen) additionally accepts $(b,propane \
          worker) connections from other machines.  $(b,--stop-when) \
          attaches a live analysis and stops the campaign as soon as its \
          rankings are stable or precise enough; $(b,--ci) prints the \
          resulting uncertainty columns.  $(b,--budget) caps the total \
          injections and lets a plan ($(b,--plan), preview with $(b,propane \
          plan)) decide where to spend them.")
    Term.(
      const run $ log_term $ cases_arg $ times_arg $ full_arg $ model_arg
      $ seed_arg $ window_arg $ progress_arg $ jobs_arg $ journal_arg
      $ resume_arg
      $ journal_batch_arg $ telemetry_arg $ run_timeout_arg
      $ retries_arg $ fail_fast_arg $ chaos_crash_arg $ chaos_hang_arg
      $ workers_arg $ listen_arg $ chaos_kill_arg $ stop_when_arg $ ci_arg
      $ reuse_arg $ budget_arg $ plan_arg)


(* ------------------------------------------------------------------ *)

(* Plan preview: the analytical half of a budgeted campaign without
   executing anything — the priors every target would start from, and
   (given --budget) the deterministic round-0 split. *)
let plan_cmd =
  let run () cases times full model window budget plan_mode =
    let prepared =
      try
        Recipe.prepare
          (Recipe.make ~cases ~times ~full ~model ~window ?budget
             ~plan:plan_mode ())
      with Invalid_argument msg ->
        prerr_endline ("propane plan: " ^ msg);
        exit 1
    in
    let campaign = prepared.campaign in
    Format.printf "%a@." Propane.Campaign.pp campaign;
    let priors =
      Propane.Plan.priors ~model:Arrestment.Model.system
        ~targets:campaign.Propane.Campaign.targets ()
    in
    let pilot =
      Option.map
        (fun p ->
          (* A zero-size take allocates round 0 without handing out (or
             executing) anything; the preview then reads the recorded
             round — the same bytes a real run would journal. *)
          ignore (Propane.Plan.take p ~max:0);
          List.filter_map
            (fun (r : Propane.Journal.round) ->
              if r.Propane.Journal.round = 0 then
                Some (r.Propane.Journal.target, r.Propane.Journal.runs)
              else None)
            (Propane.Plan.rounds p))
        prepared.plan
    in
    Format.printf
      "analytical priors (flat 0.5 permeability matrices, %d runs per \
       target):@."
      (Propane.Campaign.runs_per_target campaign);
    Format.printf "  %-16s %6s %8s %7s %8s%s@." "target" "cells" "spread"
      "reach" "weight"
      (if pilot = None then "" else "   round0");
    List.iter
      (fun (pr : Propane.Plan.prior) ->
        Format.printf "  %-16s %6d %8.3f %7.3f %8.3f%s@."
          pr.Propane.Plan.target pr.Propane.Plan.cells pr.Propane.Plan.spread
          pr.Propane.Plan.reach pr.Propane.Plan.weight
          (match pilot with
          | None -> ""
          | Some alloc ->
              Printf.sprintf " %8d"
                (Option.value ~default:0
                   (List.assoc_opt pr.Propane.Plan.target alloc))))
      priors;
    match (budget, pilot) with
    | Some b, Some alloc ->
        let granted = List.fold_left (fun acc (_, n) -> acc + n) 0 alloc in
        Format.printf
          "@.round 0 (%s) grants %d of %d budget runs%s@."
          (Propane.Plan.mode_to_string plan_mode)
          granted b
          (match plan_mode with
          | Propane.Plan.Uniform -> "; uniform plans stop there"
          | Propane.Plan.Adaptive ->
              "; later rounds refine towards the widest unresolved rankings")
    | _ ->
        Format.printf
          "@.(give --budget N to preview the first allocation round)@."
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Preview a budgeted campaign's injection plan without running it: \
          the analytical prior of every target (fed cells, expected variance \
          mass, system-output reach under flat permeability matrices) and, \
          with $(b,--budget), the deterministic pilot-round allocation a \
          $(b,propane campaign --budget) run would execute and journal.")
    Term.(
      const run $ log_term $ cases_arg $ times_arg $ full_arg $ model_arg
      $ window_arg $ budget_arg $ plan_arg)

(* ------------------------------------------------------------------ *)

(* The worker's executor for each Assign: decode the recipe, rebuild
   the campaign and SUT, and refuse a server whose recipe disagrees
   with its own announcement. *)
let executor_of_welcome (w : Cluster.Protocol.welcome) =
  match Recipe.decode w.Cluster.Protocol.config with
  | Error _ as e -> e
  | Ok recipe ->
      let campaign = Recipe.campaign recipe in
      let sut = Recipe.sut recipe in
      if not (String.equal campaign.Propane.Campaign.name w.campaign) then
        Error
          (Printf.sprintf "coordinator runs campaign %S, its recipe builds %S"
             w.campaign campaign.Propane.Campaign.name)
      else if not (String.equal sut.Propane.Sut.name w.sut) then
        Error
          (Printf.sprintf "coordinator runs SUT %S, its recipe builds %S" w.sut
             sut.Propane.Sut.name)
      else if Propane.Campaign.size campaign <> w.total then
        Error
          (Printf.sprintf "coordinator expects %d runs, the recipe builds %d"
             w.total
             (Propane.Campaign.size campaign))
      else
        (* The shipped config already carries truncation, watchdog
           and retries; only the seed is authoritative from the
           Assign, not the recipe. *)
        Ok
          (Propane.Runner.executor ~config:recipe.config ~seed:w.seed sut
             campaign)

let worker_cmd =
  let connect_arg =
    let doc =
      "Server address (unix:PATH or tcp:HOST:PORT), as given to \
       $(b,propane campaign --listen) or $(b,propane serve --listen)."
    in
    Arg.(
      required
      & opt (some address_conv) None
      & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let die_after_arg =
    let doc =
      "Chaos harness: exit with code 42 after sending $(docv) results \
       (exercises the coordinator's dead-worker reassignment)."
    in
    Arg.(
      value
      & opt (some (int_at_least 1 "--die-after")) None
      & info [ "die-after" ] ~docv:"N" ~doc)
  in
  let pin_config_arg =
    let doc =
      "Serve only campaigns whose recipe hashes to $(docv) (MD5 hex): the \
       worker checks every assignment and exits with status 1, naming \
       both digests, at the first campaign of another recipe."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "pin-config" ] ~docv:"DIGEST" ~doc)
  in
  let run () connect die_after pin_config =
    let on_result =
      Option.map (fun n ~completed -> if completed >= n then exit 42) die_after
    in
    match
      Cluster.Worker.run ?on_result ?config_digest:pin_config ~connect
        ~make:executor_of_welcome ()
    with
    | Ok n -> Logs.info (fun m -> m "dismissed; executed %d runs" n)
    | Error msg ->
        prerr_endline ("propane worker: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Serve a $(b,propane campaign --listen) coordinator or a \
          $(b,propane serve) daemon: connect, join, pull batches of runs, \
          execute them, and stream the outcomes back until dismissed.  Each \
          assignment tells the worker which campaign to build, and a daemon \
          may retarget it from campaign to campaign; results are \
          deterministic per run, so any number of workers on any machines \
          produce the same campaign.")
    Term.(const run $ log_term $ connect_arg $ die_after_arg $ pin_config_arg)

(* ------------------------------------------------------------------ *)

(* Campaign-as-a-service: [serve] hosts the daemon; [submit]/[status]/
   [cancel] are thin HTTP clients.  Exit codes for the clients follow
   the CLI's convention: 124 for argument/usage errors (cmdliner's
   default), 3 for a failure the server reported, 1 for transport
   errors. *)

module Submission = struct
  (* The JSON body of POST /campaigns.  Campaign-identity fields mirror
     [propane campaign]'s flags exactly, so a submitted campaign's
     recipe — and therefore its journal — is byte-identical to a serial
     [propane campaign --journal] run with the same flags. *)

  module J = Propane_service.Json

  let build ~tenant ~weight ~cases ~times ~full ~model ~seed ~window
      ~run_timeout_ms ~retries ~fail_fast ~stop_when ~budget ~plan_mode =
    J.to_string
      (J.Obj
         ([
            ("tenant", J.Str tenant);
            ("weight", J.Num (float_of_int weight));
            ("cases", J.Num (float_of_int cases));
            ("times", J.Num (float_of_int times));
            ("full", J.Bool full);
            ("model", J.Str model);
            ("seed", J.Str (Int64.to_string seed));
            ("window", J.Num (float_of_int window));
            ("run_timeout_ms", J.Num (float_of_int run_timeout_ms));
            ("retries", J.Num (float_of_int retries));
            ("fail_fast", J.Bool fail_fast);
          ]
         @ (match stop_when with
           | None -> []
           | Some r -> [ ("stop_when", J.Str (Propane.Live.rule_to_string r)) ])
         @
         match budget with
         | None -> []
         | Some b ->
             [
               ("budget", J.Num (float_of_int b));
               ("plan", J.Str (Propane.Plan.mode_to_string plan_mode));
             ]))

  let parse body =
    let ( let* ) = Result.bind in
    let* json =
      Result.map_error (fun m -> "body is not JSON: " ^ m) (J.parse body)
    in
    (* An absent field takes the recipe's default. *)
    let field name access =
      match J.member name json with
      | None | Some J.Null -> Ok None
      | Some v -> (
          match access v with
          | Some x -> Ok (Some x)
          | None -> Error (Printf.sprintf "bad field %S" name))
    in
    let parsed name of_string =
      let* s = field name J.str in
      match s with
      | None -> Ok None
      | Some s -> Result.map Option.some (of_string s)
    in
    let* tenant = field "tenant" J.str in
    let tenant = Option.value ~default:"default" tenant in
    let* () = if tenant = "" then Error "empty tenant" else Ok () in
    let* weight = field "weight" J.int in
    let weight = Option.value ~default:1 weight in
    let* () =
      if weight >= 1 then Ok () else Error "weight must be at least 1"
    in
    let* cases = field "cases" J.int in
    let* times = field "times" J.int in
    let* full = field "full" J.bool in
    let* model = field "model" J.str in
    let* seed =
      field "seed" (fun v -> Option.bind (J.str v) Int64.of_string_opt)
    in
    let* window = field "window" J.int in
    let* run_timeout_ms = field "run_timeout_ms" J.int in
    let* retries = field "retries" J.int in
    let* fail_fast = field "fail_fast" J.bool in
    let* stop_when = parsed "stop_when" Propane.Live.rule_of_string in
    let* budget = field "budget" J.int in
    let* plan = parsed "plan" Propane.Plan.mode_of_string in
    let recipe =
      Recipe.make ?cases ?times ?full ?model ?seed ?window ?run_timeout_ms
        ?retries ?fail_fast ?stop_when ?budget ?plan ()
    in
    (* Always attach a live analysis — GET /campaigns/:id serves
       rankings with Wilson CIs while the campaign is in flight.  Each
       parse prepares a fresh plan: plans are single-use work sources,
       and a recovered campaign must re-derive its rounds from its own
       journal, not inherit a spent scheduler.  [prepare] refuses what
       [Recipe.validate] refuses, so a bad submission is a 400. *)
    match Recipe.prepare ~live:true recipe with
    | { Recipe.sut; campaign; live; plan; _ } ->
        Ok
          {
            Propane_service.Service.tenant;
            weight;
            name = campaign.Propane.Campaign.name;
            sut = sut.Propane.Sut.name;
            total = Propane.Campaign.size campaign;
            recipe = Recipe.encode recipe;
            config = recipe.config;
            live;
            plan;
          }
    | exception Invalid_argument msg -> Error msg
end

let http_addr_arg =
  let doc =
    "Control endpoint of the $(b,propane serve) daemon (unix:PATH or \
     tcp:HOST:PORT)."
  in
  Arg.(
    required
    & opt (some address_conv) None
    & info [ "http" ] ~docv:"ADDR" ~doc)

(* One request against the daemon; [on_2xx] sees the parsed body. *)
let service_call ~cmd ~addr ~meth ~path ?body on_2xx =
  match Propane_service.Http.request ?body ~addr ~meth ~path () with
  | Error msg ->
      Printf.eprintf "propane %s: %s\n" cmd msg;
      exit 1
  | Ok (status, body) ->
      if status >= 200 && status < 300 then begin
        match Propane_service.Json.parse body with
        | Ok json -> on_2xx json
        | Error msg ->
            Printf.eprintf "propane %s: malformed response: %s\n" cmd msg;
            exit 1
      end
      else begin
        let reason =
          match
            Option.bind
              (Propane_service.Json.member "error"
                 (Result.value ~default:Propane_service.Json.Null
                    (Propane_service.Json.parse body)))
              Propane_service.Json.str
          with
          | Some e -> e
          | None -> body
        in
        Printf.eprintf "propane %s: server: %s (HTTP %d)\n" cmd reason status;
        exit 3
      end

let serve_cmd =
  let state_dir_arg =
    let doc =
      "Service state directory: the campaign manifest and one journal per \
       campaign live here.  Restarting on the same directory resumes every \
       queued or running campaign."
    in
    Arg.(
      required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let serve_listen_arg =
    let doc =
      "Fleet endpoint for $(b,propane worker) connections (default \
       unix:$(b,STATE_DIR)/fleet.sock)."
    in
    Arg.(
      value & opt (some address_conv) None & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let serve_http_arg =
    let doc =
      "HTTP control endpoint (default unix:$(b,STATE_DIR)/http.sock)."
    in
    Arg.(
      value & opt (some address_conv) None & info [ "http" ] ~docv:"ADDR" ~doc)
  in
  let serve_workers_arg =
    let doc =
      "Spawn $(docv) local fleet workers alongside the daemon (0 = workers \
       join from outside)."
    in
    Arg.(
      value
      & opt (int_at_least 0 "--workers") 0
      & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_max_arg =
    let doc =
      "Backpressure: reject new submissions while $(docv) campaigns are \
       queued or running."
    in
    Arg.(
      value
      & opt (int_at_least 1 "--queue-max") 16
      & info [ "queue-max" ] ~docv:"N" ~doc)
  in
  let tenant_quota_arg =
    let doc =
      "Per-tenant backpressure: reject a tenant's submissions while it has \
       $(docv) campaigns queued or running."
    in
    Arg.(
      value
      & opt (int_at_least 1 "--tenant-quota") 4
      & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc = "Upper bound on runs per worker batch." in
    Arg.(
      value & opt (int_at_least 1 "--batch") 16 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let heartbeat_arg =
    let doc =
      "Reassign a worker's outstanding runs after $(docv) seconds of \
       silence.  Fleet connections that have not joined, and HTTP \
       connections that have not delivered their request, are closed \
       after $(docv) seconds too."
    in
    Arg.(
      value & opt float 30.0 & info [ "heartbeat-timeout" ] ~docv:"S" ~doc)
  in
  let exit_when_idle_arg =
    let doc =
      "Drain and exit once at least one campaign was accepted and every \
       campaign is done, cancelled or failed (for batch drivers and CI)."
    in
    Arg.(value & flag & info [ "exit-when-idle" ] ~doc)
  in
  let run () state_dir listen http workers queue_max tenant_quota batch
      heartbeat exit_when_idle =
    let listen =
      match listen with
      | Some a -> a
      | None ->
          Cluster.Address.Unix_sock (Filename.concat state_dir "fleet.sock")
    in
    let http =
      match http with
      | Some a -> a
      | None ->
          Cluster.Address.Unix_sock (Filename.concat state_dir "http.sock")
    in
    let stop_flag = ref false in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_flag := true))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigterm; Sys.sigint ];
    let cfg =
      Propane_service.Service.config ~queue_max ~tenant_quota ~batch_max:batch
        ~heartbeat_timeout_s:heartbeat ~exit_when_idle ~listen ~http
        ~state_dir ~parse:Submission.parse ()
    in
    let pool =
      if workers = 0 then None
      else
        Some
          (Cluster.Local.spawn
             ~command:
               [|
                 Sys.executable_name;
                 "worker";
                 "--connect";
                 Cluster.Address.to_string listen;
               |]
             ~n:workers ())
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Cluster.Local.shutdown pool)
      (fun () ->
        match
          Propane_service.Service.run
            ~on_tick:(fun () -> Option.iter Cluster.Local.tend pool)
            ~stop:(fun () -> if !stop_flag then `Drain else `Continue)
            cfg
        with
        | Ok () -> ()
        | Error msg ->
            prerr_endline ("propane serve: " ^ msg);
            exit 1
        | exception Invalid_argument msg ->
            prerr_endline ("propane serve: " ^ msg);
            exit 124)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service: a long-lived daemon owning a fleet of \
          $(b,propane worker) processes and a crash-safe queue of \
          named campaigns, multiplexed over the fleet by tenant-assigned \
          weights.  Campaigns are submitted and monitored over a JSON HTTP \
          control surface ($(b,propane submit)/$(b,status)/$(b,cancel), or \
          curl).  Every campaign journals under $(b,--state-dir) with \
          byte-identical records to a serial run of the same flags, and a \
          restarted service resumes every unfinished campaign from its \
          journal.")
    Term.(
      const run $ log_term $ state_dir_arg $ serve_listen_arg $ serve_http_arg
      $ serve_workers_arg $ queue_max_arg $ tenant_quota_arg $ batch_arg
      $ heartbeat_arg $ exit_when_idle_arg)

let tenant_arg =
  let doc = "Tenant the campaign is accounted to." in
  Arg.(value & opt string "default" & info [ "tenant" ] ~docv:"NAME" ~doc)

let weight_arg =
  let doc =
    "Scheduling weight: the fleet is apportioned over runnable campaigns \
     proportionally to their weights."
  in
  Arg.(
    value & opt (int_at_least 1 "--weight") 1 & info [ "weight" ] ~docv:"W" ~doc)

let submit_cmd =
  let run () http tenant weight cases times full model seed window
      run_timeout_ms retries fail_fast stop_when budget plan_mode =
    let body =
      Submission.build ~tenant ~weight ~cases ~times ~full ~model ~seed
        ~window ~run_timeout_ms ~retries ~fail_fast ~stop_when ~budget
        ~plan_mode
    in
    service_call ~cmd:"submit" ~addr:http ~meth:"POST" ~path:"/campaigns"
      ~body (fun json ->
        match
          Option.bind
            (Propane_service.Json.member "id" json)
            Propane_service.Json.str
        with
        | Some id -> print_endline id
        | None ->
            prerr_endline "propane submit: response carries no campaign id";
            exit 1)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a $(b,propane serve) daemon and print its id. \
          The campaign flags mirror $(b,propane campaign), and the journal \
          the service writes is byte-identical to the journal a serial \
          $(b,propane campaign --journal) run with the same flags would \
          write.  Exit status: 0 accepted, 3 rejected by the server \
          (backpressure, quota, invalid campaign), 124 usage error.")
    Term.(
      const run $ log_term $ http_addr_arg $ tenant_arg $ weight_arg
      $ cases_arg $ times_arg $ full_arg $ model_arg $ seed_arg $ window_arg
      $ run_timeout_arg $ retries_arg $ fail_fast_arg $ stop_when_arg
      $ budget_arg $ plan_arg)

let id_pos_arg =
  let doc = "Campaign id, as printed by $(b,propane submit)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let status_cmd =
  let module J = Propane_service.Json in
  let jstr ?(default = "?") name json =
    Option.value ~default (Option.bind (J.member name json) J.str)
  in
  let jint name json =
    Option.value ~default:0 (Option.bind (J.member name json) J.int)
  in
  let print_summary c =
    Printf.printf "%-6s %-9s %-28s tenant=%s weight=%d %d/%d\n" (jstr "id" c)
      (jstr "state" c) (jstr "name" c) (jstr "tenant" c) (jint "weight" c)
      (jint "completed" c) (jint "total" c)
  in
  let run () http id =
    match id with
    | None ->
        service_call ~cmd:"status" ~addr:http ~meth:"GET" ~path:"/campaigns"
          (fun json ->
            let campaigns =
              Option.value ~default:[]
                (Option.bind (J.member "campaigns" json) J.list)
            in
            if campaigns = [] then print_endline "no campaigns"
            else List.iter print_summary campaigns);
        service_call ~cmd:"status" ~addr:http ~meth:"GET" ~path:"/fleet"
          (fun json ->
            Printf.printf "fleet: %d worker%s\n" (jint "count" json)
              (if jint "count" json = 1 then "" else "s"))
    | Some id ->
        service_call ~cmd:"status" ~addr:http ~meth:"GET"
          ~path:("/campaigns/" ^ id) (fun c ->
            print_summary c;
            let reason = jstr ~default:"" "reason" c in
            if reason <> "" then Printf.printf "reason: %s\n" reason;
            let rankings =
              Option.value ~default:[]
                (Option.bind (J.member "rankings" c) J.list)
            in
            if rankings <> [] then begin
              print_endline "module rankings (P~rel, 95% CI):";
              List.iter
                (fun row ->
                  let est =
                    Option.value ~default:J.Null
                      (J.member "relative_permeability" row)
                  in
                  let f name =
                    Option.value ~default:Float.nan
                      (Option.bind (J.member name est) J.num)
                  in
                  Printf.printf "  %-16s %.3f [%.3f, %.3f]%s\n"
                    (jstr "module" row) (f "value") (f "lo") (f "hi")
                    (match Option.bind (J.member "resolved" row) J.bool with
                    | Some true -> ""
                    | _ -> "  (unresolved)"))
                rankings
            end)
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Query a $(b,propane serve) daemon: without $(i,ID), list every \
          campaign and the fleet size; with $(i,ID), show one campaign's \
          progress and its live module rankings with 95% confidence \
          intervals.  Exit status: 0 on success, 3 if the server reports an \
          error (e.g. unknown id), 124 usage error.")
    Term.(const run $ log_term $ http_addr_arg $ id_pos_arg)

let cancel_cmd =
  let id_arg =
    let doc = "Campaign id to cancel." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run () http id =
    service_call ~cmd:"cancel" ~addr:http ~meth:"DELETE"
      ~path:("/campaigns/" ^ id) (fun json ->
        Printf.printf "%s %s\n" id
          (Option.value ~default:"cancelled"
             (Option.bind
                (Propane_service.Json.member "state" json)
                Propane_service.Json.str)))
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a queued or running campaign on a $(b,propane serve) \
          daemon: the service stops handing out its batches, drains in-\
          flight runs into the journal, and marks it cancelled.  Exit \
          status: 0 on success, 3 if the server reports an error, 124 usage \
          error.")
    Term.(const run $ log_term $ http_addr_arg $ id_arg)

(* ------------------------------------------------------------------ *)

(* Deterministic re-execution of one journalled run.  The journal's
   recipe line rebuilds the exact SUT, campaign and engine options; a
   run's RNG stream depends only on (seed, index, attempt), so the
   replay must reproduce the journal record byte for byte — anything
   else is a determinism bug worth failing loudly over. *)
let replay_cmd =
  let journal_path_arg =
    let doc = "Journal written by $(b,propane campaign --journal)." in
    Arg.(
      required
      & opt (some non_dir_file) None
      & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let index_arg =
    let doc =
      "Campaign index of the run to replay (the first field of its journal \
       record)."
    in
    Arg.(
      required
      & opt (some (int_at_least 0 "--index")) None
      & info [ "index" ] ~docv:"I" ~doc)
  in
  let keep_arg =
    let doc =
      "Record the replayed run's signal traces and, once the outcome is \
       verified against the journal, write them as CSV next to the journal \
       ($(i,FILE).run$(i,I).csv): every millisecond from 0, the golden run's \
       prefix included, up to the run's duration or the crash, hang or \
       finish that ends it first.  Recording never changes the outcome."
    in
    Arg.(value & flag & info [ "keep-traces" ] ~doc)
  in
  let run () path index keep_traces =
    let die msg =
      prerr_endline ("propane replay: " ^ msg);
      exit 1
    in
    let j =
      match Propane.Journal.load path with Ok j -> j | Error msg -> die msg
    in
    let recipe =
      match j.Propane.Journal.recipe with
      | None ->
          die
            "journal carries no recipe line (written by an older propane, or \
             by a bare library caller); replay cannot rebuild its campaign"
      | Some r -> (
          match Recipe.decode r with Ok r -> r | Error msg -> die msg)
    in
    let sut = Recipe.sut recipe in
    let campaign = Recipe.campaign recipe in
    let config = recipe.config in
    (match
       Propane.Journal.validate j ~path ~sut:sut.Propane.Sut.name
         ~campaign:campaign.Propane.Campaign.name
         ~seed:config.Propane.Runner.Config.seed
         ~total:(Propane.Campaign.size campaign)
     with
    | Ok () -> ()
    | Error msg -> die msg);
    let recorded =
      match Hashtbl.find_opt (Propane.Journal.completed j) index with
      | Some o -> o
      | None -> die (Printf.sprintf "journal has no record for index %d" index)
    in
    (* Only the outcome fields matter to a single run; the rest (the
       budget included — a plan decides which runs execute, never how
       one executes) go, so the replay is a plain serial execution that
       cannot touch the journal it is checking. *)
    let config =
      Propane.Runner.Config.restrict (fun role -> role = `Outcome) config
    in
    let traces = ref None in
    let results =
      Propane.Runner.run ~config
        ?on_run_traces:
          (if keep_traces then Some (fun ~index:_ _ ts -> traces := Some ts)
           else None)
        ~select:(fun i -> i = index)
        sut campaign
    in
    let replayed =
      match Propane.Results.outcomes results with
      | [ o ] -> o
      | os ->
          die
            (Printf.sprintf "replay executed %d runs instead of 1"
               (List.length os))
    in
    let record o =
      match Propane.Journal.record_string ~index o with
      | Ok s -> s
      | Error msg -> die msg
    in
    let expected = record recorded in
    let got = record replayed in
    if not (String.equal expected got) then begin
      Printf.eprintf
        "propane replay: run %d DIVERGES from its journal record\n\
         journal: %s\n\
         replay:  %s\n"
        index expected got;
      exit 3
    end;
    Printf.printf "run %d of %s: outcome matches journal (%s, %d divergence%s)\n"
      index path
      (Format.asprintf "%a" Propane.Results.pp_status
         replayed.Propane.Results.status)
      (List.length replayed.Propane.Results.divergences)
      (if List.length replayed.Propane.Results.divergences = 1 then "" else "s");
    if keep_traces then
      match !traces with
      | None -> die "engine returned no traces despite --keep-traces"
      | Some ts ->
          let out = Printf.sprintf "%s.run%d.csv" path index in
          Report.Csv.write_file out (Report.Csv.of_trace_set ts);
          Printf.printf "traces written to %s\n" out
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Deterministically re-execute one journalled run: rebuild the \
          campaign from the journal's recipe line, re-run the given index on \
          its original RNG stream, and verify the outcome is byte-identical \
          to the journal record before optionally dumping its traces \
          ($(b,--keep-traces)).  Works on serial, $(b,--jobs) and cluster \
          journals alike — records are index-addressed, so scheduling never \
          matters.")
    Term.(const run $ log_term $ journal_path_arg $ index_arg $ keep_arg)

(* ------------------------------------------------------------------ *)

let load_arg =
  let doc = "Journal written by campaign --journal." in
  Arg.(
    required
    & opt (some non_dir_file) None
    & info [ "load" ] ~docv:"FILE" ~doc)

(* A run stops [truncate_after_ms] past its last fire, so a longer
   window counts what the truncation counts: say so on stderr, leaving
   stdout as it is. *)
let with_loaded_results ?window load f =
  match Propane.Journal.load load with
  | Error msg ->
      prerr_endline msg;
      exit 1
  | Ok journal ->
      (match (window, Option.map Recipe.decode journal.recipe) with
      | ( Some window,
          Some (Ok { config = { truncate_after_ms = Some cut; _ }; _ }) )
        when window > cut ->
          Printf.eprintf
            "propane: --window %d exceeds the journal's truncate_after_ms=%d; \
             it counts what --window %d counts\n%!"
            window cut cut
      | _ -> ());
      f (Propane.Journal.results journal)

let estimate_cmd =
  let run () load window ci =
    with_loaded_results ~window load (fun results ->
        match Recipe.analyse ~window results with
        | Error msg ->
            prerr_endline ("propane estimate: " ^ msg);
            exit 1
        | Ok analysis ->
            print_analysis_tables
              ~reference:(Arrestment.Model.paper_matrices ())
              ~ci analysis)
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Re-analyse the outcomes of a campaign journal (Tables 1-4).")
    Term.(const run $ log_term $ load_arg $ window_arg $ ci_arg)

let latency_cmd =
  let run () load window =
    with_loaded_results ~window load (fun results ->
        List.iter
          (fun s -> Format.printf "%a@." Propane.Latency.pp_stats s)
          (Propane.Latency.all_stats ~window_ms:window
             ~model:Arrestment.Model.system results))
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"Propagation-latency statistics from a campaign journal.")
    Term.(const run $ log_term $ load_arg $ window_arg)

let uniformity_cmd =
  let run () load =
    with_loaded_results load (fun results ->
        Format.printf "%a@." Propane.Uniformity.pp_report
          (Propane.Uniformity.analyse ~outputs:[ "TOC2" ] results))
  in
  Cmd.v
    (Cmd.info "uniformity"
       ~doc:
         "Uniform-propagation analysis (paper Section 2 vs. [12]) from a \
          campaign journal.")
    Term.(const run $ log_term $ load_arg)

(* ------------------------------------------------------------------ *)

let example_cmd =
  let run () dot ci =
    let analysis = Propagation.Fig_example.analysis () in
    print_analysis_tables ~ci analysis;
    List.iter
      (fun (input, _) ->
        Report.Table.print
          (Report.Experiments.input_paths_table ~ci analysis input);
        print_newline ())
      analysis.Propagation.Analysis.input_paths;
    Option.iter (fun dir -> dump_figures dir analysis) dot
  in
  Cmd.v
    (Cmd.info "example"
       ~doc:"Analyse the five-module example system of the paper's Figs. 2-5.")
    Term.(const run $ log_term $ dot_dir $ ci_arg)

(* ------------------------------------------------------------------ *)

let golden_cmd =
  let mass =
    Arg.(value & opt float 14_000.0 & info [ "mass" ] ~docv:"KG" ~doc:"Aircraft mass.")
  in
  let velocity =
    Arg.(
      value & opt float 60.0
      & info [ "velocity" ] ~docv:"M/S" ~doc:"Engagement velocity.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Dump all signal traces as CSV to stdout.")
  in
  let run () mass velocity csv =
    let sut = Arrestment.System.sut () in
    let tc = Arrestment.System.testcase ~mass_kg:mass ~velocity_mps:velocity in
    let traces = Propane.Runner.golden_run sut tc in
    let dur = Propane.Trace_set.duration_ms traces in
    if csv then print_string (Report.Csv.of_trace_set traces)
    else begin
      Printf.printf "arrestment of %.0f kg at %.0f m/s: %d ms\n" mass velocity
        dur;
      List.iter
        (fun s ->
          Printf.printf "  %-12s final=%d\n" s
            (Propane.Trace_set.get traces s (dur - 1)))
        (Propane.Trace_set.signals traces)
    end
  in
  Cmd.v
    (Cmd.info "golden" ~doc:"Execute one golden run of the arrestment system.")
    Term.(const run $ log_term $ mass $ velocity $ csv)

(* ------------------------------------------------------------------ *)

let placement_cmd =
  let budget =
    Arg.(
      value & opt int 3
      & info [ "budget" ] ~docv:"N" ~doc:"Mechanisms of each kind to propose.")
  in
  let run () budget =
    let analysis =
      analysis_or_die Arrestment.Model.system
        (Arrestment.Model.paper_matrices ())
    in
    let plan =
      Edm.Selector.propose ~edm_budget:budget ~erm_budget:budget
        analysis.Propagation.Analysis.placement
    in
    Format.printf "%a@." Edm.Selector.pp plan
  in
  Cmd.v
    (Cmd.info "placement"
       ~doc:"EDM/ERM placement proposals for the arrestment system (OB1-OB6).")
    Term.(const run $ log_term $ budget)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "propane" ~version:"1.0.0"
       ~doc:
         "Error-propagation analysis for modular software (reproduction of \
          Hiller, Jhumka & Suri, DSN 2001).")
    [
      analyze_cmd;
      campaign_cmd;
      plan_cmd;
      replay_cmd;
      worker_cmd;
      serve_cmd;
      submit_cmd;
      status_cmd;
      cancel_cmd;
      estimate_cmd;
      latency_cmd;
      uniformity_cmd;
      example_cmd;
      golden_cmd;
      placement_cmd;
    ]

let () = exit (Cmd.eval main)
