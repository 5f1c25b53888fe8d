(* Benchmark harness: the paper's figures and the studies no `propane`
   command prints (failure severity, rank and workload sensitivity, the
   Pr-adjusted path measures), plus the gates and rows the repository
   benchmark (perfbench/, one domain per process) cannot produce: the
   serial / domains-2 / workers-2 scaling matrix, the error-model
   ablation, the campaign service, and adaptive-vs-uniform plan run
   counts.  The measured Tables 1-4, uniformity and latency are
   `propane campaign`, `estimate`, `uniformity` and `latency`.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- fig10 plan   -- selected targets *)

module Json = Propane_service.Json

let nproc = Domain.recommended_domain_count ()

let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if String.equal line "" then "unknown" else line
     with _ -> "unknown")

let section title =
  Printf.printf "\n================ %s ================\n\n" title

(* ------------------------------------------------------------------ *)
(* Machine-readable rows.  Each target that measures something appends
   one JSON object per row to its section; BENCH_campaign.json is
   written when the bench exits (or before a gate fails it). *)

let scaling_rows : Json.t list ref = ref []
let model_rows : Json.t list ref = ref []
let service_rows : Json.t list ref = ref []
let plan_rows : Json.t list ref = ref []

let record rows row = rows := !rows @ [ row ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A section this run produced no rows for keeps the rows the existing
   file holds, so `bench/main.exe models` alone rewrites only the
   models rows. *)
let write_bench_json () =
  let path = "BENCH_campaign.json" in
  let sections =
    [
      ("scaling", scaling_rows);
      ("models", model_rows);
      ("service", service_rows);
      ("plan", plan_rows);
    ]
  in
  if List.exists (fun (_, rows) -> !rows <> []) sections then begin
    let existing =
      match Json.parse (read_file path) with
      | Ok json -> json
      | Error _ | (exception Sys_error _) -> Json.Null
    in
    let render (name, rows) =
      let rows =
        if !rows <> [] then !rows
        else
          Option.value ~default:[]
            (Option.bind (Json.member name existing) Json.list)
      in
      let rows = List.map (fun r -> "\n    " ^ Json.to_string r) rows in
      Printf.sprintf "  %s: [%s%s]"
        (Json.to_string (Json.Str name))
        (String.concat "," rows)
        (if rows = [] then "" else "\n  ")
    in
    let oc = open_out path in
    Printf.fprintf oc "{\n  \"nproc\": %d,\n%s\n}\n" nproc
      (String.concat ",\n" (List.map render sections));
    close_out oc;
    print_endline "wrote BENCH_campaign.json"
  end

(* Rounded so the committed file stays readable; NaN prints as null. *)
let num ~digits x =
  let scale = 10.0 ** float_of_int digits in
  Json.Num (Float.round (x *. scale) /. scale)

let rev () = ("rev", Json.Str (Lazy.force git_rev))

(* Timing rows repeat each measurement and report its spread. *)
let repeats = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let spread ~digits xs =
  Json.Obj
    [
      ("min", num ~digits (List.fold_left Float.min infinity xs));
      ("median", num ~digits (median xs));
      ("max", num ~digits (List.fold_left Float.max neg_infinity xs));
    ]

(* ------------------------------------------------------------------ *)
(* The analysis of the paper's permeability values, behind the figures
   and [prob]. *)

let paper_analysis =
  lazy
    (Propagation.Analysis.run_exn Arrestment.Model.system
       (Arrestment.Model.paper_matrices ()))

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

let fig345 () =
  section "Figs. 3-5: the five-module example system";
  let graph = Propagation.Fig_example.graph in
  Format.printf "permeability graph (Fig. 3):@.%a@.@." Propagation.Perm_graph.pp
    graph;
  let tree =
    Propagation.Backtrack_tree.build graph Propagation.Fig_example.output
  in
  Format.printf "backtrack tree of %a (Fig. 4):@.%a@.@." Propagation.Signal.pp
    Propagation.Fig_example.output Propagation.Backtrack_tree.pp tree;
  List.iter
    (fun input ->
      Format.printf "trace tree of %a (Fig. 5):@.%a@.@." Propagation.Signal.pp
        input Propagation.Trace_tree.pp
        (Propagation.Trace_tree.build graph input))
    Propagation.Fig_example.inputs

let fig8 () =
  section "Fig. 8: module and signal diagram of the target system";
  Format.printf "%a@.@." Propagation.System_model.pp Arrestment.Model.system;
  print_endline "DOT rendering:";
  print_endline (Report.Dot.of_system_model Arrestment.Model.system)

let fig9 () =
  section "Fig. 9: permeability graph of the target system";
  let analysis = Lazy.force paper_analysis in
  Format.printf "%a@.@." Propagation.Perm_graph.pp
    analysis.Propagation.Analysis.graph;
  print_endline "DOT rendering:";
  print_endline (Report.Dot.of_perm_graph analysis.Propagation.Analysis.graph)

let fig10 () =
  section "Fig. 10: backtrack tree of system output TOC2";
  let analysis = Lazy.force paper_analysis in
  let tree =
    List.assoc Arrestment.Signals.toc2
      analysis.Propagation.Analysis.backtrack_trees
  in
  Format.printf "%a@.@." Propagation.Backtrack_tree.pp tree;
  Printf.printf "leaf count: %d (the paper's tree generates 22 paths)\n"
    (Propagation.Backtrack_tree.leaf_count tree)

let trace_fig name signal () =
  section name;
  let analysis = Lazy.force paper_analysis in
  let tree = List.assoc signal analysis.Propagation.Analysis.trace_trees in
  Format.printf "%a@.@." Propagation.Trace_tree.pp tree

let fig11 = trace_fig "Fig. 11: trace tree of system input ADC" Arrestment.Signals.adc
let fig12 = trace_fig "Fig. 12: trace tree of system input PACNT" Arrestment.Signals.pacnt

(* ------------------------------------------------------------------ *)
(* Error-model ablation with ranking shifts: Recipe.ablation on the
   2x2-case, 2-instant grid, the study `propane analyze --by-model
   --cases 2 --times 2` prints.  Each row lands in BENCH_campaign.json
   with the full per-module interval data so CI can track how far each
   model moves the paper's module ranking. *)

let models () =
  section "Error-model ablation: permeability-ranking shift per model";
  match
    Arrestment.Recipe.ablation (Arrestment.Recipe.make ~cases:2 ~times:2 ())
  with
  | Error msg -> failwith ("models: " ^ msg)
  | Ok rows ->
      List.iter
        (fun (r : Arrestment.Recipe.ablation_row) ->
          Printf.printf "%-18s %5d runs  tau %+.2f  %s\n" r.spec r.runs
            r.tau_vs_baseline
            (Arrestment.Recipe.ranking r);
          record model_rows
            (Json.Obj
               [
                 ("model", Json.Str r.spec);
                 rev ();
                 ("runs", Json.Num (float_of_int r.runs));
                 ("tau_vs_single_bit", num ~digits:3 r.tau_vs_baseline);
                 ( "ranking",
                   Json.List
                     (List.map
                        (fun (name, (e : Propagation.Estimate.t), resolved) ->
                          Json.Obj
                            [
                              ("module", Json.Str name);
                              ("p_rel", num ~digits:4 e.value);
                              ("lo", num ~digits:4 e.lo);
                              ("hi", num ~digits:4 e.hi);
                              ("resolved", Json.Bool resolved);
                            ])
                        r.estimates) );
               ]))
        rows

(* ------------------------------------------------------------------ *)
(* Failure-severity classification                                     *)

let severity () =
  section "Failure-severity classification per injected signal";
  let campaign =
    Propane.Campaign.make ~name:"severity"
      ~targets:Arrestment.Model.injection_targets
      ~testcases:
        [
          Arrestment.System.testcase ~mass_kg:11_000.0 ~velocity_mps:55.0;
          Arrestment.System.testcase ~mass_kg:18_000.0 ~velocity_mps:75.0;
        ]
      ~times:(List.map Simkernel.Sim_time.of_ms [ 1_000; 3_000 ])
      ~errors:(Propane.Error_model.bit_flips ~width:Arrestment.Signals.width)
  in
  let reports =
    Propane.Severity.assess ~outputs:[ "TOC2" ]
      ~mission_failed:Arrestment.System.mission_failed
      (Arrestment.System.sut ())
      campaign
  in
  List.iter
    (fun r -> Format.printf "%a@." Propane.Severity.pp_report r)
    reports;
  print_newline ();
  print_endline
    "Reading: signals whose errors end in the mission-failure bin are\n\
     the ones the OB4/OB5 placement guards; a large internal-only bin\n\
     shows the latent errors the paper's exposure measures track.";
  let total v =
    List.fold_left (fun acc r -> acc + Propane.Severity.count r v) 0 reports
  in
  Printf.printf
    "\ntotals: %d no effect, %d internal only, %d output deviation, %d \
     mission failures\n"
    (total Propane.Severity.No_effect)
    (total Propane.Severity.Internal_only)
    (total Propane.Severity.Output_deviation)
    (total Propane.Severity.Mission_failure)

(* ------------------------------------------------------------------ *)
(* Rank-stability study (Section 6's relative-order assumption)        *)

let sensitivity () =
  section "Rank stability under permeability perturbation (Section 6)";
  let matrices = Arrestment.Model.paper_matrices () in
  List.iter
    (fun perturbation ->
      let report =
        Propagation.Sensitivity.study ~trials:64 ~seed:42 perturbation
          Arrestment.Model.system matrices
      in
      Format.printf "%a@." Propagation.Sensitivity.pp_report report)
    [
      Propagation.Sensitivity.Relative_noise 0.05;
      Propagation.Sensitivity.Relative_noise 0.20;
      Propagation.Sensitivity.Relative_noise 0.50;
      Propagation.Sensitivity.Absolute_noise 0.10;
      Propagation.Sensitivity.Quantise 10;
      Propagation.Sensitivity.Quantise 4;
    ];
  print_newline ();
  print_endline
    "High tau at moderate noise supports the paper's claim that the\n\
     analysis only needs the relative order of the estimates."

(* ------------------------------------------------------------------ *)
(* Workload sensitivity (paper Section 6 / future work)                *)

let workload () =
  section "Workload sensitivity of the permeability estimates";
  let sut = Arrestment.System.sut () in
  let times = List.map Simkernel.Sim_time.of_ms [ 1_000; 3_000 ] in
  let estimate name testcases =
    let c =
      Propane.Campaign.make ~name
        ~targets:Arrestment.Model.injection_targets ~testcases ~times
        ~errors:(Propane.Error_model.bit_flips ~width:Arrestment.Signals.width)
    in
    let results =
      Propane.Runner.run
        ~config:
          (Propane.Runner.Config.make ~seed:42L ~truncate_after_ms:128 ())
        sut c
    in
    match
      Propane.Estimator.estimate_all ~model:Arrestment.Model.system results
    with
    | Error msg -> failwith msg
    | Ok matrices -> matrices
  in
  let light = estimate "wl-light" [ Arrestment.System.testcase ~mass_kg:8_000.0 ~velocity_mps:40.0 ] in
  let heavy = estimate "wl-heavy" [ Arrestment.System.testcase ~mass_kg:20_000.0 ~velocity_mps:80.0 ] in
  let order matrices =
    let graph = Propagation.Perm_graph.build_exn Arrestment.Model.system matrices in
    List.map
      (fun (r : Propagation.Ranking.module_row) -> r.module_name)
      (Propagation.Ranking.sort_module_rows
         Propagation.Ranking.By_relative_permeability
         (Propagation.Ranking.module_rows graph))
  in
  let sum matrices =
    Propagation.String_map.fold
      (fun _ m acc -> acc +. Propagation.Perm_matrix.non_weighted m)
      matrices 0.0
  in
  Printf.printf "light workload (8 t, 40 m/s):  total permeability %.3f\n"
    (sum light);
  Printf.printf "heavy workload (20 t, 80 m/s): total permeability %.3f\n"
    (sum heavy);
  Printf.printf "module ranking, light: %s\n" (String.concat " > " (order light));
  Printf.printf "module ranking, heavy: %s\n" (String.concat " > " (order heavy));
  Printf.printf "rank correlation (Kendall tau): %.3f\n"
    (Propagation.Sensitivity.kendall_tau (order light) (order heavy))

(* ------------------------------------------------------------------ *)
(* Adjusted path probabilities (Section 4.2's P' analysis)             *)

let prob () =
  section "Pr-adjusted propagation measures (Section 4.2's P')";
  let analysis = Lazy.force paper_analysis in
  let model = Propagation.Perm_graph.model analysis.Propagation.Analysis.graph in
  let prob_model =
    Propagation.Prob_model.uniform model ~probability:0.01
  in
  Format.printf "occurrence model: %a@.@." Propagation.Prob_model.pp prob_model;
  print_endline "error-arrival bound per system output:";
  List.iter
    (fun (output, p) ->
      Format.printf "  %a: %.5f@." Propagation.Signal.pp output p)
    (Propagation.Prob_model.output_arrival prob_model analysis);
  print_newline ();
  print_endline "input criticality (output-corruption mass per error source):";
  List.iter
    (fun (input, p) ->
      Format.printf "  %a: %.5f@." Propagation.Signal.pp input p)
    (Propagation.Prob_model.input_criticality prob_model analysis);
  print_newline ();
  print_endline
    "end-to-end arrival probability per system input (conditioned on an\n\
     error occurring there): max-path <= Monte-Carlo <= noisy-or";
  let graph = analysis.Propagation.Analysis.graph in
  let lo =
    Propagation.Compose.equivalent_matrix
      ~combinator:Propagation.Compose.Max_path analysis
  in
  let hi = Propagation.Compose.equivalent_matrix analysis in
  let mc =
    Propagation.Monte_carlo.arrival_matrix ~trials:20_000 ~seed:42 graph
      ~sources:(Propagation.System_model.system_inputs model)
  in
  List.iteri
    (fun idx input ->
      let i = idx + 1 in
      Format.printf "  %a -> TOC2: %.4f <= %.4f <= %.4f@."
        Propagation.Signal.pp input
        (Propagation.Perm_matrix.get lo ~input:i ~output:1)
        (Propagation.Perm_matrix.get mc ~input:i ~output:1)
        (Propagation.Perm_matrix.get hi ~input:i ~output:1))
    (Propagation.System_model.system_inputs model)

(* ------------------------------------------------------------------ *)
(* Scaling matrix: serial / domains-2 / workers-2 over two SUTs        *)

(* The second SUT of the matrix: a wide layered dataflow network built
   with {!Dataflow.Builder}.  Unlike the arrestment system it has no
   plant — per-run cost is dominated by the block schedule and the
   trap-instrumented signal store, so it stresses a different profile
   of the engine (many cheap module activations instead of a few
   physics-heavy ones). *)
let layered_width = 4
let layered_layers = 6

let layered_system =
  lazy
    (let mask = 0xFFFF in
     let signal l j = Propagation.Signal.make (Printf.sprintf "l%d_%d" l j) in
     let layer_inputs l = List.init layered_width (signal l) in
     let blocks =
       List.concat_map
         (fun l ->
           List.init layered_width (fun j ->
               Dataflow.Builder.block
                 ~name:(Printf.sprintf "L%d_%d" l j)
                 ~inputs:(layer_inputs l)
                 ~outputs:[ signal (l + 1) j ]
                 (fun () ->
                   fun inputs ->
                    (* Rotate, mix and mask so every input reaches the
                       output with a different (partial) permeability. *)
                    let acc = ref 0 in
                    Array.iteri
                      (fun i v ->
                        acc := !acc lxor (v lsr ((i + j) mod 4)) lxor (v lsl j))
                      inputs;
                    [| !acc land mask |])))
         (List.init layered_layers Fun.id)
     in
     let sink =
       Dataflow.Builder.block ~name:"SINK"
         ~inputs:(layer_inputs layered_layers)
         ~outputs:[ Propagation.Signal.make "sink_out" ]
         (fun () ->
           fun inputs ->
            [| Array.fold_left (fun a v -> (a + v) land mask) 0 inputs |])
     in
     Dataflow.Builder.create_exn ~name:"layered" ~duration_ms:400
       ~blocks:(blocks @ [ sink ])
       ~stimuli:
         (List.init layered_width (fun j ->
              Dataflow.Builder.ramp ~slope:((2 * j) + 3) (signal 0 j)))
       ())

(* The gate compares parallel against serial throughput, which only
   measures parallelism when a campaign outlasts process start-up and
   goldens: every SUT runs a campaign whose serial run takes at least a
   second on a 2-vCPU host.  The layered one injects every target at
   every instant below; the arrestment one is the paper-scale grid. *)
let layered_campaign () =
  let system = Lazy.force layered_system in
  Propane.Campaign.make ~name:"layered"
    ~targets:(Dataflow.Builder.injection_targets system)
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(List.map Simkernel.Sim_time.of_ms [ 50; 100; 150; 200; 250; 300 ])
    ~errors:(Propane.Error_model.bit_flips ~width:16)

(* One config for every mode of the matrix — only [jobs] (and the
   journal path) vary per cell, so any byte difference between two
   cells' journals is the engine's fault, not the options'. *)
let scaling_config ?journal ~jobs () =
  Propane.Runner.Config.make ~seed:42L ~truncate_after_ms:128 ~jobs ?journal
    ()

(* Spawned copies of this binary re-enter main with [--worker-child];
   see the dispatch at the bottom.  The assignment's campaign name
   selects which (SUT, campaign) pair the child rebuilds. *)
let worker_child_flag = "--worker-child"

let suts_under_test () =
  [
    ( "arrestment",
      (fun () -> Arrestment.System.sut ()),
      fun () ->
        Arrestment.Recipe.campaign (Arrestment.Recipe.make ~full:true ()) );
    ( "layered",
      (fun () -> Dataflow.Builder.sut (Lazy.force layered_system)),
      layered_campaign );
  ]

let tmp_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "propane-bench-%s-%d" name (Unix.getpid ()))

(* [workers-2] serves the campaign to two spawned copies of this
   binary over a Unix socket. *)
let run_workers ~sut_name ~config ~jobs c =
  let addr =
    Cluster.Address.Unix_sock (tmp_path (sut_name ^ "-workers.sock"))
  in
  let listen = Cluster.Address.listen addr in
  let pool =
    Cluster.Local.spawn
      ~command:
        [| Sys.executable_name; worker_child_flag; Cluster.Address.to_string addr |]
      ~n:jobs ()
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.Local.shutdown pool;
      (try Unix.close listen with Unix.Unix_error _ -> ());
      Cluster.Address.unlink addr)
    (fun () ->
      Cluster.Coordinator.serve
        ~on_tick:(fun () -> Cluster.Local.tend pool)
        ~config ~listen ~sut:sut_name ~campaign:c.Propane.Campaign.name
        ~total:(Propane.Campaign.size c) ())

let scaling_modes = [ ("serial", 1); ("domains-2", 2); ("workers-2", 2) ]

let scaling () =
  section "Scaling matrix: serial / domains-2 / workers-2 per SUT";
  Printf.printf "host: %d core(s), rev %s, %d repeats per mode\n" nproc
    (Lazy.force git_rev) repeats;
  let failures = ref [] in
  List.iter
    (fun (sut_name, make_sut, make_campaign) ->
      let c = make_campaign () in
      let runs = Propane.Campaign.size c in
      Printf.printf "\n-- %s (%d runs) --\n%!" sut_name runs;
      (* Round-robin over the modes, so a slow spell on the host hits
         every mode alike.  Every journal, serial repeats included, must
         be byte-identical to the first serial one. *)
      let reference = ref None in
      let timings = ref [] in
      for _ = 1 to repeats do
        List.iter
          (fun (mode, jobs) ->
            let journal = tmp_path (sut_name ^ "-" ^ mode ^ ".journal") in
            let config = scaling_config ~journal ~jobs () in
            let t0 = Unix.gettimeofday () in
            let results =
              if String.equal mode "workers-2" then
                run_workers ~sut_name ~config ~jobs c
              else Propane.Runner.run ~config (make_sut ()) c
            in
            timings := (mode, Unix.gettimeofday () -. t0) :: !timings;
            let outcomes = Propane.Results.outcomes results in
            let bytes = read_file journal in
            Sys.remove journal;
            match !reference with
            | None -> reference := Some (outcomes, bytes)
            | Some (serial_outcomes, serial_bytes) ->
                if serial_outcomes <> outcomes then
                  failwith
                    (Printf.sprintf "%s: %s outcomes differ from serial"
                       sut_name mode);
                if not (String.equal serial_bytes bytes) then
                  failwith
                    (Printf.sprintf
                       "%s: %s journal is not byte-identical to serial"
                       sut_name mode))
          scaling_modes
      done;
      let seconds_of mode =
        List.filter_map
          (fun (m, s) -> if String.equal m mode then Some s else None)
          !timings
      in
      let rates_of mode =
        List.map (fun s -> float_of_int runs /. s) (seconds_of mode)
      in
      let serial = median (rates_of "serial") in
      List.iter
        (fun (mode, jobs) ->
          let seconds = seconds_of mode and rates = rates_of mode in
          Printf.printf "  %-10s %10.1f runs/s median (%.1f-%.1f; %.2f s)%s\n"
            mode (median rates)
            (List.fold_left Float.min infinity rates)
            (List.fold_left Float.max neg_infinity rates)
            (median seconds)
            (if jobs > nproc then
               Printf.sprintf "  [oversubscribed: %d jobs on %d core(s)]" jobs
                 nproc
             else "");
          record scaling_rows
            (Json.Obj
               [
                 ("sut", Json.Str sut_name);
                 ("mode", Json.Str mode);
                 rev ();
                 ("jobs", Json.Num (float_of_int jobs));
                 ("oversubscribed", Json.Bool (jobs > nproc));
                 ("runs", Json.Num (float_of_int runs));
                 ("repeats", Json.Num (float_of_int repeats));
                 ("seconds", spread ~digits:3 seconds);
                 ("runs_per_s", spread ~digits:1 rates);
               ]);
          if median rates < serial then
            failures :=
              Printf.sprintf "%s: %s (%.1f runs/s) below serial (%.1f runs/s)"
                sut_name mode (median rates) serial
              :: !failures)
        scaling_modes)
    (suts_under_test ());
  (* Parallel modes lose by construction on a single core. *)
  if nproc < 2 then
    print_endline
      "\nscaling check: skipped (single-core host, parallel modes lose by \
       construction)"
  else
    match List.rev !failures with
    | [] ->
        print_endline
          "\nscaling check: ok (parallel median >= serial median at 2 cores)"
    | fs ->
        List.iter (fun f -> prerr_endline ("scaling check FAILED: " ^ f)) fs;
        write_bench_json ();
        exit 1

(* ------------------------------------------------------------------ *)
(* Plan: runs-to-resolved-rankings, adaptive vs uniform.  The paper
   spends its SWIFI budget uniformly across targets (4,000 injections
   each, Section 7.3) and only afterwards checks which rankings the
   data resolves.  The adaptive scheduler re-aims every round at the
   targets whose cells are still wide and whose modules' rankings are
   still unresolved, so — offered the whole campaign as its budget —
   it must reach fully resolved rankings in well under the runs the
   smallest sufficient uniform allocation needs.  The rows are run
   counts at a fixed seed, not times.                                  *)

(* A layered system tuned so full resolution is reachable and its cost
   is measurably asymmetric: each module xors its two inputs and keeps
   only the low [keep] bits, so a bit flip propagates iff it lands on a
   kept bit — every permeability cell is exactly [keep/16].  The rank
   ladder (SINK 1.0, L1_0 .875, L0_0 .5625, L0_1 .5, L1_1 .0625) has
   one deliberately tight pair: separating L0_0 from L0_1 at 95% takes
   on the order of a thousand runs per l0 target, while every other
   row resolves in a couple of hundred.  A uniform allocation must
   drag {e all} targets to the tight pair's depth; an adaptive one
   parks the cheap targets early and spends the difference where the
   ranking is still open. *)
let plan_system =
  lazy
    (let s = Propagation.Signal.make in
     let block = Xor_mask.block in
     Dataflow.Builder.create_exn ~name:"layered-plan" ~duration_ms:400
       ~blocks:
         [
           block ~name:"L0_0" ~keep:9
             ~inputs:[ s "l0_0"; s "l0_1" ]
             ~output:(s "l1_0");
           block ~name:"L0_1" ~keep:8
             ~inputs:[ s "l0_0"; s "l0_1" ]
             ~output:(s "l1_1");
           block ~name:"L1_0" ~keep:14
             ~inputs:[ s "l1_0"; s "l1_1" ]
             ~output:(s "l2_0");
           block ~name:"L1_1" ~keep:1
             ~inputs:[ s "l1_0"; s "l1_1" ]
             ~output:(s "l2_1");
           block ~name:"SINK" ~keep:16
             ~inputs:[ s "l2_0"; s "l2_1" ]
             ~output:(s "sink_out");
         ]
       ~stimuli:
         [
           Dataflow.Builder.ramp ~slope:3 (s "l0_0");
           Dataflow.Builder.ramp ~slope:5 (s "l0_1");
         ]
       ())

let plan_campaign () =
  let system = Lazy.force plan_system in
  (* 64 injection instants x 16 bit positions = 1024 runs per target,
     enough headroom for the tight pair. *)
  Propane.Campaign.make ~name:"layered-plan"
    ~targets:(Dataflow.Builder.injection_targets system)
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(List.init 64 (fun k -> Simkernel.Sim_time.of_ms (6 * (k + 1))))
    ~errors:(Propane.Error_model.bit_flips ~width:16)

let same_matrices m1 m2 =
  Propagation.String_map.equal
    (fun a b ->
      let open Propagation.Perm_matrix in
      input_count a = input_count b
      && output_count a = output_count b
      && List.for_all
           (fun input ->
             List.for_all
               (fun output ->
                 estimate a ~input ~output = estimate b ~input ~output)
               (List.init (output_count a) (fun k -> k + 1)))
           (List.init (input_count a) (fun i -> i + 1)))
    m1 m2

let plan_bench () =
  section "Plan: adaptive vs uniform runs-to-resolved (layered SUT)";
  let system = Lazy.force plan_system in
  let model = Dataflow.Builder.model system in
  let campaign = plan_campaign () in
  let total = Propane.Campaign.size campaign in
  let ntargets = List.length campaign.Propane.Campaign.targets in
  Printf.printf "campaign: %d targets, %d runs available\n" ntargets total;
  (* Post-hoc judgement, identical for both modes: stream the executed
     outcomes into a fresh live analysis and ask whether every module
     ranking is resolved at the 95% level. *)
  let resolved_of results =
    let live =
      Propane.Live.create ~model ~targets:campaign.Propane.Campaign.targets ()
    in
    let digest =
      List.fold_left
        (fun _ o -> Propane.Live.observe live o)
        (Propane.Live.digest live)
        (Propane.Results.outcomes results)
    in
    digest.Propane.Live.resolved_modules = digest.Propane.Live.module_count
  in
  let budgeted ~mode ~budget =
    let plan =
      (* Finer refinement rounds than the default budget/8: the
         scheduler re-aims more often, so it overshoots the resolution
         point by less. *)
      Propane.Plan.create ~mode ~round_budget:(max ntargets (total / 16))
        ~budget ~model ~campaign ()
    in
    let results =
      Propane.Runner.run
        ~config:
          (Propane.Runner.Config.make ~seed:42L ~truncate_after_ms:128 ~budget
             ~plan:mode ())
        ~plan
        (Dataflow.Builder.sut system)
        campaign
    in
    (plan, results)
  in
  (* Adaptive: offer everything; the scheduler stops itself the round
     after every ranking resolves. *)
  let adaptive_plan, adaptive_results =
    budgeted ~mode:Propane.Plan.Adaptive ~budget:total
  in
  let adaptive_runs = Propane.Results.count adaptive_results in
  let adaptive_rounds =
    List.fold_left
      (fun acc (r : Propane.Journal.round) -> max acc (r.round + 1))
      0
      (Propane.Plan.rounds adaptive_plan)
  in
  let adaptive_resolved = resolved_of adaptive_results in
  Printf.printf "  %-10s %5d runs in %d rounds, resolved: %b\n" "adaptive"
    adaptive_runs adaptive_rounds adaptive_resolved;
  (* Composition semantics: the adaptive subset's estimates are pure
     counter sums, so observation order cannot matter (the same
     commutativity cell reuse relies on to mix cached and fresh
     counts). *)
  let matrices_in outcomes =
    let stream = Propane.Estimator.Stream.create ~model () in
    List.iter (Propane.Estimator.Stream.observe stream) outcomes;
    Propane.Estimator.Stream.matrices stream
  in
  let outs = Propane.Results.outcomes adaptive_results in
  if not (same_matrices (matrices_in outs) (matrices_in (List.rev outs))) then
    failwith "plan bench: adaptive estimates are not order-independent";
  print_endline
    "  adaptive estimates order-independent (counts, values, intervals)";
  (* Uniform: the smallest even split that resolves, found by binary
     search over the budget (resolution is monotone in runs-per-target
     for this SUT; the probe at [total] guards the assumption). *)
  let uniform_resolves budget =
    let _, results = budgeted ~mode:Propane.Plan.Uniform ~budget in
    resolved_of results
  in
  let uniform_runs =
    if not (uniform_resolves total) then None
    else begin
      let lo = ref ntargets and hi = ref total in
      (* invariant: hi resolves, lo-1 (or nothing below ntargets) *)
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if uniform_resolves mid then hi := mid else lo := mid + 1
      done;
      Some !hi
    end
  in
  (match uniform_runs with
  | Some n -> Printf.printf "  %-10s %5d runs in 1 round, resolved: true\n"
                "uniform" n
  | None ->
      Printf.printf
        "  %-10s never resolves, even spending all %d runs\n" "uniform" total);
  let ratio =
    match uniform_runs with
    | Some n when n > 0 -> float_of_int adaptive_runs /. float_of_int n
    | _ -> Float.nan
  in
  (match uniform_runs with
  | Some n ->
      Printf.printf "  adaptive reaches resolution in %.0f%% of uniform's \
                     runs (%d vs %d)\n"
        (100.0 *. ratio) adaptive_runs n
  | None -> ());
  let row ~mode ~budget ~runs ~rounds ~resolved ~ratio =
    Json.Obj
      [
        ("sut", Json.Str "layered");
        ("mode", Json.Str mode);
        rev ();
        ("budget", Json.Num (float_of_int budget));
        ("runs", Json.Num (float_of_int runs));
        ("rounds", Json.Num (float_of_int rounds));
        ("resolved", Json.Bool resolved);
        ("ratio_vs_uniform", num ~digits:3 ratio);
      ]
  in
  let uniform_total = Option.value uniform_runs ~default:total in
  record plan_rows
    (row ~mode:"adaptive" ~budget:total ~runs:adaptive_runs
       ~rounds:adaptive_rounds ~resolved:adaptive_resolved ~ratio);
  record plan_rows
    (row ~mode:"uniform" ~budget:uniform_total ~runs:uniform_total ~rounds:1
       ~resolved:(uniform_runs <> None) ~ratio:1.0);
  let failed msg =
    Printf.eprintf "plan bench FAILED: %s\n" msg;
    write_bench_json ();
    exit 1
  in
  if not adaptive_resolved then
    failed "adaptive stopped with unresolved rankings";
  match uniform_runs with
  | None -> failed "uniform never resolves on this campaign"
  | Some n ->
      if float_of_int adaptive_runs > 0.6 *. float_of_int n then
        failed
          (Printf.sprintf "adaptive took %d runs, above 60%% of uniform's %d"
             adaptive_runs n)

let worker_child addr_string =
  let fail msg =
    prerr_endline ("bench worker: " ^ msg);
    exit 1
  in
  match Cluster.Address.of_string addr_string with
  | Error msg -> fail msg
  | Ok connect -> (
      let make (w : Cluster.Protocol.welcome) =
        (* The assignment names which cell of the matrix this child
           serves; both sides rebuild the campaign deterministically. *)
        match
          List.find_map
            (fun (_, make_sut, make_campaign) ->
              let c = make_campaign () in
              if String.equal c.Propane.Campaign.name w.Cluster.Protocol.campaign
              then Some (make_sut (), c)
              else None)
            (suts_under_test ())
        with
        | None -> Error ("worker child has no campaign " ^ w.campaign)
        | Some (_, c) when w.total <> Propane.Campaign.size c ->
            Error "worker child rebuilt a campaign of the wrong size"
        | Some (sut, c) ->
            Ok
              (Propane.Runner.executor
                 ~config:(scaling_config ~jobs:1 ())
                 ~seed:w.seed sut c)
      in
      match Cluster.Worker.run ~connect ~make () with
      | Ok _ -> exit 0
      | Error msg -> fail msg)

(* ------------------------------------------------------------------ *)
(* Campaign service: two tenants' campaigns multiplexed over one
   in-process fleet, timing what the control surface costs — the
   submit-to-first-result latency over the HTTP hop, and the aggregate
   runs/sec the daemon sustains with concurrent campaigns.  The
   workload is a [Dataflow.Builder.synthetic] system so SUT cost is a
   knob, not the arrestment physics. *)

let service_modules = 24

let service_system =
  lazy
    (Dataflow.Builder.synthetic ~modules:service_modules ~fan_in:3 ~fan_out:2
       ~feedback:4 ~seed:424242L ())

let service_campaign () =
  let system = Lazy.force service_system in
  let targets = Dataflow.Builder.injection_targets system in
  Propane.Campaign.make ~name:"service-synthetic"
    ~targets:(List.filteri (fun i _ -> i < 12) targets)
    ~testcases:[ Propane.Testcase.make ~id:"t0" ~params:[] ]
    ~times:(List.map Simkernel.Sim_time.of_ms [ 50; 110; 170 ])
    ~errors:(Propane.Error_model.bit_flips ~width:16)

(* Submission body and wire recipe are the same tiny string; tenant
   and seed are all that distinguish the two campaigns. *)
let service_recipe ~tenant ~seed =
  Printf.sprintf "svc-bench;tenant=%s;seed=%Ld" tenant seed

let service_recipe_fields r =
  match String.split_on_char ';' r with
  | [ "svc-bench"; tenant_f; seed_f ] -> (
      match
        (String.split_on_char '=' tenant_f, String.split_on_char '=' seed_f)
      with
      | [ "tenant"; tenant ], [ "seed"; seed ] ->
          Option.map (fun seed -> (tenant, seed)) (Int64.of_string_opt seed)
      | _ -> None)
  | _ -> None

let service_parse body =
  match service_recipe_fields body with
  | None -> Error (Printf.sprintf "unknown submission %S" body)
  | Some (tenant, seed) ->
      let campaign = service_campaign () in
      Ok
        {
          Propane_service.Service.tenant;
          weight = 1;
          name = campaign.Propane.Campaign.name;
          sut = "synthetic";
          total = Propane.Campaign.size campaign;
          recipe = body;
          config = Propane.Runner.Config.make ~seed ~jobs:1 ();
          live = None;
          plan = None;
        }

let service_worker_make (w : Cluster.Protocol.welcome) =
  match service_recipe_fields w.Cluster.Protocol.config with
  | None -> Error "unknown recipe"
  | Some (_tenant, _seed) ->
      let campaign = service_campaign () in
      if Propane.Campaign.size campaign <> w.Cluster.Protocol.total then
        Error "campaign size mismatch"
      else
        Ok
          (Propane.Runner.executor ~seed:w.Cluster.Protocol.seed
             (Dataflow.Builder.sut (Lazy.force service_system))
             campaign)

let service_workers = 2

(* One daemon lifetime in a fresh state directory: submit both
   campaigns, poll until both are done.  Returns (aggregate runs/s,
   worst submit-to-first-result seconds). *)
let service_once ~runs =
  let state_dir = Filename.temp_file "propane-bench" ".service" in
  Unix.unlink state_dir;
  Unix.mkdir state_dir 0o755;
  let listen =
    Cluster.Address.Unix_sock (Filename.concat state_dir "fleet.sock")
  in
  let http =
    Cluster.Address.Unix_sock (Filename.concat state_dir "http.sock")
  in
  let verdict = Atomic.make `Continue in
  let cfg =
    Propane_service.Service.config ~listen ~http ~state_dir
      ~parse:service_parse ()
  in
  let daemon =
    Domain.spawn (fun () ->
        Propane_service.Service.run
          ~stop:(fun () -> Atomic.get verdict)
          cfg)
  in
  let fleet =
    List.init service_workers (fun _ ->
        Domain.spawn (fun () ->
            Cluster.Worker.run ~connect:listen ~make:service_worker_make ()))
  in
  let finish () =
    Atomic.set verdict `Drain;
    (match Domain.join daemon with
    | Ok () -> ()
    | Error msg -> Printf.eprintf "service bench: daemon: %s\n" msg);
    List.iter (fun d -> ignore (Domain.join d)) fleet;
    Array.iter
      (fun f -> Sys.remove (Filename.concat state_dir f))
      (Sys.readdir state_dir);
    Unix.rmdir state_dir
  in
  Fun.protect ~finally:finish (fun () ->
      let get path =
        match
          Propane_service.Http.request ~addr:http ~meth:"GET" ~path ()
        with
        | Error msg -> failwith ("service bench: GET " ^ path ^ ": " ^ msg)
        | Ok (_, body) -> (
            match Json.parse body with
            | Ok json -> json
            | Error msg -> failwith ("service bench: " ^ msg))
      in
      let submit ~tenant ~seed =
        let body = service_recipe ~tenant ~seed in
        match
          Propane_service.Http.request ~body ~addr:http ~meth:"POST"
            ~path:"/campaigns" ()
        with
        | Error msg -> failwith ("service bench: submit: " ^ msg)
        | Ok (201, resp) -> (
            match
              Result.to_option (Json.parse resp) |> fun j ->
              Option.bind j (Json.member "id") |> fun j -> Option.bind j Json.str
            with
            | Some id -> id
            | None -> failwith "service bench: submit response carries no id")
        | Ok (status, resp) ->
            failwith
              (Printf.sprintf "service bench: submit rejected (%d): %s" status
                 resp)
      in
      let t0 = Unix.gettimeofday () in
      let ids = [ submit ~tenant:"alice" ~seed:101L;
                  submit ~tenant:"bob" ~seed:202L ] in
      let first_result = Hashtbl.create 4 in
      let jint name json =
        Option.value ~default:0 (Option.bind (Json.member name json) Json.int)
      in
      let jstr name json =
        Option.value ~default:"" (Option.bind (Json.member name json) Json.str)
      in
      let rec poll () =
        let states =
          List.map
            (fun id ->
              let c = get ("/campaigns/" ^ id) in
              if jint "completed" c > 0 && not (Hashtbl.mem first_result id)
              then
                Hashtbl.add first_result id (Unix.gettimeofday () -. t0);
              jstr "state" c)
            ids
        in
        if List.exists (fun s -> s = "failed" || s = "cancelled") states then
          failwith "service bench: campaign did not complete"
        else if List.for_all (fun s -> s = "done") states then ()
        else begin
          Unix.sleepf 0.005;
          poll ()
        end
      in
      poll ();
      let seconds = Unix.gettimeofday () -. t0 in
      ( float_of_int runs /. seconds,
        Hashtbl.fold (fun _ t acc -> Float.max t acc) first_result 0.0 ))

let service_bench () =
  section "service";
  let total = Propane.Campaign.size (service_campaign ()) in
  let runs = 2 * total in
  let samples = List.init repeats (fun _ -> service_once ~runs) in
  let rates = List.map fst samples and firsts = List.map snd samples in
  record service_rows
    (Json.Obj
       [
         rev ();
         ("campaigns", Json.Num 2.0);
         ("workers", Json.Num (float_of_int service_workers));
         ("modules", Json.Num (float_of_int service_modules));
         ("runs", Json.Num (float_of_int runs));
         ("repeats", Json.Num (float_of_int repeats));
         ("runs_per_s", spread ~digits:1 rates);
         ("submit_to_first_result_s", spread ~digits:4 firsts);
       ]);
  Printf.printf
    "2 campaigns x %d runs over %d fleet workers (synthetic, %d modules), \
     %d repeats\n\
     submit-to-first-result (worst tenant): median %.1f ms\n\
     aggregate: median %.0f runs/sec\n"
    total service_workers service_modules repeats
    (median firsts *. 1000.)
    (median rates)

(* ------------------------------------------------------------------ *)

let targets =
  [
    ("fig345", fig345);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("models", models);
    ("severity", severity);
    ("sensitivity", sensitivity);
    ("workload", workload);
    ("prob", prob);
    ("scaling", scaling);
    ("plan", plan_bench);
    ("service", service_bench);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ flag; addr ] when String.equal flag worker_child_flag ->
      worker_child addr
  | args ->
      let requested = match args with [] -> List.map fst targets | l -> l in
      List.iter
        (fun name ->
          match List.assoc_opt name targets with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown target %S; available: %s\n" name
                (String.concat ", " (List.map fst targets));
              exit 2)
        requested;
      write_bench_json ()
