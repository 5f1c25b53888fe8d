(* Tests for the dataflow SUT builder and the executable twin of the
   paper's five-module example. *)

module B = Dataflow.Builder

let s = Propagation.Signal.make

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let close = Alcotest.(check (float 1e-9))

let double_block =
  B.block ~name:"DOUBLE" ~inputs:[ s "x" ] ~outputs:[ s "y" ] (fun () ->
      fun inputs -> [| inputs.(0) * 2 |])

let simple_system () =
  B.create_exn ~name:"simple" ~duration_ms:50 ~blocks:[ double_block ]
    ~stimuli:[ B.ramp (s "x") ] ()

let builder_tests =
  [
    Alcotest.test_case "model is derived from the wiring" `Quick (fun () ->
        let model = B.model (simple_system ()) in
        Alcotest.(check (list string))
          "inputs" [ "x" ]
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_inputs model));
        Alcotest.(check (list string))
          "outputs" [ "y" ]
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_outputs model)));
    Alcotest.test_case "golden run computes the transfer function" `Quick
      (fun () ->
        let system = simple_system () in
        let traces =
          Propane.Runner.golden_run (B.sut system)
            (Propane.Testcase.make ~id:"t" ~params:[])
        in
        Alcotest.(check int)
          "duration" 50
          (Propane.Trace_set.duration_ms traces);
        (* At millisecond j the stimulus writes j, the block doubles. *)
        Alcotest.(check int)
          "y(10)" 20
          (Propane.Trace.get (Propane.Trace_set.trace traces "y") 10);
        Alcotest.(check int)
          "x(10)" 10
          (Propane.Trace.get (Propane.Trace_set.trace traces "x") 10));
    Alcotest.test_case "periods and offsets gate execution" `Quick (fun () ->
        let slow =
          B.block ~name:"SLOW" ~period_ms:10 ~offset_ms:3 ~inputs:[ s "x" ]
            ~outputs:[ s "y" ]
            (fun () -> fun inputs -> [| inputs.(0) |])
        in
        let system =
          B.create_exn ~duration_ms:30 ~blocks:[ slow ]
            ~stimuli:[ B.ramp (s "x") ] ()
        in
        let traces =
          Propane.Runner.golden_run (B.sut system)
            (Propane.Testcase.make ~id:"t" ~params:[])
        in
        let y ms = Propane.Trace.get (Propane.Trace_set.trace traces "y") ms in
        Alcotest.(check int) "before offset" 0 (y 2);
        Alcotest.(check int) "at offset" 3 (y 3);
        Alcotest.(check int) "held" 3 (y 12);
        Alcotest.(check int) "next period" 13 (y 13));
    Alcotest.test_case "block state is per run" `Quick (fun () ->
        let counter =
          B.block ~name:"COUNT" ~inputs:[ s "x" ] ~outputs:[ s "y" ]
            (fun () ->
              let n = ref 0 in
              fun _ ->
                incr n;
                [| !n |])
        in
        let system =
          B.create_exn ~duration_ms:5 ~blocks:[ counter ]
            ~stimuli:[ B.constant 0 (s "x") ] ()
        in
        let run () =
          let traces =
            Propane.Runner.golden_run (B.sut system)
              (Propane.Testcase.make ~id:"t" ~params:[])
          in
          Propane.Trace.get (Propane.Trace_set.trace traces "y") 4
        in
        Alcotest.(check int) "first run" 5 (run ());
        Alcotest.(check int) "second run identical" 5 (run ()));
    Alcotest.test_case "create rejects bad wiring" `Quick (fun () ->
        let check_error label blocks stimuli =
          match B.create ~blocks ~stimuli () with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail label
        in
        (* stimulus on a produced signal *)
        check_error "stimulus on produced signal" [ double_block ]
          [ B.ramp (s "y") ];
        (* stimulus on an unread signal *)
        check_error "stimulus on unread signal" [ double_block ]
          [ B.ramp (s "x"); B.ramp (s "zz") ];
        (* no system outputs *)
        let loop =
          B.block ~name:"LOOP" ~inputs:[ s "p"; s "ext" ] ~outputs:[ s "p" ]
            (fun () -> fun inputs -> [| inputs.(0) |])
        in
        check_error "no outputs" [ loop ] [ B.ramp (s "ext") ];
        (* unwired input *)
        check_error "unwired input" [ double_block ] []);
    check_raises_invalid "non-positive period rejected" (fun () ->
        B.block ~name:"X" ~period_ms:0 ~inputs:[ s "x" ] ~outputs:[ s "y" ]
          (fun () -> fun i -> i));
    Alcotest.test_case "injection targets are the block inputs" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "targets" [ "x" ]
          (B.injection_targets (simple_system ())));
    Alcotest.test_case "wrong transfer arity fails the run" `Quick (fun () ->
        let bad =
          B.block ~name:"BAD" ~inputs:[ s "x" ] ~outputs:[ s "y" ] (fun () ->
              fun _ -> [||])
        in
        let system =
          B.create_exn ~duration_ms:5 ~blocks:[ bad ]
            ~stimuli:[ B.ramp (s "x") ] ()
        in
        match
          Propane.Runner.golden_run (B.sut system)
            (Propane.Testcase.make ~id:"t" ~params:[])
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    (* Synthetic systems: the service-bench workload generator must
       produce valid, deterministic SUTs at any size. *)
    Alcotest.test_case "synthetic generates a valid system" `Quick (fun () ->
        let system =
          B.synthetic ~modules:24 ~fan_in:3 ~fan_out:2 ~feedback:4 ~seed:7L ()
        in
        let model = B.model system in
        Alcotest.(check bool)
          "has injection targets" true
          (B.injection_targets system <> []);
        (* Feedback never swallows the final block, so the derived model
           keeps system outputs. *)
        Alcotest.(check bool)
          "has system outputs" true
          (Propagation.System_model.system_outputs model <> []);
        Alcotest.(check bool)
          "has system inputs" true
          (Propagation.System_model.system_inputs model <> []));
    Alcotest.test_case "synthetic is deterministic in the seed" `Quick
      (fun () ->
        let digest seed =
          let system =
            B.synthetic ~modules:12 ~fan_in:2 ~fan_out:2 ~feedback:2 ~seed
              ~duration_ms:40 ()
          in
          let traces =
            Propane.Runner.golden_run (B.sut system)
              (Propane.Testcase.make ~id:"t" ~params:[])
          in
          List.fold_left
            (fun acc s ->
              let tr = Propane.Trace_set.trace traces s in
              let rec go acc ms =
                if ms >= Propane.Trace_set.duration_ms traces then acc
                else go (Hashtbl.hash (acc, Propane.Trace.get tr ms)) (ms + 1)
              in
              go (Hashtbl.hash (acc, s)) 0)
            0
            (Propane.Trace_set.signals traces)
        in
        Alcotest.(check int) "same seed, same traces" (digest 42L) (digest 42L);
        Alcotest.(check bool)
          "different seed, different traces" true
          (digest 42L <> digest 43L));
    check_raises_invalid "synthetic rejects zero modules" (fun () ->
        B.synthetic ~modules:0 ~fan_in:1 ~fan_out:1 ~feedback:0 ~seed:1L ());
    check_raises_invalid "synthetic rejects zero fan_in" (fun () ->
        B.synthetic ~modules:3 ~fan_in:0 ~fan_out:1 ~feedback:0 ~seed:1L ());
    check_raises_invalid "synthetic rejects negative feedback" (fun () ->
        B.synthetic ~modules:3 ~fan_in:1 ~fan_out:1 ~feedback:(-1) ~seed:1L ());
  ]

(* ------------------------------------------------------------------ *)

let fig2_tests =
  [
    Alcotest.test_case "wiring matches the static Fig_example" `Quick
      (fun () ->
        let executable = B.model Dataflow.Fig2_system.system in
        let static = Propagation.Fig_example.system in
        Alcotest.(check (list string))
          "modules"
          (List.map Propagation.Sw_module.name
             (Propagation.System_model.modules static))
          (List.map Propagation.Sw_module.name
             (Propagation.System_model.modules executable));
        Alcotest.(check int)
          "pair count"
          (Propagation.System_model.pair_count static)
          (Propagation.System_model.pair_count executable);
        Alcotest.(check (list string))
          "inputs"
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_inputs static))
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_inputs executable)));
    Alcotest.test_case "measured matrices have the example's dimensions"
      `Slow (fun () ->
        let matrices = Dataflow.Fig2_system.measure () in
        Alcotest.(check int)
          "modules" 5
          (Propagation.String_map.cardinal matrices);
        let b = Propagation.String_map.find "B" matrices in
        Alcotest.(check int) "B inputs" 3 (Propagation.Perm_matrix.input_count b);
        Alcotest.(check int) "B outputs" 2 (Propagation.Perm_matrix.output_count b));
    Alcotest.test_case "measurement reflects the transfer functions" `Slow
      (fun () ->
        let matrices = Dataflow.Fig2_system.measure () in
        let get name' i k =
          Propagation.Perm_matrix.get
            (Propagation.String_map.find name' matrices)
            ~input:i ~output:k
        in
        (* C's second output is ext_c >> 8: the 8 low bits never show. *)
        close "C masks low bits" 0.5 (get "C" 1 2);
        (* A's a2 output is ext_a >> 6. *)
        close "A masks 6 bits" 0.625 (get "A" 1 2);
        (* E mixes b2 fully. *)
        close "E passes b2" 1.0 (get "E" 1 1);
        (* ext_e only contributes its top 6 bits. *)
        close "E masks ext_e" 0.375 (get "E" 2 1));
    Alcotest.test_case "measured analysis runs end to end" `Slow (fun () ->
        let matrices = Dataflow.Fig2_system.measure () in
        let analysis =
          Propagation.Analysis.run_exn
            (B.model Dataflow.Fig2_system.system)
            matrices
        in
        Alcotest.(check int)
          "22 example paths" 10
          (Propagation.Backtrack_tree.leaf_count
             (List.assoc (s "e_out")
                analysis.Propagation.Analysis.backtrack_trees)));
  ]

(* ------------------------------------------------------------------ *)
(* Random layered systems through the full pipeline.

   The generator builds an arbitrary layered dataflow system (random
   widths, transfer functions, periods), runs a miniature campaign on
   it, estimates its matrices and checks framework invariants that must
   hold for ANY system:
   - estimation never leaves [0, 1] (enforced by Perm_matrix);
   - the analysis pipeline succeeds and its trees are finite;
   - Eq. 6's closed form equals its literal tree-based definition;
   - golden runs are deterministic. *)

type gen_spec = {
  widths : int list;  (* blocks per layer *)
  fanin : int;  (* inputs per block, capped by the previous layer *)
  transfer_seed : int;
  period : int;
}

let spec_gen =
  QCheck2.Gen.(
    map4
      (fun widths fanin transfer_seed period ->
        { widths; fanin; transfer_seed; period })
      (list_size (int_range 1 3) (int_range 1 3))
      (int_range 1 3) int (int_range 1 3))

let transfer_of_seed seed arity =
  (* A deterministic arithmetic mix parameterised by the seed. *)
  let shift = abs seed mod 8 in
  let xor_mask = abs (seed / 8) mod 0x10000 in
  fun () inputs ->
    let sum = Array.fold_left ( + ) 0 inputs in
    [| ((sum lsr shift) lxor xor_mask) land 0xFFFF |] |> fun out ->
    ignore arity;
    out

let build_random spec =
  let signal l j = s (Printf.sprintf "l%d_%d" l j) in
  let prev_width l =
    if l = 0 then 2 (* external inputs ext_0, ext_1 *)
    else List.nth spec.widths (l - 1)
  in
  let prev_signal l j =
    if l = 0 then s (Printf.sprintf "ext_%d" j) else signal (l - 1) j
  in
  let blocks =
    List.concat
      (List.mapi
         (fun l width ->
           List.init width (fun j ->
               let fanin = min spec.fanin (prev_width l) in
               let inputs =
                 List.init fanin (fun k ->
                     prev_signal l ((j + k) mod prev_width l))
               in
               B.block
                 ~name:(Printf.sprintf "M%d_%d" l j)
                 ~period_ms:spec.period
                 ~inputs
                 ~outputs:[ signal l j ]
                 (transfer_of_seed (spec.transfer_seed + (31 * l) + j) fanin)))
         spec.widths)
  in
  (* Drive exactly the external signals the first layer reads (the
     input-pick formula below mirrors the block construction above). *)
  let width0 = List.hd spec.widths in
  let fanin0 = min spec.fanin 2 in
  let used =
    List.sort_uniq Int.compare
      (List.concat
         (List.init width0 (fun j ->
              List.init fanin0 (fun k -> (j + k) mod 2))))
  in
  B.create_exn ~name:"random" ~duration_ms:60 ~blocks
    ~stimuli:
      (List.map
         (fun j -> B.ramp ~slope:(7 - (4 * j)) (s (Printf.sprintf "ext_%d" j)))
         used)
    ()

let mini_campaign system =
  Propane.Campaign.make ~name:"mini"
    ~targets:(B.injection_targets system)
    ~testcases:[ Propane.Testcase.make ~id:"t" ~params:[] ]
    ~times:[ Simkernel.Sim_time.of_ms 10; Simkernel.Sim_time.of_ms 30 ]
    ~errors:[ Propane.Error_model.Bit_flip 0; Propane.Error_model.Bit_flip 9 ]

let random_system_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"pipeline invariants on random systems"
         ~count:25 spec_gen (fun spec ->
           let system = build_random spec in
           let sut = B.sut system in
           let model = B.model system in
           let results = Propane.Runner.run
             ~config:(Propane.Runner.Config.make ~seed:1L ())
             sut (mini_campaign system) in
           match Propane.Estimator.estimate_all ~model results with
           | Error _ ->
               (* Only the first target was injected; estimate per
                  module instead and check bounds. *)
               List.for_all
                 (fun m ->
                   let name = Propagation.Sw_module.name m in
                   let matrix =
                     Propane.Estimator.estimate_matrix ~model ~results name
                   in
                   Propagation.Perm_matrix.relative matrix >= 0.0
                   && Propagation.Perm_matrix.relative matrix <= 1.0)
                 (Propagation.System_model.modules model)
           | Ok matrices -> (
               match Propagation.Analysis.run model matrices with
               | Error _ -> false
               | Ok analysis ->
                   let graph = analysis.Propagation.Analysis.graph in
                   let trees =
                     List.map snd analysis.Propagation.Analysis.backtrack_trees
                   in
                   List.for_all
                     (fun tree ->
                       Propagation.Backtrack_tree.node_count tree < 100_000)
                     trees
                   && List.for_all
                        (fun sg ->
                          Float.abs
                            (Propagation.Exposure.signal_exposure graph sg
                            -. Propagation.Exposure.signal_exposure_via_trees
                                 trees sg)
                          < 1e-9)
                        (Propagation.System_model.internal_signals model))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"golden runs of random systems are deterministic"
         ~count:15 spec_gen (fun spec ->
           let system = build_random spec in
           let sut = B.sut system in
           let tc = Propane.Testcase.make ~id:"t" ~params:[] in
           let a = Propane.Runner.golden_run sut tc in
           let b = Propane.Runner.golden_run sut tc in
           Propane.Golden.compare_runs ~golden:a ~run:b () = []));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"injections only ever produce divergences at/after the instant"
         ~count:15 spec_gen (fun spec ->
           let system = build_random spec in
           let sut = B.sut system in
           let tc = Propane.Testcase.make ~id:"t" ~params:[] in
           let golden = Propane.Runner.golden_run sut tc in
           let outcome =
             Propane.Runner.run_experiment sut
               ~golden:(Propane.Golden.freeze golden) tc
               (Propane.Injection.make
                  ~target:(List.hd (B.injection_targets system))
                  ~at:(Simkernel.Sim_time.of_ms 20)
                  ~error:(Propane.Error_model.Bit_flip 3))
           in
           List.for_all
             (fun (d : Propane.Golden.divergence) -> d.first_ms >= 20)
             outcome.Propane.Results.divergences));
  ]

(* ------------------------------------------------------------------ *)
(* The bound step against a name-keyed reference.  The builder resolves
   a store handle per port once per instance and hands each transfer one
   reused input array.  The reference below steps the same system the
   way the builder used to: every read, write and poke looks the signal
   up by name, and every call gets a fresh input array.  Golden traces
   and injection outcomes must not tell the two apart. *)

type step_block = {
  period : int;
  offset : int;
  fan_in : int;
  outputs : int;
  salt : int;
  identity : bool;  (* returns its own input array *)
}

type step_spec = { step_blocks : step_block list; plant : bool; slope : int }

let step_spec_gen =
  QCheck2.Gen.(
    let block =
      map
        (fun (period, offset, fan_in, outputs, salt, identity) ->
          { period; offset; fan_in; outputs; salt; identity })
        (tup6 (int_range 1 3) (int_range 0 3) (int_range 1 3) (int_range 1 2)
           (int_bound 0xFFFF) bool)
    in
    map3
      (fun step_blocks plant slope -> { step_blocks; plant; slope })
      (list_size (int_range 1 5) block)
      bool (int_range 1 9))

(* Everything both implementations need: per block its schedule, port
   names and transfer factory, in block order. *)
type wired = {
  name : string;
  period_ms : int;
  offset_ms : int;
  ins : string list;
  outs : string list;
  factory : unit -> int array -> int array;
}

let wire spec =
  let base =
    [ "ext_0"; "ext_1" ] @ if spec.plant then [ "sensor" ] else []
  in
  let _, rev =
    List.fold_left
      (fun (pool, acc) (i, b) ->
        let ins =
          if i = 0 then base
          else
            (* [fan_in] distinct signals of the pool, rotated by salt *)
            let n = List.length pool in
            List.init (min b.fan_in n) (fun k ->
                List.nth pool ((b.salt + k) mod n))
        in
        let n_out = if b.identity then List.length ins else b.outputs in
        let outs = List.init n_out (Printf.sprintf "m%d_%d" i) in
        let factory =
          if b.identity then fun () inputs -> inputs
          else fun () ->
            let acc = ref b.salt in
            fun inputs ->
              acc :=
                ((!acc * 31) + Array.fold_left ( lxor ) 0 inputs) land 0xFFFF;
              Array.init n_out (fun k ->
                  (inputs.(k mod Array.length inputs) lxor (!acc lsr k))
                  land 0xFFFF)
        in
        ( pool @ outs,
          {
            name = Printf.sprintf "M%d" i;
            period_ms = b.period;
            offset_ms = b.offset;
            ins;
            outs;
            factory;
          }
          :: acc ))
      (base, [])
      (List.mapi (fun i b -> (i, b)) spec.step_blocks)
  in
  List.rev rev

(* The plant reads the last block's first output of the previous
   millisecond and accumulates it into the sensor it writes. *)
let plant_read blocks = List.hd (List.hd (List.rev blocks)).outs

let plant_factory () =
  let v = ref 0 in
  fun reads ->
    v := (!v + reads.(0) + 1) land 0xFFFF;
    [| !v |]

let build_stepped spec =
  let blocks = wire spec in
  let plants =
    if spec.plant then
      [
        B.plant ~name:"PLANT" ~reads:[ s (plant_read blocks) ]
          ~writes:[ s "sensor" ] plant_factory;
      ]
    else []
  in
  ( blocks,
    B.create_exn ~name:"stepped" ~duration_ms:80 ~plants
      ~blocks:
        (List.map
           (fun w ->
             B.block ~name:w.name ~period_ms:w.period_ms ~offset_ms:w.offset_ms
               ~inputs:(List.map s w.ins) ~outputs:(List.map s w.outs)
               w.factory)
           blocks)
      ~stimuli:
        [ B.ramp ~slope:spec.slope (s "ext_0"); B.constant 0x5A5A (s "ext_1") ]
      () )

let reference_sut spec blocks (built : Propane.Sut.t) =
  let module St = Propane.Signal_store in
  let instantiate _ =
    let store =
      St.create
        ~modes:(if spec.plant then [ ("sensor", St.Immediate) ] else [])
        ~signals:built.signals ()
    in
    let drives =
      [ ("ext_0", fun ms -> spec.slope * ms); ("ext_1", fun _ -> 0x5A5A) ]
    in
    let plant =
      if spec.plant then begin
        let f = plant_factory () in
        let read = plant_read blocks in
        fun () ->
          Array.iter (St.poke store "sensor") (f [| St.read store read |])
      end
      else fun () -> ()
    in
    let steps =
      List.map
        (fun w ->
          let f = w.factory () in
          fun ms ->
            if ms >= w.offset_ms && (ms - w.offset_ms) mod w.period_ms = 0
            then
              List.iter2 (St.write store) w.outs
                (Array.to_list
                   (f (Array.of_list (List.map (St.read store) w.ins)))))
        blocks
    in
    let ms = ref 0 in
    {
      Propane.Sut.read = St.peek store;
      write = St.poke store;
      inject = St.inject store;
      step =
        (fun () ->
          plant ();
          List.iter
            (fun (name, drive) -> St.write store name (drive !ms))
            drives;
          List.iter (fun step -> step !ms) steps;
          incr ms);
      finished = (fun () -> !ms >= 80);
      snapshot =
        Some
          (fun buf ->
            List.iteri (fun i (name, _) -> buf.(i) <- St.peek store name)
              built.signals);
      state_hook = None;
    }
  in
  { built with Propane.Sut.instantiate }

let injections_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6)
      (triple (int_bound 1000) (int_range 0 79) (int_range 0 15)))

let bound_step_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:60
         ~name:"the bound step matches a name-keyed reference"
         (QCheck2.Gen.pair step_spec_gen injections_gen)
         (fun (spec, injections) ->
           let blocks, system = build_stepped spec in
           let bound = B.sut system in
           let reference = reference_sut spec blocks bound in
           let tc = Propane.Testcase.make ~id:"t" ~params:[] in
           let golden sut = Propane.Runner.golden_run sut tc in
           let gb = golden bound and gr = golden reference in
           let same_golden =
             Propane.Trace_set.signals gb = Propane.Trace_set.signals gr
             && List.for_all
                  (fun name ->
                    Propane.Trace.equal
                      (Propane.Trace_set.trace gb name)
                      (Propane.Trace_set.trace gr name))
                  (Propane.Trace_set.signals gb)
           in
           let targets = Array.of_list (B.injection_targets system) in
           let outcome sut golden (pick, at, bit) =
             Propane.Runner.run_experiment ~truncate_after_ms:20 sut
               ~golden:(Propane.Golden.freeze golden) tc
               (Propane.Injection.make
                  ~target:targets.(pick mod Array.length targets)
                  ~at:(Simkernel.Sim_time.of_ms at)
                  ~error:(Propane.Error_model.Bit_flip bit))
           in
           same_golden
           && List.for_all
                (fun i ->
                  compare (outcome bound gb i) (outcome reference gr i) = 0)
                injections));
  ]

(* ------------------------------------------------------------------ *)
(* Known answers: on an XOR-and-mask DAG, a uniform campaign flipping
   each of the 16 bits at every instant measures every permeability
   cell as exactly keep/16. *)

let known_answer_tests =
  [
    Alcotest.test_case "XOR-and-mask cells equal keep/16 exactly" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            let dag = Xor_mask.dag ~seed in
            let model = B.model dag.system in
            let campaign =
              Propane.Campaign.make ~name:"xor-known"
                ~targets:(B.injection_targets dag.system)
                ~testcases:[ Propane.Testcase.make ~id:"t" ~params:[] ]
                ~times:(List.map Simkernel.Sim_time.of_ms [ 7; 40; 121 ])
                ~errors:(Propane.Error_model.bit_flips ~width:16)
            in
            let results =
              Propane.Runner.run
                ~config:
                  (Propane.Runner.Config.make ~seed ~truncate_after_ms:16 ())
                (B.sut dag.system) campaign
            in
            match Propane.Estimator.estimate_all ~model results with
            | Error msg -> Alcotest.fail msg
            | Ok matrices ->
                Propagation.String_map.iter
                  (fun name matrix ->
                    let exact = float_of_int (dag.keep name) /. 16.0 in
                    Propagation.Perm_matrix.fold
                      (fun ~input ~output v () ->
                        if not (Float.equal v exact) then
                          Alcotest.failf
                            "seed %Ld: %s input %d output %d measured %g, \
                             exact %g"
                            seed name input output v exact)
                      matrix ())
                  matrices)
          [ 101L; 7L; 3L ]);
  ]

(* ------------------------------------------------------------------ *)

let cruise_tests =
  [
    Alcotest.test_case "derived model closes the loop" `Quick (fun () ->
        let model = B.model Dataflow.Cruise_system.system in
        Alcotest.(check (list string))
          "system inputs" [ "target_knob"; "speed_adc" ]
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_inputs model));
        Alcotest.(check (list string))
          "system outputs" [ "throttle" ]
          (List.map Propagation.Signal.name
             (Propagation.System_model.system_outputs model)));
    Alcotest.test_case "the vehicle tracks the demand profile" `Slow
      (fun () ->
        let traces =
          Propane.Runner.golden_run Dataflow.Cruise_system.sut
            (Propane.Testcase.make ~id:"t" ~params:[])
        in
        let v ms =
          Propane.Trace.get (Propane.Trace_set.trace traces "speed_adc") ms
        in
        (* accelerating towards 20 m/s, then towards 30 m/s *)
        Alcotest.(check bool) "ramping" true (v 500 > 500 && v 500 < 2_500);
        Alcotest.(check bool) "near final" true (v 2_999 > 2_500));
    Alcotest.test_case "plant refresh clobbers sensor injections (OB3 again)"
      `Slow (fun () ->
        let matrices = Dataflow.Cruise_system.measure () in
        let speed_s = Propagation.String_map.find "SPEED_S" matrices in
        close "P(speed_adc -> speed_flt)" 0.0
          (Propagation.Perm_matrix.get speed_s ~input:1 ~output:1);
        (* while software signals show mid-range permeabilities *)
        let reg = Propagation.String_map.find "REG" matrices in
        Alcotest.(check bool)
          "REG permeable" true
          (Propagation.Perm_matrix.non_weighted reg > 0.5));
    Alcotest.test_case "plant reads go through the trap layer" `Slow
      (fun () ->
        (* Injecting the actuator command must disturb the plant: the
           speed trace (a plant output) diverges. *)
        let sut = Dataflow.Cruise_system.sut in
        let tc = Propane.Testcase.make ~id:"t" ~params:[] in
        let golden = Propane.Runner.golden_run sut tc in
        let outcome =
          Propane.Runner.run_experiment sut
            ~golden:(Propane.Golden.freeze golden) tc
            (Propane.Injection.make ~target:"throttle"
               ~at:(Simkernel.Sim_time.of_ms 500)
               ~error:(Propane.Error_model.Bit_flip 11))
        in
        Alcotest.(check bool)
          "speed diverges" true
          (Propane.Results.divergence_of outcome "speed_adc" <> None));
    Alcotest.test_case "severity classification works on the cruise target"
      `Slow (fun () ->
        let campaign =
          Propane.Campaign.make ~name:"cruise-sev"
            ~targets:(B.injection_targets Dataflow.Cruise_system.system)
            ~testcases:[ Propane.Testcase.make ~id:"step" ~params:[] ]
            ~times:[ Simkernel.Sim_time.of_ms 1_500 ]
            ~errors:(Propane.Error_model.bit_flips ~width:16)
        in
        let reports =
          Propane.Severity.assess ~outputs:[ "throttle" ]
            ~mission_failed:Dataflow.Cruise_system.mission_failed
            Dataflow.Cruise_system.sut campaign
        in
        Alcotest.(check int) "targets" 4 (List.length reports);
        List.iter
          (fun (r : Propane.Severity.report) ->
            Alcotest.(check int)
              "partition" r.runs
              (List.fold_left
                 (fun acc v -> acc + Propane.Severity.count r v)
                 0 Propane.Severity.verdicts))
          reports);
  ]

let () =
  Alcotest.run "dataflow"
    [
      ("builder", builder_tests);
      ("fig2", fig2_tests);
      ("cruise", cruise_tests);
      ("random_systems", random_system_tests);
      ("bound_step", bound_step_tests);
      ("known_answers", known_answer_tests);
    ]
