(* Tests for the core propagation-analysis library (paper Sections 4-5). *)

open Propagation

let signal = Alcotest.testable Signal.pp Signal.equal

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let s = Signal.make
let close = Alcotest.(check (float 1e-9))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let signal_tests =
  [
    Alcotest.test_case "name and default kind" `Quick (fun () ->
        let x = s "x" in
        Alcotest.(check string) "name" "x" (Signal.name x);
        Alcotest.(check bool) "kind" true (Signal.kind x = Signal.Data));
    Alcotest.test_case "identity ignores kind" `Quick (fun () ->
        Alcotest.(check bool)
          "equal" true
          (Signal.equal (s "x") (Signal.make ~kind:Signal.Clock "x")));
    check_raises_invalid "empty name rejected" (fun () -> s "");
    Alcotest.test_case "compare orders by name" `Quick (fun () ->
        Alcotest.(check bool) "lt" true (Signal.compare (s "a") (s "b") < 0));
    Alcotest.test_case "sets deduplicate by name" `Quick (fun () ->
        let set = Signal.Set.of_list [ s "x"; s "y"; s "x" ] in
        Alcotest.(check int) "cardinal" 2 (Signal.Set.cardinal set));
    Alcotest.test_case "hash consistent with equality" `Quick (fun () ->
        Alcotest.(check int) "hash" (Signal.hash (s "x")) (Signal.hash (s "x")));
  ]

(* ------------------------------------------------------------------ *)

let mk_mod ?(name = "M") inputs outputs =
  Sw_module.make ~name ~inputs:(List.map s inputs)
    ~outputs:(List.map s outputs)

let sw_module_tests =
  [
    Alcotest.test_case "counts and pair count" `Quick (fun () ->
        let m = mk_mod [ "a"; "b" ] [ "c"; "d"; "e" ] in
        Alcotest.(check int) "m" 2 (Sw_module.input_count m);
        Alcotest.(check int) "n" 3 (Sw_module.output_count m);
        Alcotest.(check int) "m*n" 6 (Sw_module.pair_count m));
    Alcotest.test_case "ports are 1-based" `Quick (fun () ->
        let m = mk_mod [ "a"; "b" ] [ "c" ] in
        Alcotest.check signal "in 1" (s "a") (Sw_module.input_signal m 1);
        Alcotest.check signal "in 2" (s "b") (Sw_module.input_signal m 2);
        Alcotest.check signal "out 1" (s "c") (Sw_module.output_signal m 1));
    check_raises_invalid "port 0 rejected" (fun () ->
        Sw_module.input_signal (mk_mod [ "a" ] [ "b" ]) 0);
    check_raises_invalid "port beyond m rejected" (fun () ->
        Sw_module.input_signal (mk_mod [ "a" ] [ "b" ]) 2);
    Alcotest.test_case "input_index finds ports" `Quick (fun () ->
        let m = mk_mod [ "a"; "b" ] [ "c" ] in
        Alcotest.(check (option int))
          "b" (Some 2)
          (Sw_module.input_index m (s "b"));
        Alcotest.(check (option int))
          "missing" None
          (Sw_module.input_index m (s "z")));
    Alcotest.test_case "feedback detection" `Quick (fun () ->
        let m = mk_mod [ "a"; "fb" ] [ "fb"; "out" ] in
        Alcotest.(check (list string))
          "signals" [ "fb" ]
          (List.map Signal.name (Sw_module.feedback_signals m)));
    Alcotest.test_case "no spurious feedback" `Quick (fun () ->
        Alcotest.(check (list string))
          "none" []
          (List.map Signal.name
             (Sw_module.feedback_signals (mk_mod [ "a" ] [ "b" ]))));
    check_raises_invalid "duplicate input rejected" (fun () ->
        mk_mod [ "a"; "a" ] [ "b" ]);
    check_raises_invalid "duplicate output rejected" (fun () ->
        mk_mod [ "a" ] [ "b"; "b" ]);
    check_raises_invalid "no inputs rejected" (fun () -> mk_mod [] [ "b" ]);
    check_raises_invalid "no outputs rejected" (fun () -> mk_mod [ "a" ] []);
    check_raises_invalid "empty name rejected" (fun () ->
        mk_mod ~name:"" [ "a" ] [ "b" ]);
  ]

(* ------------------------------------------------------------------ *)

let counts_gen =
  QCheck2.Gen.(
    bind (int_range 1 10_000) (fun trials ->
        map (fun errors -> (errors, trials)) (int_range 0 trials)))

let estimate_tests =
  [
    Alcotest.test_case "no trials is maximally uninformative" `Quick (fun () ->
        let lo, hi = Estimate.wilson_interval ~errors:0 ~trials:0 in
        close "lo" 0.0 lo;
        close "hi" 1.0 hi;
        Alcotest.(check bool)
          "not measured" false
          (Estimate.is_measured (Estimate.of_counts ~errors:0 ~trials:0)));
    Alcotest.test_case "hand-checked 50/100" `Quick (fun () ->
        (* Wilson score interval for p=0.5, n=100, z=1.96. *)
        let lo, hi = Estimate.wilson_interval ~errors:50 ~trials:100 in
        Alcotest.(check (float 1e-3)) "lo" 0.404 lo;
        Alcotest.(check (float 1e-3)) "hi" 0.596 hi;
        (* Every trial an error: the upper bound is clamped to exactly 1. *)
        let lo, hi = Estimate.wilson_interval ~errors:10 ~trials:10 in
        Alcotest.(check (float 1e-3)) "lo at 10/10" 0.722 lo;
        Alcotest.(check (float 1e-9)) "hi at 10/10" 1.0 hi);
    Alcotest.test_case "95% intervals cover k/16 at the nominal rate" `Quick
      (fun () ->
        (* Exact coverage of p at n trials: the binomial probability of
           every count whose interval contains p.  p = k/16 are the
           XOR-and-mask permeabilities; the Wilson interval is known to
           undercover a little in places, hence the 0.92 floor per cell
           and the tighter bracket on the mean. *)
        let coverage ~p ~n =
          let log_p = log p and log_q = log (1.0 -. p) in
          let rec go errors log_choose acc =
            if errors > n then acc
            else
              let lo, hi = Estimate.wilson_interval ~errors ~trials:n in
              let acc =
                if lo <= p && p <= hi then
                  acc
                  +. exp
                       (log_choose
                       +. (float_of_int errors *. log_p)
                       +. (float_of_int (n - errors) *. log_q))
                else acc
              in
              go (errors + 1)
                (log_choose
                +. log (float_of_int (n - errors))
                -. log (float_of_int (errors + 1)))
                acc
          in
          go 0 0.0 0.0
        in
        let cells =
          List.concat_map
            (fun k ->
              let p = float_of_int k /. 16.0 in
              List.map (fun n -> (p, n, coverage ~p ~n)) [ 16; 32; 64; 128; 256 ])
            (List.init 15 succ)
        in
        List.iter
          (fun (p, n, c) ->
            if c < 0.92 then
              Alcotest.failf "p = %g, n = %d: coverage %.4f below 0.92" p n c)
          cells;
        let mean =
          List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 cells
          /. float_of_int (List.length cells)
        in
        if mean < 0.94 || mean > 0.96 then
          Alcotest.failf "mean coverage %.4f outside [0.94, 0.96]" mean);
    check_raises_invalid "errors > trials rejected" (fun () ->
        Estimate.wilson_interval ~errors:3 ~trials:2);
    check_raises_invalid "negative errors rejected" (fun () ->
        Estimate.wilson_interval ~errors:(-1) ~trials:2);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"interval contains n_err/n_inj" ~count:500
         counts_gen (fun (errors, trials) ->
           let lo, hi = Estimate.wilson_interval ~errors ~trials in
           let p = float_of_int errors /. float_of_int trials in
           0.0 <= lo && lo <= p && p <= hi && hi <= 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"interval narrows as trials grow at fixed ratio" ~count:500
         QCheck2.Gen.(
           triple (int_range 0 50) (int_range 1 50) (int_range 2 100))
         (fun (errors0, extra, factor) ->
           (* Same error ratio, [factor] times the evidence: the
              interval must not widen. *)
           let trials = errors0 + extra in
           let width ~errors ~trials =
             let lo, hi = Estimate.wilson_interval ~errors ~trials in
             hi -. lo
           in
           width ~errors:(errors0 * factor) ~trials:(trials * factor)
           <= width ~errors:errors0 ~trials +. 1e-12));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"estimates round-trip through Perm_matrix without drift"
         ~count:200
         QCheck2.Gen.(
           bind (pair (int_range 1 5) (int_range 1 5)) (fun (m, n) ->
               map
                 (fun cells ->
                   Array.init m (fun i ->
                       Array.init n (fun k ->
                           let errors, trials = List.nth cells ((i * n) + k) in
                           Estimate.of_counts ~errors ~trials)))
                 (list_repeat (m * n)
                    (bind (int_range 0 1_000) (fun trials ->
                         map
                           (fun errors -> (errors, trials))
                           (int_range 0 (max trials 0)))))))
         (fun cells ->
           let matrix = Perm_matrix.of_estimates cells in
           Array.for_all Fun.id
             (Array.mapi
                (fun i0 row ->
                  Array.for_all Fun.id
                    (Array.mapi
                       (fun k0 original ->
                         let got =
                           Perm_matrix.estimate matrix ~input:(i0 + 1)
                             ~output:(k0 + 1)
                         in
                         Estimate.equal ~eps:0.0 original got
                         && got.Estimate.n_err = original.Estimate.n_err
                         && got.Estimate.n_inj = original.Estimate.n_inj)
                       row))
                cells)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"derived arithmetic brackets the value"
         ~count:500
         QCheck2.Gen.(pair counts_gen counts_gen)
         (fun ((e1, t1), (e2, t2)) ->
           let a = Estimate.of_counts ~errors:e1 ~trials:t1 in
           let b = Estimate.of_counts ~errors:e2 ~trials:t2 in
           let ok e =
             let lo, hi = Estimate.interval e in
             lo <= Estimate.value e && Estimate.value e <= hi
           in
           ok (Estimate.mul a b) && ok (Estimate.add a b)
           && ok (Estimate.scale 0.5 a)));
  ]

(* ------------------------------------------------------------------ *)

let matrix_gen =
  QCheck2.Gen.(
    bind (pair (int_range 1 6) (int_range 1 6)) (fun (m, n) ->
        map
          (fun values ->
            Perm_matrix.of_rows
              (Array.init m (fun i ->
                   Array.init n (fun k -> List.nth values ((i * n) + k)))))
          (list_repeat (m * n) (float_bound_inclusive 1.0))))

let perm_matrix_tests =
  [
    Alcotest.test_case "create is all zeros" `Quick (fun () ->
        let m = Perm_matrix.create ~inputs:2 ~outputs:3 in
        close "sum" 0.0 (Perm_matrix.non_weighted m));
    Alcotest.test_case "get/set are 1-based and functional" `Quick (fun () ->
        let m0 = Perm_matrix.create ~inputs:2 ~outputs:2 in
        let m1 = Perm_matrix.set m0 ~input:2 ~output:1 0.5 in
        close "old untouched" 0.0 (Perm_matrix.get m0 ~input:2 ~output:1);
        close "new value" 0.5 (Perm_matrix.get m1 ~input:2 ~output:1));
    Alcotest.test_case "relative matches Eq. 2 by hand" `Quick (fun () ->
        let m = Perm_matrix.of_rows [| [| 0.2; 0.4 |]; [| 0.6; 0.8 |] |] in
        close "relative" 0.5 (Perm_matrix.relative m);
        close "non-weighted" 2.0 (Perm_matrix.non_weighted m));
    Alcotest.test_case "row and column sums" `Quick (fun () ->
        let m = Perm_matrix.of_rows [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |] in
        close "row 2" 0.7 (Perm_matrix.row_sum m ~input:2);
        close "col 1" 0.4 (Perm_matrix.column_sum m ~output:1));
    Alcotest.test_case "row/column copies are detached" `Quick (fun () ->
        let m = Perm_matrix.of_rows [| [| 0.1; 0.2 |] |] in
        let row = Perm_matrix.row m ~input:1 in
        row.(0) <- 0.9;
        close "unchanged" 0.1 (Perm_matrix.get m ~input:1 ~output:1));
    check_raises_invalid "of_rows rejects ragged input" (fun () ->
        Perm_matrix.of_rows [| [| 0.1 |]; [| 0.1; 0.2 |] |]);
    check_raises_invalid "of_rows rejects out-of-range values" (fun () ->
        Perm_matrix.of_rows [| [| 1.5 |] |]);
    check_raises_invalid "of_rows rejects NaN" (fun () ->
        Perm_matrix.of_rows [| [| Float.nan |] |]);
    check_raises_invalid "set rejects bad probability" (fun () ->
        Perm_matrix.set
          (Perm_matrix.create ~inputs:1 ~outputs:1)
          ~input:1 ~output:1 (-0.1));
    Alcotest.test_case "equality with tolerance" `Quick (fun () ->
        let a = Perm_matrix.of_rows [| [| 0.5 |] |] in
        let b = Perm_matrix.of_rows [| [| 0.5 +. 1e-13 |] |] in
        Alcotest.(check bool) "equal" true (Perm_matrix.equal a b);
        Alcotest.(check bool)
          "not equal" false
          (Perm_matrix.equal ~eps:1e-15 a b));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"relative is within [0,1]" ~count:200 matrix_gen
         (fun m ->
           let r = Perm_matrix.relative m in
           0.0 <= r && r <= 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"non_weighted = m*n*relative" ~count:200
         matrix_gen (fun m ->
           Float.abs
             (Perm_matrix.non_weighted m
             -. float_of_int
                  (Perm_matrix.input_count m * Perm_matrix.output_count m)
                *. Perm_matrix.relative m)
           < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"fold visits every pair once" ~count:200
         matrix_gen (fun m ->
           Perm_matrix.fold (fun ~input:_ ~output:_ _ acc -> acc + 1) m 0
           = Perm_matrix.input_count m * Perm_matrix.output_count m));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"sum of row sums = non_weighted" ~count:200
         matrix_gen (fun m ->
           let total = ref 0.0 in
           for i = 1 to Perm_matrix.input_count m do
             total := !total +. Perm_matrix.row_sum m ~input:i
           done;
           Float.abs (!total -. Perm_matrix.non_weighted m) < 1e-9));
  ]

(* ------------------------------------------------------------------ *)

let chain_model () =
  (* src -> A -> mid -> B -> out, with B also feeding back to itself. *)
  let a = mk_mod ~name:"A" [ "src" ] [ "mid" ] in
  let b = mk_mod ~name:"B" [ "mid"; "bfb" ] [ "out"; "bfb" ] in
  System_model.make_exn ~modules:[ a; b ] ~system_inputs:[ s "src" ]
    ~system_outputs:[ s "out" ]

let system_model_tests =
  [
    Alcotest.test_case "producer and consumers" `Quick (fun () ->
        let model = chain_model () in
        (match System_model.producer model (s "mid") with
        | Some (m, k) ->
            Alcotest.(check string) "module" "A" (Sw_module.name m);
            Alcotest.(check int) "port" 1 k
        | None -> Alcotest.fail "no producer");
        Alcotest.(check int)
          "consumers of mid" 1
          (List.length (System_model.consumers model (s "mid")));
        Alcotest.(check bool)
          "system input has no producer" true
          (System_model.producer model (s "src") = None));
    Alcotest.test_case "signals and internal signals" `Quick (fun () ->
        let model = chain_model () in
        Alcotest.(check (list string))
          "all" [ "bfb"; "mid"; "out"; "src" ]
          (List.map Signal.name (System_model.signals model));
        Alcotest.(check (list string))
          "internal" [ "bfb"; "mid"; "out" ]
          (List.map Signal.name (System_model.internal_signals model)));
    Alcotest.test_case "pair_count sums modules" `Quick (fun () ->
        Alcotest.(check int) "pairs" 5
          (System_model.pair_count (chain_model ())));
    Alcotest.test_case "reachability crosses modules" `Quick (fun () ->
        let reachable = System_model.reachable_from_inputs (chain_model ()) in
        Alcotest.(check bool) "out" true (Signal.Set.mem (s "out") reachable);
        Alcotest.(check bool) "bfb" true (Signal.Set.mem (s "bfb") reachable));
    Alcotest.test_case "unreachable island detected" `Quick (fun () ->
        let clock = mk_mod ~name:"CLK" [ "tick" ] [ "tick"; "time" ] in
        let user = mk_mod ~name:"U" [ "ext"; "time" ] [ "out" ] in
        let model =
          System_model.make_exn ~modules:[ clock; user ]
            ~system_inputs:[ s "ext" ] ~system_outputs:[ s "out" ]
        in
        let reachable = System_model.reachable_from_inputs model in
        Alcotest.(check bool) "tick" false (Signal.Set.mem (s "tick") reachable);
        Alcotest.(check bool) "out" true (Signal.Set.mem (s "out") reachable));
    Alcotest.test_case "error: no modules" `Quick (fun () ->
        match
          System_model.make ~modules:[] ~system_inputs:[] ~system_outputs:[]
        with
        | Error System_model.No_modules -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: duplicate module names" `Quick (fun () ->
        match
          System_model.make
            ~modules:
              [
                mk_mod ~name:"A" [ "x" ] [ "y" ];
                mk_mod ~name:"A" [ "y" ] [ "z" ];
              ]
            ~system_inputs:[ s "x" ] ~system_outputs:[ s "z" ]
        with
        | Error (System_model.Duplicate_module "A") -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: two producers for one signal" `Quick (fun () ->
        match
          System_model.make
            ~modules:
              [
                mk_mod ~name:"A" [ "x" ] [ "y" ];
                mk_mod ~name:"B" [ "x" ] [ "y" ];
              ]
            ~system_inputs:[ s "x" ] ~system_outputs:[ s "y" ]
        with
        | Error (System_model.Multiple_producers sg) ->
            Alcotest.check signal "signal" (s "y") sg
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: system input produced internally" `Quick
      (fun () ->
        match
          System_model.make
            ~modules:[ mk_mod ~name:"A" [ "x" ] [ "y" ] ]
            ~system_inputs:[ s "y" ] ~system_outputs:[ s "y" ]
        with
        | Error (System_model.System_input_produced _) -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: dangling module input" `Quick (fun () ->
        match
          System_model.make
            ~modules:[ mk_mod ~name:"A" [ "ghost" ] [ "y" ] ]
            ~system_inputs:[] ~system_outputs:[ s "y" ]
        with
        | Error (System_model.Unproduced_input ("A", _)) -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: unknown system output" `Quick (fun () ->
        match
          System_model.make
            ~modules:[ mk_mod ~name:"A" [ "x" ] [ "y" ] ]
            ~system_inputs:[ s "x" ] ~system_outputs:[ s "nope" ]
        with
        | Error (System_model.Unknown_system_output _) -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error: system output is a system input" `Quick
      (fun () ->
        match
          System_model.make
            ~modules:[ mk_mod ~name:"A" [ "x" ] [ "y" ] ]
            ~system_inputs:[ s "x" ] ~system_outputs:[ s "x" ]
        with
        | Error (System_model.Unproduced_system_output _) -> ()
        | Error e -> Alcotest.failf "wrong error %a" System_model.pp_error e
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error messages render" `Quick (fun () ->
        Alcotest.(check bool)
          "non-empty" true
          (String.length (System_model.error_to_string System_model.No_modules)
          > 0));
    check_raises_invalid "make_exn raises" (fun () ->
        System_model.make_exn ~modules:[] ~system_inputs:[] ~system_outputs:[]);
    Alcotest.test_case "find_module" `Quick (fun () ->
        let model = chain_model () in
        Alcotest.(check bool)
          "found" true
          (System_model.find_module model "B" <> None);
        Alcotest.(check bool)
          "missing" true
          (System_model.find_module model "Z" = None));
  ]

(* ------------------------------------------------------------------ *)

let chain_matrices () =
  String_map.of_list
    [
      ("A", Perm_matrix.of_rows [| [| 0.5 |] |]);
      ("B", Perm_matrix.of_rows [| [| 0.4; 0.3 |]; [| 0.2; 0.1 |] |]);
    ]

let chain_graph () = Perm_graph.build_exn (chain_model ()) (chain_matrices ())

let perm_graph_tests =
  [
    Alcotest.test_case "arc count: one per pair and consumer" `Quick (fun () ->
        (* A: 1 pair -> B (1 arc).  B: pairs to `out` reach the
           environment (2 arcs), pairs to `bfb` loop back to B (2 arcs). *)
        Alcotest.(check int)
          "arcs" 5
          (List.length (Perm_graph.arcs (chain_graph ()))));
    Alcotest.test_case "incoming arcs include feedback" `Quick (fun () ->
        let incoming = Perm_graph.incoming_arcs (chain_graph ()) "B" in
        Alcotest.(check int) "count" 3 (List.length incoming));
    Alcotest.test_case "outgoing arcs of A" `Quick (fun () ->
        let outgoing =
          List.filter
            (fun a -> a.Perm_graph.pair.module_name = "A")
            (Perm_graph.arcs (chain_graph ()))
        in
        Alcotest.(check int) "count" 1 (List.length outgoing));
    Alcotest.test_case "permeability lookup" `Quick (fun () ->
        close "P^B_{2,1}" 0.2
          (Perm_graph.permeability (chain_graph ())
             { Perm_graph.module_name = "B"; input = 2; output = 1 }));
    Alcotest.test_case "missing matrix is an error" `Quick (fun () ->
        match Perm_graph.build (chain_model ()) String_map.empty with
        | Error msg ->
            Alcotest.(check bool)
              "mentions a module" true
              (contains_substring msg "A" || contains_substring msg "B")
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "dimension mismatch is an error" `Quick (fun () ->
        let bad =
          String_map.add "A"
            (Perm_matrix.create ~inputs:2 ~outputs:2)
            (chain_matrices ())
        in
        match Perm_graph.build (chain_model ()) bad with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "pp_pair uses paper notation" `Quick (fun () ->
        Alcotest.(check string)
          "notation" "P^CALC_{2,1}"
          (Fmt.str "%a" Perm_graph.pp_pair
             { Perm_graph.module_name = "CALC"; input = 2; output = 1 }));
    Alcotest.test_case "zero arcs are kept" `Quick (fun () ->
        let matrices =
          String_map.add "A"
            (Perm_matrix.of_rows [| [| 0.0 |] |])
            (chain_matrices ())
        in
        let graph = Perm_graph.build_exn (chain_model ()) matrices in
        Alcotest.(check int) "arcs" 5 (List.length (Perm_graph.arcs graph)));
  ]

(* ------------------------------------------------------------------ *)

let backtrack_tests =
  [
    Alcotest.test_case "chain: root structure" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        Alcotest.check signal "root" (s "out") tree.Backtrack_tree.root.signal;
        Alcotest.(check int)
          "children" 2
          (List.length tree.Backtrack_tree.root.children));
    Alcotest.test_case "chain: feedback becomes special leaf" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        let feedback_leaves =
          Backtrack_tree.fold
            (fun acc node ->
              match node.Backtrack_tree.kind with
              | Backtrack_tree.Leaf Backtrack_tree.Feedback -> acc + 1
              | Backtrack_tree.Leaf Backtrack_tree.System_input
              | Backtrack_tree.Expanded _ ->
                  acc)
            0 tree
        in
        Alcotest.(check int) "feedback leaves" 1 feedback_leaves);
    Alcotest.test_case "chain: feedback unrolled exactly once" `Quick
      (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        Alcotest.(check int) "leaves" 3 (Backtrack_tree.leaf_count tree);
        Alcotest.(check int) "depth" 4 (Backtrack_tree.depth tree));
    Alcotest.test_case "feedback leaf sits under its own signal" `Quick
      (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        List.iter
          (fun (node : Backtrack_tree.node) ->
            List.iter
              (fun (c : Backtrack_tree.child) ->
                match c.node.kind with
                | Backtrack_tree.Leaf Backtrack_tree.Feedback ->
                    Alcotest.check signal "parent signal" node.signal
                      c.node.signal
                | Backtrack_tree.Leaf Backtrack_tree.System_input
                | Backtrack_tree.Expanded _ ->
                    ())
              node.children)
          (Backtrack_tree.fold (fun acc n -> n :: acc) [] tree));
    Alcotest.test_case "build_all yields one tree per output" `Quick (fun () ->
        Alcotest.(check int)
          "trees" 1
          (List.length (Backtrack_tree.build_all (chain_graph ()))));
    check_raises_invalid "system input cannot be a root" (fun () ->
        Backtrack_tree.build (chain_graph ()) (s "src"));
    Alcotest.test_case "nodes_of_signal finds repeats" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        Alcotest.(check int)
          "mid occurs twice" 2
          (List.length (Backtrack_tree.nodes_of_signal tree (s "mid"))));
    Alcotest.test_case "fig example: 10 leaves" `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        Alcotest.(check int) "leaves" 10 (Backtrack_tree.leaf_count tree));
    Alcotest.test_case "node_count >= leaf_count" `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        Alcotest.(check bool)
          "ge" true
          (Backtrack_tree.node_count tree >= Backtrack_tree.leaf_count tree));
    Alcotest.test_case "cross-module cycles terminate" `Quick (fun () ->
        let a = mk_mod ~name:"A" [ "ext"; "ba" ] [ "ab"; "out" ] in
        let b = mk_mod ~name:"B" [ "ab" ] [ "ba" ] in
        let model =
          System_model.make_exn ~modules:[ a; b ] ~system_inputs:[ s "ext" ]
            ~system_outputs:[ s "out" ]
        in
        let matrices =
          String_map.of_list
            [
              ("A", Perm_matrix.of_rows [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |]);
              ("B", Perm_matrix.of_rows [| [| 0.5 |] |]);
            ]
        in
        let graph = Perm_graph.build_exn model matrices in
        let tree = Backtrack_tree.build graph (s "out") in
        Alcotest.(check bool)
          "finite" true
          (Backtrack_tree.node_count tree < 50));
  ]

(* ------------------------------------------------------------------ *)

let trace_tree_tests =
  [
    Alcotest.test_case "chain: trace from src" `Quick (fun () ->
        let tree = Trace_tree.build (chain_graph ()) (s "src") in
        Alcotest.check signal "root" (s "src") tree.Trace_tree.root.signal;
        Alcotest.(check int) "leaves" 2 (Trace_tree.leaf_count tree));
    Alcotest.test_case "feedback child is omitted, not repeated" `Quick
      (fun () ->
        let tree = Trace_tree.build (chain_graph ()) (s "src") in
        let bfb_nodes =
          Trace_tree.fold
            (fun acc (n : Trace_tree.node) ->
              if Signal.equal n.signal (s "bfb") then n :: acc else acc)
            [] tree
        in
        Alcotest.(check int) "bfb expanded once" 1 (List.length bfb_nodes);
        List.iter
          (fun (n : Trace_tree.node) ->
            List.iter
              (fun (c : Trace_tree.child) ->
                Alcotest.(check bool)
                  "no bfb under bfb" false
                  (Signal.equal c.node.signal (s "bfb")))
              n.children)
          bfb_nodes);
    Alcotest.test_case "system output is a leaf" `Quick (fun () ->
        let tree = Trace_tree.build (chain_graph ()) (s "src") in
        Trace_tree.fold
          (fun () (n : Trace_tree.node) ->
            match n.kind with
            | Trace_tree.Leaf_of (Trace_tree.System_output, _, _) ->
                Alcotest.check signal "leaf is out" (s "out") n.signal
            | Trace_tree.Leaf_of (Trace_tree.Dead_end, _, _)
            | Trace_tree.Root | Trace_tree.Produced _ ->
                ())
          () tree);
    Alcotest.test_case "dead-end signals become leaves" `Quick (fun () ->
        let a = mk_mod ~name:"A" [ "ext" ] [ "used"; "unused" ] in
        let b = mk_mod ~name:"B" [ "used" ] [ "out" ] in
        let model =
          System_model.make_exn ~modules:[ a; b ] ~system_inputs:[ s "ext" ]
            ~system_outputs:[ s "out" ]
        in
        let matrices =
          String_map.of_list
            [
              ("A", Perm_matrix.of_rows [| [| 0.5; 0.5 |] |]);
              ("B", Perm_matrix.of_rows [| [| 0.5 |] |]);
            ]
        in
        let tree =
          Trace_tree.build (Perm_graph.build_exn model matrices) (s "ext")
        in
        let dead_ends =
          Trace_tree.fold
            (fun acc (n : Trace_tree.node) ->
              match n.kind with
              | Trace_tree.Leaf_of (Trace_tree.Dead_end, _, _) -> acc + 1
              | Trace_tree.Leaf_of (Trace_tree.System_output, _, _)
              | Trace_tree.Root | Trace_tree.Produced _ ->
                  acc)
            0 tree
        in
        Alcotest.(check int) "dead ends" 1 dead_ends);
    check_raises_invalid "unconsumed root rejected" (fun () ->
        Trace_tree.build (chain_graph ()) (s "out"));
    Alcotest.test_case "build_all yields one tree per input" `Quick (fun () ->
        Alcotest.(check int)
          "trees" 3
          (List.length (Trace_tree.build_all Fig_example.graph)));
    Alcotest.test_case "fig example: ext_e reaches out directly" `Quick
      (fun () ->
        let tree = Trace_tree.build Fig_example.graph (s "ext_e") in
        Alcotest.(check int) "leaves" 1 (Trace_tree.leaf_count tree);
        Alcotest.(check int) "depth" 2 (Trace_tree.depth tree));
  ]

(* ------------------------------------------------------------------ *)

let path_tests =
  [
    Alcotest.test_case "weight is the product of steps" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        List.iter
          (fun p ->
            let expected =
              List.fold_left
                (fun acc (st : Path.step) -> acc *. st.weight)
                1.0 p.Path.steps
            in
            close "weight" expected (Path.weight p))
          (Path.of_backtrack_tree tree));
    Alcotest.test_case "direct chain path weight by hand" `Quick (fun () ->
        (* out <-(P^B_{1,1}=0.4) mid <-(P^A_{1,1}=0.5) src = 0.2 *)
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        let direct =
          List.find (fun p -> Path.length p = 2) (Path.of_backtrack_tree tree)
        in
        close "weight" 0.2 (Path.weight direct);
        Alcotest.check signal "leaf" (s "src") (Path.leaf_signal direct));
    Alcotest.test_case "terminals are classified" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        let terminals =
          List.map (fun p -> p.Path.terminal) (Path.of_backtrack_tree tree)
        in
        Alcotest.(check int)
          "system inputs" 2
          (List.length
             (List.filter (fun t -> t = Path.At_system_input) terminals));
        Alcotest.(check int)
          "feedback" 1
          (List.length (List.filter (fun t -> t = Path.At_feedback) terminals)));
    Alcotest.test_case "adjusted weight multiplies by Pr" `Quick (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        let p = List.hd (Path.of_backtrack_tree tree) in
        close "adjusted"
          (0.25 *. Path.weight p)
          (Path.adjusted_weight ~input_error_probability:0.25 p));
    check_raises_invalid "adjusted weight rejects bad probability" (fun () ->
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        Path.adjusted_weight ~input_error_probability:1.5
          (List.hd (Path.of_backtrack_tree tree)));
    Alcotest.test_case "sort is heaviest first" `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        let sorted = Path.sort_by_weight (Path.of_backtrack_tree tree) in
        ignore
          (List.fold_left
             (fun prev p ->
               Alcotest.(check bool) "descending" true (prev >= Path.weight p);
               Path.weight p)
             Float.infinity sorted));
    Alcotest.test_case "sort is a permutation" `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        let paths = Path.of_backtrack_tree tree in
        Alcotest.(check int)
          "length" (List.length paths)
          (List.length (Path.sort_by_weight paths)));
    Alcotest.test_case "non_zero drops zero-weight paths" `Quick (fun () ->
        let matrices =
          String_map.add "A"
            (Perm_matrix.of_rows [| [| 0.0 |] |])
            (chain_matrices ())
        in
        let graph = Perm_graph.build_exn (chain_model ()) matrices in
        let tree = Backtrack_tree.build graph (s "out") in
        (* Both src paths go through the zeroed A; only the feedback
           path survives. *)
        Alcotest.(check int)
          "non-zero" 1
          (List.length (Path.non_zero (Path.of_backtrack_tree tree))));
    Alcotest.test_case "trace paths end at system outputs" `Quick (fun () ->
        let tree = Trace_tree.build Fig_example.graph (s "ext_a") in
        List.iter
          (fun p ->
            Alcotest.(check bool)
              "terminal" true
              (p.Path.terminal = Path.At_system_output))
          (Path.of_trace_tree tree));
    Alcotest.test_case "empty-steps path weight is 1" `Quick (fun () ->
        let p =
          { Path.source = s "x"; steps = []; terminal = Path.At_dead_end }
        in
        close "weight" 1.0 (Path.weight p);
        Alcotest.check signal "leaf" (s "x") (Path.leaf_signal p));
  ]

(* ------------------------------------------------------------------ *)

let arrestment_graph () =
  Perm_graph.build_exn Arrestment.Model.system
    (Arrestment.Model.paper_matrices ())

let exposure_tests =
  [
    Alcotest.test_case "module exposure by hand (chain)" `Quick (fun () ->
        let graph = chain_graph () in
        (* Incoming arcs of B: A's pair (0.5) + B's own bfb column
           (0.3, 0.1); Eq. 4 divides by B's pair count 4. *)
        close "Xnw" 0.9 (Exposure.module_exposure_nw graph "B");
        close "X" (0.9 /. 4.0) (Exposure.module_exposure graph "B");
        Alcotest.(check int)
          "arcs" 3
          (List.length (Perm_graph.incoming_arcs graph "B")));
    Alcotest.test_case "source module has zero exposure (OB1)" `Quick
      (fun () ->
        close "X" 0.0 (Exposure.module_exposure (chain_graph ()) "A"));
    Alcotest.test_case "signal exposure is the producer column sum" `Quick
      (fun () ->
        let graph = chain_graph () in
        close "X^out" 0.6 (Exposure.signal_exposure graph (s "out"));
        close "X^bfb" 0.4 (Exposure.signal_exposure graph (s "bfb"));
        close "X^mid" 0.5 (Exposure.signal_exposure graph (s "mid")));
    Alcotest.test_case "system inputs have zero signal exposure" `Quick
      (fun () ->
        close "X^src" 0.0 (Exposure.signal_exposure (chain_graph ()) (s "src")));
    Alcotest.test_case "Eq. 6 closed form = literal tree definition" `Quick
      (fun () ->
        let graph = Fig_example.graph in
        let trees = Backtrack_tree.build_all graph in
        List.iter
          (fun sg ->
            close
              (Fmt.str "X^%a" Signal.pp sg)
              (Exposure.signal_exposure graph sg)
              (Exposure.signal_exposure_via_trees trees sg))
          (System_model.internal_signals (Perm_graph.model graph)));
    Alcotest.test_case "Eq. 6 equivalence on the arrestment system" `Quick
      (fun () ->
        let graph = arrestment_graph () in
        let trees = Backtrack_tree.build_all graph in
        List.iter
          (fun sg ->
            close
              (Fmt.str "X^%a" Signal.pp sg)
              (Exposure.signal_exposure graph sg)
              (Exposure.signal_exposure_via_trees trees sg))
          (System_model.internal_signals (Perm_graph.model graph)));
  ]

(* ------------------------------------------------------------------ *)

let ranking_tests =
  [
    Alcotest.test_case "module rows in declaration order" `Quick (fun () ->
        let rows = Ranking.module_rows (chain_graph ()) in
        Alcotest.(check (list string))
          "order" [ "A"; "B" ]
          (List.map (fun (r : Ranking.module_row) -> r.module_name) rows));
    Alcotest.test_case "sorting by each key is descending" `Quick (fun () ->
        let rows = Ranking.module_rows Fig_example.graph in
        List.iter
          (fun key ->
            let sorted = Ranking.sort_module_rows key rows in
            let value (r : Ranking.module_row) =
              match key with
              | Ranking.By_relative_permeability -> r.relative_permeability
              | Ranking.By_non_weighted_permeability ->
                  r.non_weighted_permeability
              | Ranking.By_exposure -> r.exposure
              | Ranking.By_non_weighted_exposure -> r.non_weighted_exposure
            in
            ignore
              (List.fold_left
                 (fun prev r ->
                   Alcotest.(check bool) "descending" true (prev >= value r);
                   value r)
                 Float.infinity sorted))
          [
            Ranking.By_relative_permeability;
            Ranking.By_non_weighted_permeability;
            Ranking.By_exposure;
            Ranking.By_non_weighted_exposure;
          ]);
    Alcotest.test_case "signal rows omit system inputs" `Quick (fun () ->
        let rows = Ranking.signal_rows (chain_graph ()) in
        Alcotest.(check bool)
          "no src" true
          (List.for_all
             (fun (r : Ranking.signal_row) ->
               not (Signal.equal r.signal (s "src")))
             rows));
    Alcotest.test_case "path rows are ranked 1.." `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        List.iteri
          (fun idx (r : Ranking.path_row) ->
            Alcotest.(check int) "rank" (idx + 1) r.rank)
          (Ranking.path_rows tree));
    Alcotest.test_case "include_zero keeps everything" `Quick (fun () ->
        let tree = Backtrack_tree.build Fig_example.graph Fig_example.output in
        Alcotest.(check int)
          "all" 10
          (List.length (Ranking.path_rows ~include_zero:true tree)));
    Alcotest.test_case "trace path rows rank trace trees" `Quick (fun () ->
        let tree = Trace_tree.build Fig_example.graph (s "ext_a") in
        Alcotest.(check bool)
          "non-empty" true
          (Ranking.trace_path_rows tree <> []));
  ]

(* ------------------------------------------------------------------ *)

let placement_tests =
  [
    Alcotest.test_case "hardware registers are excluded (OB4)" `Quick
      (fun () ->
        let placement = Placement.recommend (arrestment_graph ()) in
        Alcotest.(check bool)
          "TOC2 excluded" true
          (List.exists
             (fun (sg, reason) ->
               String.equal (Signal.name sg) "TOC2"
               && reason = Placement.Hardware_register)
             placement.Placement.excluded));
    Alcotest.test_case "clock island is excluded as unreachable (OB4)" `Quick
      (fun () ->
        let placement = Placement.recommend (arrestment_graph ()) in
        List.iter
          (fun name ->
            Alcotest.(check bool)
              (name ^ " excluded") true
              (List.exists
                 (fun (sg, reason) ->
                   String.equal (Signal.name sg) name
                   && reason = Placement.Unreachable_from_inputs)
                 placement.Placement.excluded))
          [ "mscnt"; "ms_slot_nbr" ]);
    Alcotest.test_case "cut signals shield the output (OB5)" `Quick (fun () ->
        let placement = Placement.recommend (arrestment_graph ()) in
        Alcotest.(check (list string))
          "cut" [ "OutValue"; "SetValue" ]
          (List.map Signal.name placement.Placement.cut_signals));
    Alcotest.test_case "barrier modules read system inputs (OB6)" `Quick
      (fun () ->
        let placement = Placement.recommend (arrestment_graph ()) in
        Alcotest.(check (list string))
          "barriers" [ "DIST_S"; "PRES_S" ]
          placement.Placement.barrier_modules);
    Alcotest.test_case "top truncates candidate lists" `Quick (fun () ->
        let placement = Placement.recommend ~top:2 Fig_example.graph in
        Alcotest.(check bool)
          "edm" true
          (List.length placement.Placement.edm_signals <= 2);
        Alcotest.(check bool)
          "erm" true
          (List.length placement.Placement.erm_modules <= 2));
    Alcotest.test_case "EDM candidates sorted by exposure" `Quick (fun () ->
        let placement = Placement.recommend Fig_example.graph in
        ignore
          (List.fold_left
             (fun prev (r : Ranking.signal_row) ->
               Alcotest.(check bool) "descending" true (prev >= r.exposure);
               r.exposure)
             Float.infinity placement.Placement.edm_signals));
    Alcotest.test_case "zero-exposure signals are excluded" `Quick (fun () ->
        let placement = Placement.recommend (arrestment_graph ()) in
        Alcotest.(check bool)
          "stopped excluded" true
          (List.exists
             (fun (sg, reason) ->
               String.equal (Signal.name sg) "stopped"
               && reason = Placement.Zero_exposure)
             placement.Placement.excluded));
  ]

(* ------------------------------------------------------------------ *)

let analysis_tests =
  [
    Alcotest.test_case "run produces every artifact" `Quick (fun () ->
        let analysis = Fig_example.analysis () in
        Alcotest.(check int)
          "backtrack trees" 1
          (List.length analysis.Analysis.backtrack_trees);
        Alcotest.(check int)
          "trace trees" 3
          (List.length analysis.Analysis.trace_trees);
        Alcotest.(check int)
          "module rows" 5
          (List.length analysis.Analysis.module_rows);
        Alcotest.(check int)
          "output path groups" 1
          (List.length analysis.Analysis.output_paths));
    Alcotest.test_case "run reports graph errors" `Quick (fun () ->
        match Analysis.run (chain_model ()) String_map.empty with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "summary renders" `Quick (fun () ->
        let analysis = Fig_example.analysis () in
        Alcotest.(check bool)
          "non-empty" true
          (String.length (Fmt.str "%a" Analysis.pp_summary analysis) > 0));
  ]

(* ------------------------------------------------------------------ *)

let prob_model_tests =
  [
    Alcotest.test_case "uniform assigns every system input" `Quick (fun () ->
        let pm = Prob_model.uniform (chain_model ()) ~probability:0.2 in
        close "src" 0.2 (Prob_model.probability pm (s "src"));
        close "internal signals get 0" 0.0 (Prob_model.probability pm (s "mid")));
    check_raises_invalid "uniform rejects bad probability" (fun () ->
        Prob_model.uniform (chain_model ()) ~probability:1.5);
    Alcotest.test_case "of_list validates inputs" `Quick (fun () ->
        (match Prob_model.of_list (chain_model ()) [ (s "mid", 0.1) ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "internal signal accepted");
        (match
           Prob_model.of_list (chain_model ()) [ (s "src", 0.1); (s "src", 0.2) ]
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "duplicate accepted");
        match Prob_model.of_list (chain_model ()) [ (s "src", 0.3) ] with
        | Ok pm -> close "src" 0.3 (Prob_model.probability pm (s "src"))
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "adjusted path weight is Pr * weight" `Quick (fun () ->
        let pm = Prob_model.uniform (chain_model ()) ~probability:0.5 in
        let tree = Backtrack_tree.build (chain_graph ()) (s "out") in
        List.iter
          (fun (wp : Prob_model.weighted_path) ->
            match wp.path.Path.terminal with
            | Path.At_system_input ->
                close "adjusted" (0.5 *. Path.weight wp.path) wp.adjusted
            | Path.At_feedback -> close "feedback gets 0" 0.0 wp.adjusted
            | Path.At_system_output | Path.At_dead_end ->
                Alcotest.fail "unexpected terminal")
          (Prob_model.adjust_paths pm (Path.of_backtrack_tree tree)));
    Alcotest.test_case "output arrival sums adjusted weights" `Quick
      (fun () ->
        let pm = Prob_model.uniform (chain_model ()) ~probability:1.0 in
        let analysis =
          Analysis.run_exn (chain_model ()) (chain_matrices ())
        in
        match Prob_model.output_arrival pm analysis with
        | [ (out, total) ] ->
            Alcotest.check signal "output" (s "out") out;
            (* direct 0.4*0.5 = 0.2, via feedback 0.2*0.3*0.5 = 0.03 *)
            close "total" 0.23 total
        | _ -> Alcotest.fail "expected one output");
    Alcotest.test_case "input criticality orders the example's sources"
      `Quick (fun () ->
        let pm =
          Prob_model.uniform Fig_example.system ~probability:0.1
        in
        let ranked =
          Prob_model.input_criticality pm (Fig_example.analysis ())
        in
        Alcotest.(check int) "three inputs" 3 (List.length ranked);
        ignore
          (List.fold_left
             (fun prev (_, v) ->
               Alcotest.(check bool) "descending" true (prev >= v);
               v)
             Float.infinity ranked));
  ]

(* ------------------------------------------------------------------ *)

let sensitivity_tests =
  [
    Alcotest.test_case "kendall tau of identical orders is 1" `Quick
      (fun () ->
        close "tau" 1.0
          (Sensitivity.kendall_tau [ "a"; "b"; "c" ] [ "a"; "b"; "c" ]));
    Alcotest.test_case "kendall tau of reversed orders is -1" `Quick
      (fun () ->
        close "tau" (-1.0)
          (Sensitivity.kendall_tau [ "a"; "b"; "c" ] [ "c"; "b"; "a" ]));
    Alcotest.test_case "kendall tau of one swap" `Quick (fun () ->
        close "tau" (1.0 /. 3.0)
          (Sensitivity.kendall_tau [ "a"; "b"; "c" ] [ "b"; "a"; "c" ]));
    check_raises_invalid "kendall tau rejects different item sets" (fun () ->
        Sensitivity.kendall_tau [ "a"; "b" ] [ "a"; "c" ]);
    check_raises_invalid "kendall tau rejects singletons" (fun () ->
        Sensitivity.kendall_tau [ "a" ] [ "a" ]);
    Alcotest.test_case "perturbation keeps values in [0,1]" `Quick (fun () ->
        List.iter
          (fun perturbation ->
            let perturbed =
              Sensitivity.perturb_matrices ~seed:3 perturbation
                Fig_example.matrices
            in
            String_map.iter
              (fun _ m ->
                Perm_matrix.fold
                  (fun ~input:_ ~output:_ v () ->
                    Alcotest.(check bool) "range" true (0.0 <= v && v <= 1.0))
                  m ())
              perturbed)
          [
            Sensitivity.Relative_noise 0.9;
            Sensitivity.Absolute_noise 0.9;
            Sensitivity.Quantise 3;
          ]);
    Alcotest.test_case "perturbation is deterministic in the seed" `Quick
      (fun () ->
        let p = Sensitivity.Relative_noise 0.3 in
        let a = Sensitivity.perturb_matrices ~seed:9 p Fig_example.matrices in
        let b = Sensitivity.perturb_matrices ~seed:9 p Fig_example.matrices in
        String_map.iter
          (fun name m ->
            Alcotest.(check bool)
              name true
              (Perm_matrix.equal m (String_map.find name b)))
          a);
    Alcotest.test_case "zero noise preserves the matrices" `Quick (fun () ->
        let perturbed =
          Sensitivity.perturb_matrices ~seed:1
            (Sensitivity.Relative_noise 0.0) Fig_example.matrices
        in
        String_map.iter
          (fun name m ->
            Alcotest.(check bool)
              name true
              (Perm_matrix.equal m (String_map.find name Fig_example.matrices)))
          perturbed);
    Alcotest.test_case "study reports perfect stability at zero noise"
      `Quick (fun () ->
        let report =
          Sensitivity.study ~trials:4 ~seed:1
            (Sensitivity.Relative_noise 0.0) Fig_example.system
            Fig_example.matrices
        in
        close "module tau" 1.0 report.Sensitivity.module_tau_by_permeability;
        close "signal tau" 1.0 report.Sensitivity.signal_tau;
        close "top stable" 1.0 report.Sensitivity.top_edm_stable);
    Alcotest.test_case "heavy noise degrades stability" `Quick (fun () ->
        let report =
          Sensitivity.study ~trials:16 ~seed:1
            (Sensitivity.Absolute_noise 1.0) Fig_example.system
            Fig_example.matrices
        in
        Alcotest.(check bool)
          "below 1" true
          (report.Sensitivity.module_tau_by_permeability < 1.0));
  ]

(* ------------------------------------------------------------------ *)

let compose_tests =
  [
    Alcotest.test_case "single chain composes to the path product" `Quick
      (fun () ->
        (* src -> A(0.5) -> mid -> B -> out with the feedback loop:
           paths to src: direct 0.2 and via-feedback 0.03. *)
        let analysis = Analysis.run_exn (chain_model ()) (chain_matrices ()) in
        let noisy = Compose.equivalent_matrix analysis in
        close "noisy-or"
          (1.0 -. ((1.0 -. 0.2) *. (1.0 -. 0.03)))
          (Perm_matrix.get noisy ~input:1 ~output:1);
        let max_path =
          Compose.equivalent_matrix ~combinator:Compose.Max_path analysis
        in
        close "max path" 0.2 (Perm_matrix.get max_path ~input:1 ~output:1));
    Alcotest.test_case "max path is a lower bound of noisy-or" `Quick
      (fun () ->
        let analysis = Fig_example.analysis () in
        let noisy = Compose.equivalent_matrix analysis in
        let max_path =
          Compose.equivalent_matrix ~combinator:Compose.Max_path analysis
        in
        Perm_matrix.fold
          (fun ~input ~output v () ->
            Alcotest.(check bool)
              "ordered" true
              (v <= Perm_matrix.get noisy ~input ~output +. 1e-12))
          max_path ());
    Alcotest.test_case "collapsed module matches the outer interface" `Quick
      (fun () ->
        let descriptor, matrix =
          Compose.as_module ~name:"FIG2" (Fig_example.analysis ())
        in
        Alcotest.(check int) "inputs" 3 (Sw_module.input_count descriptor);
        Alcotest.(check int) "outputs" 1 (Sw_module.output_count descriptor);
        Alcotest.(check int) "matrix rows" 3 (Perm_matrix.input_count matrix));
    Alcotest.test_case "a collapsed system nests into a larger model" `Quick
      (fun () ->
        let inner, matrix =
          Compose.as_module ~name:"INNER" (Fig_example.analysis ())
        in
        let post =
          mk_mod ~name:"POST" [ "e_out" ] [ "final" ]
        in
        let model =
          System_model.make_exn
            ~modules:[ inner; post ]
            ~system_inputs:
              (List.map s [ "ext_a"; "ext_c"; "ext_e" ])
            ~system_outputs:[ s "final" ]
        in
        let matrices =
          String_map.of_list
            [ ("INNER", matrix); ("POST", Perm_matrix.of_rows [| [| 0.9 |] |]) ]
        in
        let analysis = Analysis.run_exn model matrices in
        Alcotest.(check int)
          "nested paths" 3
          (Backtrack_tree.leaf_count
             (List.assoc (s "final") analysis.Analysis.backtrack_trees)));
  ]

(* ------------------------------------------------------------------ *)

(* The forward breadth-first search [Monte_carlo] ran on signal sets,
   name lookups and a [Queue] before it moved to integer arrays and
   then to a backward spread: the oracle its estimates must equal bit
   for bit, from every starting signal.  [unit_draw] is a copy. *)
let set_based_arrival ~trials ~seed graph ~input ~output =
  let unit_draw ~trial (pair : Perm_graph.pair) =
    let h =
      Hashtbl.hash (seed, trial, pair.module_name, pair.input, pair.output)
    in
    let z = Int64.add (Int64.of_int h) 0x9E3779B97F4A7C15L in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  let model = Perm_graph.model graph in
  let trial_reaches trial =
    let corrupted = ref (Signal.Set.singleton input) in
    let queue = Queue.create () in
    Queue.add input queue;
    let reached = ref false in
    while not (Queue.is_empty queue) do
      let signal = Queue.pop queue in
      if Signal.equal signal output then reached := true
      else
        List.iter
          (fun (m, i) ->
            let name = Sw_module.name m in
            let matrix = Perm_graph.matrix graph name in
            for k = 1 to Sw_module.output_count m do
              let out_signal = Sw_module.output_signal m k in
              if not (Signal.Set.mem out_signal !corrupted) then begin
                let pair =
                  { Perm_graph.module_name = name; input = i; output = k }
                in
                let p = Perm_matrix.get matrix ~input:i ~output:k in
                if p > 0.0 && unit_draw ~trial pair < p then begin
                  corrupted := Signal.Set.add out_signal !corrupted;
                  Queue.add out_signal queue
                end
              end
            done)
          (System_model.consumers model signal)
    done;
    !reached
  in
  let hits = ref 0 in
  for trial = 0 to trials - 1 do
    if trial_reaches trial then incr hits
  done;
  float_of_int !hits /. float_of_int trials

(* Random permeability graphs: 1-3 system inputs, 1-6 modules with 1-2
   outputs each, inputs drawn from every signal (feedback and
   self-loops included), permeabilities 0, 1 or in between, and system
   outputs that other modules may still consume. *)
let random_graph_gen =
  let open QCheck2.Gen in
  let* n_in = int_range 1 3 in
  let* n_outs = list_size (int_range 1 6) (int_range 1 2) in
  let inputs = List.init n_in (fun i -> Printf.sprintf "x%d" i) in
  let outputs =
    List.mapi
      (fun j n -> List.init n (fun k -> Printf.sprintf "m%d_o%d" j k))
      n_outs
  in
  let pool = Array.of_list (inputs @ List.concat outputs) in
  let permeability =
    oneof [ return 0.0; return 1.0; float_bound_inclusive 1.0 ]
  in
  let* modules =
    flatten_l
      (List.mapi
         (fun j outs ->
           let* picks =
             list_size (int_range 1 3) (int_bound (Array.length pool - 1))
           in
           let ins =
             List.map (Array.get pool) (List.sort_uniq compare picks)
           in
           let* rows =
             list_repeat (List.length ins)
               (list_repeat (List.length outs) permeability)
           in
           let name = Printf.sprintf "M%d" j in
           return
             ( mk_mod ~name ins outs,
               (name, Perm_matrix.of_rows
                        (Array.of_list (List.map Array.of_list rows))) ))
         outputs)
  in
  let* exposed = list_repeat (List.length (List.concat outputs)) bool in
  let system_outputs =
    List.map s
      (List.concat outputs
      |> List.filteri (fun i _ -> List.nth exposed i)
      |> function
      | [] -> [ List.hd (List.rev (List.concat outputs)) ]
      | l -> l)
  in
  let model =
    System_model.make_exn ~modules:(List.map fst modules)
      ~system_inputs:(List.map s inputs) ~system_outputs
  in
  return
    (Perm_graph.build_exn model (String_map.of_list (List.map snd modules)))

(* Every simple path's weight from [source] to [output]: the product
   of the permeabilities along it (the empty path, weight 1, when the
   source is the output). *)
let simple_path_weights graph ~source ~output =
  let model = Perm_graph.model graph in
  let rec walk signal visited weight =
    if Signal.equal signal output then [ weight ]
    else
      List.concat_map
        (fun (m, i) ->
          let matrix = Perm_graph.matrix graph (Sw_module.name m) in
          List.concat_map
            (fun k ->
              let next = Sw_module.output_signal m k in
              if Signal.Set.mem next visited then []
              else
                walk next (Signal.Set.add next visited)
                  (weight *. Perm_matrix.get matrix ~input:i ~output:k))
            (List.init (Sw_module.output_count m) succ))
        (System_model.consumers model signal)
  in
  walk source (Signal.Set.singleton source) 1.0

(* The estimate for one source of a single-output graph. *)
let arrival ~trials ~seed graph source =
  Perm_matrix.get
    (Monte_carlo.arrival_matrix ~trials ~seed graph ~sources:[ source ])
    ~input:1 ~output:1

let monte_carlo_tests =
  [
    Alcotest.test_case "single-path system matches the product" `Quick
      (fun () ->
        let a = mk_mod ~name:"A" [ "in" ] [ "m" ] in
        let b = mk_mod ~name:"B" [ "m" ] [ "out" ] in
        let model =
          System_model.make_exn ~modules:[ a; b ] ~system_inputs:[ s "in" ]
            ~system_outputs:[ s "out" ]
        in
        let graph =
          Perm_graph.build_exn model
            (String_map.of_list
               [
                 ("A", Perm_matrix.of_rows [| [| 0.5 |] |]);
                 ("B", Perm_matrix.of_rows [| [| 0.4 |] |]);
               ])
        in
        let p = arrival ~trials:20_000 ~seed:7 graph (s "in") in
        Alcotest.(check (float 0.02)) "0.2" 0.2 p);
    Alcotest.test_case "bracketed by max-path and noisy-or" `Quick (fun () ->
        let analysis = Fig_example.analysis () in
        let graph = analysis.Analysis.graph in
        let mc =
          Monte_carlo.arrival_matrix ~trials:5_000 ~seed:3 graph
            ~sources:Fig_example.inputs
        in
        let lo = Compose.equivalent_matrix ~combinator:Compose.Max_path analysis in
        let hi = Compose.equivalent_matrix analysis in
        Perm_matrix.fold
          (fun ~input ~output v () ->
            Alcotest.(check bool)
              "above max path" true
              (v >= Perm_matrix.get lo ~input ~output -. 0.03);
            Alcotest.(check bool)
              "below noisy-or" true
              (v <= Perm_matrix.get hi ~input ~output +. 0.03))
          mc ();
        (* Internal signals, against their own simple paths: the
           heaviest path's product below, and above the union of all
           paths taken as independent, which overstates it because
           paths sharing pairs are positively correlated. *)
        let internal = System_model.internal_signals Fig_example.system in
        let mc =
          Monte_carlo.arrival_matrix ~trials:5_000 ~seed:3 graph
            ~sources:internal
        in
        List.iteri
          (fun r source ->
            let weights =
              simple_path_weights graph ~source ~output:Fig_example.output
            in
            let v = Perm_matrix.get mc ~input:(r + 1) ~output:1 in
            let name = Signal.name source in
            Alcotest.(check bool)
              (name ^ " above max path") true
              (v >= List.fold_left Float.max 0.0 weights -. 0.03);
            Alcotest.(check bool)
              (name ^ " below noisy-or") true
              (v
              <= 1.0
                 -. List.fold_left (fun acc w -> acc *. (1.0 -. w)) 1.0 weights
                 +. 0.03))
          internal);
    Alcotest.test_case "deterministic in the seed" `Quick (fun () ->
        let graph = Fig_example.graph in
        let p () = arrival ~trials:2_000 ~seed:11 graph (s "ext_a") in
        close "same" (p ()) (p ()));
    Alcotest.test_case "zero permeability never arrives" `Quick (fun () ->
        let a = mk_mod ~name:"A" [ "in" ] [ "out" ] in
        let model =
          System_model.make_exn ~modules:[ a ] ~system_inputs:[ s "in" ]
            ~system_outputs:[ s "out" ]
        in
        let graph =
          Perm_graph.build_exn model
            (String_map.of_list [ ("A", Perm_matrix.of_rows [| [| 0.0 |] |]) ])
        in
        close "zero" 0.0
          (arrival ~trials:1_000 ~seed:1 graph (s "in")));
    check_raises_invalid "rejects a signal outside the model" (fun () ->
        Monte_carlo.arrival_matrix ~trials:10 ~seed:1 Fig_example.graph
          ~sources:[ s "ext_a"; s "nowhere" ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"estimates equal a set-based search's, float for float"
         QCheck2.Gen.(triple random_graph_gen (int_range 1 300) int)
         (fun (graph, trials, seed) ->
           let model = Perm_graph.model graph in
           let sources = System_model.signals model in
           let mc = Monte_carlo.arrival_matrix ~trials ~seed graph ~sources in
           List.for_all
             (fun (r, input) ->
               List.for_all
                 (fun (c, output) ->
                   Int64.equal
                     (Int64.bits_of_float
                        (Perm_matrix.get mc ~input:r ~output:c))
                     (Int64.bits_of_float
                        (set_based_arrival ~trials ~seed graph ~input ~output)))
                 (List.mapi
                    (fun c o -> (c + 1, o))
                    (System_model.system_outputs model)))
             (List.mapi (fun r i -> (r + 1, i)) sources)));
  ]

let () =
  Alcotest.run "propagation"
    [
      ("signal", signal_tests);
      ("sw_module", sw_module_tests);
      ("estimate", estimate_tests);
      ("perm_matrix", perm_matrix_tests);
      ("system_model", system_model_tests);
      ("perm_graph", perm_graph_tests);
      ("backtrack_tree", backtrack_tests);
      ("trace_tree", trace_tree_tests);
      ("path", path_tests);
      ("exposure", exposure_tests);
      ("ranking", ranking_tests);
      ("placement", placement_tests);
      ("analysis", analysis_tests);
      ("prob_model", prob_model_tests);
      ("sensitivity", sensitivity_tests);
      ("compose", compose_tests);
      ("monte_carlo", monte_carlo_tests);
    ]
