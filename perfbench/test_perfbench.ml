(* Tests of the benchmark's own logic: block minima, the tail
   percentile rule, closure arithmetic, and every answer check failing
   on a tampered answer. *)

open Perfbench
module P = Propagation

let block kind runs seconds = { Stats.kind; runs; seconds }

let test_block_minima () =
  let p1 = [| block Setup 0 0.5; block Runs 16 2.0; block Other 0 1.0 |] in
  let p2 = [| block Setup 0 0.7; block Runs 16 1.0; block Other 0 3.0 |] in
  let m = Stats.block_minima [ p1; p2 ] in
  Alcotest.(check (float 1e-12)) "sum of per-block minima" 2.5 (Stats.total m);
  Alcotest.(check (float 1e-12)) "setup" 0.5 (Stats.total ~kind:Setup m);
  Alcotest.(check (float 1e-12)) "runs/s" 16.0 (Stats.runs_per_s m);
  Alcotest.check_raises "different work is refused"
    (Invalid_argument "Stats.block_minima: block 1 is runs/8 runs against runs/16")
    (fun () ->
      ignore
        (Stats.block_minima
           [ p1; [| block Setup 0 0.5; block Runs 8 2.0; block Other 0 1.0 |] ]))

let test_marker () =
  let r = Stats.recorder () in
  let m = Stats.marker r ~block_runs:4 in
  for _ = 1 to 10 do
    Stats.run_done m
  done;
  Stats.close_runs m;
  let blocks = Stats.blocks r in
  Alcotest.(check (list (pair string int)))
    "setup, two full blocks, the tail"
    [ ("setup", 0); ("runs", 4); ("runs", 4); ("runs", 1) ]
    (Array.to_list
       (Array.map (fun (b : Stats.block) -> (Stats.kind_name b.kind, b.runs)) blocks))

let test_tail_rule () =
  let rank = Alcotest.(check (option int)) in
  rank "p98 of 1000 is rank 979" (Some 979) (Stats.tail_rank ~p:0.98 1000);
  rank "p98 of 500 keeps ten beyond" (Some 489) (Stats.tail_rank ~p:0.98 500);
  rank "p98 of 100 falls back to p90" (Some 89) (Stats.tail_rank ~p:0.98 100);
  rank "p50 of 100" (Some 49) (Stats.tail_rank ~p:0.5 100);
  rank "fewer than eleven samples" None (Stats.tail_rank ~p:0.5 10);
  let samples = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  Alcotest.(check (option (float 0.0)))
    "percentile reads the sorted samples" (Some 979.0)
    (Stats.percentile ~p:0.98 samples)

let test_closure () =
  Alcotest.(check (float 1e-12))
    "parts 9.5 of 10" 0.05
    (Stats.closure_error ~parts:[ 4.0; 5.0; 0.5 ] ~total:10.0);
  Alcotest.(check (float 1e-12))
    "over-counting counts too" 0.1
    (Stats.closure_error ~parts:[ 11.0 ] ~total:10.0)

let fails what = function
  | Ok () -> Alcotest.failf "%s: tampered answer passed" what
  | Error _ -> ()

let passes what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let matrix cells =
  Array.to_list cells
  |> List.fold_left
       (fun (m, i) (errors, trials) ->
         ( P.Perm_matrix.set_estimate m ~input:i ~output:1
             (P.Estimate.of_counts ~errors ~trials),
           i + 1 ))
       (P.Perm_matrix.create ~inputs:(Array.length cells) ~outputs:1, 1)
  |> fst

let matrices l =
  List.fold_left
    (fun acc (name, cells) -> P.String_map.add name (matrix cells) acc)
    P.String_map.empty l

let test_matrices_check () =
  let answer = matrices [ ("A", [| (5, 16); (8, 16) |]) ] in
  passes "same" (Checks.same_matrices ~what:"m" answer answer);
  fails "one count changed"
    (Checks.same_matrices ~what:"m" answer
       (matrices [ ("A", [| (5, 16); (9, 16) |]) ]))

let test_journal_check () =
  passes "same" (Checks.same_bytes ~what:"j" "run\t0\n" "run\t0\n");
  fails "one byte changed" (Checks.same_bytes ~what:"j" "run\t0\n" "run\t1\n")

let test_binomial_check () =
  let exact _ = 0.5 in
  passes "keep/16 exactly"
    (Checks.cells_near_exact ~z:5.0 ~exact
       (matrices [ ("B", [| (80, 160); (81, 160) |]) ]));
  fails "a cell far from keep/16"
    (Checks.cells_near_exact ~z:5.0 ~exact
       (matrices [ ("B", [| (80, 160); (150, 160) |]) ]));
  fails "an unmeasured cell"
    (Checks.cells_near_exact ~z:5.0 ~exact (matrices [ ("B", [| (0, 0) |]) ]))

let row name ~errors ~trials =
  let e = P.Estimate.of_counts ~errors ~trials in
  {
    P.Ranking.module_name = name;
    relative_permeability = P.Estimate.value e;
    non_weighted_permeability = P.Estimate.value e;
    exposure = 0.0;
    non_weighted_exposure = 0.0;
    relative_permeability_est = e;
    non_weighted_permeability_est = e;
    exposure_est = P.Estimate.zero;
    non_weighted_exposure_est = P.Estimate.zero;
    resolved = true;
  }

let test_ranking_check () =
  let rows =
    [ row "HIGH" ~errors:900 ~trials:1000; row "LOW" ~errors:100 ~trials:1000 ]
  in
  let exact = function "HIGH" -> 0.9 | _ -> 0.1 in
  passes "resolved and right" (Checks.ranking_consistent ~exact rows);
  fails "resolved against the exact order"
    (Checks.ranking_consistent ~exact:(fun m -> 1.0 -. exact m) rows);
  passes "unresolved pairs are not judged"
    (Checks.ranking_consistent
       ~exact:(fun m -> 1.0 -. exact m)
       [ row "HIGH" ~errors:6 ~trials:10; row "LOW" ~errors:4 ~trials:10 ])

let test_dirty_check () =
  let expected = [ "l3_0"; "l3_1"; "l3_3" ] in
  passes "the edited block's inputs"
    (Checks.same_set ~what:"dirty" ~expected [ "l3_3"; "l3_0"; "l3_1" ]);
  fails "one target too many"
    (Checks.same_set ~what:"dirty" ~expected [ "l3_0"; "l3_1"; "l3_2"; "l3_3" ]);
  fails "one target missing"
    (Checks.same_set ~what:"dirty" ~expected [ "l3_0"; "l3_1" ])

let test_seeded_inputs () =
  let ids seed =
    List.map Propane.Testcase.id (Systems.paper_testcases ~seed)
  in
  Alcotest.(check (list string)) "same seed, same test cases" (ids 7) (ids 7);
  let l = Systems.layered ~seed:7 in
  Alcotest.(check int) "the edited block has three inputs" 3
    (List.length l.edited_inputs);
  let d = Systems.dag ~seed:7 in
  Alcotest.(check (list int)) "the DAG uses the whole mask ladder"
    (List.sort compare (Array.to_list Systems.dag_keeps))
    (List.sort compare
       (List.map d.keep
          ("SINK"
          :: List.concat_map
               (fun l -> List.init 3 (Printf.sprintf "B%d_%d" l))
               [ 0; 1; 2 ])))

let () =
  Alcotest.run "perfbench"
    [
      ( "timing",
        [
          Alcotest.test_case "block minima" `Quick test_block_minima;
          Alcotest.test_case "run blocks" `Quick test_marker;
          Alcotest.test_case "p98 tail rule" `Quick test_tail_rule;
          Alcotest.test_case "closure" `Quick test_closure;
        ] );
      ( "answer checks",
        [
          Alcotest.test_case "matrices" `Quick test_matrices_check;
          Alcotest.test_case "journal bytes" `Quick test_journal_check;
          Alcotest.test_case "binomial tolerance" `Quick test_binomial_check;
          Alcotest.test_case "ranking order" `Quick test_ranking_check;
          Alcotest.test_case "dirty targets" `Quick test_dirty_check;
        ] );
      ("inputs", [ Alcotest.test_case "seeded" `Quick test_seeded_inputs ]);
    ]
