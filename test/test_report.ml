(* Tests for the reporting library: table rendering, DOT output and the
   paper-table regeneration. *)

let check_raises_invalid name f =
  Alcotest.test_case name `Quick (fun () ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.equal (String.sub haystack i nn) needle then true
    else go (i + 1)
  in
  go 0

let lines s = String.split_on_char '\n' s

(* ------------------------------------------------------------------ *)

let table_tests =
  [
    Alcotest.test_case "renders header, rule and rows" `Quick (fun () ->
        let t =
          Report.Table.make
            ~columns:[ ("Name", Report.Table.Left); ("V", Report.Table.Right) ]
            [ [ "a"; "1" ]; [ "bb"; "22" ] ]
        in
        match lines (Report.Table.render t) with
        | [ header; rule; row1; row2 ] ->
            Alcotest.(check bool) "header" true (contains header "Name");
            Alcotest.(check bool) "rule" true (contains rule "---");
            Alcotest.(check bool) "row1" true (contains row1 "a");
            Alcotest.(check bool) "row2" true (contains row2 "22")
        | other -> Alcotest.failf "unexpected shape (%d lines)" (List.length other));
    Alcotest.test_case "columns align to the widest cell" `Quick (fun () ->
        let t =
          Report.Table.make
            ~columns:[ ("C", Report.Table.Right) ]
            [ [ "1" ]; [ "12345" ] ]
        in
        let widths =
          List.map String.length (lines (Report.Table.render t))
        in
        Alcotest.(check bool)
          "uniform" true
          (List.for_all (fun w -> w = List.hd widths) widths));
    Alcotest.test_case "right alignment pads on the left" `Quick (fun () ->
        let t =
          Report.Table.make
            ~columns:[ ("Value", Report.Table.Right) ]
            [ [ "7" ] ]
        in
        match lines (Report.Table.render t) with
        | [ _; _; row ] -> Alcotest.(check string) "padded" "    7" row
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "title is the first line" `Quick (fun () ->
        let t =
          Report.Table.make ~title:"My table"
            ~columns:[ ("C", Report.Table.Left) ]
            [ [ "x" ] ]
        in
        Alcotest.(check string)
          "title" "My table"
          (List.hd (lines (Report.Table.render t))));
    check_raises_invalid "ragged rows rejected" (fun () ->
        Report.Table.make
          ~columns:[ ("A", Report.Table.Left); ("B", Report.Table.Left) ]
          [ [ "only one" ] ]);
    check_raises_invalid "no columns rejected" (fun () ->
        Report.Table.make ~columns:[] []);
    Alcotest.test_case "row_count" `Quick (fun () ->
        let t =
          Report.Table.make ~columns:[ ("C", Report.Table.Left) ]
            [ [ "a" ]; [ "b" ] ]
        in
        Alcotest.(check int) "rows" 2 (Report.Table.row_count t));
  ]

(* ------------------------------------------------------------------ *)

let paper_analysis () =
  Propagation.Analysis.run_exn Arrestment.Model.system
    (Arrestment.Model.paper_matrices ())

let dot_tests =
  [
    Alcotest.test_case "system model diagram covers modules and wiring"
      `Quick (fun () ->
        let dot = Report.Dot.of_system_model Arrestment.Model.system in
        List.iter
          (fun m -> Alcotest.(check bool) m true (contains dot m))
          Arrestment.Model.module_names;
        Alcotest.(check bool)
          "SetValue edge" true
          (contains dot "SetValue (out 2) (in 1)");
        Alcotest.(check bool) "system output" true (contains dot "ENV_OUT"));
    Alcotest.test_case "permeability graph mentions every module" `Quick
      (fun () ->
        let dot =
          Report.Dot.of_perm_graph (paper_analysis ()).Propagation.Analysis.graph
        in
        List.iter
          (fun m -> Alcotest.(check bool) m true (contains dot m))
          Arrestment.Model.module_names;
        Alcotest.(check bool) "digraph" true (contains dot "digraph"));
    Alcotest.test_case "zero arcs omitted by default, kept on demand" `Quick
      (fun () ->
        let graph = (paper_analysis ()).Propagation.Analysis.graph in
        let default = Report.Dot.of_perm_graph graph in
        let all = Report.Dot.of_perm_graph ~include_zero:true graph in
        (* P^PRES_S_{1,1} = 0 is only drawn with include_zero. *)
        Alcotest.(check bool) "omitted" false (contains default "P^PRES_S");
        Alcotest.(check bool) "kept" true (contains all "P^PRES_S"));
    Alcotest.test_case "backtrack tree renders every leaf" `Quick (fun () ->
        let analysis = paper_analysis () in
        let tree =
          List.assoc Arrestment.Signals.toc2
            analysis.Propagation.Analysis.backtrack_trees
        in
        let dot = Report.Dot.of_backtrack_tree tree in
        Alcotest.(check bool) "PACNT" true (contains dot "PACNT");
        Alcotest.(check bool) "ADC" true (contains dot "ADC");
        Alcotest.(check bool) "digraph" true (contains dot "digraph"));
    Alcotest.test_case "trace tree renders the output" `Quick (fun () ->
        let analysis = paper_analysis () in
        let tree =
          List.assoc Arrestment.Signals.pacnt
            analysis.Propagation.Analysis.trace_trees
        in
        let dot = Report.Dot.of_trace_tree tree in
        Alcotest.(check bool) "TOC2" true (contains dot "TOC2"));
  ]

(* ------------------------------------------------------------------ *)

let experiments_tests =
  [
    Alcotest.test_case "table1 has the 25 pairs" `Quick (fun () ->
        Alcotest.(check int)
          "rows" 25
          (Report.Table.row_count (Report.Experiments.table1 (paper_analysis ()))));
    Alcotest.test_case "table1 reference column is aligned" `Quick (fun () ->
        let rendered =
          Report.Table.render
            (Report.Experiments.table1
               ~reference:(Arrestment.Model.paper_matrices ())
               (paper_analysis ()))
        in
        Alcotest.(check bool) "has Paper column" true (contains rendered "Paper"));
    Alcotest.test_case "table2 has one row per module" `Quick (fun () ->
        Alcotest.(check int)
          "rows" 6
          (Report.Table.row_count (Report.Experiments.table2 (paper_analysis ()))));
    Alcotest.test_case "table3 lists internal signals, highest first" `Quick
      (fun () ->
        let t = Report.Experiments.table3 (paper_analysis ()) in
        Alcotest.(check int) "rows" 10 (Report.Table.row_count t);
        let rendered = Report.Table.render t in
        Alcotest.(check bool) "SetValue" true (contains rendered "SetValue"));
    Alcotest.test_case "table4 lists the 13 non-zero paths" `Quick (fun () ->
        Alcotest.(check int)
          "rows" 13
          (Report.Table.row_count
             (Report.Experiments.table4 (paper_analysis ())
                Arrestment.Signals.toc2)));
    check_raises_invalid "table4 rejects unknown outputs" (fun () ->
        Report.Experiments.table4 (paper_analysis ())
          (Propagation.Signal.make "nonsense"));
    Alcotest.test_case "input paths table covers PACNT" `Quick (fun () ->
        let t =
          Report.Experiments.input_paths_table (paper_analysis ())
            Arrestment.Signals.pacnt
        in
        Alcotest.(check bool) "rows" true (Report.Table.row_count t > 0));
  ]

(* ------------------------------------------------------------------ *)

let csv_tests =
  [
    Alcotest.test_case "plain fields pass through" `Quick (fun () ->
        Alcotest.(check string) "plain" "abc" (Report.Csv.escape "abc"));
    Alcotest.test_case "commas and quotes are quoted" `Quick (fun () ->
        Alcotest.(check string) "comma" "\"a,b\"" (Report.Csv.escape "a,b");
        Alcotest.(check string)
          "quote" "\"say \"\"hi\"\"\""
          (Report.Csv.escape "say \"hi\""));
    Alcotest.test_case "table converts with header" `Quick (fun () ->
        let t =
          Report.Table.make ~title:"ignored"
            ~columns:[ ("A", Report.Table.Left); ("B", Report.Table.Right) ]
            [ [ "x"; "1" ]; [ "y,z"; "2" ] ]
        in
        Alcotest.(check string)
          "csv" "A,B\nx,1\n\"y,z\",2\n"
          (Report.Csv.of_table t));
    Alcotest.test_case "trace set converts row per millisecond" `Quick
      (fun () ->
        let set = Propane.Trace_set.create ~signals:[ "a"; "b" ] () in
        Propane.Trace_set.sample_array set [| 1; 2 |];
        Propane.Trace_set.sample_array set [| 3; 4 |];
        Alcotest.(check string)
          "csv" "ms,a,b\n0,1,2\n1,3,4\n"
          (Report.Csv.of_trace_set set));
    Alcotest.test_case "write_file round-trips" `Quick (fun () ->
        let path = Filename.temp_file "propane_csv" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Report.Csv.write_file path "a,b\n1,2\n";
            let ic = open_in path in
            let contents =
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () -> In_channel.input_all ic)
            in
            Alcotest.(check string) "contents" "a,b\n1,2\n" contents));
  ]

let () =
  Alcotest.run "report"
    [
      ("table", table_tests);
      ("dot", dot_tests);
      ("experiments", experiments_tests);
      ("csv", csv_tests);
    ]
