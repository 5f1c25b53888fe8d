type t = { cells : Estimate.t array array }

(* Invariant: [cells] is rectangular and non-empty, every entry is a
   probability estimate (value and bounds in [0, 1]).  All construction
   goes through [check_value] / [check_estimate]. *)

let check_value ~ctx v =
  if Float.is_nan v || v < 0.0 || v > 1.0 then
    invalid_arg (Printf.sprintf "Perm_matrix.%s: value %g not in [0,1]" ctx v)

let check_estimate ~ctx (e : Estimate.t) =
  if e.Estimate.hi > 1.0 then
    invalid_arg
      (Printf.sprintf "Perm_matrix.%s: estimate bound %g not in [0,1]" ctx
         e.Estimate.hi)

let create ~inputs ~outputs =
  if inputs < 1 || outputs < 1 then
    invalid_arg "Perm_matrix.create: dimensions must be >= 1";
  { cells = Array.make_matrix inputs outputs Estimate.zero }

let of_estimates cells =
  if Array.length cells = 0 then invalid_arg "Perm_matrix.of_estimates: no rows";
  let cols = Array.length cells.(0) in
  if cols = 0 then invalid_arg "Perm_matrix.of_estimates: no columns";
  Array.iter
    (fun r ->
      if Array.length r <> cols then
        invalid_arg "Perm_matrix.of_estimates: ragged rows";
      Array.iter (check_estimate ~ctx:"of_estimates") r)
    cells;
  { cells = Array.map Array.copy cells }

let of_rows rows =
  if Array.length rows = 0 then invalid_arg "Perm_matrix.of_rows: no rows";
  let cols = Array.length rows.(0) in
  if cols = 0 then invalid_arg "Perm_matrix.of_rows: no columns";
  Array.iter
    (fun r ->
      if Array.length r <> cols then
        invalid_arg "Perm_matrix.of_rows: ragged rows";
      Array.iter (check_value ~ctx:"of_rows") r)
    rows;
  { cells = Array.map (Array.map Estimate.exact) rows }

let input_count t = Array.length t.cells
let output_count t = Array.length t.cells.(0)

let check_ports t ~ctx ~input ~output =
  if input < 1 || input > input_count t then
    invalid_arg (Printf.sprintf "Perm_matrix.%s: input %d out of range" ctx input);
  if output < 1 || output > output_count t then
    invalid_arg
      (Printf.sprintf "Perm_matrix.%s: output %d out of range" ctx output)

let estimate t ~input ~output =
  check_ports t ~ctx:"estimate" ~input ~output;
  t.cells.(input - 1).(output - 1)

let get t ~input ~output =
  check_ports t ~ctx:"get" ~input ~output;
  Estimate.value t.cells.(input - 1).(output - 1)

let set_estimate t ~input ~output e =
  check_ports t ~ctx:"set_estimate" ~input ~output;
  check_estimate ~ctx:"set_estimate" e;
  let cells = Array.map Array.copy t.cells in
  cells.(input - 1).(output - 1) <- e;
  { cells }

let set t ~input ~output v =
  check_ports t ~ctx:"set" ~input ~output;
  check_value ~ctx:"set" v;
  set_estimate t ~input ~output (Estimate.exact v)

let fold_estimates f t acc =
  let acc = ref acc in
  Array.iteri
    (fun i r ->
      Array.iteri (fun k e -> acc := f ~input:(i + 1) ~output:(k + 1) e !acc) r)
    t.cells;
  !acc

let fold f t acc =
  fold_estimates
    (fun ~input ~output e acc -> f ~input ~output (Estimate.value e) acc)
    t acc

let non_weighted t = fold (fun ~input:_ ~output:_ v acc -> acc +. v) t 0.0

let relative t =
  non_weighted t /. float_of_int (input_count t * output_count t)

let estimates t =
  fold_estimates (fun ~input:_ ~output:_ e acc -> e :: acc) t [] |> List.rev

let non_weighted_estimate t = Estimate.sum (estimates t)

let relative_estimate t =
  Estimate.scale
    (1.0 /. float_of_int (input_count t * output_count t))
    (non_weighted_estimate t)

let row t ~input =
  check_ports t ~ctx:"row" ~input ~output:1;
  Array.map Estimate.value t.cells.(input - 1)

let column t ~output =
  check_ports t ~ctx:"column" ~input:1 ~output;
  Array.map (fun r -> Estimate.value r.(output - 1)) t.cells

let row_sum t ~input = Array.fold_left ( +. ) 0.0 (row t ~input)
let column_sum t ~output = Array.fold_left ( +. ) 0.0 (column t ~output)

let column_sum_estimate t ~output =
  check_ports t ~ctx:"column_sum_estimate" ~input:1 ~output;
  Estimate.sum (List.map (fun r -> r.(output - 1)) (Array.to_list t.cells))

let equal ?(eps = 1e-12) a b =
  input_count a = input_count b
  && output_count a = output_count b
  && fold
       (fun ~input ~output v ok ->
         ok && Float.abs (v -. get b ~input ~output) <= eps)
       a true

let equal_estimates ?eps a b =
  input_count a = input_count b
  && output_count a = output_count b
  && fold_estimates
       (fun ~input ~output e ok ->
         ok && Estimate.equal ?eps e (estimate b ~input ~output))
       a true

let pp ppf t =
  let pp_row ppf r =
    Fmt.pf ppf "@[<h>%a@]"
      Fmt.(array ~sep:sp (using Estimate.value (fmt "%.3f")))
      r
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(array ~sep:cut pp_row) t.cells
