type t = { id : string; params : (string * float) list }

let make ~id ~params =
  if String.length id = 0 then invalid_arg "Testcase.make: empty id";
  let names = List.map fst params in
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    invalid_arg "Testcase.make: duplicate parameter names";
  { id; params }

let id t = t.id
let param t name = List.assoc_opt name t.params

let param_exn t name =
  match param t name with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Testcase.param_exn: test case %S has no parameter %S"
           t.id name)

let grid axes =
  if axes = [] then invalid_arg "Testcase.grid: no axes";
  let names = List.map fst axes in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Testcase.grid: duplicate axis names";
  List.iter
    (fun (name, values) ->
      if values = [] then
        invalid_arg (Printf.sprintf "Testcase.grid: empty axis %S" name))
    axes;
  let rec expand = function
    | [] -> [ [] ]
    | (name, values) :: rest ->
        let tails = expand rest in
        List.concat_map
          (fun v -> List.map (fun tail -> (name, v) :: tail) tails)
          values
  in
  List.map
    (fun params ->
      let id =
        String.concat "/"
          (List.map (fun (n, v) -> Printf.sprintf "%s=%g" n v) params)
      in
      make ~id ~params)
    (expand axes)

let uniform_axis name ~lo ~hi ~steps =
  if steps < 2 then invalid_arg "Testcase.uniform_axis: steps must be >= 2";
  if not (lo < hi) then invalid_arg "Testcase.uniform_axis: need lo < hi";
  let width = (hi -. lo) /. float_of_int (steps - 1) in
  (name, List.init steps (fun j -> lo +. (float_of_int j *. width)))
