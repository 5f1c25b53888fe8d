type t = {
  name : string;
  inputs : Signal.t array;
  outputs : Signal.t array;
}

let check_distinct what signals =
  let rec go seen = function
    | [] -> ()
    | s :: rest ->
        if Signal.Set.mem s seen then
          invalid_arg
            (Printf.sprintf "Sw_module.make: duplicate %s signal %S" what
               (Signal.name s))
        else go (Signal.Set.add s seen) rest
  in
  go Signal.Set.empty signals

let make ~name ~inputs ~outputs =
  if String.length name = 0 then invalid_arg "Sw_module.make: empty name";
  if inputs = [] then
    invalid_arg (Printf.sprintf "Sw_module.make: module %S has no inputs" name);
  if outputs = [] then
    invalid_arg
      (Printf.sprintf "Sw_module.make: module %S has no outputs" name);
  check_distinct "input" inputs;
  check_distinct "output" outputs;
  { name; inputs = Array.of_list inputs; outputs = Array.of_list outputs }

let name t = t.name
let input_count t = Array.length t.inputs
let output_count t = Array.length t.outputs
let pair_count t = input_count t * output_count t

let port_signal what ports idx =
  if idx < 1 || idx > Array.length ports then
    invalid_arg (Printf.sprintf "Sw_module.%s_signal: port %d out of range" what idx)
  else ports.(idx - 1)

let input_signal t i = port_signal "input" t.inputs i
let output_signal t k = port_signal "output" t.outputs k

let find_index signals s =
  let rec go i =
    if i >= Array.length signals then None
    else if Signal.equal signals.(i) s then Some (i + 1)
    else go (i + 1)
  in
  go 0

let input_index t s = find_index t.inputs s
let output_index t s = find_index t.outputs s
let input_signals t = Array.to_list t.inputs
let output_signals t = Array.to_list t.outputs

let feedback_signals t =
  List.filter (fun s -> input_index t s <> None) (output_signals t)

let pp ppf t =
  Fmt.pf ppf "@[<h>%s(%a -> %a)@]" t.name
    Fmt.(list ~sep:comma Signal.pp)
    (input_signals t)
    Fmt.(list ~sep:comma Signal.pp)
    (output_signals t)
