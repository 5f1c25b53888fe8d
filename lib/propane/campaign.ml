type t = {
  name : string;
  targets : string list;
  testcases : Testcase.t list;
  times : Simkernel.Sim_time.t list;
  errors : Error_model.t list;
}

let make ~name ~targets ~testcases ~times ~errors =
  if String.length name = 0 then invalid_arg "Campaign.make: empty name";
  if targets = [] then invalid_arg "Campaign.make: no targets";
  if testcases = [] then invalid_arg "Campaign.make: no test cases";
  if times = [] then invalid_arg "Campaign.make: no injection times";
  if errors = [] then invalid_arg "Campaign.make: no error instances";
  if
    List.length (List.sort_uniq String.compare targets)
    <> List.length targets
  then invalid_arg "Campaign.make: duplicate targets";
  { name; targets; testcases; times; errors }

let runs_per_target t =
  List.length t.testcases * List.length t.times * List.length t.errors

let size t = List.length t.targets * runs_per_target t

let experiments t =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun testcase ->
          List.concat_map
            (fun at ->
              List.map
                (fun error ->
                  (testcase, Injection.make ~target ~at ~error))
                t.errors)
            t.times)
        t.testcases)
    t.targets

let pp ppf t =
  Fmt.pf ppf
    "@[<v>campaign %s: %d targets x %d cases x %d times x %d errors = %d runs@]"
    t.name (List.length t.targets)
    (List.length t.testcases)
    (List.length t.times) (List.length t.errors) (size t)
