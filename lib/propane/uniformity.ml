type location = {
  target : string;
  testcase : string;
  at_ms : int;
  injections : int;
  propagated : int;
}

let ratio l =
  if l.injections = 0 then 0.0
  else float_of_int l.propagated /. float_of_int l.injections

module Key = struct
  type t = string * string * int

  let equal (a1, b1, c1) (a2, b2, c2) =
    String.equal a1 a2 && String.equal b1 b2 && Int.equal c1 c2

  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

let locations ~outputs results =
  let table = Tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (o : Results.outcome) ->
      let key =
        ( o.injection.Injection.target,
          o.testcase,
          Simkernel.Sim_time.to_ms o.injection.Injection.at )
      in
      let reached =
        List.exists
          (fun out -> Results.divergence_of o out <> None)
          outputs
      in
      match Tbl.find_opt table key with
      | None ->
          Tbl.add table key
            (ref (1, if reached then 1 else 0));
          order := key :: !order
      | Some cell ->
          let n, p = !cell in
          cell := (n + 1, if reached then p + 1 else p))
    (Results.outcomes results);
  List.rev_map
    (fun ((target, testcase, at_ms) as key) ->
      let n, p = !(Tbl.find table key) in
      { target; testcase; at_ms; injections = n; propagated = p })
    !order

type report = {
  locations : int;
  uniform_all : int;
  uniform_none : int;
  mixed : int;
  histogram : int array;
}

let analyse ~outputs results =
  let locs = locations ~outputs results in
  let histogram = Array.make 10 0 in
  let all = ref 0 and none = ref 0 and mixed = ref 0 in
  List.iter
    (fun l ->
      let r = ratio l in
      let bin = min 9 (int_of_float (r *. 10.0)) in
      histogram.(bin) <- histogram.(bin) + 1;
      if l.propagated = 0 then incr none
      else if l.propagated = l.injections then incr all
      else incr mixed)
    locs;
  {
    locations = List.length locs;
    uniform_all = !all;
    uniform_none = !none;
    mixed = !mixed;
    histogram;
  }

let uniform_fraction r =
  if r.locations = 0 then 0.0
  else
    float_of_int (r.uniform_all + r.uniform_none) /. float_of_int r.locations

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%d locations: %d all-propagate, %d none-propagate, %d mixed \
     (uniform fraction %.2f)@,ratio histogram: @[<h>%a@]@]"
    r.locations r.uniform_all r.uniform_none r.mixed (uniform_fraction r)
    Fmt.(array ~sep:sp int)
    r.histogram
