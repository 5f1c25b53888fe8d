type rule = [ `Rankings_stable of int | `Ci_width of float ]

let pp_rule ppf = function
  | `Rankings_stable n -> Fmt.pf ppf "rankings-stable:%d" n
  | `Ci_width w -> Fmt.pf ppf "ci-width:%g" w

(* [%h] prints the exact binary float, so encode/parse round-trips
   bit for bit — [pp_rule]'s [%g] is for humans and rounds. *)
let rule_to_string = function
  | `Rankings_stable n -> Printf.sprintf "rankings-stable:%d" n
  | `Ci_width w -> Printf.sprintf "ci-width:%h" w

let rule_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad stop rule %S: expected rankings-stable:N (N >= 1) or ci-width:W \
          (0 < W <= 1)"
         s)
  in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let kind = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "rankings-stable" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> Ok (`Rankings_stable n)
          | Some _ | None -> fail ())
      | "ci-width" -> (
          match float_of_string_opt v with
          | Some w when w > 0.0 && w <= 1.0 -> Ok (`Ci_width w)
          | Some _ | None -> fail ())
      | _ -> fail ())

type digest = {
  runs_observed : int;
  max_ci_width : float;
  stable_for : int;
  resolved_modules : int;
  module_count : int;
}

type t = {
  model : Propagation.System_model.t;
  stream : Estimator.Stream.t;
  targets : string list;
  unseen : (string, unit) Hashtbl.t;  (* targets without an outcome yet *)
  mutable relatives : Propagation.Ranking.relative Propagation.String_map.t;
  mutable ranking : (string * bool) list;
  mutable stable_for : int;
}

let rank relatives =
  Propagation.Ranking.rank_relative
    (List.map snd (Propagation.String_map.bindings relatives))

let create ?window_ms ~model ~targets () =
  let stream = Estimator.Stream.create ?window_ms ~model () in
  let relatives =
    Propagation.String_map.mapi Propagation.Ranking.relative
      (Estimator.Stream.matrices stream)
  in
  let unseen = Hashtbl.create (List.length targets) in
  List.iter (fun target -> Hashtbl.replace unseen target ()) targets;
  {
    model;
    stream;
    targets;
    unseen;
    relatives;
    ranking = rank relatives;
    stable_for = 0;
  }

let snapshot t =
  Propagation.Analysis.run t.model (Estimator.Stream.matrices t.stream)

let digest t =
  {
    runs_observed = Estimator.Stream.runs_observed t.stream;
    max_ci_width = Estimator.Stream.max_width ~targets:t.targets t.stream;
    stable_for = t.stable_for;
    resolved_modules = List.length (List.filter snd t.ranking);
    module_count = List.length t.ranking;
  }

let same_order a b = List.equal (fun (x, _) (y, _) -> String.equal x y) a b

let observe t outcome =
  Hashtbl.remove t.unseen outcome.Results.injection.Injection.target;
  Estimator.Stream.observe t.stream outcome;
  let previous = t.ranking in
  (match Estimator.Stream.drain_dirty t.stream with
  | [] -> ()
  | dirty ->
      List.iter
        (fun (name, matrix) ->
          t.relatives <-
            Propagation.String_map.add name
              (Propagation.Ranking.relative name matrix)
              t.relatives)
        dirty;
      t.ranking <- rank t.relatives);
  (* Nothing counts before every target has an outcome: an all-zero
     ranking stays put while the first targets' runs arrive, and a
     ranking that some target has no evidence for is not an order the
     campaign has learned.  Nor does the first outcome: the ranking
     before it rests on no evidence. *)
  t.stable_for <-
    (if
       Hashtbl.length t.unseen = 0
       && Estimator.Stream.runs_observed t.stream > 1
       && same_order previous t.ranking
     then t.stable_for + 1
     else 0);
  digest t

let satisfied t rule =
  Estimator.Stream.runs_observed t.stream > 0
  &&
  match rule with
  | `Rankings_stable n -> t.stable_for >= n
  | `Ci_width w ->
      Estimator.Stream.max_width ~targets:t.targets t.stream <= w
