type status =
  | Completed
  | Crashed of { at_ms : int; reason : string }
  | Hung of { budget_ms : int }

let is_failed = function Completed -> false | Crashed _ | Hung _ -> true

let pp_status ppf = function
  | Completed -> Fmt.string ppf "completed"
  | Crashed { at_ms; reason } -> Fmt.pf ppf "crashed@%dms (%s)" at_ms reason
  | Hung { budget_ms } -> Fmt.pf ppf "hung (>%dms wall)" budget_ms

type outcome = {
  testcase : string;
  injection : Injection.t;
  divergences : Golden.divergence list;
  status : status;
}

module String_map = Map.Make (String)

type t = {
  sut : string;
  campaign : string;
  mutable rev_outcomes : outcome list;
  mutable count : int;
  mutable crashed : int;
  mutable hung : int;
  mutable per_target : int String_map.t;
}

let create ~sut ~campaign =
  {
    sut;
    campaign;
    rev_outcomes = [];
    count = 0;
    crashed = 0;
    hung = 0;
    per_target = String_map.empty;
  }

let sut t = t.sut
let campaign t = t.campaign

let add t outcome =
  t.rev_outcomes <- outcome :: t.rev_outcomes;
  t.count <- t.count + 1;
  (match outcome.status with
  | Completed -> ()
  | Crashed _ -> t.crashed <- t.crashed + 1
  | Hung _ -> t.hung <- t.hung + 1);
  let target = outcome.injection.Injection.target in
  let prev = Option.value ~default:0 (String_map.find_opt target t.per_target) in
  t.per_target <- String_map.add target (prev + 1) t.per_target

let count t = t.count
let crashed_count t = t.crashed
let hung_count t = t.hung
let failed_count t = t.crashed + t.hung
let outcomes t = List.rev t.rev_outcomes

let by_target t target =
  List.filter
    (fun o -> String.equal o.injection.Injection.target target)
    (outcomes t)

let injections_into t target =
  Option.value ~default:0 (String_map.find_opt target t.per_target)

let divergence_of outcome signal =
  List.find_map
    (fun (d : Golden.divergence) ->
      if String.equal d.signal signal then Some d.first_ms else None)
    outcome.divergences
