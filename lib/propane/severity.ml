type verdict = No_effect | Internal_only | Output_deviation | Mission_failure

let verdicts = [ No_effect; Internal_only; Output_deviation; Mission_failure ]

type report = {
  target : string;
  runs : int;
  no_effect : int;
  internal_only : int;
  output_deviation : int;
  mission_failure : int;
}

let count r = function
  | No_effect -> r.no_effect
  | Internal_only -> r.internal_only
  | Output_deviation -> r.output_deviation
  | Mission_failure -> r.mission_failure

let classify ~outputs ~mission_failed ~golden ~run divergences =
  if divergences = [] then No_effect
  else
    let output_diverged =
      List.exists
        (fun (d : Golden.divergence) ->
          List.exists (String.equal d.signal) outputs)
        divergences
    in
    if not output_diverged then Internal_only
    else if mission_failed ~golden ~run then Mission_failure
    else Output_deviation

let assess ?(max_ms = Runner.default_max_ms) ?(seed = 42L) ?run_timeout_ms
    ~outputs ~mission_failed (sut : Sut.t) campaign =
  (* The mission judge reads raw traces; [Runner.run] keeps only frozen
     goldens. *)
  let goldens =
    List.map
      (fun tc -> (Testcase.id tc, Runner.golden_run ~max_ms sut tc))
      campaign.Campaign.testcases
  in
  let tallies = Hashtbl.create 16 in
  let tally target verdict =
    Option.value ~default:0 (Hashtbl.find_opt tallies (target, verdict))
  in
  let on_run_traces ~index:_ (outcome : Results.outcome) run =
    let verdict =
      match outcome.Results.status with
      | Results.Completed ->
          classify ~outputs ~mission_failed
            ~golden:(List.assoc outcome.Results.testcase goldens)
            ~run outcome.Results.divergences
      (* A crashed or hung target never delivered its mission: that is
         the paper's worst failure class, not a judgement call for the
         mission predicate (whose traces are partial anyway). *)
      | Results.Crashed _ | Results.Hung _ -> Mission_failure
    in
    let target = outcome.Results.injection.Injection.target in
    Hashtbl.replace tallies (target, verdict) (tally target verdict + 1)
  in
  let (_ : Results.t) =
    Runner.run
      ~config:(Runner.Config.make ~max_ms ~seed ?run_timeout_ms ())
      ~on_run_traces sut campaign
  in
  List.map
    (fun target ->
      let n = tally target in
      {
        target;
        runs = List.fold_left (fun acc v -> acc + n v) 0 verdicts;
        no_effect = n No_effect;
        internal_only = n Internal_only;
        output_deviation = n Output_deviation;
        mission_failure = n Mission_failure;
      })
    campaign.Campaign.targets

let pp_report ppf r =
  Fmt.pf ppf
    "@[<h>%-12s %4d runs: %4d no effect, %4d internal, %4d deviation, %4d \
     mission failures@]"
    r.target r.runs r.no_effect r.internal_only r.output_deviation
    r.mission_failure
