open Propane

type t = {
  cases : int;
  times : int;
  full : bool;
  model : string;
  window : int;
  config : Runner.Config.t;
  chaos_crash : int option;
  chaos_hang : int option;
}

let default_model = "single-bit"

let make ?(cases = 3) ?(times = 4) ?(full = false) ?(model = default_model)
    ?(window = 64) ?seed ?(run_timeout_ms = 0) ?retries ?fail_fast ?jobs
    ?journal ?resume ?journal_batch ?keep_traces ?stop_when ?budget ?plan
    ?chaos_crash ?chaos_hang () =
  let config =
    Runner.Config.make ?seed ~truncate_after_ms:(2 * window)
      ?run_timeout_ms:(if run_timeout_ms <= 0 then None else Some run_timeout_ms)
      ?retries ?fail_fast ?jobs ?journal ?resume ?journal_batch ?keep_traces
      ?stop_when ?budget ?plan ()
  in
  { cases; times; full; model; window; config; chaos_crash; chaos_hang }

let roster spec = Error_model.roster_of_string ~width:Signals.width spec

let validate r =
  let at_least lo what = function
    | Some n when n < lo ->
        Error (Printf.sprintf "%s must be at least %d, got %d" what lo n)
    | _ -> Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = at_least 2 "cases" (Some r.cases) in
  let* () = at_least 1 "times" (Some r.times) in
  let* () = at_least 1 "window" (Some r.window) in
  let* () = at_least 0 "chaos_crash" r.chaos_crash in
  let* () = at_least 0 "chaos_hang" r.chaos_hang in
  let* _ = roster r.model in
  Runner.Config.validate r.config

let magic = "propane-recipe3"

let encode r =
  let opt = function None -> "" | Some n -> string_of_int n in
  let config = Runner.Config.restrict (fun role -> role <> `Resumable) r.config in
  Printf.sprintf
    "%s;cases=%d;times=%d;full=%b;model=%s;window=%d;config=%s;chaos_crash=%s;chaos_hang=%s"
    magic r.cases r.times r.full r.model r.window
    (Runner.Config.encode config)
    (opt r.chaos_crash) (opt r.chaos_hang)

(* [k=v] pairs of a [sep]-separated list. *)
let pairs sep s =
  List.filter_map
    (fun f ->
      Option.map
        (fun i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
        (String.index_opt f '='))
    (String.split_on_char sep s)

let decode s =
  match String.split_on_char ';' s with
  | v :: _ when String.equal v magic -> (
      let fields = pairs ';' s in
      let get parse k =
        match List.assoc_opt k fields with
        | None -> failwith (Printf.sprintf "missing field %s" k)
        | Some v -> (
            match parse v with
            | Some x -> x
            | None -> failwith (Printf.sprintf "bad field %s=%s" k v))
      in
      let opt v =
        if String.equal v "" then Some None
        else Option.map Option.some (int_of_string_opt v)
      in
      let config v = Result.to_option (Runner.Config.decode v) in
      match
        {
          cases = get int_of_string_opt "cases";
          times = get int_of_string_opt "times";
          full = get bool_of_string_opt "full";
          model = get Option.some "model";
          window = get int_of_string_opt "window";
          config = get config "config";
          chaos_crash = get opt "chaos_crash";
          chaos_hang = get opt "chaos_hang";
        }
      with
      | r -> Result.map (fun () -> r) (validate r)
      | exception Failure msg -> Error msg)
      |> Result.map_error (( ^ ) "bad campaign recipe: ")
  | v :: _ ->
      Error
        (Printf.sprintf
           "campaign recipe %S is not %S; coordinator and worker binaries \
            disagree"
           v magic)
  | [] -> Error "empty campaign recipe"

(* Every encoded field in order, the config's one by one. *)
let fields r =
  List.concat_map
    (function "config", c -> pairs ',' c | field -> [ field ])
    (pairs ';' (encode r))

let first_difference a b =
  let fa = fields a and fb = fields b in
  let value fs k = Option.value ~default:"(unset)" (List.assoc_opt k fs) in
  List.find_map
    (fun k ->
      let va = value fa k and vb = value fb k in
      if String.equal va vb then None else Some (k, va, vb))
    (List.map fst fa @ List.map fst fb)

(* The grid and roster are the recipe's own fields that cannot change
   one cell's counters beyond what {!Cell} keys already; the rest
   defer to the config's classification. *)
let key r =
  let outcome (k, v) =
    match k with
    | "cases" | "times" | "full" | "model" -> None
    | k when Runner.Config.role k = `Outcome -> Some (k ^ "=" ^ v)
    | _ -> None
  in
  String.concat ";" (magic :: List.filter_map outcome (fields r))

let sut r =
  let fault =
    match (r.chaos_crash, r.chaos_hang) with
    | None, None -> None
    | crash_after_ms, hang_after_ms ->
        Some (Fault.spec ?crash_after_ms ?hang_after_ms ())
  in
  System.sut ?fault ()

let workload r =
  if r.full then (System.paper_testcases, Campaign.paper_times)
  else
    let axis name ~lo ~hi = Testcase.uniform_axis name ~lo ~hi ~steps:r.cases in
    ( Testcase.grid
        [ axis "mass" ~lo:8_000.0 ~hi:20_000.0; axis "velocity" ~lo:40.0 ~hi:80.0 ],
      List.init r.times (fun j ->
          Simkernel.Sim_time.of_ms (500 + (j * 4500 / max 1 (r.times - 1)))) )

let errors_of spec =
  match roster spec with Ok errors -> errors | Error msg -> invalid_arg msg

let campaign r =
  let testcases, times = workload r in
  (* The default roster keeps the historical campaign name (and so the
     journal header bytes); any other roster is part of the campaign's
     identity and must show up in validation. *)
  let base = if r.full then "paper-7.3" else "reduced-7.3" in
  let name =
    if String.equal r.model default_model then base else base ^ "+" ^ r.model
  in
  Campaign.make ~name ~targets:Model.injection_targets ~testcases ~times
    ~errors:(errors_of r.model)

let attribution r = Estimator.Direct { window_ms = r.window }

type prepared = {
  sut : Sut.t;
  campaign : Campaign.t;
  reuse : Reuse.t option;
  select : (int -> bool) option;
  cells : Journal.cell list option;
  plan : Plan.t option;
  live : Live.t option;
}

let prepare ?reuse ?(live = false) r =
  Result.iter_error invalid_arg (validate r);
  let sut = sut r and campaign = campaign r and attribution = attribution r in
  let reuse =
    Option.map
      (fun dir -> Reuse.plan ~recipe:(key r) ~sut ~model:Model.system ~dir campaign)
      reuse
  in
  let select = Option.map Reuse.select reuse in
  let { Runner.Config.budget; plan = mode; stop_when; _ } = r.config in
  {
    sut;
    campaign;
    reuse;
    select;
    cells = Option.map Reuse.journal_cells reuse;
    plan =
      Option.map
        (fun budget ->
          Plan.create ~mode ?select ~attribution ~budget ~model:Model.system
            ~campaign ())
        budget;
    live =
      (* Cached cells are as precise as they will get: the live
         analysis, and so the stop rule, watches the dirty targets. *)
      (if live || stop_when <> None || budget <> None then
         Some
           (Live.create ~attribution ~model:Model.system
              ~targets:
                (match reuse with
                | Some plan -> Reuse.dirty_targets plan
                | None -> campaign.Campaign.targets)
              ())
       else None);
  }

let analyse ?reuse ~window results =
  let ( let* ) = Result.bind in
  let attribution = Estimator.Direct { window_ms = window } in
  let* stream =
    match reuse with
    | Some plan ->
        let stream = Reuse.compose ~attribution plan results in
        let* () = Reuse.persist plan stream results in
        let* () = Reuse.write_stats plan in
        Ok stream
    | None ->
        let stream = Estimator.Stream.create ~attribution ~model:Model.system () in
        List.iter (Estimator.Stream.observe stream) (Results.outcomes results);
        Ok stream
  in
  Propagation.Analysis.run Model.system (Estimator.Stream.matrices stream)

let models =
  [ "single-bit"; "multi-bit:2"; "burst:4"; "stuck-at"; "offset:64";
    "noise:16"; "uniform"; "delayed:8"; "intermittent:4:16" ]

let ablation r =
  let testcases, times = workload r in
  let campaign_of errors =
    Campaign.make ~name:"ablation-7.3" ~targets:Model.injection_targets
      ~testcases ~times ~errors
  in
  Ablation.study ~config:r.config ~attribution:(attribution r) ~sut:(sut r)
    ~model:Model.system ~campaign_of
    (List.map (fun spec -> (spec, errors_of spec)) models)
