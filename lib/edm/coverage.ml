type report = {
  detector : Detector.t;
  golden_false_alarm : bool;
  runs : int;
  effective : int;
  output_failures : int;
  fired : int;
  detections : int;
  false_alarms : int;
  timely_output_detections : int;
  mean_latency_ms : float option;
}

type accumulator = {
  det : Detector.t;
  mutable golden_false_alarm : bool;
  golden_verdicts : (string * Detector.verdict) list;
      (* per test case: how the detector behaves on the reference run *)
  mutable fired : int;
  mutable detections : int;
  mutable false_alarms : int;
  mutable timely : int;
  mutable latency_total : int;
  mutable latency_count : int;
}

let detection_coverage r =
  if r.effective = 0 then 0.0
  else float_of_int r.detections /. float_of_int r.effective

let usefulness r =
  if r.output_failures = 0 then 0.0
  else float_of_int r.timely_output_detections /. float_of_int r.output_failures

let assess ?(max_ms = Propane.Runner.default_max_ms) ?(seed = 42L) ~outputs
    ~detectors (sut : Propane.Sut.t) campaign =
  (* The golden verdicts read raw traces; [Runner.run] keeps only
     frozen goldens. *)
  let goldens =
    List.map
      (fun tc -> (Propane.Testcase.id tc, Propane.Runner.golden_run ~max_ms sut tc))
      campaign.Propane.Campaign.testcases
  in
  let accs =
    List.map
      (fun det ->
        let golden_verdicts =
          List.map
            (fun (id, golden) -> (id, Detector.evaluate det golden))
            goldens
        in
        {
          det;
          golden_false_alarm =
            List.exists (fun (_, v) -> v.Detector.fired) golden_verdicts;
          golden_verdicts;
          fired = 0;
          detections = 0;
          false_alarms = 0;
          timely = 0;
          latency_total = 0;
          latency_count = 0;
        })
      detectors
  in
  let runs = ref 0 and effective = ref 0 and output_failures = ref 0 in
  let on_run_traces ~index:_ (outcome : Propane.Results.outcome) run =
    (* A crashed run keeps its divergences (every signal diverges by
       the crash instant) and its traces up to the crash. *)
    let divergences = outcome.Propane.Results.divergences in
    let run_effective = divergences <> [] in
    let output_failure =
      List.find_map
        (fun (d : Propane.Golden.divergence) ->
          if List.exists (String.equal d.signal) outputs then Some d.first_ms
          else None)
        divergences
    in
    incr runs;
    if run_effective then incr effective;
    if output_failure <> None then incr output_failures;
    (* Detection latency counts from the first actual corruption (a
       delayed model arms at [at] but fires later). *)
    let injected_at =
      Propane.Injection.first_fire_ms outcome.Propane.Results.injection
    in
    List.iter
      (fun acc ->
        let verdict = Detector.evaluate acc.det run in
        (* A firing only signals an error when it deviates from the
           detector's behaviour on this test case's golden run: a
           mis-calibrated assertion that fires identically on the
           reference carries no information. *)
        let golden_verdict =
          List.assoc outcome.Propane.Results.testcase acc.golden_verdicts
        in
        let deviates =
          verdict.Detector.fired
          && verdict.Detector.first_ms <> golden_verdict.Detector.first_ms
        in
        if deviates then begin
          acc.fired <- acc.fired + 1;
          if run_effective then begin
            acc.detections <- acc.detections + 1;
            match verdict.Detector.first_ms with
            | Some at when at >= injected_at ->
                acc.latency_total <- acc.latency_total + (at - injected_at);
                acc.latency_count <- acc.latency_count + 1
            | Some _ | None -> ()
          end
          else acc.false_alarms <- acc.false_alarms + 1;
          match (output_failure, verdict.Detector.first_ms) with
          | Some failed_at, Some fired_at when fired_at <= failed_at ->
              acc.timely <- acc.timely + 1
          | (Some _ | None), (Some _ | None) -> ()
        end)
      accs
  in
  let (_ : Propane.Results.t) =
    Propane.Runner.run
      ~config:(Propane.Runner.Config.make ~max_ms ~seed ())
      ~on_run_traces sut campaign
  in
  List.map
    (fun acc ->
      {
        detector = acc.det;
        golden_false_alarm = acc.golden_false_alarm;
        runs = !runs;
        effective = !effective;
        output_failures = !output_failures;
        fired = acc.fired;
        detections = acc.detections;
        false_alarms = acc.false_alarms;
        timely_output_detections = acc.timely;
        mean_latency_ms =
          (if acc.latency_count = 0 then None
           else
             Some
               (float_of_int acc.latency_total /. float_of_int acc.latency_count));
      })
    accs

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%a@,\
     fired %d/%d runs (%d detections, %d false alarms%s)@,\
     coverage %.3f; usefulness %.3f (%d of %d output failures caught in \
     time)%a@]"
    Detector.pp r.detector r.fired r.runs r.detections r.false_alarms
    (if r.golden_false_alarm then "; FIRES ON GOLDEN RUN" else "")
    (detection_coverage r) (usefulness r) r.timely_output_detections
    r.output_failures
    Fmt.(
      option (fun ppf l -> Fmt.pf ppf "@,mean detection latency %.1f ms" l))
    r.mean_latency_ms
