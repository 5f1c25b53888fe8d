type t = { name : string; signal : string; assertions : Assertion.t list }

let make ~name ~signal assertions =
  if String.length name = 0 then invalid_arg "Detector.make: empty name";
  if String.length signal = 0 then invalid_arg "Detector.make: empty signal";
  if assertions = [] then invalid_arg "Detector.make: no assertions";
  { name; signal; assertions }

type verdict = { fired : bool; first_ms : int option }

let evaluate t traces =
  let sample = Propane.Trace_set.get traces t.signal in
  let n = Propane.Trace_set.duration_ms traces in
  let rec go prev j =
    if j >= n then { fired = false; first_ms = None }
    else
      let v = sample j in
      if List.for_all (fun a -> Assertion.check a ~prev v) t.assertions then
        go (Some v) (j + 1)
      else { fired = true; first_ms = Some j }
  in
  go None 0

let pp ppf t =
  Fmt.pf ppf "@[<h>%s on %s: %a@]" t.name t.signal
    Fmt.(list ~sep:comma Assertion.pp)
    t.assertions
