type t = { value : float; n_err : int; n_inj : int; lo : float; hi : float }

(* Invariant: 0 <= lo <= value <= hi, no NaN; counts are non-negative
   with n_err <= n_inj, and both are 0 unless the estimate came from
   [of_counts]. *)

let wilson_interval ~errors ~trials =
  if errors < 0 || trials < 0 || errors > trials then
    invalid_arg "Estimate.wilson_interval: need 0 <= errors <= trials";
  if trials = 0 then (0.0, 1.0)
  else
    let z = 1.959963984540054 (* 97.5th percentile of N(0,1) *) in
    let n = float_of_int trials in
    let p = float_of_int errors /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let spread = z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) in
    (* In exact arithmetic the interval lies within [0, 1] and contains
       p, but at the boundaries (errors = 0 or errors = trials)
       floating-point rounding can push an endpoint a few ulps past
       either property; clamp so both always hold. *)
    ( Float.max 0.0 (Float.min p ((centre -. spread) /. denom)),
      Float.min 1.0 (Float.max p ((centre +. spread) /. denom)) )

let exact v =
  if Float.is_nan v || v < 0.0 || v > 1.0 then
    invalid_arg (Printf.sprintf "Estimate.exact: value %g not in [0,1]" v);
  { value = v; n_err = 0; n_inj = 0; lo = v; hi = v }

let of_counts ~errors ~trials =
  let lo, hi = wilson_interval ~errors ~trials in
  let value =
    if trials = 0 then 0.0 else float_of_int errors /. float_of_int trials
  in
  (* The Wilson interval always contains the point estimate, but keep
     the invariant robust against rounding at the boundaries. *)
  {
    value;
    n_err = errors;
    n_inj = trials;
    lo = Float.min lo value;
    hi = Float.max hi value;
  }

let value t = t.value
let interval t = (t.lo, t.hi)
let width t = t.hi -. t.lo
let is_measured t = t.n_inj > 0
let zero = exact 0.0
let one = exact 1.0

(* Derived estimates: values and bounds propagate, counts do not. *)
let derived ~value ~lo ~hi = { value; n_err = 0; n_inj = 0; lo; hi }

let mul a b =
  derived ~value:(a.value *. b.value) ~lo:(a.lo *. b.lo) ~hi:(a.hi *. b.hi)

let add a b =
  derived ~value:(a.value +. b.value) ~lo:(a.lo +. b.lo) ~hi:(a.hi +. b.hi)

let prod = List.fold_left mul one
let sum = List.fold_left add zero

let scale f t =
  if Float.is_nan f || f < 0.0 then
    invalid_arg "Estimate.scale: factor must be non-negative";
  derived ~value:(f *. t.value) ~lo:(f *. t.lo) ~hi:(f *. t.hi)

let overlaps a b = a.lo <= b.hi && b.lo <= a.hi
let separated a b = not (overlaps a b)

let equal ?(eps = 1e-12) a b =
  a.n_err = b.n_err && a.n_inj = b.n_inj
  && Float.abs (a.value -. b.value) <= eps
  && Float.abs (a.lo -. b.lo) <= eps
  && Float.abs (a.hi -. b.hi) <= eps
