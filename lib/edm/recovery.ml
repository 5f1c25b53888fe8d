type t =
  | Clamp of { lo : int; hi : int }
  | Hold_last_if of Assertion.t
  | Forward

let make_guard t () =
  match t with
  | Forward -> fun v -> v
  | Clamp { lo; hi } -> fun v -> max lo (min hi v)
  | Hold_last_if assertion ->
      let last = ref None in
      fun v ->
        if Assertion.check assertion ~prev:!last v then begin
          last := Some v;
          v
        end
        else Option.value ~default:0 !last
