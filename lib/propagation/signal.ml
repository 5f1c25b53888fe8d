type kind = Data | Hardware_register | Clock

type t = { name : string; kind : kind }

let make ?(kind = Data) name =
  if String.length name = 0 then invalid_arg "Signal.make: empty name";
  { name; kind }

let name t = t.name
let kind t = t.kind
let equal a b = String.equal a.name b.name
let compare a b = String.compare a.name b.name
let hash t = Hashtbl.hash t.name

let pp ppf t = Fmt.string ppf t.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
