type t = { name : string; id : int }

let counter = ref 0

let fresh name =
  incr counter;
  { name; id = !counter }

let refresh v = fresh v.name
let name v = v.name
let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id

let to_string v = v.name
let pp fmt v = Format.pp_print_string fmt v.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
