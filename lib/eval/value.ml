type con = { tag : int; name : string }

type t =
  | Vint of int
  | Vbool of bool
  | Vchar of char
  | Vstring of string
  | Vtuple of t array
  | Varray of t array
  | Vtag of con
  | Vcon of con * t
  | Vfun of (t -> t)
  | Vref of t ref

exception Runtime_error of string

exception Dml_exn of t
(* a raised surface-language exception value (a [Vtag] or [Vcon]) *)

exception Subscript
(* a failed run-time bound/tag check (defined here so [handle] can observe
   it; re-exported by Prims) *)

(* [datatype 'a list = nil | :: of 'a * 'a list] in the basis *)
let nil = { tag = 0; name = "nil" }
let cons = { tag = 1; name = "::" }
let subscript_exn = { tag = 0; name = "Subscript" }
let div_exn = { tag = 1; name = "Div" }

let err fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

let as_int = function Vint n -> n | v -> err "expected an integer, got %s" (match v with Vbool _ -> "a boolean" | _ -> "a non-integer")
let as_bool = function Vbool b -> b | _ -> err "expected a boolean"
let as_char = function Vchar c -> c | _ -> err "expected a character"
let as_string = function Vstring s -> s | _ -> err "expected a string"
let as_array = function Varray a -> a | _ -> err "expected an array"
let as_fun = function Vfun f -> f | _ -> err "expected a function"

let of_bool b = if b then Vbool true else Vbool false
let chars = Array.init 256 (fun i -> Vchar (Char.chr i))
let of_char c = Array.unsafe_get chars (Char.code c)

let unit_v = Vtuple [||]

let of_int_list l = List.fold_right (fun x acc -> Vcon (cons, Vtuple [| Vint x; acc |])) l (Vtag nil)

let rec to_int_list = function
  | Vtag { tag = 0; _ } -> []
  | Vcon ({ tag = 1; _ }, Vtuple [| Vint x; rest |]) -> x :: to_int_list rest
  | _ -> err "expected an int list"

let of_int_array a = Varray (Array.map (fun x -> Vint x) a)

let to_int_array v =
  match v with Varray a -> Array.map as_int a | _ -> err "expected an array"

let same_con c1 c2 = c1.tag = c2.tag && String.equal c1.name c2.name

let rec equal a b =
  let rec arrays xs ys i = i = Array.length xs || (equal xs.(i) ys.(i) && arrays xs ys (i + 1)) in
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vchar x, Vchar y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vtuple xs, Vtuple ys | Varray xs, Varray ys -> Array.length xs = Array.length ys && arrays xs ys 0
  | Vtag c1, Vtag c2 -> same_con c1 c2
  | Vcon (c1, x), Vcon (c2, y) -> same_con c1 c2 && equal x y
  | Vfun _, Vfun _ -> false
  | Vref a, Vref b -> equal !a !b
  | (Vint _ | Vbool _ | Vchar _ | Vstring _ | Vtuple _ | Varray _ | Vtag _ | Vcon _ | Vfun _ | Vref _), _
    ->
      false

let rec pp fmt = function
  | Vint n -> Format.fprintf fmt "%d" n
  | Vbool b -> Format.pp_print_bool fmt b
  | Vchar c -> Format.fprintf fmt "#%C" c
  | Vstring s -> Format.fprintf fmt "%S" s
  | Vtuple [||] -> Format.pp_print_string fmt "()"
  | Vtuple vs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp)
        (Array.to_list vs)
  | Varray a ->
      Format.fprintf fmt "[|%a|]"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp)
        (Array.to_list a)
  | Vtag c -> Format.pp_print_string fmt c.name
  | Vcon ({ name = "::"; _ }, Vtuple [| h; t |]) -> Format.fprintf fmt "%a :: %a" pp h pp t
  | Vcon (c, v) -> Format.fprintf fmt "%s %a" c.name pp v
  | Vfun _ -> Format.pp_print_string fmt "<fun>"
  | Vref r -> Format.fprintf fmt "ref %a" pp !r

let to_string v = Format.asprintf "%a" pp v

(* The runtime exceptions a [handle] can observe, as exception values.  The
   basis declares the corresponding constructors. *)
let exn_value_of = function
  | Dml_exn v -> Some v
  | Subscript -> Some (Vtag subscript_exn)
  | Division_by_zero -> Some (Vtag div_exn)
  | _ -> None
