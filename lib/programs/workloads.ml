(* The host instance of [Drivers]: kernels run through a backend-agnostic
   executor over [Value.t], with every result verified.  Each adapter looks
   its entry point up once and keeps the call shape the cost model's cycle
   counts were taken with (one tuple argument, or curried for [filter]). *)

open Dml_eval
open Value

type exec = Backend.exec = { lookup : string -> Value.t }

exception Verification_failure = Drivers.Verification_failure

module D = Drivers.Make (struct
  type arr = Value.t
  type mat = Value.t
  type lst = Value.t

  let of_array = of_int_array
  let to_array = to_int_array
  let of_matrix rows = Varray (Array.map of_int_array rows)
  let to_matrix m = Array.map to_int_array (as_array m)
  let of_list = of_int_list

  let rec fold f acc = function
    | Vcon (_, Vtuple [| Vint x; rest |]) -> fold f (f acc x) rest
    | Vtag _ -> acc
    | v -> raise (Verification_failure ("expected an int list, got " ^ Value.to_string v))

  let verify = true
end)

let call ex name = as_fun (ex.lookup name)

let run_bcopy ex ~scale =
  let f = call ex "bcopy" in
  D.bcopy (fun (s, d) -> ignore (f (Vtuple [| s; d |]))) scale

let run_bsearch ex ~scale =
  let f = call ex "bsearchInt" in
  let entry (key, a) =
    match f (Vtuple [| Vint key; a |]) with
    | Vcon ({ name = "SOME"; _ }, Vtuple [| Vint i; Vint x |]) -> Some (i, x)
    | Vtag { name = "NONE"; _ } -> None
    | v -> raise (Verification_failure ("bsearch: unexpected result " ^ Value.to_string v))
  in
  D.bsearch entry scale

let run_bubblesort ex ~scale =
  let f = call ex "bsort" in
  D.bubblesort (fun a -> ignore (f a)) scale

let run_matmult ex ~scale =
  let f = call ex "matmult" in
  D.matmult (fun (a, b, c) -> ignore (f (Vtuple [| a; b; c |]))) scale

let run_queens ex ~scale =
  let f = call ex "queens" in
  D.queens (fun n -> as_int (f (Vint n))) scale

let run_quicksort ex ~scale =
  let f = call ex "qsort" in
  D.quicksort (fun a -> ignore (f a)) scale

let run_hanoi ex ~scale =
  let f = call ex "hanoi" in
  D.hanoi (fun (trace, heights, n) -> as_int (f (Vtuple [| trace; heights; Vint n |]))) scale

let run_listaccess ex ~scale =
  let f = call ex "access16" in
  D.listaccess (fun l -> as_int (f l)) scale

let run_dotprod ex ~scale =
  let f = call ex "dotprod" in
  D.dotprod (fun (a, b) -> as_int (f (Vtuple [| a; b |]))) scale

let run_reverse ex ~scale = D.reverse (call ex "reverse") scale

let run_filter ex ~scale =
  let f = call ex "filter" in
  D.filter (fun p -> let vp = Vfun (fun v -> Vbool (p (as_int v))) in fun l -> as_fun (f vp) l) scale

let run_kmp ex ~scale =
  let f = call ex "kmpMatch" in
  D.kmp (fun (text, pat) -> as_int (f (Vtuple [| text; pat |]))) scale
