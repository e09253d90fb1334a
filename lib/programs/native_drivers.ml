(* The native instance of [Drivers]: its text, compiled after the generated
   program, applied to the program's own array and list types.  Only the
   one-line entries below name mangled identifiers ([Codegen.mangle_var]
   etc.). *)

let instance =
  format_of_string
    {|
module Dml_drivers = struct
%s
end
module D = Dml_drivers.Make (struct
  type arr = int array
  type mat = int array array
  type lst = int t_list
  let of_array a = a
  let to_array a = a
  let of_matrix m = m
  let to_matrix m = m
  let rec of_list = function [] -> C_nil | x :: r -> C_3a3a (x, of_list r)
  let rec fold f acc l = match l with C_nil -> acc | C_3a3a (x, r) -> fold f (f acc x) r
  let verify = false
end)
let dml_run = D.%s (%s)
|}

let entries =
  [
    ("bcopy", ("bcopy", "fun a -> ignore (v_bcopy a)"));
    ("binary search", ("bsearch", "fun a -> match v_bsearchInt a with C_SOME p -> Some p | C_NONE -> None"));
    ("bubble sort", ("bubblesort", "fun a -> ignore (v_bsort a)"));
    ("matrix mult", ("matmult", "fun a -> ignore (v_matmult a)"));
    ("queen", ("queens", "v_queens"));
    ("quick sort", ("quicksort", "fun a -> ignore (v_qsort a)"));
    ("hanoi towers", ("hanoi", "v_hanoi"));
    ("list access", ("listaccess", "v_access16"));
    ("dotprod", ("dotprod", "v_dotprod"));
    ("reverse", ("reverse", "v_reverse"));
    ("filter", ("filter", "v_filter"));
    ("kmp", ("kmp", "v_kmpMatch"));
  ]

let find name =
  Option.map
    (fun (kernel, entry) -> Printf.sprintf instance Drivers_text.text kernel entry)
    (List.assoc_opt name entries)
