(** The host instance of {!Drivers}: each Section 4 kernel run through a
    backend-agnostic executor, every result verified against an OCaml
    reference implementation (a failing run raises {!Verification_failure}).
    A driver returns the kernel's deterministic one-line summary, the same
    line the native instance ({!Native_drivers}) prints; [scale] multiplies
    the iteration counts. *)

type exec = Dml_eval.Backend.exec = { lookup : string -> Dml_eval.Value.t }

exception Verification_failure of string

val run_bcopy : exec -> scale:int -> string
val run_bsearch : exec -> scale:int -> string
val run_bubblesort : exec -> scale:int -> string
val run_matmult : exec -> scale:int -> string
val run_queens : exec -> scale:int -> string
val run_quicksort : exec -> scale:int -> string
val run_hanoi : exec -> scale:int -> string
val run_listaccess : exec -> scale:int -> string
val run_dotprod : exec -> scale:int -> string
val run_reverse : exec -> scale:int -> string
val run_filter : exec -> scale:int -> string
val run_kmp : exec -> scale:int -> string
