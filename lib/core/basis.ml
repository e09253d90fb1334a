(* The standard basis: the paper's built-in datatypes and the dependent
   signatures of the primitives (Sections 2.1, 2.3 and 3.1: "In the standard
   basis we have refined the types of many common functions on integers").

   The basis is ordinary surface syntax processed through the same pipeline
   as user code; only the primitive *implementations* live in the evaluator.

   [sub]/[update]/[nth]/[hd]/[tl] carry the dependent types that make run
   time checks redundant; the [..CK] variants are the always-checked
   versions used where the type system cannot discharge the obligation
   (Figure 5 uses [subCK] inside computePrefixFunction). *)

let source =
  {|
datatype 'a list = nil | :: of 'a * 'a list
typeref 'a list of nat with
  nil <| 'a list(0)
| :: <| {n:nat} 'a * 'a list(n) -> 'a list(n+1)

datatype order = LESS | EQUAL | GREATER
datatype 'a option = NONE | SOME of 'a

assert + <| {m:int} {n:int} int(m) * int(n) -> int(m+n)
and - <| {m:int} {n:int} int(m) * int(n) -> int(m-n)
and * <| {m:int} {n:int} int(m) * int(n) -> int(m*n)
and div <| {m:int} {n:int | n > 0} int(m) * int(n) -> int(div(m,n))
and mod <| {m:int} {n:int | n > 0} int(m) * int(n) -> int(mod(m,n))
and divCK <| int * int -> int
and modCK <| int * int -> int
and ~ <| {m:int} int(m) -> int(0-m)
and abs <| {m:int} int(m) -> int(abs(m))
and sgn <| {m:int} int(m) -> int(sgn(m))
and min <| {m:int} {n:int} int(m) * int(n) -> int(min(m,n))
and max <| {m:int} {n:int} int(m) * int(n) -> int(max(m,n))
and = <| {m:int} {n:int} int(m) * int(n) -> bool(m = n)
and <> <| {m:int} {n:int} int(m) * int(n) -> bool(m <> n)
and < <| {m:int} {n:int} int(m) * int(n) -> bool(m < n)
and <= <| {m:int} {n:int} int(m) * int(n) -> bool(m <= n)
and > <| {m:int} {n:int} int(m) * int(n) -> bool(m > n)
and >= <| {m:int} {n:int} int(m) * int(n) -> bool(m >= n)
and not <| {b:bool} bool(b) -> bool(~b)

assert length <| {n:nat} 'a array(n) -> int(n)
and array <| {n:nat} int(n) * 'a -> 'a array(n)
and sub <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a
and update <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) * 'a -> unit
and subCK <| 'a array * int -> 'a
and updateCK <| 'a array * int * 'a -> unit

assert nth <| {l:nat} {n:nat | n < l} 'a list(l) * int(n) -> 'a
and nthCK <| 'a list * int -> 'a
and hd <| {n:nat | n > 0} 'a list(n) -> 'a
and tl <| {n:nat | n > 0} 'a list(n) -> 'a list(n-1)
and hdCK <| 'a list -> 'a
and tlCK <| 'a list -> 'a list
and list_length <| {n:nat} 'a list(n) -> int(n)

assert print_int <| int -> unit
and print_bool <| bool -> unit
and print_newline <| unit -> unit

assert size <| {n:nat} string(n) -> int(n)
and string_sub <| {n:nat} {i:nat | i < n} string(n) * int(i) -> char
and string_subCK <| string * int -> char
and substring <| {n:nat} {i:nat} {l:nat | i + l <= n} string(n) * int(i) * int(l) -> string(l)
and substringCK <| string * int * int -> string
and ^ <| {m:nat} {n:nat} string(m) * string(n) -> string(m+n)
and ord <| char -> [i:nat | i < 256] int(i)
and chr <| {i:nat | i < 256} int(i) -> char
and chrCK <| int -> char
and ceq <| char * char -> bool
and clt <| char * char -> bool
and print <| string -> unit
and int_to_string <| int -> string

assert ref <| 'a -> 'a ref
and ! <| 'a ref -> 'a
and := <| 'a ref * 'a -> unit

exception Subscript
exception Div
|}

(* The primitives whose second operand is a divisor: the qualifier harvest
   ([Dml_infer.Qualifier]) tracks divisibility by their literal divisors. *)
let divisor_prims = [ "mod"; "modCK" ]
