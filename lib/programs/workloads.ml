(* Workload drivers for the Section 4 experiments.

   Each driver builds deterministic pseudo-random inputs, runs the benchmark
   program's entry point through a backend-agnostic executor, verifies the
   result against an OCaml reference implementation, and returns a
   deterministic one-line summary of what it computed.  The native backend's
   driver snippets ([Native_drivers]) compute the same summaries with plain
   OCaml arithmetic, so a generated binary's output can be compared against
   any host backend's byte-for-byte.  Workload sizes are scaled-down
   versions of the paper's (our substrate is an interpreter, not a 1998
   native compiler); the [scale] knob multiplies the iteration counts. *)

open Dml_eval
open Value

type exec = Backend.exec = { lookup : string -> Value.t }

let call = as_fun
let call2 f a b = as_fun (as_fun f a) b

(* Deterministic linear congruential generator (31-bit). *)
let make_rng seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

exception Verification_failure of string

let fail fmt = Format.kasprintf (fun msg -> raise (Verification_failure msg)) fmt

let check_eq name expected got =
  if not (Value.equal expected got) then
    fail "%s: expected %s, got %s" name (Value.to_string expected) (Value.to_string got)

(* summary hash over an int list — [Native_drivers] computes the same fold *)
let hash_int_list l = List.fold_left (fun h x -> ((h * 31) + x) mod 1000000007) 7 l
let sum_int_array a = Array.fold_left ( + ) 0 a

(* --- individual drivers ---------------------------------------------------- *)

(* paper: copy 1M bytes 10 times; ours: 64k ints, [4*scale] passes *)
let run_bcopy ex ~scale =
  let n = 65536 in
  let rng = make_rng 42 in
  let src = Array.init n (fun _ -> rng 256) in
  let vsrc = of_int_array src in
  let vdst = of_int_array (Array.make n 0) in
  let bcopy = ex.lookup "bcopy" in
  for _ = 1 to 4 * scale do
    ignore (call bcopy (Vtuple [| vsrc; vdst |]))
  done;
  check_eq "bcopy" vsrc vdst;
  Printf.sprintf "bcopy sum=%d" (sum_int_array (to_int_array vdst))

(* paper: 2^20 lookups in a 2^20 array; ours: 16384*scale lookups in 4096 *)
let run_bsearch ex ~scale =
  let n = 4096 in
  let rng = make_rng 7 in
  let sorted = Array.init n (fun i -> 3 * i) in
  let varr = of_int_array sorted in
  let bsearch = ex.lookup "bsearchInt" in
  let hits = ref 0 and misses = ref 0 and acc = ref 0 in
  for _ = 1 to 16384 * scale do
    let key = rng (3 * n) in
    let result = call bsearch (Vtuple [| Vint key; varr |]) in
    match result with
    | Vcon ({ name = "SOME"; _ }, Vtuple [| Vint i; Vint x |]) ->
        if sorted.(i) <> x || x <> key then fail "bsearch: wrong hit %d at %d" x i;
        incr hits;
        acc := !acc + i + x
    | Vtag { name = "NONE"; _ } ->
        if key mod 3 = 0 then fail "bsearch: missed %d" key;
        incr misses
    | v -> fail "bsearch: unexpected result %s" (Value.to_string v)
  done;
  Printf.sprintf "bsearch hits=%d misses=%d acc=%d" !hits !misses !acc

(* paper: bubble sort of 2^13 elements; ours: 512 elements, [scale] rounds *)
let run_bubblesort ex ~scale =
  let n = 512 in
  let bsort = ex.lookup "bsort" in
  let acc = ref 0 in
  for round = 1 to scale do
    let rng = make_rng (913 + round) in
    let data = Array.init n (fun _ -> rng 100000) in
    let varr = of_int_array data in
    ignore (call bsort varr);
    let reference = Array.copy data in
    Array.sort compare reference;
    check_eq "bubble sort" (of_int_array reference) varr;
    let s = to_int_array varr in
    acc := !acc + s.(0) + s.(n / 2) + s.(n - 1)
  done;
  Printf.sprintf "bsort acc=%d" !acc

(* paper: 256x256 matrices; ours: 48x48, [scale] products *)
let run_matmult ex ~scale =
  let m = 48 and n = 48 and p = 48 in
  let rng = make_rng 1234 in
  let a = Array.init m (fun _ -> Array.init n (fun _ -> rng 100)) in
  let b = Array.init n (fun _ -> Array.init p (fun _ -> rng 100)) in
  let matrix rows = Varray (Array.map of_int_array rows) in
  let va = matrix a and vb = matrix b in
  let vc = matrix (Array.init m (fun _ -> Array.make p 0)) in
  let matmult = ex.lookup "matmult" in
  for _ = 1 to scale do
    ignore (call matmult (Vtuple [| va; vb; vc |]))
  done;
  let reference =
    Array.init m (fun i ->
        Array.init p (fun j ->
            let acc = ref 0 in
            for k = 0 to n - 1 do
              acc := !acc + (a.(i).(k) * b.(k).(j))
            done;
            !acc))
  in
  check_eq "matmult" (matrix reference) vc;
  let sum =
    Array.fold_left (fun t row -> t + sum_int_array (to_int_array row)) 0 (as_array vc)
  in
  Printf.sprintf "matmult sum=%d" sum

(* paper: 12x12 board; ours: 8x8 ([scale] repetitions): 92 solutions *)
let run_queens ex ~scale =
  let queens = ex.lookup "queens" in
  let total = ref 0 in
  for _ = 1 to scale do
    let r = call queens (Vint 8) in
    check_eq "queens 8x8" (Vint 92) r;
    total := !total + as_int r
  done;
  Printf.sprintf "queens total=%d" !total

(* paper: 2^2x-element arrays from the SML/NJ library sort; ours: 20000 *)
let run_quicksort ex ~scale =
  let n = 20000 in
  let qsort = ex.lookup "qsort" in
  let acc = ref 0 in
  for round = 1 to scale do
    let rng = make_rng (5 + round) in
    let data = Array.init n (fun _ -> rng 1000000) in
    let varr = of_int_array data in
    ignore (call qsort varr);
    let reference = Array.copy data in
    Array.sort compare reference;
    check_eq "quick sort" (of_int_array reference) varr;
    let s = to_int_array varr in
    acc := !acc + s.(0) + s.(n / 2) + s.(n - 1)
  done;
  Printf.sprintf "qsort acc=%d" !acc

(* paper: 24 disks; ours: 16 disks = 65535 moves, [scale] repetitions *)
let run_hanoi ex ~scale =
  let hanoi = ex.lookup "hanoi" in
  let trace = of_int_array (Array.make 1024 0) in
  let count = ref 0 in
  for _ = 1 to scale do
    let heights = of_int_array [| 16; 0; 0 |] in
    let r = call hanoi (Vtuple [| trace; heights; Vint 16 |]) in
    check_eq "hanoi 16" (Vint 65535) r;
    count := as_int r;
    (* all disks end on the target pole *)
    check_eq "hanoi final heights" (of_int_array [| 0; 0; 16 |]) heights
  done;
  Printf.sprintf "hanoi count=%d trace=%d" !count (sum_int_array (to_int_array trace))

(* paper: first 16 elements of a list, 2^20 accesses; ours: 4096*scale calls *)
let run_listaccess ex ~scale =
  let rng = make_rng 99 in
  let elems = List.init 64 (fun _ -> rng 1000) in
  let expected =
    List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 16) elems)
  in
  let vlist = of_int_list elems in
  let access16 = ex.lookup "access16" in
  let acc = ref 0 in
  for _ = 1 to 4096 * scale do
    let r = call access16 vlist in
    check_eq "list access" (Vint expected) r;
    acc := !acc + as_int r
  done;
  Printf.sprintf "access16 acc=%d" !acc

(* dot product of two 10000-element arrays, [16*scale] times *)
let run_dotprod ex ~scale =
  let n = 10000 in
  let rng = make_rng 3 in
  let a = Array.init n (fun _ -> rng 100) in
  let b = Array.init (n + 3) (fun _ -> rng 100) in
  let expected = ref 0 in
  Array.iteri (fun i x -> expected := !expected + (x * b.(i))) a;
  let va = of_int_array a and vb = of_int_array b in
  let dotprod = ex.lookup "dotprod" in
  let acc = ref 0 in
  for _ = 1 to 16 * scale do
    let r = call dotprod (Vtuple [| va; vb |]) in
    check_eq "dotprod" (Vint !expected) r;
    acc := !acc + as_int r
  done;
  Printf.sprintf "dotprod acc=%d" !acc

(* reverse a 30000-element list, [8*scale] times *)
let run_reverse ex ~scale =
  let elems = List.init 30000 (fun i -> i * 7) in
  let vlist = of_int_list elems in
  let expected = of_int_list (List.rev elems) in
  let reverse = ex.lookup "reverse" in
  let acc = ref 0 and len = ref 0 in
  for _ = 1 to 8 * scale do
    let r = call reverse vlist in
    check_eq "reverse" expected r;
    let ints = to_int_list r in
    len := List.length ints;
    acc := (!acc + hash_int_list ints) mod 1000000007
  done;
  Printf.sprintf "reverse len=%d acc=%d" !len !acc

(* filter evens out of a 10000-element list, [8*scale] times *)
let run_filter ex ~scale =
  let rng = make_rng 17 in
  let elems = List.init 10000 (fun _ -> rng 1000) in
  let vlist = of_int_list elems in
  let expected = of_int_list (List.filter (fun x -> x mod 2 = 0) elems) in
  let filter = ex.lookup "filter" in
  let even = Vfun (fun v -> Vbool (as_int v mod 2 = 0)) in
  let acc = ref 0 and len = ref 0 in
  for _ = 1 to 8 * scale do
    let r = call2 filter even vlist in
    check_eq "filter" expected r;
    let ints = to_int_list r in
    len := List.length ints;
    acc := (!acc + hash_int_list ints) mod 1000000007
  done;
  Printf.sprintf "filter len=%d acc=%d" !len !acc

(* KMP: search a 40000-character text for patterns, [scale] rounds *)
let run_kmp ex ~scale =
  let kmp = ex.lookup "kmpMatch" in
  let reference_search text pat =
    let n = Array.length text and m = Array.length pat in
    let rec at s =
      if s + m > n then -1
      else begin
        let rec eq k = k = m || (text.(s + k) = pat.(k) && eq (k + 1)) in
        if eq 0 then s else at (s + 1)
      end
    in
    at 0
  in
  let chk = ref 0 in
  for round = 1 to scale do
    let rng = make_rng (31 + round) in
    let text = Array.init 40000 (fun _ -> rng 4) in
    let vtext = of_int_array text in
    for trial = 0 to 8 do
      let pat =
        if trial < 4 then Array.init (4 + trial) (fun _ -> rng 4)
        else if trial = 8 then Array.sub text (Array.length text - 9) 9 (* end-of-text match *)
        else Array.sub text (rng 39000) (5 + trial)
      in
      let expected = reference_search text pat in
      let got = as_int (call kmp (Vtuple [| vtext; of_int_array pat |])) in
      if got <> expected then fail "kmp: expected %d, got %d" expected got;
      chk := ((!chk * 131) + got + 2) mod 1000000007
    done
  done;
  Printf.sprintf "kmp chk=%d" !chk
