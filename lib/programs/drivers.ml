(* Workload drivers for the Section 4 experiments, written once for every
   backend (see drivers.mli).

   This file must depend on the OCaml standard library alone: the native
   backend compiles its text into every generated program ([Native_drivers]
   embeds it through a dune rule), so the host and native runs of a kernel
   share inputs, RNG call order and summary arithmetic by construction. *)

exception Verification_failure of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Verification_failure msg)) fmt

(* Deterministic linear congruential generator (31-bit). *)
let make_rng seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

module type REPR = sig
  type arr
  type mat
  type lst

  val of_array : int array -> arr
  val to_array : arr -> int array
  val of_matrix : int array array -> mat
  val to_matrix : mat -> int array array
  val of_list : int list -> lst
  val fold : ('a -> int -> 'a) -> 'a -> lst -> 'a
  val verify : bool
end

(* first index of [pat] in [text], or -1: the KMP reference *)
let naive_search text pat =
  let n = Array.length text and m = Array.length pat in
  let rec at s =
    if s + m > n then -1
    else
      let rec eq k = k = m || (text.(s + k) = pat.(k) && eq (k + 1)) in
      if eq 0 then s else at (s + 1)
  in
  at 0

module Make (K : REPR) = struct
  let sum a = Array.fold_left ( + ) 0 a
  let to_list l = List.rev (K.fold (fun t x -> x :: t) [] l)
  let length l = K.fold (fun k _ -> k + 1) 0 l
  let hash l = K.fold (fun h x -> ((h * 31) + x) mod 1000000007) 7 l

  (* paper: copy 1M bytes 10 times; ours: 64k ints, [4*scale] passes *)
  let bcopy entry scale =
    let n = 65536 in
    let rng = make_rng 42 in
    let src = Array.init n (fun _ -> rng 256) in
    let vsrc = K.of_array src and vdst = K.of_array (Array.make n 0) in
    for _ = 1 to 4 * scale do
      entry (vsrc, vdst)
    done;
    let dst = K.to_array vdst in
    if K.verify && dst <> src then fail "bcopy: the destination differs from the source";
    Printf.sprintf "bcopy sum=%d" (sum dst)

  (* paper: 2^20 lookups in a 2^20 array; ours: 16384*scale lookups in 4096 *)
  let bsearch entry scale =
    let n = 4096 in
    let rng = make_rng 7 in
    let arr = K.of_array (Array.init n (fun i -> 3 * i)) in
    let hits = ref 0 and misses = ref 0 and acc = ref 0 in
    for _ = 1 to 16384 * scale do
      let key = rng (3 * n) in
      match entry (key, arr) with
      | Some (i, x) ->
          if K.verify && (x <> key || 3 * i <> key) then fail "bsearch: wrong hit %d at %d" x i;
          incr hits;
          acc := !acc + i + x
      | None ->
          if K.verify && key mod 3 = 0 then fail "bsearch: missed %d" key;
          incr misses
    done;
    Printf.sprintf "bsearch hits=%d misses=%d acc=%d" !hits !misses !acc

  (* [scale] rounds of sorting [n] fresh values in place; the sum of the
     first, middle and last sorted elements over all rounds *)
  let sort_rounds label ~n ~bound ~seed entry scale =
    let acc = ref 0 in
    for round = 1 to scale do
      let rng = make_rng (seed + round) in
      let data = Array.init n (fun _ -> rng bound) in
      let arr = K.of_array data in
      entry arr;
      let s = K.to_array arr in
      if K.verify then begin
        let reference = Array.copy data in
        Array.sort compare reference;
        if s <> reference then fail "%s: the result is not the sorted input" label
      end;
      acc := !acc + s.(0) + s.(n / 2) + s.(n - 1)
    done;
    !acc

  (* paper: bubble sort of 2^13 elements; ours: 512 elements, [scale] rounds *)
  let bubblesort entry scale =
    Printf.sprintf "bsort acc=%d" (sort_rounds "bubble sort" ~n:512 ~bound:100000 ~seed:913 entry scale)

  (* paper: 2^20-element arrays from the SML/NJ library sort; ours: 20000 *)
  let quicksort entry scale =
    Printf.sprintf "qsort acc=%d" (sort_rounds "quick sort" ~n:20000 ~bound:1000000 ~seed:5 entry scale)

  (* paper: 256x256 matrices; ours: 48x48, [scale] products *)
  let matmult entry scale =
    let m = 48 and n = 48 and p = 48 in
    let rng = make_rng 1234 in
    let a = Array.init m (fun _ -> Array.init n (fun _ -> rng 100)) in
    let b = Array.init n (fun _ -> Array.init p (fun _ -> rng 100)) in
    let va = K.of_matrix a and vb = K.of_matrix b in
    let vc = K.of_matrix (Array.init m (fun _ -> Array.make p 0)) in
    for _ = 1 to scale do
      entry (va, vb, vc)
    done;
    let c = K.to_matrix vc in
    if K.verify then begin
      let dot i j =
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc := !acc + (a.(i).(k) * b.(k).(j))
        done;
        !acc
      in
      if c <> Array.init m (fun i -> Array.init p (dot i)) then fail "matmult: wrong product"
    end;
    Printf.sprintf "matmult sum=%d" (Array.fold_left (fun t row -> t + sum row) 0 c)

  (* paper: 12x12 board; ours: 8x8 ([scale] repetitions): 92 solutions *)
  let queens entry scale =
    let total = ref 0 in
    for _ = 1 to scale do
      let r = entry 8 in
      if K.verify && r <> 92 then fail "queens 8x8: expected 92, got %d" r;
      total := !total + r
    done;
    Printf.sprintf "queens total=%d" !total

  (* paper: 24 disks; ours: 16 disks = 65535 moves, [scale] repetitions *)
  let hanoi entry scale =
    let trace = K.of_array (Array.make 1024 0) in
    let count = ref 0 in
    for _ = 1 to scale do
      let heights = K.of_array [| 16; 0; 0 |] in
      count := entry (trace, heights, 16);
      if K.verify && !count <> 65535 then fail "hanoi 16: expected 65535 moves, got %d" !count;
      (* all disks end on the target pole *)
      if K.verify && K.to_array heights <> [| 0; 0; 16 |] then fail "hanoi 16: wrong final heights"
    done;
    Printf.sprintf "hanoi count=%d trace=%d" !count (sum (K.to_array trace))

  (* paper: first 16 elements of a list, 2^20 accesses; ours: 4096*scale calls *)
  let listaccess entry scale =
    let rng = make_rng 99 in
    let elems = List.init 64 (fun _ -> rng 1000) in
    let expected =
      if K.verify then List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 16) elems) else 0
    in
    let l = K.of_list elems in
    let acc = ref 0 in
    for _ = 1 to 4096 * scale do
      let r = entry l in
      if K.verify && r <> expected then fail "list access: expected %d, got %d" expected r;
      acc := !acc + r
    done;
    Printf.sprintf "access16 acc=%d" !acc

  (* dot product of two 10000-element arrays, [16*scale] times *)
  let dotprod entry scale =
    let n = 10000 in
    let rng = make_rng 3 in
    let a = Array.init n (fun _ -> rng 100) in
    let b = Array.init (n + 3) (fun _ -> rng 100) in
    let expected = ref 0 in
    if K.verify then Array.iteri (fun i x -> expected := !expected + (x * b.(i))) a;
    let va = K.of_array a and vb = K.of_array b in
    let acc = ref 0 in
    for _ = 1 to 16 * scale do
      let r = entry (va, vb) in
      if K.verify && r <> !expected then fail "dotprod: expected %d, got %d" !expected r;
      acc := !acc + r
    done;
    Printf.sprintf "dotprod acc=%d" !acc

  (* [8*scale] calls of a list-to-list kernel; the last result's length and
     the sum of the results' hashes *)
  let list_rounds label ~expected entry l scale =
    let acc = ref 0 and len = ref 0 in
    for _ = 1 to 8 * scale do
      let r = entry l in
      if K.verify && to_list r <> expected then fail "%s: wrong result" label;
      len := length r;
      acc := (!acc + hash r) mod 1000000007
    done;
    (!len, !acc)

  (* reverse a 30000-element list, [8*scale] times *)
  let reverse entry scale =
    let elems = List.init 30000 (fun i -> i * 7) in
    let expected = if K.verify then List.rev elems else [] in
    let len, acc = list_rounds "reverse" ~expected entry (K.of_list elems) scale in
    Printf.sprintf "reverse len=%d acc=%d" len acc

  (* filter evens out of a 10000-element list, [8*scale] times *)
  let filter entry scale =
    let rng = make_rng 17 in
    let elems = List.init 10000 (fun _ -> rng 1000) in
    let even x = x mod 2 = 0 in
    let expected = if K.verify then List.filter even elems else [] in
    let len, acc = list_rounds "filter" ~expected (entry even) (K.of_list elems) scale in
    Printf.sprintf "filter len=%d acc=%d" len acc

  (* KMP: search a 40000-character text for patterns, [scale] rounds *)
  let kmp entry scale =
    let chk = ref 0 in
    for round = 1 to scale do
      let rng = make_rng (31 + round) in
      let text = Array.init 40000 (fun _ -> rng 4) in
      let vtext = K.of_array text in
      for trial = 0 to 8 do
        let pat =
          if trial < 4 then Array.init (4 + trial) (fun _ -> rng 4)
          else if trial = 8 then Array.sub text (Array.length text - 9) 9 (* end-of-text match *)
          else Array.sub text (rng 39000) (5 + trial)
        in
        let got = entry (vtext, K.of_array pat) in
        if K.verify then begin
          let expected = naive_search text pat in
          if got <> expected then fail "kmp: expected %d, got %d" expected got
        end;
        chk := ((!chk * 131) + got + 2) mod 1000000007
      done
    done;
    Printf.sprintf "kmp chk=%d" !chk
end
