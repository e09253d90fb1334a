open Value

type mode = Checked | Unchecked

type counters = {
  mutable dynamic_checks : int;
  mutable eliminated_checks : int;
  mutable cycles : int;
      (* virtual cycles accumulated by the cost model ({!Compile.initial_costed});
         primitives add their documented costs here when counters are given *)
}

let new_counters () = { dynamic_checks = 0; eliminated_checks = 0; cycles = 0 }

(* Registry mirrors: the per-run [counters] record stays the per-measurement
   view, while the registry accumulates over the process.  Only instrumented
   runs (counters given) pay for the mirror — the timed benchmark runs pass
   no counters and run the implementations with no counting wrapper. *)
let m_dynamic_checks = Dml_obs.Metrics.counter "eval.dynamic_checks"
let m_eliminated_checks = Dml_obs.Metrics.counter "eval.eliminated_checks"
let m_cycles = Dml_obs.Metrics.counter "eval.cycles"

(* Cost model (virtual cycles, late-90s RISC granularity): a bounds check is
   a pair of compare-and-branch instructions. *)
let check_cost = 2
let step_cost = 2 (* one list-cell traversal: load + test *)

exception Subscript = Value.Subscript

type fast =
  | F1 of (Value.t -> Value.t)
  | F2 of (Value.t -> Value.t -> Value.t)
  | F3 of (Value.t -> Value.t -> Value.t -> Value.t)
  | I1 of (int -> int)
  | I2 of (int -> int -> int)
  | C2 of (int -> int -> bool)
  | B1 of (bool -> bool)
  | N1 of (Value.t -> int)
  | X2 of (Value.t -> int -> Value.t)
  | X3 of (Value.t -> int -> Value.t -> Value.t)

type native = Expr of string | Helper of string * string option
type prim = { name : string; arity : int; flat_cost : int; native : native }

let arity = function
  | F1 _ | I1 _ | B1 _ | N1 _ -> 1
  | F2 _ | I2 _ | C2 _ | X2 _ -> 2
  | F3 _ | X3 _ -> 3

(* [before note f]: [f], calling [note] on entry to every invocation. *)
let[@inline] before note = function
  | F1 g ->
      F1
        (fun a ->
          note ();
          g a)
  | F2 g ->
      F2
        (fun a b ->
          note ();
          g a b)
  | F3 g ->
      F3
        (fun a b c ->
          note ();
          g a b c)
  | I1 g ->
      I1
        (fun a ->
          note ();
          g a)
  | I2 g ->
      I2
        (fun a b ->
          note ();
          g a b)
  | C2 g ->
      C2
        (fun a b ->
          note ();
          g a b)
  | B1 g ->
      B1
        (fun a ->
          note ();
          g a)
  | N1 g ->
      N1
        (fun a ->
          note ();
          g a)
  | X2 g ->
      X2
        (fun a i ->
          note ();
          g a i)
  | X3 g ->
      X3
        (fun a i v ->
          note ();
          g a i v)

(* The bounds test of the checked access discipline.  Kept out-of-line: a
   safe runtime's generic accessor performs the test in library code, and
   the paper's platforms paid a comparable per-access penalty (which is what
   made eliminating the checks worth 20-50%% of the run time). *)
let[@inline never] bounds_check a i =
  if i < 0 || i >= Array.length a then raise Subscript

(* SML's div and mod round towards negative infinity. *)
let fdiv a b = if b = 0 then raise Division_by_zero else (a - (((a mod b) + b) mod b)) / b
let fmod a b = if b = 0 then raise Division_by_zero else ((a mod b) + b) mod b

(* [Value.as_array], inlined into the array access paths below (the dev
   build compiles with -opaque: no call into another module is inlined). *)
let[@inline] arr = function Varray a -> a | v -> as_array v

let rec list_length acc = function
  | Vtag _ -> acc
  | Vcon (_, Vtuple [| _; t |]) -> list_length (acc + 1) t
  | _ -> raise (Runtime_error "list expected")

(* What one call of an access primitive counts: one executed check, one
   eliminated check, or one of either per list cell walked ([nth]). *)
type count = Pure | Check | Elim | Walk_check | Walk_elim

let count_check c =
  c.dynamic_checks <- c.dynamic_checks + 1;
  c.cycles <- c.cycles + check_cost;
  Dml_obs.Metrics.incr m_dynamic_checks;
  Dml_obs.Metrics.incr ~by:check_cost m_cycles

let count_eliminated c =
  c.eliminated_checks <- c.eliminated_checks + 1;
  Dml_obs.Metrics.incr m_eliminated_checks

let count_steps c ~checked n =
  for _ = 1 to n do
    if checked then count_check c else count_eliminated c;
    c.cycles <- c.cycles + step_cost;
    Dml_obs.Metrics.incr ~by:step_cost m_cycles
  done

(* [f] counting into [c] as [count] says.  A walk of [nth(l, i)] visits
   cells 0..i, or every cell and the final [nil] when the checked walk runs
   off the end. *)
let counting c count f =
  match (count, f) with
  | Pure, f -> f
  | Check, f -> before (fun () -> count_check c) f
  | Elim, f -> before (fun () -> count_eliminated c) f
  | (Walk_check | Walk_elim), X2 g ->
      let checked = count = Walk_check in
      X2
        (fun l i ->
          match g l i with
          | v ->
              count_steps c ~checked (i + 1);
              v
          | exception Subscript when i >= 0 ->
              count_steps c ~checked (list_length 0 l + 1);
              raise Subscript)
  | (Walk_check | Walk_elim), _ -> invalid_arg "Prims.counting"

(* The rows of one discipline: each primitive's descriptor, its
   implementation under [mode] and what a call of it counts. *)
let table mode =
  (* The two access disciplines: the checked versions perform the bounds
     comparison and raise, as SML's safe subscript operations do; the
     unchecked versions go straight to memory (sound only after elaboration
     has discharged the obligation). *)
  let checked_sub =
    X2
      (fun a i ->
        let a = arr a in
        bounds_check a i;
        Array.unsafe_get a i)
  in
  let unchecked_sub = X2 (fun a i -> Array.unsafe_get (arr a) i) in
  let checked_update =
    X3
      (fun a i v ->
        let a = arr a in
        bounds_check a i;
        Array.unsafe_set a i v;
        unit_v)
  in
  let unchecked_update =
    X3
      (fun a i v ->
        Array.unsafe_set (arr a) i v;
        unit_v)
  in
  (* List access: the checked version performs the tag test (is this cell a
     cons?) before every step, the unchecked one assumes the tag, which is
     what compiling pattern matches without tag checks achieves. *)
  let rec checked_nth v i =
    match v with
    | Vcon (_, Vtuple [| h; t |]) -> if i = 0 then h else checked_nth t (i - 1)
    | Vtag _ -> raise Subscript
    | _ -> raise (Runtime_error "list expected")
  in
  let rec unchecked_nth v i =
    match v with
    | Vcon (_, Vtuple [| h; t |]) -> if i = 0 then h else unchecked_nth t (i - 1)
    | _ -> raise (Runtime_error "list expected")
  in
  let checked_cell field =
    F1
      (function
      | Vcon (_, Vtuple [| h; t |]) -> field h t
      | Vtag _ -> raise Subscript
      | _ -> raise (Runtime_error "list expected"))
  in
  let unchecked_cell field =
    F1 (function Vcon (_, Vtuple [| h; t |]) -> field h t | _ -> raise (Runtime_error "list expected"))
  in
  let head h _ = h and tail _ t = t in
  let checked_string_sub =
    X2
      (fun s i ->
        let s = as_string s in
        if i < 0 || i >= String.length s then raise Subscript else of_char (String.unsafe_get s i))
  in
  let unchecked_string_sub = X2 (fun s i -> of_char (String.unsafe_get (as_string s) i)) in
  let checked_substring =
    F3
      (fun s i l ->
        let s = as_string s and i = as_int i and l = as_int l in
        if i < 0 || l < 0 || i + l > String.length s then raise Subscript
        else Vstring (String.sub s i l))
  in
  let unchecked_substring =
    F3 (fun s i l -> Vstring (String.sub (as_string s) (as_int i) (as_int l)))
  in
  let checked_chr =
    F1
      (fun i ->
        let i = as_int i in
        if i < 0 || i > 255 then raise Subscript else of_char (Char.chr i))
  in
  let unchecked_chr = F1 (fun i -> of_char (Char.unsafe_chr (as_int i))) in
  let make_array =
    F2
      (fun n init ->
        let n = as_int n in
        if n < 0 then raise (Runtime_error "array: negative size")
        else Varray (Array.make n init))
  in
  let printer text =
    F1
      (fun v ->
        print_string (text v);
        unit_v)
  in
  let checked_nth_at = X2 (fun l i -> if i < 0 then raise Subscript else checked_nth l i) in
  (* One row per primitive: name, cost-model work ([cost], 1 unless given),
     native realisation, the implementation under [mode] and what a call
     counts.  [flavoured] rows are checked or not by [mode]; the [..CK]
     rows always are. *)
  let row ?(cost = 1) ?(count = Pure) name native f =
    ({ name; arity = arity f; flat_cost = cost; native }, (f, count))
  in
  let flavoured ?cost ?(walk = false) name native checked unchecked =
    match mode with
    | Checked -> row ?cost ~count:(if walk then Walk_check else Check) name native checked
    | Unchecked -> row ?cost ~count:(if walk then Walk_elim else Elim) name native unchecked
  in
  let ck ?cost ?(walk = false) name native f =
    row ?cost ~count:(if walk then Walk_check else Check) name native f
  in
  let sub_native = Helper ("sub", Some "(Array.unsafe_get $0 $1)") in
  let update_native = Helper ("update", Some "(Array.unsafe_set $0 $1 $2)") in
  [
    row "+" (Expr "($0 + $1)") (I2 ( + ));
    row "-" (Expr "($0 - $1)") (I2 ( - ));
    row "*" (Expr "($0 * $1)") (I2 ( * ));
    row "div" (Expr "(p_div $0 $1)") (I2 fdiv);
    row "mod" (Expr "(p_mod $0 $1)") (I2 fmod);
    (* always-checked division: the type system cannot prove a non-constant
       divisor positive, so these raise Div dynamically *)
    row "divCK" (Expr "(p_div $0 $1)") (I2 fdiv);
    row "modCK" (Expr "(p_mod $0 $1)") (I2 fmod);
    row "~" (Expr "(- $0)") (I1 (fun n -> -n));
    row "abs" (Expr "(abs $0)") (I1 abs);
    row "sgn" (Expr "(compare $0 0)") (I1 (fun n -> compare n 0));
    row "min" (Expr "(p_imin $0 $1)") (I2 (fun (a : int) b -> if a <= b then a else b));
    row "max" (Expr "(p_imax $0 $1)") (I2 (fun (a : int) b -> if a >= b then a else b));
    (* the native int comparisons carry an annotation so the generated code
       gets the immediate-int compare, not polymorphic compare *)
    row "=" (Expr "(($0 : int) = $1)") (C2 (fun (a : int) b -> a = b));
    row "<>" (Expr "(($0 : int) <> $1)") (C2 (fun (a : int) b -> a <> b));
    row "<" (Expr "(($0 : int) < $1)") (C2 (fun (a : int) b -> a < b));
    row "<=" (Expr "(($0 : int) <= $1)") (C2 (fun (a : int) b -> a <= b));
    row ">" (Expr "(($0 : int) > $1)") (C2 (fun (a : int) b -> a > b));
    row ">=" (Expr "(($0 : int) >= $1)") (C2 (fun (a : int) b -> a >= b));
    row "not" (Expr "(not $0)") (B1 not);
    row "size" (Expr "(String.length $0)") (N1 (fun v -> String.length (as_string v)));
    flavoured "string_sub"
      (Helper ("string_sub", Some "(String.unsafe_get $0 $1)"))
      checked_string_sub unchecked_string_sub;
    ck "string_subCK" (Expr "(p_string_sub_c $0 $1)") checked_string_sub;
    flavoured ~cost:4 "substring"
      (Helper ("substring", Some "(String.sub $0 $1 $2)"))
      checked_substring unchecked_substring;
    ck ~cost:4 "substringCK" (Expr "(p_substring_c $0 $1 $2)") checked_substring;
    row ~cost:4 "^" (Expr "($0 ^ $1)") (F2 (fun a b -> Vstring (as_string a ^ as_string b)));
    row "ord" (Expr "(Char.code $0)") (N1 (fun c -> Char.code (as_char c)));
    flavoured "chr" (Helper ("chr", Some "(Char.unsafe_chr $0)")) checked_chr unchecked_chr;
    ck "chrCK" (Expr "(p_chr_c $0)") checked_chr;
    row "ceq" (Expr "(($0 : char) = $1)") (F2 (fun a b -> of_bool (as_char a = as_char b)));
    row "clt" (Expr "(($0 : char) < $1)") (F2 (fun a b -> of_bool (as_char a < as_char b)));
    row "print" (Expr "(print_string $0)") (printer as_string);
    row ~cost:4 "int_to_string" (Expr "(string_of_int $0)")
      (F1 (fun n -> Vstring (string_of_int (as_int n))));
    row ~cost:3 "ref" (Expr "(ref $0)") (F1 (fun v -> Vref (ref v)));
    row ~cost:2 "!" (Expr "(!($0))")
      (F1 (function Vref r -> !r | _ -> raise (Runtime_error "ref expected")));
    row ~cost:2 ":=" (Expr "($0 := $1)")
      (F2
         (fun r v ->
           match r with
           | Vref r ->
               r := v;
               unit_v
           | _ -> raise (Runtime_error "ref expected")));
    row "length" (Expr "(Array.length $0)") (N1 (fun v -> Array.length (arr v)));
    row ~cost:4 "array" (Expr "(p_array $0 $1)") make_array;
    flavoured ~cost:2 "sub" sub_native checked_sub unchecked_sub;
    flavoured ~cost:2 "update" update_native checked_update unchecked_update;
    ck ~cost:2 "subCK" (Expr "(p_sub_c $0 $1)") checked_sub;
    ck ~cost:2 "updateCK" (Expr "(p_update_c $0 $1 $2)") checked_update;
    (* the prefix-array primitives of the KMP example (Figure 5) share the
       array implementations; they exist so the example can give them
       intPrefix-refined types *)
    row ~cost:4 "arrayPrefix" (Expr "(p_array $0 $1)") make_array;
    flavoured ~cost:2 "subPrefix" sub_native checked_sub unchecked_sub;
    ck ~cost:2 "subPrefixCK" (Expr "(p_sub_c $0 $1)") checked_sub;
    flavoured ~cost:2 "updatePrefix" update_native checked_update unchecked_update;
    flavoured ~walk:true "nth" (Helper ("nth", None)) checked_nth_at (X2 unchecked_nth);
    ck ~walk:true "nthCK" (Expr "(p_nth_c $0 $1)") checked_nth_at;
    flavoured ~cost:2 "hd" (Helper ("hd", None)) (checked_cell head) (unchecked_cell head);
    flavoured ~cost:2 "tl" (Helper ("tl", None)) (checked_cell tail) (unchecked_cell tail);
    ck ~cost:2 "hdCK" (Expr "(p_hd_c $0)") (checked_cell head);
    ck ~cost:2 "tlCK" (Expr "(p_tl_c $0)") (checked_cell tail);
    row "list_length" (Expr "(p_list_length 0 $0)") (N1 (list_length 0));
    row ~cost:0 "print_int" (Expr "(print_string (string_of_int $0))")
      (printer (fun v -> string_of_int (as_int v)));
    row ~cost:0 "print_bool" (Expr "(print_string (string_of_bool $0))")
      (printer (fun v -> string_of_bool (as_bool v)));
    row ~cost:0 "print_newline" (Expr "(p_print_newline $0)")
      (F1
         (fun _ ->
           print_newline ();
           unit_v));
  ]

let by_name rows =
  let h = Hashtbl.create 64 in
  List.iter (fun ((p, _) as row) -> Hashtbl.replace h p.name row) rows;
  h

(* The descriptor table: the rows' facts, which no discipline changes. *)
let descriptors = by_name (table Checked)
let find name = Option.map fst (Hashtbl.find_opt descriptors name)

let fast_table mode ?counters () =
  let rows = by_name (table mode) in
  let impl (f, count) = match counters with None -> f | Some c -> counting c count f in
  fun p -> impl (snd (Hashtbl.find rows p.name))

let with_cost c n f =
  if n = 0 then f
  else
    before
      (fun () ->
        c.cycles <- c.cycles + n;
        Dml_obs.Metrics.incr ~by:n m_cycles)
      f

let value_of_fast f =
  let pair = function Vtuple [| a; b |] -> (a, b) | _ -> raise (Runtime_error "pair expected") in
  match f with
  | F1 f -> Vfun f
  | I1 f -> Vfun (fun a -> Vint (f (as_int a)))
  | B1 f -> Vfun (fun a -> of_bool (f (as_bool a)))
  | N1 f -> Vfun (fun a -> Vint (f a))
  | F2 f ->
      Vfun
        (fun v ->
          let a, b = pair v in
          f a b)
  | I2 f ->
      Vfun
        (fun v ->
          let a, b = pair v in
          Vint (f (as_int a) (as_int b)))
  | C2 f ->
      Vfun
        (fun v ->
          let a, b = pair v in
          of_bool (f (as_int a) (as_int b)))
  | X2 f ->
      Vfun
        (fun v ->
          let a, i = pair v in
          f a (as_int i))
  | F3 f ->
      Vfun
        (function Vtuple [| a; b; c |] -> f a b c | _ -> raise (Runtime_error "triple expected"))
  | X3 f ->
      Vfun
        (function
        | Vtuple [| a; i; v |] -> f a (as_int i) v
        | _ -> raise (Runtime_error "triple expected"))
