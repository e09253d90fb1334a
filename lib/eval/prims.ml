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
   no counters and keep their no-op note functions. *)
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

type native = Expr of string | Helper of string * string option
type prim = { name : string; arity : int; flat_cost : int; native : native }

(* The bounds test of the checked access discipline.  Kept out-of-line: a
   safe runtime's generic accessor performs the test in library code, and
   the paper's platforms paid a comparable per-access penalty (which is what
   made eliminating the checks worth 20-50%% of the run time). *)
let[@inline never] bounds_check a i =
  if i < 0 || i >= Array.length a then raise Subscript

(* SML's div and mod round towards negative infinity. *)
let fdiv a b = if b = 0 then raise Division_by_zero else (a - (((a mod b) + b) mod b)) / b
let fmod a b = if b = 0 then raise Division_by_zero else ((a mod b) + b) mod b

let arith f = F2 (fun a b -> Vint (f (as_int a) (as_int b)))
let compare2 f = F2 (fun a b -> Vbool (f (as_int a) (as_int b)))

let table mode counters =
  let note_check, note_eliminated, note_step =
    match counters with
    | None -> ((fun () -> ()), (fun () -> ()), fun () -> ())
    | Some c ->
        ( (fun () ->
            c.dynamic_checks <- c.dynamic_checks + 1;
            c.cycles <- c.cycles + check_cost;
            Dml_obs.Metrics.incr m_dynamic_checks;
            Dml_obs.Metrics.incr ~by:check_cost m_cycles),
          (fun () ->
            c.eliminated_checks <- c.eliminated_checks + 1;
            Dml_obs.Metrics.incr m_eliminated_checks),
          fun () ->
            c.cycles <- c.cycles + step_cost;
            Dml_obs.Metrics.incr ~by:step_cost m_cycles )
  in
  (* The two access disciplines: the checked versions perform the bounds
     comparison and raise, as SML's safe subscript operations do; the
     unchecked versions go straight to memory (sound only after elaboration
     has discharged the obligation). *)
  let checked_sub =
    F2
      (fun a i ->
        let a = as_array a and i = as_int i in
        note_check ();
        bounds_check a i;
        Array.unsafe_get a i)
  in
  let unchecked_sub =
    F2
      (fun a i ->
        note_eliminated ();
        Array.unsafe_get (as_array a) (as_int i))
  in
  let checked_update =
    F3
      (fun a i v ->
        let a = as_array a and i = as_int i in
        note_check ();
        bounds_check a i;
        Array.unsafe_set a i v;
        unit_v)
  in
  let unchecked_update =
    F3
      (fun a i v ->
        note_eliminated ();
        Array.unsafe_set (as_array a) (as_int i) v;
        unit_v)
  in
  (* List access: the checked version performs the tag test (is this cell a
     cons?) before every step, the unchecked one assumes the tag, which is
     what compiling pattern matches without tag checks achieves. *)
  let rec checked_nth v i =
    note_check ();
    note_step ();
    match v with
    | Vcon ("::", Some (Vtuple [ h; t ])) -> if i = 0 then h else checked_nth t (i - 1)
    | Vcon ("nil", None) -> raise Subscript
    | _ -> raise (Runtime_error "list expected")
  in
  let rec unchecked_nth v i =
    note_eliminated ();
    note_step ();
    match v with
    | Vcon (_, Some (Vtuple [ h; t ])) -> if i = 0 then h else unchecked_nth t (i - 1)
    | _ -> raise (Runtime_error "list expected")
  in
  let checked_cell field =
    F1
      (function
      | Vcon ("::", Some (Vtuple [ h; t ])) ->
          note_check ();
          field h t
      | Vcon ("nil", None) -> raise Subscript
      | _ -> raise (Runtime_error "list expected"))
  in
  let unchecked_cell field =
    F1
      (function
      | Vcon (_, Some (Vtuple [ h; t ])) ->
          note_eliminated ();
          field h t
      | _ -> raise (Runtime_error "list expected"))
  in
  let head h _ = h and tail _ t = t in
  let checked_string_sub =
    F2
      (fun s i ->
        let s = as_string s and i = as_int i in
        note_check ();
        if i < 0 || i >= String.length s then raise Subscript else Vchar (String.unsafe_get s i))
  in
  let unchecked_string_sub =
    F2
      (fun s i ->
        note_eliminated ();
        Vchar (String.unsafe_get (as_string s) (as_int i)))
  in
  let checked_substring =
    F3
      (fun s i l ->
        let s = as_string s and i = as_int i and l = as_int l in
        note_check ();
        if i < 0 || l < 0 || i + l > String.length s then raise Subscript
        else Vstring (String.sub s i l))
  in
  let unchecked_substring =
    F3
      (fun s i l ->
        note_eliminated ();
        Vstring (String.sub (as_string s) (as_int i) (as_int l)))
  in
  let checked_chr =
    F1
      (fun i ->
        let i = as_int i in
        note_check ();
        if i < 0 || i > 255 then raise Subscript else Vchar (Char.chr i))
  in
  let unchecked_chr =
    F1
      (fun i ->
        note_eliminated ();
        Vchar (Char.unsafe_chr (as_int i)))
  in
  let rec list_length acc = function
    | Vcon ("nil", None) -> acc
    | Vcon ("::", Some (Vtuple [ _; t ])) -> list_length (acc + 1) t
    | _ -> raise (Runtime_error "list expected")
  in
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
  let checked_nth_at =
    F2
      (fun l i ->
        let i = as_int i in
        if i < 0 then raise Subscript else checked_nth l i)
  in
  (* One row per primitive: name, cost-model work ([cost], 1 unless given),
     native realisation, and the implementation under [mode]. *)
  let row ?(cost = 1) name native f =
    let arity = match f with F1 _ -> 1 | F2 _ -> 2 | F3 _ -> 3 in
    ({ name; arity; flat_cost = cost; native }, f)
  in
  let flavoured ?cost name native checked unchecked =
    row ?cost name native (match mode with Checked -> checked | Unchecked -> unchecked)
  in
  let sub_native = Helper ("sub", Some "(Array.unsafe_get $0 $1)") in
  let update_native = Helper ("update", Some "(Array.unsafe_set $0 $1 $2)") in
  [
    row "+" (Expr "($0 + $1)") (arith ( + ));
    row "-" (Expr "($0 - $1)") (arith ( - ));
    row "*" (Expr "($0 * $1)") (arith ( * ));
    row "div" (Expr "(p_div $0 $1)") (arith fdiv);
    row "mod" (Expr "(p_mod $0 $1)") (arith fmod);
    (* always-checked division: the type system cannot prove a non-constant
       divisor positive, so these raise Div dynamically *)
    row "divCK" (Expr "(p_div $0 $1)") (arith fdiv);
    row "modCK" (Expr "(p_mod $0 $1)") (arith fmod);
    row "~" (Expr "(- $0)") (F1 (fun v -> Vint (-as_int v)));
    row "abs" (Expr "(abs $0)") (F1 (fun v -> Vint (abs (as_int v))));
    row "sgn" (Expr "(compare $0 0)") (F1 (fun v -> Vint (compare (as_int v) 0)));
    row "min" (Expr "(p_imin $0 $1)") (arith Stdlib.min);
    row "max" (Expr "(p_imax $0 $1)") (arith Stdlib.max);
    (* the native int comparisons carry an annotation so the generated code
       gets the immediate-int compare, not polymorphic compare *)
    row "=" (Expr "(($0 : int) = $1)") (compare2 ( = ));
    row "<>" (Expr "(($0 : int) <> $1)") (compare2 ( <> ));
    row "<" (Expr "(($0 : int) < $1)") (compare2 ( < ));
    row "<=" (Expr "(($0 : int) <= $1)") (compare2 ( <= ));
    row ">" (Expr "(($0 : int) > $1)") (compare2 ( > ));
    row ">=" (Expr "(($0 : int) >= $1)") (compare2 ( >= ));
    row "not" (Expr "(not $0)") (F1 (fun v -> Vbool (not (as_bool v))));
    row "size" (Expr "(String.length $0)") (F1 (fun v -> Vint (String.length (as_string v))));
    flavoured "string_sub"
      (Helper ("string_sub", Some "(String.unsafe_get $0 $1)"))
      checked_string_sub unchecked_string_sub;
    row "string_subCK" (Expr "(p_string_sub_c $0 $1)") checked_string_sub;
    flavoured ~cost:4 "substring"
      (Helper ("substring", Some "(String.sub $0 $1 $2)"))
      checked_substring unchecked_substring;
    row ~cost:4 "substringCK" (Expr "(p_substring_c $0 $1 $2)") checked_substring;
    row ~cost:4 "^" (Expr "($0 ^ $1)") (F2 (fun a b -> Vstring (as_string a ^ as_string b)));
    row "ord" (Expr "(Char.code $0)") (F1 (fun c -> Vint (Char.code (as_char c))));
    flavoured "chr" (Helper ("chr", Some "(Char.unsafe_chr $0)")) checked_chr unchecked_chr;
    row "chrCK" (Expr "(p_chr_c $0)") checked_chr;
    row "ceq" (Expr "(($0 : char) = $1)") (F2 (fun a b -> Vbool (as_char a = as_char b)));
    row "clt" (Expr "(($0 : char) < $1)") (F2 (fun a b -> Vbool (as_char a < as_char b)));
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
    row "length" (Expr "(Array.length $0)") (F1 (fun v -> Vint (Array.length (as_array v))));
    row ~cost:4 "array" (Expr "(p_array $0 $1)") make_array;
    flavoured ~cost:2 "sub" sub_native checked_sub unchecked_sub;
    flavoured ~cost:2 "update" update_native checked_update unchecked_update;
    row ~cost:2 "subCK" (Expr "(p_sub_c $0 $1)") checked_sub;
    row ~cost:2 "updateCK" (Expr "(p_update_c $0 $1 $2)") checked_update;
    (* the prefix-array primitives of the KMP example (Figure 5) share the
       array implementations; they exist so the example can give them
       intPrefix-refined types *)
    row ~cost:4 "arrayPrefix" (Expr "(p_array $0 $1)") make_array;
    flavoured ~cost:2 "subPrefix" sub_native checked_sub unchecked_sub;
    row ~cost:2 "subPrefixCK" (Expr "(p_sub_c $0 $1)") checked_sub;
    flavoured ~cost:2 "updatePrefix" update_native checked_update unchecked_update;
    flavoured "nth" (Helper ("nth", None)) checked_nth_at
      (F2 (fun l i -> unchecked_nth l (as_int i)));
    row "nthCK" (Expr "(p_nth_c $0 $1)") checked_nth_at;
    flavoured ~cost:2 "hd" (Helper ("hd", None)) (checked_cell head) (unchecked_cell head);
    flavoured ~cost:2 "tl" (Helper ("tl", None)) (checked_cell tail) (unchecked_cell tail);
    row ~cost:2 "hdCK" (Expr "(p_hd_c $0)") (checked_cell head);
    row ~cost:2 "tlCK" (Expr "(p_tl_c $0)") (checked_cell tail);
    row "list_length" (Expr "(p_list_length 0 $0)") (F1 (fun v -> Vint (list_length 0 v)));
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
let descriptors = by_name (table Checked None)
let find name = Option.map fst (Hashtbl.find_opt descriptors name)

let fast_table mode ?counters () =
  let rows = by_name (table mode counters) in
  fun p -> snd (Hashtbl.find rows p.name)

let with_cost c n f =
  if n = 0 then f
  else
    let note () =
      c.cycles <- c.cycles + n;
      Dml_obs.Metrics.incr ~by:n m_cycles
    in
    match f with
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
          (fun a b v ->
            note ();
            g a b v)

let value_of_fast = function
  | F1 f -> Vfun f
  | F2 f ->
      Vfun (function Vtuple [ a; b ] -> f a b | _ -> raise (Runtime_error "pair expected"))
  | F3 f ->
      Vfun
        (function Vtuple [ a; b; c ] -> f a b c | _ -> raise (Runtime_error "triple expected"))
