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

let fast_table mode ?counters () =
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
  let checked_hd =
    F1
      (function
      | Vcon ("::", Some (Vtuple [ h; _ ])) ->
          note_check ();
          h
      | Vcon ("nil", None) -> raise Subscript
      | _ -> raise (Runtime_error "list expected"))
  in
  let unchecked_hd =
    F1
      (function
      | Vcon (_, Some (Vtuple [ h; _ ])) ->
          note_eliminated ();
          h
      | _ -> raise (Runtime_error "list expected"))
  in
  let checked_tl =
    F1
      (function
      | Vcon ("::", Some (Vtuple [ _; t ])) ->
          note_check ();
          t
      | Vcon ("nil", None) -> raise Subscript
      | _ -> raise (Runtime_error "list expected"))
  in
  let unchecked_tl =
    F1
      (function
      | Vcon (_, Some (Vtuple [ _; t ])) ->
          note_eliminated ();
          t
      | _ -> raise (Runtime_error "list expected"))
  in
  let pick checked unchecked = match mode with Checked -> checked | Unchecked -> unchecked in
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
  [
    ("+", arith ( + ));
    ("-", arith ( - ));
    ("*", arith ( * ));
    ("div", arith fdiv);
    ("mod", arith fmod);
    (* always-checked division: the type system cannot prove a non-constant
       divisor positive, so these raise Div dynamically *)
    ("divCK", arith fdiv);
    ("modCK", arith fmod);
    ("~", F1 (fun v -> Vint (-as_int v)));
    ("abs", F1 (fun v -> Vint (abs (as_int v))));
    ("sgn", F1 (fun v -> Vint (compare (as_int v) 0)));
    ("min", arith Stdlib.min);
    ("max", arith Stdlib.max);
    ("=", compare2 ( = ));
    ("<>", compare2 ( <> ));
    ("<", compare2 ( < ));
    ("<=", compare2 ( <= ));
    (">", compare2 ( > ));
    (">=", compare2 ( >= ));
    ("not", F1 (fun v -> Vbool (not (as_bool v))));
    ("size", F1 (fun v -> Vint (String.length (as_string v))));
    ( "string_sub",
      (let checked =
         F2
           (fun s i ->
             let s = as_string s and i = as_int i in
             note_check ();
             if i < 0 || i >= String.length s then raise Subscript
             else Vchar (String.unsafe_get s i))
       and unchecked =
         F2
           (fun s i ->
             note_eliminated ();
             Vchar (String.unsafe_get (as_string s) (as_int i)))
       in
       pick checked unchecked) );
    ( "string_subCK",
      F2
        (fun s i ->
          let s = as_string s and i = as_int i in
          note_check ();
          if i < 0 || i >= String.length s then raise Subscript
          else Vchar (String.unsafe_get s i)) );
    ( "substring",
      (let checked =
         F3
           (fun s i l ->
             let s = as_string s and i = as_int i and l = as_int l in
             note_check ();
             if i < 0 || l < 0 || i + l > String.length s then raise Subscript
             else Vstring (String.sub s i l))
       and unchecked =
         F3
           (fun s i l ->
             note_eliminated ();
             Vstring (String.sub (as_string s) (as_int i) (as_int l)))
       in
       pick checked unchecked) );
    ( "substringCK",
      F3
        (fun s i l ->
          let s = as_string s and i = as_int i and l = as_int l in
          note_check ();
          if i < 0 || l < 0 || i + l > String.length s then raise Subscript
          else Vstring (String.sub s i l)) );
    ("^", F2 (fun a b -> Vstring (as_string a ^ as_string b)));
    ("ord", F1 (fun c -> Vint (Char.code (as_char c))));
    ( "chr",
      (let checked =
         F1
           (fun i ->
             let i = as_int i in
             note_check ();
             if i < 0 || i > 255 then raise Subscript else Vchar (Char.chr i))
       and unchecked =
         F1
           (fun i ->
             note_eliminated ();
             Vchar (Char.unsafe_chr (as_int i)))
       in
       pick checked unchecked) );
    ( "chrCK",
      F1
        (fun i ->
          let i = as_int i in
          note_check ();
          if i < 0 || i > 255 then raise Subscript else Vchar (Char.chr i)) );
    ("ceq", F2 (fun a b -> Vbool (as_char a = as_char b)));
    ("clt", F2 (fun a b -> Vbool (as_char a < as_char b)));
    ( "print",
      F1
        (fun s ->
          print_string (as_string s);
          unit_v) );
    ("int_to_string", F1 (fun n -> Vstring (string_of_int (as_int n))));
    ("ref", F1 (fun v -> Vref (ref v)));
    ("!", F1 (function Vref r -> !r | _ -> raise (Runtime_error "ref expected")));
    ( ":=",
      F2
        (fun r v ->
          match r with
          | Vref r ->
              r := v;
              unit_v
          | _ -> raise (Runtime_error "ref expected")) );
    ("length", F1 (fun v -> Vint (Array.length (as_array v))));
    ("array", make_array);
    ("sub", pick checked_sub unchecked_sub);
    ("update", pick checked_update unchecked_update);
    ("subCK", checked_sub);
    ("updateCK", checked_update);
    (* the prefix-array primitives of the KMP example (Figure 5) share the
       array implementations; they exist so the example can give them
       intPrefix-refined types *)
    ("arrayPrefix", make_array);
    ("subPrefix", pick checked_sub unchecked_sub);
    ("subPrefixCK", checked_sub);
    ("updatePrefix", pick checked_update unchecked_update);
    ( "nth",
      F2
        (fun l i ->
          let i = as_int i in
          match mode with
          | Checked -> if i < 0 then raise Subscript else checked_nth l i
          | Unchecked -> unchecked_nth l i) );
    ("nthCK", F2 (fun l i -> let i = as_int i in if i < 0 then raise Subscript else checked_nth l i));
    ("hd", pick checked_hd unchecked_hd);
    ("tl", pick checked_tl unchecked_tl);
    ("hdCK", checked_hd);
    ("tlCK", checked_tl);
    ("list_length", F1 (fun v -> Vint (list_length 0 v)));
    ( "print_int",
      F1
        (fun v ->
          print_string (string_of_int (as_int v));
          unit_v) );
    ( "print_bool",
      F1
        (fun v ->
          print_string (string_of_bool (as_bool v));
          unit_v) );
    ( "print_newline",
      F1
        (fun _ ->
          print_newline ();
          unit_v) );
  ]

(* Flat virtual-cycle cost of each primitive's real work (the check and
   per-step traversal costs are added separately above). *)
let flat_cost = function
  | "sub" | "subCK" | "subPrefix" | "subPrefixCK" | "update" | "updateCK" | "updatePrefix" -> 2
  | "array" | "arrayPrefix" -> 4
  | "hd" | "tl" | "hdCK" | "tlCK" -> 2
  | "nth" | "nthCK" | "list_length" -> 1
  | "length" | "size" -> 1
  | "string_sub" | "string_subCK" | "chr" | "chrCK" | "ord" | "ceq" | "clt" -> 1
  | "substring" | "substringCK" | "^" | "int_to_string" -> 4 (* allocation + copy *)
  | "ref" -> 3 (* allocation *)
  | "!" | ":=" -> 2 (* load/store *)
  | "print_int" | "print_bool" | "print_newline" -> 0
  | _ -> 1 (* arithmetic and comparisons *)

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
