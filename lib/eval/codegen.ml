(* Compile-to-OCaml-source backend: print the elaborated (typed) program as
   a standalone OCaml compilation unit and drive the installed toolchain.

   The emission is typed OCaml, not a boxed universal value: datatypes
   become variant declarations, integer arrays stay flat [int array]s, so
   the binary's checked/unchecked delta is the genuine cost of the bounds
   tests.  The lowering of access sites mirrors [Compile.initial_fast]
   exactly:

   - a direct saturated application of a primitive at a site the checker
     proved compiles to the mode's implementation — in Unchecked mode the
     provable accessors are emitted inline as [Array.unsafe_get]/
     [Array.unsafe_set];
   - the same application at a degraded (unproven) site calls the
     out-of-line checked helper;
   - every first-class use of a primitive becomes a tuple-taking wrapper,
     checked whenever a degradation predicate is present. *)

open Dml_lang
open Dml_mltype

let fmt = Printf.sprintf

(* --- name mangling --------------------------------------------------------- *)

(* Identifier-safe, injective, and stable: the native driver snippets in
   Dml_programs.Native_drivers hardcode mangled names.  Characters outside
   [A-Za-z0-9_'] become their two-digit hex codes, so "::" -> "3a3a". *)
let sanitize s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (fmt "%02x" (Char.code c)))
    s;
  Buffer.contents buf

let mangle_var x = "v_" ^ sanitize x
let mangle_con c = "C_" ^ sanitize c
let mangle_exn c = "E_" ^ sanitize c
let mangle_type t = "t_" ^ sanitize t

(* --- type printing ---------------------------------------------------------- *)

let builtin_tycon = function
  | "int" | "bool" | "char" | "string" | "unit" | "array" | "ref" | "exn" -> true
  | _ -> false

(* surface types, for datatype constructor arguments; indices are erased *)
let rec pp_sty (t : Ast.stype) =
  match t with
  | Ast.STvar v -> "'" ^ v
  | Ast.STcon (args, name, _) -> (
      let base = if builtin_tycon name then name else mangle_type name in
      match args with
      | [] -> base
      | [ a ] -> fmt "(%s) %s" (pp_sty a) base
      | l -> fmt "(%s) %s" (String.concat ", " (List.map pp_sty l)) base)
  | Ast.STtuple ts -> "(" ^ String.concat " * " (List.map pp_sty ts) ^ ")"
  | Ast.STarrow (a, b) -> fmt "(%s -> %s)" (pp_sty a) (pp_sty b)
  | Ast.STpi (_, t) | Ast.STsigma (_, t) -> pp_sty t

(* ML types, for user exception arguments *)
let rec pp_mlty t =
  match Mltype.repr t with
  | Mltype.Tvar _ | Mltype.Tqvar _ -> "_"
  | Mltype.Tcon (name, args) -> (
      let base = if builtin_tycon name then name else mangle_type name in
      match args with
      | [] -> base
      | [ a ] -> fmt "(%s) %s" (pp_mlty a) base
      | l -> fmt "(%s) %s" (String.concat ", " (List.map pp_mlty l)) base)
  | Mltype.Ttuple [] -> "unit"
  | Mltype.Ttuple ts -> "(" ^ String.concat " * " (List.map pp_mlty ts) ^ ")"
  | Mltype.Tarrow (a, b) -> fmt "(%s -> %s)" (pp_mlty a) (pp_mlty b)

let emit_datatype (dt : Ast.datatype_def) =
  let params =
    match dt.Ast.dt_params with
    | [] -> ""
    | [ p ] -> "'" ^ p ^ " "
    | ps -> "(" ^ String.concat ", " (List.map (fun p -> "'" ^ p) ps) ^ ") "
  in
  let con (c, arg) =
    match arg with
    (* parenthesized argument type: constructors carry one boxed value (a
       tuple when the surface declaration is a product), so a pattern that
       binds the whole argument to one variable stays well-formed *)
    | None -> mangle_con c
    | Some t -> fmt "%s of (%s)" (mangle_con c) (pp_sty t)
  in
  fmt "type %s%s = %s" params (mangle_type dt.Ast.dt_name)
    (String.concat " | " (List.map con dt.Ast.dt_cons))

(* --- primitive lowering ------------------------------------------------------ *)

let prim_arity = function
  | "+" | "-" | "*" | "div" | "mod" | "divCK" | "modCK" | "min" | "max" | "=" | "<>" | "<"
  | "<=" | ">" | ">=" | "string_sub" | "string_subCK" | "^" | "ceq" | "clt" | ":=" | "array"
  | "arrayPrefix" | "sub" | "subCK" | "subPrefix" | "subPrefixCK" | "nth" | "nthCK" ->
      Some 2
  | "~" | "abs" | "sgn" | "not" | "size" | "ord" | "chr" | "chrCK" | "print"
  | "int_to_string" | "ref" | "!" | "length" | "hd" | "tl" | "hdCK" | "tlCK" | "list_length"
  | "print_int" | "print_bool" | "print_newline" ->
      Some 1
  | "substring" | "substringCK" | "update" | "updateCK" | "updatePrefix" -> Some 3
  | _ -> None

type ctx = {
  mode : Prims.mode;
  degraded : Loc.t -> bool;  (* sites that must keep their dynamic check *)
  degrade_fc : bool;  (* degradation present: first-class prims are checked *)
  instrument : bool;  (* count eliminated/dynamic checks in the binary *)
  fc : (string, string) Hashtbl.t;  (* first-class wrappers actually used *)
  exns : (string, unit) Hashtbl.t;  (* declared exception constructors *)
}

(* A direct saturated primitive application, already resolved to its checked
   or unchecked flavour.  The int comparisons carry an annotation so the
   generated code gets the immediate-int compare, not polymorphic compare. *)
let direct ctx ~checked name args =
  let a i = List.nth args i in
  let icmp op = fmt "((%s : int) %s %s)" (a 0) op (a 1) in
  let inline_or_count inline counted = if ctx.instrument then counted else inline in
  match name with
  | "+" -> fmt "(%s + %s)" (a 0) (a 1)
  | "-" -> fmt "(%s - %s)" (a 0) (a 1)
  | "*" -> fmt "(%s * %s)" (a 0) (a 1)
  | "div" | "divCK" -> fmt "(p_div %s %s)" (a 0) (a 1)
  | "mod" | "modCK" -> fmt "(p_mod %s %s)" (a 0) (a 1)
  | "~" -> fmt "(- %s)" (a 0)
  | "abs" -> fmt "(abs %s)" (a 0)
  | "sgn" -> fmt "(compare %s 0)" (a 0)
  | "min" -> fmt "(p_imin %s %s)" (a 0) (a 1)
  | "max" -> fmt "(p_imax %s %s)" (a 0) (a 1)
  | "=" -> icmp "="
  | "<>" -> icmp "<>"
  | "<" -> icmp "<"
  | "<=" -> icmp "<="
  | ">" -> icmp ">"
  | ">=" -> icmp ">="
  | "not" -> fmt "(not %s)" (a 0)
  | "size" -> fmt "(String.length %s)" (a 0)
  | "string_sub" when not checked ->
      inline_or_count
        (fmt "(String.unsafe_get %s %s)" (a 0) (a 1))
        (fmt "(p_string_sub_u %s %s)" (a 0) (a 1))
  | "string_sub" | "string_subCK" -> fmt "(p_string_sub_c %s %s)" (a 0) (a 1)
  | "substring" when not checked ->
      inline_or_count
        (fmt "(String.sub %s %s %s)" (a 0) (a 1) (a 2))
        (fmt "(p_substring_u %s %s %s)" (a 0) (a 1) (a 2))
  | "substring" | "substringCK" -> fmt "(p_substring_c %s %s %s)" (a 0) (a 1) (a 2)
  | "^" -> fmt "(%s ^ %s)" (a 0) (a 1)
  | "ord" -> fmt "(Char.code %s)" (a 0)
  | "chr" when not checked ->
      inline_or_count (fmt "(Char.unsafe_chr %s)" (a 0)) (fmt "(p_chr_u %s)" (a 0))
  | "chr" | "chrCK" -> fmt "(p_chr_c %s)" (a 0)
  | "ceq" -> fmt "((%s : char) = %s)" (a 0) (a 1)
  | "clt" -> fmt "((%s : char) < %s)" (a 0) (a 1)
  | "print" -> fmt "(print_string %s)" (a 0)
  | "int_to_string" -> fmt "(string_of_int %s)" (a 0)
  | "ref" -> fmt "(ref %s)" (a 0)
  | "!" -> fmt "(!(%s))" (a 0)
  | ":=" -> fmt "(%s := %s)" (a 0) (a 1)
  | "length" -> fmt "(Array.length %s)" (a 0)
  | "array" | "arrayPrefix" -> fmt "(p_array %s %s)" (a 0) (a 1)
  | ("sub" | "subPrefix") when not checked ->
      (* the measured emission: a proven access site goes straight to memory *)
      inline_or_count
        (fmt "(Array.unsafe_get %s %s)" (a 0) (a 1))
        (fmt "(p_sub_u %s %s)" (a 0) (a 1))
  | "sub" | "subCK" | "subPrefix" | "subPrefixCK" -> fmt "(p_sub_c %s %s)" (a 0) (a 1)
  | ("update" | "updatePrefix") when not checked ->
      inline_or_count
        (fmt "(Array.unsafe_set %s %s %s)" (a 0) (a 1) (a 2))
        (fmt "(p_update_u %s %s %s)" (a 0) (a 1) (a 2))
  | "update" | "updateCK" | "updatePrefix" -> fmt "(p_update_c %s %s %s)" (a 0) (a 1) (a 2)
  | "nth" when not checked -> fmt "(p_nth_u %s %s)" (a 0) (a 1)
  | "nth" | "nthCK" -> fmt "(p_nth_c %s %s)" (a 0) (a 1)
  | "hd" when not checked -> fmt "(p_hd_u %s)" (a 0)
  | "hd" | "hdCK" -> fmt "(p_hd_c %s)" (a 0)
  | "tl" when not checked -> fmt "(p_tl_u %s)" (a 0)
  | "tl" | "tlCK" -> fmt "(p_tl_c %s)" (a 0)
  | "list_length" -> fmt "(p_list_length 0 %s)" (a 0)
  | "print_int" -> fmt "(print_string (string_of_int %s))" (a 0)
  | "print_bool" -> fmt "(print_string (string_of_bool %s))" (a 0)
  | "print_newline" -> fmt "(p_print_newline %s)" (a 0)
  | _ -> raise (Failure ("codegen: unknown primitive " ^ name))

(* First-class use: a tuple-taking closure over the direct emission.  The
   flavour is constant per program (checked when a degradation predicate is
   present, the mode's otherwise — the rule of [Compile.initial_fast]). *)
let first_class ctx name =
  match prim_arity name with
  | None -> raise (Failure ("codegen: unbound variable " ^ name))
  | Some arity ->
      let checked = ctx.mode = Prims.Checked || ctx.degrade_fc in
      let wname = "p_fc_" ^ sanitize name in
      if not (Hashtbl.mem ctx.fc name) then begin
        let def =
          match arity with
          | 1 -> fmt "let %s = fun dml_a -> %s" wname (direct ctx ~checked name [ "dml_a" ])
          | 2 ->
              fmt "let %s = fun (dml_a, dml_b) -> %s" wname
                (direct ctx ~checked name [ "dml_a"; "dml_b" ])
          | _ ->
              fmt "let %s = fun (dml_a, dml_b, dml_c) -> %s" wname
                (direct ctx ~checked name [ "dml_a"; "dml_b"; "dml_c" ])
        in
        Hashtbl.replace ctx.fc name def
      end;
      wname

(* --- expression and declaration emission -------------------------------------- *)

module S = Set.Make (String)

let add_names names bound = List.fold_left (fun s n -> S.add n s) bound names

let rec emit_pat ctx (p : Tast.tpat) : string * string list =
  match p.Tast.tpdesc with
  | Tast.TPwild -> ("_", [])
  | Tast.TPvar x -> (mangle_var x, [ x ])
  | Tast.TPint n -> (fmt "(%d)" n, [])
  | Tast.TPbool b -> (string_of_bool b, [])
  | Tast.TPchar c -> (fmt "'%s'" (Char.escaped c), [])
  | Tast.TPstring s -> (fmt "\"%s\"" (String.escaped s), [])
  | Tast.TPtuple ps ->
      let txts, names = List.split (List.map (emit_pat ctx) ps) in
      ("(" ^ String.concat ", " txts ^ ")", List.concat names)
  | Tast.TPcon (c, _, None) ->
      ((if Hashtbl.mem ctx.exns c then mangle_exn c else mangle_con c), [])
  | Tast.TPcon (c, _, Some argp) ->
      let txt, names = emit_pat ctx argp in
      let con = if Hashtbl.mem ctx.exns c then mangle_exn c else mangle_con c in
      (fmt "(%s (%s))" con txt, names)

let rec emit_exp ctx bound (e : Tast.texp) : string =
  match e.Tast.tdesc with
  | Tast.TEint n -> if n < 0 then fmt "(%d)" n else string_of_int n
  | Tast.TEbool b -> string_of_bool b
  | Tast.TEchar c -> fmt "'%s'" (Char.escaped c)
  | Tast.TEstring s -> fmt "\"%s\"" (String.escaped s)
  | Tast.TEvar (x, _) -> if S.mem x bound then mangle_var x else first_class ctx x
  | Tast.TEcon (c, _, None) -> (
      let con = if Hashtbl.mem ctx.exns c then mangle_exn c else mangle_con c in
      (* a constructor used as a function value eta-expands, as the closure
         backend's [Vfun] wrapping does *)
      match Mltype.repr e.Tast.tty with
      | Mltype.Tarrow _ -> fmt "(fun dml_x -> %s dml_x)" con
      | _ -> con)
  | Tast.TEcon (c, _, Some arg) ->
      let con = if Hashtbl.mem ctx.exns c then mangle_exn c else mangle_con c in
      fmt "(%s (%s))" con (emit_exp ctx bound arg)
  | Tast.TEtuple [] -> "()"
  | Tast.TEtuple es ->
      in_order ctx bound es (fun txts -> "(" ^ String.concat ", " txts ^ ")")
  | Tast.TEapp (f, a) -> (
      (* saturated primitive applications lower to direct n-ary code, the
         calling convention [Compile]'s fast table models *)
      let direct_txt =
        match f.Tast.tdesc with
        | Tast.TEvar (x, _) when (not (S.mem x bound)) && prim_arity x <> None -> (
            let checked = ctx.mode = Prims.Checked || ctx.degraded e.Tast.tloc in
            match (prim_arity x, a.Tast.tdesc) with
            | Some 1, _ -> Some (direct ctx ~checked x [ emit_exp ctx bound a ])
            | Some 2, Tast.TEtuple ([ _; _ ] as es) | Some 3, Tast.TEtuple ([ _; _; _ ] as es) ->
                Some (in_order ctx bound es (direct ctx ~checked x))
            | _ -> None)
        | _ -> None
      in
      match direct_txt with
      | Some txt -> txt
      | None -> (
          match a.Tast.tdesc with
          | Tast.TEtuple (_ :: _ :: _ as es) ->
              (* a literal tuple argument stays syntactic, so that ocamlopt
                 passes a tupled function's fields without building the tuple *)
              in_order ctx bound (f :: es) (fun txts ->
                  fmt "(%s (%s))" (List.hd txts) (String.concat ", " (List.tl txts)))
          | _ -> in_order ctx bound [ f; a ] (fun txts -> "(" ^ String.concat " " txts ^ ")")))
  | Tast.TEif (c, t, f) ->
      fmt "(if %s then %s else %s)" (emit_exp ctx bound c) (emit_exp ctx bound t)
        (emit_exp ctx bound f)
  | Tast.TEcase (scrut, arms) ->
      fmt "(match %s with %s)" (emit_exp ctx bound scrut) (emit_arms ctx bound arms)
  | Tast.TEfn (p, body) ->
      let txt, names = emit_pat ctx p in
      fmt "(function %s -> %s)" txt (emit_exp ctx (add_names names bound) body)
  | Tast.TElet (decs, body) ->
      let rec go bound acc = function
        | [] -> acc ^ emit_exp ctx bound body
        | d :: rest ->
            let bound', txt = emit_dec ctx ~toplevel:false bound d in
            let acc = if txt = "" then acc else acc ^ txt ^ " in " in
            go bound' acc rest
      in
      "(" ^ go bound "" decs ^ ")"
  | Tast.TEandalso (a, b) -> fmt "(%s && %s)" (emit_exp ctx bound a) (emit_exp ctx bound b)
  | Tast.TEorelse (a, b) -> fmt "(%s || %s)" (emit_exp ctx bound a) (emit_exp ctx bound b)
  | Tast.TEannot (inner, _) -> emit_exp ctx bound inner
  | Tast.TEraise inner -> fmt "(raise %s)" (emit_exp ctx bound inner)
  | Tast.TEhandle (body, arms) ->
      fmt "(try %s with %s)" (emit_exp ctx bound body) (emit_arms ctx bound arms)

(* Operands in SML's order.  OCaml leaves the order of an application's
   arguments and a tuple's fields unspecified (ocamlopt runs them right to
   left), so when two or more operands are not atoms, the non-atoms are
   let-bound first, in source order.  Atoms have no effects and stay inline,
   which keeps the proven access sites as [Array.unsafe_get v_a v_i]. *)
and in_order ctx bound es (k : string list -> string) =
  let rec atom (e : Tast.texp) =
    match e.Tast.tdesc with
    | Tast.TEint _ | Tast.TEbool _ | Tast.TEchar _ | Tast.TEstring _ | Tast.TEvar _
    | Tast.TEcon (_, _, None) ->
        true
    | Tast.TEannot (inner, _) -> atom inner
    | _ -> false
  in
  let txts = List.map (emit_exp ctx bound) es in
  if List.length (List.filter (fun e -> not (atom e)) es) < 2 then k txts
  else
    let lets, args =
      List.split
        (List.mapi
           (fun i (e, txt) ->
             if atom e then ("", txt)
             else
               let v = fmt "dml_o%d" i in
               (fmt "let %s = %s in " v txt, v))
           (List.combine es txts))
    in
    "(" ^ String.concat "" lets ^ k args ^ ")"

and emit_arms ctx bound arms =
  String.concat " "
    (List.map
       (fun (p, body) ->
         let txt, names = emit_pat ctx p in
         fmt "| %s -> %s" txt (emit_exp ctx (add_names names bound) body))
       arms)

and emit_dec ctx ~toplevel bound (d : Tast.tdec) : S.t * string =
  match d with
  | Tast.TDexception (name, arg) ->
      let fresh = not (Hashtbl.mem ctx.exns name) in
      Hashtbl.replace ctx.exns name ();
      if not fresh then (bound, "")  (* Subscript/Div are pre-declared in the prelude *)
      else
        let argtxt = match arg with None -> "" | Some t -> " of " ^ pp_mlty t in
        let decl = fmt "exception %s%s" (mangle_exn name) argtxt in
        (bound, if toplevel then decl else "let " ^ decl)
  | Tast.TDval (p, e, _, _) ->
      let txt, names = emit_pat ctx p in
      (add_names names bound, fmt "let %s = %s" txt (emit_exp ctx bound e))
  | Tast.TDfun fds ->
      let bound' = List.fold_left (fun s fd -> S.add fd.Tast.tfname s) bound fds in
      let irrefutable pats =
        let rec go p =
          match p.Tast.tpdesc with
          | Tast.TPvar _ | Tast.TPwild -> true
          | Tast.TPtuple ps -> List.for_all go ps
          | _ -> false
        in
        List.for_all go pats
      in
      let each (fd : Tast.tfundef) =
        let arity =
          match fd.Tast.tfclauses with (ps, _) :: _ -> List.length ps | [] -> 0
        in
        match fd.Tast.tfclauses with
        | [ (pats, body) ] when irrefutable pats ->
            (* the common single-clause case binds its parameters directly *)
            let txts, names = List.split (List.map (emit_pat ctx) pats) in
            let b2 = add_names (List.concat names) bound' in
            fmt "%s %s = %s" (mangle_var fd.Tast.tfname) (String.concat " " txts)
              (emit_exp ctx b2 body)
        | clauses ->
            let params = List.init arity (fun i -> fmt "dml_a%d" i) in
            let scrut =
              match params with [ p ] -> p | _ -> "(" ^ String.concat ", " params ^ ")"
            in
            let arms =
              List.map
                (fun (pats, body) ->
                  let txts, names = List.split (List.map (emit_pat ctx) pats) in
                  let pat =
                    match txts with [ p ] -> p | _ -> "(" ^ String.concat ", " txts ^ ")"
                  in
                  fmt "| %s -> %s" pat
                    (emit_exp ctx (add_names (List.concat names) bound') body))
                clauses
            in
            fmt "%s %s = (match %s with %s)" (mangle_var fd.Tast.tfname)
              (String.concat " " params) scrut (String.concat " " arms)
      in
      (bound', "let rec " ^ String.concat "\nand " (List.map each fds))

(* --- prelude ------------------------------------------------------------------- *)

(* The fixed runtime under every generated program.  The checked helpers
   mirror [Prims]: out-of-line bounds tests that raise the program's
   Subscript; the unchecked list helpers assume the cons tag ([Obj.field]),
   the native analogue of compiling pattern matches without tag checks.
   [instrument] builds bump the eliminated/dynamic counters exactly where
   the host's counting tables do. *)
let helpers ~instrument =
  let nd = if instrument then "incr dml_dyn; " else "" in
  let ne = if instrument then "incr dml_elim; " else "" in
  String.concat "\n"
    [
      "let p_div a b = if b = 0 then raise E_Div else (a - (((a mod b) + b) mod b)) / b";
      "let p_mod a b = if b = 0 then raise E_Div else ((a mod b) + b) mod b";
      "let p_imin (a : int) b = if a <= b then a else b";
      "let p_imax (a : int) b = if a >= b then a else b";
      "let p_array n x = Array.make n x";
      "let p_print_newline _ = print_newline ()";
      "let[@inline never] p_bounds a i = if i < 0 || i >= Array.length a then raise \
       E_Subscript";
      fmt "let p_sub_c a i = %sp_bounds a i; Array.unsafe_get a i" nd;
      fmt "let p_update_c a i v = %sp_bounds a i; Array.unsafe_set a i v" nd;
      fmt "let p_sub_u a i = %sArray.unsafe_get a i" ne;
      fmt "let p_update_u a i v = %sArray.unsafe_set a i v" ne;
      fmt
        "let p_string_sub_c s i = %sif i < 0 || i >= String.length s then raise E_Subscript; \
         String.unsafe_get s i"
        nd;
      fmt "let p_string_sub_u s i = %sString.unsafe_get s i" ne;
      fmt
        "let p_substring_c s i l = %sif i < 0 || l < 0 || i + l > String.length s then raise \
         E_Subscript; String.sub s i l"
        nd;
      fmt "let p_substring_u s i l = %sString.sub s i l" ne;
      fmt "let p_chr_c i = %sif i < 0 || i > 255 then raise E_Subscript; Char.chr i" nd;
      fmt "let p_chr_u i = %sChar.unsafe_chr i" ne;
      fmt
        "let rec p_nth_c_go l i = %smatch l with C_3a3a (dml_h, dml_t) -> if i = 0 then dml_h \
         else p_nth_c_go dml_t (i - 1) | C_nil -> raise E_Subscript"
        nd;
      "let p_nth_c l i = if i < 0 then raise E_Subscript else p_nth_c_go l i";
      fmt
        "let rec p_nth_u l i = %slet dml_cell = Obj.field (Obj.repr l) 0 in if i = 0 then \
         Obj.obj (Obj.field dml_cell 0) else p_nth_u (Obj.obj (Obj.field dml_cell 1)) (i - 1)"
        ne;
      fmt "let p_hd_c l = %smatch l with C_3a3a (dml_h, _) -> dml_h | C_nil -> raise E_Subscript"
        nd;
      fmt "let p_tl_c l = %smatch l with C_3a3a (_, dml_t) -> dml_t | C_nil -> raise E_Subscript"
        nd;
      fmt "let p_hd_u l = %sObj.obj (Obj.field (Obj.field (Obj.repr l) 0) 0)" ne;
      fmt "let p_tl_u l = %sObj.obj (Obj.field (Obj.field (Obj.repr l) 0) 1)" ne;
      "let rec p_list_length acc l = match l with C_nil -> acc | C_3a3a (_, dml_t) -> \
       p_list_length (acc + 1) dml_t";
      "";
    ]

let emit_program ~mode ?degraded ~instrument tprog =
  let ctx =
    {
      mode;
      degraded = Option.value degraded ~default:(fun _ -> false);
      degrade_fc = Option.is_some degraded;
      instrument;
      fc = Hashtbl.create 8;
      exns = Hashtbl.create 8;
    }
  in
  Hashtbl.replace ctx.exns "Subscript" ();
  Hashtbl.replace ctx.exns "Div" ();
  let types = Buffer.create 256 in
  let decls = Buffer.create 4096 in
  let bound = ref S.empty in
  List.iter
    (fun top ->
      match top with
      | Tast.TTdatatype dt ->
          Buffer.add_string types (emit_datatype dt);
          Buffer.add_char types '\n'
      | Tast.TTtyperef _ | Tast.TTassert _ | Tast.TTtypedef _ -> ()
      | Tast.TTdec d ->
          let bound', txt = emit_dec ctx ~toplevel:true !bound d in
          bound := bound';
          if txt <> "" then begin
            Buffer.add_string decls txt;
            Buffer.add_char decls '\n'
          end)
    tprog;
  let fc_defs =
    Hashtbl.fold (fun _ def acc -> def :: acc) ctx.fc [] |> List.sort compare
  in
  String.concat "\n"
    ([
       "(* generated by dml codegen — do not edit *)";
       "exception E_Subscript";
       "exception E_Div";
       "let dml_dyn = ref 0";
       "let dml_elim = ref 0";
       "(* === dml:types === *)";
       Buffer.contents types;
       "(* === dml:prims === *)";
       helpers ~instrument;
     ]
    @ fc_defs
    @ [ "(* === dml:program === *)"; Buffer.contents decls; "(* === dml:end === *)"; "" ])

(* --- the driver epilogue and section slicing ------------------------------------ *)

let driver_marker = "(* === dml:driver === *)"
let program_marker = "(* === dml:program === *)"
let end_marker = "(* === dml:end === *)"

let find_sub haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let program_section src =
  match find_sub src program_marker with
  | None -> src
  | Some i ->
      let start = i + String.length program_marker in
      let rest = String.sub src start (String.length src - start) in
      let stop =
        match (find_sub rest driver_marker, find_sub rest end_marker) with
        | Some a, Some b -> Stdlib.min a b
        | Some a, None | None, Some a -> a
        | None, None -> String.length rest
      in
      String.sub rest 0 stop

let epilogue ~name ~mode ~instrument ~repeats =
  let mode_s = match mode with Prims.Checked -> "checked" | Prims.Unchecked -> "unchecked" in
  let header =
    [
      "let () =";
      "  let dml_scale = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 \
       in";
      "  print_string \"dml-native/1\\n\";";
      fmt "  print_string (\"benchmark \" ^ %S ^ \"\\n\");" name;
      fmt "  print_string \"mode %s\\n\";" mode_s;
      "  print_string (\"scale \" ^ string_of_int dml_scale ^ \"\\n\");";
    ]
  in
  let body =
    if instrument then
      [
        "  let dml_summary = dml_run dml_scale in";
        "  print_string (\"summary \" ^ dml_summary ^ \"\\n\");";
        "  print_string (\"eliminated \" ^ string_of_int !dml_elim ^ \"\\n\");";
        "  print_string (\"dynamic \" ^ string_of_int !dml_dyn ^ \"\\n\")";
      ]
    else
      [
        "  let dml_summary = ref \"\" in";
        "  let dml_best = ref infinity in";
        fmt "  for dml_i = 1 to %d do" repeats;
        "    Gc.full_major ();";
        "    let dml_t0 = Unix.gettimeofday () in";
        "    let dml_s = Sys.opaque_identity (dml_run dml_scale) in";
        "    let dml_dt = Unix.gettimeofday () -. dml_t0 in";
        "    if dml_i = 1 then dml_summary := dml_s;";
        "    if dml_dt < !dml_best then dml_best := dml_dt";
        "  done;";
        "  print_string (\"summary \" ^ !dml_summary ^ \"\\n\");";
        "  print_string (\"time_s \" ^ Printf.sprintf \"%.9f\" !dml_best ^ \"\\n\")";
      ]
  in
  String.concat "\n" (header @ body) ^ "\n"

let emit_executable ~name ~mode ?degraded ?(repeats = 5) ~instrument ~driver tprog =
  emit_program ~mode ?degraded ~instrument tprog
  ^ driver_marker ^ "\n" ^ driver ^ "\n" ^ epilogue ~name ~mode ~instrument ~repeats

(* --- toolchain ------------------------------------------------------------------- *)

type toolchain = {
  tc_name : string;
  tc_compile : src:string -> exe:string -> string;
}

let have cmd = Sys.command (fmt "command -v %s > /dev/null 2>&1" cmd) = 0

let find_toolchain () =
  if have "ocamlfind" && Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0 then
    Ok
      {
        tc_name = "ocamlfind ocamlopt";
        tc_compile =
          (fun ~src ~exe ->
            fmt "ocamlfind ocamlopt -package unix -linkpkg -w -a %s -o %s"
              (Filename.quote src) (Filename.quote exe));
      }
  else if have "ocamlopt" then
    Ok
      {
        tc_name = "ocamlopt";
        tc_compile =
          (fun ~src ~exe ->
            fmt "ocamlopt -w -a -I +unix unix.cmxa %s -o %s" (Filename.quote src)
              (Filename.quote exe));
      }
  else if have "ocamlc" then
    Ok
      {
        tc_name = "ocamlc";
        tc_compile =
          (fun ~src ~exe ->
            fmt "ocamlc -w -a -I +unix unix.cma %s -o %s" (Filename.quote src)
              (Filename.quote exe));
      }
  else Error "no OCaml toolchain on PATH (tried ocamlfind ocamlopt, ocamlopt, ocamlc)"

(* --- build, run, parse ------------------------------------------------------------ *)

type run_result = {
  nr_summary : string;
  nr_time_s : float option;
  nr_eliminated : int option;
  nr_dynamic : int option;
}

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tail_of path =
  match read_file path with
  | exception _ -> ""
  | s ->
      let s = String.trim s in
      if String.length s <= 400 then s else String.sub s (String.length s - 400) 400

let fresh_dir () =
  let base = Filename.temp_file "dml_native_" "" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let cleanup_dir dir =
  match Sys.readdir dir with
  | exception _ -> ()
  | entries ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ()) entries;
      (try Sys.rmdir dir with _ -> ())

let parse_protocol name text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | first :: rest when String.trim first = "dml-native/1" ->
      let summary = ref None in
      let time_s = ref None in
      let eliminated = ref None in
      let dynamic = ref None in
      let strip prefix line =
        let pl = String.length prefix in
        if String.length line >= pl && String.sub line 0 pl = prefix then
          Some (String.sub line pl (String.length line - pl))
        else None
      in
      List.iter
        (fun line ->
          match strip "summary " line with
          | Some s -> summary := Some s
          | None -> (
              match strip "time_s " line with
              | Some s -> time_s := float_of_string_opt (String.trim s)
              | None -> (
                  match strip "eliminated " line with
                  | Some s -> eliminated := int_of_string_opt (String.trim s)
                  | None -> (
                      match strip "dynamic " line with
                      | Some s -> dynamic := int_of_string_opt (String.trim s)
                      | None -> ()))))
        rest;
      (match !summary with
      | None -> Error (name ^ ": native binary reported no summary line")
      | Some s ->
          Ok { nr_summary = s; nr_time_s = !time_s; nr_eliminated = !eliminated;
               nr_dynamic = !dynamic })
  | _ -> Error (name ^ ": native binary did not speak dml-native/1")

let build_and_run ~name ~mode ?degraded ?(repeats = 5) ~instrument ~driver ~scale tprog =
  match find_toolchain () with
  | Error m -> Error m
  | Ok tc -> (
      match emit_executable ~name ~mode ?degraded ~repeats ~instrument ~driver tprog with
      | exception Failure msg -> Error (name ^ ": " ^ msg)
      | text ->
          let dir = fresh_dir () in
          let src = Filename.concat dir "main.ml" in
          let exe = Filename.concat dir "main.exe" in
          let log = Filename.concat dir "compile.log" in
          write_file src text;
          let cmd = fmt "%s > %s 2>&1" (tc.tc_compile ~src ~exe) (Filename.quote log) in
          if Sys.command cmd <> 0 then
            (* keep the directory: the generated source is the evidence *)
            Error
              (fmt "%s: native compilation failed (%s); sources kept in %s: %s" name
                 tc.tc_name dir (tail_of log))
          else begin
            let out = Filename.concat dir "out.txt" in
            let errf = Filename.concat dir "err.txt" in
            let rc =
              Sys.command
                (fmt "%s %d > %s 2> %s" (Filename.quote exe) scale (Filename.quote out)
                   (Filename.quote errf))
            in
            if rc <> 0 then
              Error
                (fmt "%s: native binary exited %d; sources kept in %s: %s" name rc dir
                   (tail_of errf))
            else begin
              let result = parse_protocol name (try read_file out with _ -> "") in
              (match result with Ok _ -> cleanup_dir dir | Error _ -> ());
              result
            end
          end)
