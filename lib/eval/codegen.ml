(* Compile-to-OCaml-source backend: print the lowered program ({!Lower})
   as OCaml and drive the installed toolchain (see codegen.mli). *)

open Dml_lang
open Dml_mltype

let fmt = Printf.sprintf

(* --- name mangling --------------------------------------------------------- *)

(* Identifier-safe, injective, and stable: the one-line kernel entries in
   Dml_programs.Native_drivers name mangled identifiers.  Characters outside
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

(* --- primitive emission ------------------------------------------------------ *)

type ctx = {
  instrument : bool;  (* count eliminated/dynamic checks in the binary *)
  fc : (string, string) Hashtbl.t;  (* first-class wrappers actually used *)
}

(* A saturated primitive call in its flavour, from the primitive's native
   realisation ({!Prims.native}) over the operand texts. *)
let direct ctx ~checked (p : Prims.prim) args =
  (* [$i] stands for the i-th operand *)
  let fill template =
    match String.split_on_char '$' template with
    | [] -> ""
    | first :: rest ->
        let operand s =
          List.nth args (Char.code s.[0] - Char.code '0') ^ String.sub s 1 (String.length s - 1)
        in
        String.concat "" (first :: List.map operand rest)
  in
  match p.Prims.native with
  | Prims.Expr t -> fill t
  | Prims.Helper (_, Some inline) when (not checked) && not ctx.instrument -> fill inline
  | Prims.Helper (stem, _) ->
      fmt "(p_%s_%s %s)" stem (if checked then "c" else "u") (String.concat " " args)

(* First-class use: a tuple-taking closure over the direct emission. *)
let first_class ctx (p : Prims.prim) ~checked =
  let name = p.Prims.name in
  let wname = "p_fc_" ^ sanitize name in
  if not (Hashtbl.mem ctx.fc name) then begin
    let params = List.filteri (fun i _ -> i < p.Prims.arity) [ "dml_a"; "dml_b"; "dml_c" ] in
    let lhs = match params with [ a ] -> a | ps -> "(" ^ String.concat ", " ps ^ ")" in
    Hashtbl.replace ctx.fc name (fmt "let %s = fun %s -> %s" wname lhs (direct ctx ~checked p params))
  end;
  wname

(* --- expression and declaration emission -------------------------------------- *)

let con_name (c : Ir.con) =
  let name = c.Ir.con.Value.name in
  if c.Ir.exn then mangle_exn name else mangle_con name

let rec emit_pat (p : Ir.pat) =
  match p with
  | Ir.Pwild -> "_"
  | Ir.Pvar v -> mangle_var (Ir.var_name v)
  | Ir.Pint n -> fmt "(%d)" n
  | Ir.Pbool b -> string_of_bool b
  | Ir.Pchar c -> fmt "'%s'" (Char.escaped c)
  | Ir.Pstring s -> fmt "\"%s\"" (String.escaped s)
  | Ir.Ptuple ps -> "(" ^ String.concat ", " (List.map emit_pat ps) ^ ")"
  | Ir.Pcon (c, None) -> con_name c
  | Ir.Pcon (c, Some argp) -> fmt "(%s (%s))" (con_name c) (emit_pat argp)

let rec emit_exp ctx (e : Ir.exp) : string =
  match e with
  | Ir.Int n -> if n < 0 then fmt "(%d)" n else string_of_int n
  | Ir.Bool b -> string_of_bool b
  | Ir.Char c -> fmt "'%s'" (Char.escaped c)
  | Ir.String s -> fmt "\"%s\"" (String.escaped s)
  | Ir.Var (Ir.Prim (p, checked)) -> first_class ctx p ~checked
  | Ir.Var v -> mangle_var (Ir.var_name v)
  | Ir.Con (c, None) -> con_name c
  | Ir.Con_fn c -> fmt "(fun dml_x -> %s dml_x)" (con_name c)
  | Ir.Con (c, Some arg) -> fmt "(%s (%s))" (con_name c) (emit_exp ctx arg)
  | Ir.Tuple [] -> "()"
  | Ir.Tuple es -> in_order ctx es (fun txts -> "(" ^ String.concat ", " txts ^ ")")
  | Ir.Prim_call { prim; checked; args } -> in_order ctx args (direct ctx ~checked prim)
  | Ir.Known_call { fn; spread = Some _; args; _ } -> call ctx (Ir.Var fn) (Ir.Tuple args)
  | Ir.Known_call { fn; spread = None; args; _ } -> emit_exp ctx (Ir.app_chain fn args)
  | Ir.App (f, a) -> call ctx f a
  | Ir.If (c, t, f) ->
      fmt "(if %s then %s else %s)" (emit_exp ctx c) (emit_exp ctx t) (emit_exp ctx f)
  | Ir.Case (scrut, arms) -> fmt "(match %s with %s)" (emit_exp ctx scrut) (emit_arms ctx arms)
  | Ir.Fn (p, _, body) -> fmt "(function %s -> %s)" (emit_pat p) (emit_exp ctx body)
  | Ir.Let (decs, body) ->
      "("
      ^ String.concat "" (List.map (fun d -> emit_dec ctx ~toplevel:false d ^ " in ") decs)
      ^ emit_exp ctx body ^ ")"
  | Ir.Andalso (a, b) -> fmt "(%s && %s)" (emit_exp ctx a) (emit_exp ctx b)
  | Ir.Orelse (a, b) -> fmt "(%s || %s)" (emit_exp ctx a) (emit_exp ctx b)
  | Ir.Raise inner -> fmt "(raise %s)" (emit_exp ctx inner)
  | Ir.Handle (body, arms) -> fmt "(try %s with %s)" (emit_exp ctx body) (emit_arms ctx arms)

(* A call.  A literal tuple operand stays syntactic, so that ocamlopt passes
   a tupled function's fields without building the tuple. *)
and call ctx f a =
  match a with
  | Ir.Tuple (_ :: _ :: _ as es) ->
      in_order ctx (f :: es) (fun txts ->
          fmt "(%s (%s))" (List.hd txts) (String.concat ", " (List.tl txts)))
  | _ -> in_order ctx [ f; a ] (fun txts -> "(" ^ String.concat " " txts ^ ")")

(* Operands in SML's order.  OCaml leaves the order of an application's
   arguments and a tuple's fields unspecified (ocamlopt runs them right to
   left), so when two or more operands are not atoms, the non-atoms are
   let-bound first, in source order.  Atoms have no effects and stay inline,
   which keeps the proven access sites as [Array.unsafe_get v_a v_i]. *)
and in_order ctx es (k : string list -> string) =
  let atom = function
    | Ir.Int _ | Ir.Bool _ | Ir.Char _ | Ir.String _ | Ir.Var _
    | Ir.Con (_, None) | Ir.Con_fn _ ->
        true
    | _ -> false
  in
  let txts = List.map (emit_exp ctx) es in
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

and emit_arms ctx arms =
  String.concat " "
    (List.map (fun (p, body) -> fmt "| %s -> %s" (emit_pat p) (emit_exp ctx body)) arms)

and emit_dec ctx ~toplevel (d : Ir.dec) : string =
  match d with
  | Ir.Dexn (name, arg) ->
      let argtxt = match arg with None -> "" | Some t -> " of " ^ pp_mlty t in
      let decl = fmt "exception %s%s" (mangle_exn name) argtxt in
      if toplevel then decl else "let " ^ decl
  | Ir.Dval (p, e) -> fmt "let %s = %s" (emit_pat p) (emit_exp ctx e)
  | Ir.Dfun fds ->
      let rec irrefutable = function
        | Ir.Pvar _ | Ir.Pwild -> true
        | Ir.Ptuple ps -> List.for_all irrefutable ps
        | _ -> false
      in
      let each (fd : Ir.fundef) =
        let name = mangle_var (Ir.var_name fd.Ir.var) in
        (* the curried parameters: a spread tuple is one *)
        let curried ps = match fd.Ir.spread with Some _ -> [ Ir.Ptuple ps ] | None -> ps in
        match fd.Ir.clauses with
        | [ (params, body) ] when List.for_all irrefutable params ->
            (* the common single-clause case binds its parameters directly *)
            fmt "%s %s = %s" name
              (String.concat " " (List.map emit_pat (curried params)))
              (emit_exp ctx body)
        | clauses ->
            let params = List.init fd.Ir.arity (fun i -> fmt "dml_a%d" i) in
            let tuple = function [ p ] -> p | ps -> "(" ^ String.concat ", " ps ^ ")" in
            let arms =
              List.map
                (fun (ps, body) ->
                  fmt "| %s -> %s" (tuple (List.map emit_pat (curried ps))) (emit_exp ctx body))
                clauses
            in
            fmt "%s %s = (match %s with %s)" name (String.concat " " params) (tuple params)
              (String.concat " " arms)
      in
      "let rec " ^ String.concat "\nand " (List.map each fds)

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
  let ctx = { instrument; fc = Hashtbl.create 8 } in
  let types = Buffer.create 256 in
  let decls = Buffer.create 4096 in
  ignore
    (List.fold_left
       (fun env top ->
         let env, top = Lower.top env top in
         (match top with
         | Some (Ir.Tdatatype dt) -> Buffer.add_string types (emit_datatype dt ^ "\n")
         | Some (Ir.Tdec (d, _)) -> Buffer.add_string decls (emit_dec ctx ~toplevel:true d ^ "\n")
         | None -> ());
         env)
       (Lower.init mode ?degraded ())
       tprog);
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
        List.fold_left Stdlib.min (String.length rest)
          (List.filter_map (find_sub rest) [ driver_marker; end_marker ])
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
  let toolchain tc_name flags =
    Ok
      {
        tc_name;
        tc_compile =
          (fun ~src ~exe ->
            fmt "%s %s %s -o %s" tc_name flags (Filename.quote src) (Filename.quote exe));
      }
  in
  if have "ocamlfind" && Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0 then
    toolchain "ocamlfind ocamlopt" "-package unix -linkpkg -w -a"
  else if have "ocamlopt" then toolchain "ocamlopt" "-w -a -I +unix unix.cmxa"
  else if have "ocamlc" then toolchain "ocamlc" "-w -a -I +unix unix.cma"
  else Error "no OCaml toolchain on PATH (tried ocamlfind ocamlopt, ocamlopt, ocamlc)"

(* --- build, run, parse ------------------------------------------------------------ *)

type run_result = {
  nr_summary : string;
  nr_time_s : float option;
  nr_eliminated : int option;
  nr_dynamic : int option;
}

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let read_file path = In_channel.with_open_bin path In_channel.input_all

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
  match String.split_on_char '\n' text with
  | first :: rest when String.trim first = "dml-native/1" -> (
      (* the rest of a field's line; the last such line wins *)
      let field key =
        let n = String.length key + 1 in
        List.fold_left
          (fun acc line ->
            if String.starts_with ~prefix:(key ^ " ") line then
              Some (String.sub line n (String.length line - n))
            else acc)
          None rest
      in
      let number parse key = Option.bind (field key) (fun s -> parse (String.trim s)) in
      match field "summary" with
      | None -> Error (name ^ ": native binary reported no summary line")
      | Some s ->
          Ok
            {
              nr_summary = s;
              nr_time_s = number float_of_string_opt "time_s";
              nr_eliminated = number int_of_string_opt "eliminated";
              nr_dynamic = number int_of_string_opt "dynamic";
            })
  | _ -> Error (name ^ ": native binary did not speak dml-native/1")

let build_and_run ~name ~mode ?degraded ?(repeats = 5) ~instrument ~driver ~scale tprog =
  let ( let* ) = Result.bind in
  let* tc = find_toolchain () in
  let* text =
    match emit_executable ~name ~mode ?degraded ~repeats ~instrument ~driver tprog with
    | text -> Ok text
    | exception (Failure msg | Value.Runtime_error msg) -> Error (name ^ ": " ^ msg)
  in
  let dir = fresh_dir () in
  let path = Filename.concat dir in
  let src = path "main.ml" and exe = path "main.exe" and log = path "compile.log" in
  write_file src text;
  (* a failure keeps the directory: the generated source is the evidence *)
  if Sys.command (fmt "%s > %s 2>&1" (tc.tc_compile ~src ~exe) (Filename.quote log)) <> 0 then
    Error
      (fmt "%s: native compilation failed (%s); sources kept in %s: %s" name tc.tc_name dir
         (tail_of log))
  else
    let out = path "out.txt" and errf = path "err.txt" in
    let rc =
      Sys.command
        (fmt "%s %d > %s 2> %s" (Filename.quote exe) scale (Filename.quote out)
           (Filename.quote errf))
    in
    if rc <> 0 then
      Error (fmt "%s: native binary exited %d; sources kept in %s: %s" name rc dir (tail_of errf))
    else
      let result = parse_protocol name (try read_file out with _ -> "") in
      if Result.is_ok result then cleanup_dir dir;
      result
