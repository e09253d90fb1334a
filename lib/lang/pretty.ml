open Ast
open Format

(* --- index expressions ----------------------------------------------------- *)

(* precedence: or 1, and 2, comparison 3, additive 4, multiplicative 5,
   unary 6, atom 7.  min/max/abs/sgn/div/mod print in function form, which
   the parser accepts everywhere. *)

let ibinop_info = function
  | Oor -> (`Infix "\\/", 1)
  | Oand -> (`Infix "/\\", 2)
  | Olt -> (`Infix "<", 3)
  | Ole -> (`Infix "<=", 3)
  | Oeq -> (`Infix "=", 3)
  | One -> (`Infix "<>", 3)
  | Oge -> (`Infix ">=", 3)
  | Ogt -> (`Infix ">", 3)
  | Oadd -> (`Infix "+", 4)
  | Osub -> (`Infix "-", 4)
  | Omul -> (`Infix "*", 5)
  | Odiv -> (`Call "div", 0)
  | Omod -> (`Call "mod", 0)
  | Omin -> (`Call "min", 0)
  | Omax -> (`Call "max", 0)

let rec pp_sindex_prec prec fmt si =
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match si with
  | Siname x -> pp_print_string fmt x
  | Siconst n -> if n < 0 then fprintf fmt "(0 - %d)" (-n) else fprintf fmt "%d" n
  | Sibool b -> pp_print_bool fmt b
  | Sineg a -> paren 6 (fun fmt -> fprintf fmt "- %a" (pp_sindex_prec 6) a)
  | Sinot a -> paren 6 (fun fmt -> fprintf fmt "~%a" (pp_sindex_prec 6) a)
  | Siabs a -> fprintf fmt "abs(%a)" (pp_sindex_prec 0) a
  | Sisgn a -> fprintf fmt "sgn(%a)" (pp_sindex_prec 0) a
  | Sibin (op, a, b) -> (
      match ibinop_info op with
      | `Call name, _ ->
          fprintf fmt "%s(%a, %a)" name (pp_sindex_prec 0) a (pp_sindex_prec 0) b
      | `Infix sym, p ->
          (* comparisons are non-associative in the grammar (they chain into
             conjunctions), so both operands print one level up *)
          let lp = if p = 3 then p + 1 else p in
          paren p (fun fmt ->
              fprintf fmt "%a %s %a" (pp_sindex_prec lp) a sym (pp_sindex_prec (p + 1)) b))

let pp_sindex fmt si = pp_sindex_prec 0 fmt si

(* --- types -------------------------------------------------------------------- *)

let pp_quant opened closed fmt (q : quant) =
  fprintf fmt "%s%a%a%s" opened
    (pp_print_list
       ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
       (fun fmt (x, s) -> fprintf fmt "%s:%s" x s))
    q.qvars
    (fun fmt -> function
      | None -> ()
      | Some cond -> fprintf fmt " | %a" pp_sindex cond)
    q.qcond closed

(* precedence: arrow/quantifier 0, tuple 1, postfix/atom 2 *)
let rec pp_stype_prec prec fmt t =
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match t with
  | STvar v -> fprintf fmt "'%s" v
  | STpi (q, body) ->
      paren 0 (fun fmt -> fprintf fmt "%a %a" (pp_quant "{" "}") q (pp_stype_prec 0) body)
  | STsigma (q, body) ->
      paren 0 (fun fmt -> fprintf fmt "%a %a" (pp_quant "[" "]") q (pp_stype_prec 0) body)
  | STarrow (a, b) ->
      paren 0 (fun fmt -> fprintf fmt "%a -> %a" (pp_stype_prec 1) a (pp_stype_prec 0) b)
  | STtuple ts ->
      paren 1 (fun fmt ->
          pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt " * ") (pp_stype_prec 2) fmt
            ts)
  | STcon (targs, name, idxs) ->
      let pp_idxs fmt = function
        | [] -> ()
        | idxs ->
            fprintf fmt "(%a)"
              (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_sindex)
              idxs
      in
      (match targs with
      | [] -> fprintf fmt "%s%a" name pp_idxs idxs
      | [ arg ] -> fprintf fmt "%a %s%a" (pp_stype_prec 2) arg name pp_idxs idxs
      | args ->
          fprintf fmt "(%a) %s%a"
            (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (pp_stype_prec 0))
            args name pp_idxs idxs)

let pp_stype fmt t = pp_stype_prec 0 fmt t

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* --- patterns ------------------------------------------------------------------- *)

(* precedence: cons 1, constructor application 2, atom 3 *)
let rec pp_pat_prec prec fmt p =
  let paren pr body = if prec > pr then fprintf fmt "(%t)" body else body fmt in
  match p.pdesc with
  | Pwild -> pp_print_string fmt "_"
  | Pvar x -> pp_print_string fmt x
  | Pint n -> if n < 0 then fprintf fmt "~%d" (-n) else fprintf fmt "%d" n
  | Pbool b -> pp_print_bool fmt b
  | Pchar c -> fprintf fmt "#\"%s\"" (escape_string (String.make 1 c))
  | Pstring str -> fprintf fmt "\"%s\"" (escape_string str)
  | Ptuple [] -> pp_print_string fmt "()"
  | Ptuple ps ->
      fprintf fmt "(%a)"
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (pp_pat_prec 0))
        ps
  | Pcon ("::", Some { pdesc = Ptuple [ a; b ]; _ }) ->
      paren 1 (fun fmt -> fprintf fmt "%a :: %a" (pp_pat_prec 2) a (pp_pat_prec 1) b)
  | Pcon (c, None) -> pp_print_string fmt c
  | Pcon (c, Some arg) -> paren 2 (fun fmt -> fprintf fmt "%s %a" c (pp_pat_prec 3) arg)

let pp_pat fmt p = pp_pat_prec 0 fmt p

(* --- expressions ------------------------------------------------------------------ *)

let infix_level = function
  | "=" | "<>" | "<" | "<=" | ">" | ">=" -> Some 3
  | "+" | "-" | "^" -> Some 5
  | "*" | "div" | "mod" -> Some 6
  | _ -> None

(* precedence: delimited/lowest 0, orelse 1, andalso 2, comparison 3,
   cons 4, additive 5, multiplicative 6, unary 7, application 8, atom 9 *)
let rec pp_exp_prec prec fmt e =
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match e.edesc with
  | Eint n ->
      (* a negative literal in function position must be parenthesised:
         [~20 y] lexes as the literal followed by a stray variable *)
      if n < 0 then
        if prec >= 8 then fprintf fmt "(~%d)" (-n) else fprintf fmt "~%d" (-n)
      else fprintf fmt "%d" n
  | Ebool b -> pp_print_bool fmt b
  | Echar c -> fprintf fmt "#\"%s\"" (escape_string (String.make 1 c))
  | Estring str -> fprintf fmt "\"%s\"" (escape_string str)
  | Evar x -> pp_print_string fmt x
  | Etuple [] -> pp_print_string fmt "()"
  | Etuple es ->
      fprintf fmt "(%a)"
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (pp_exp_prec 0))
        es
  | Eif (c, t, f) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<hv>if %a@ then %a@ else %a@]" (pp_exp_prec 0) c (pp_exp_prec 0) t
            (pp_exp_prec 0) f)
  | Ecase (scrut, arms) ->
      paren 0 (fun fmt ->
          fprintf fmt "@[<v>case %a of@ " (pp_exp_prec 0) scrut;
          let last = List.length arms - 1 in
          List.iteri
            (fun i (p, body) ->
              (* non-final arm bodies are parenthesised so an inner case or
                 fn cannot swallow the following arms *)
              let body_prec = if i = last then 0 else 1 in
              fprintf fmt "%s%a => %a%s"
                (if i = 0 then "  " else "| ")
                pp_pat p (pp_exp_prec body_prec) body
                (if i = last then "" else "\n"))
            arms)
  | Efn (p, body) -> paren 0 (fun fmt -> fprintf fmt "fn %a => %a" pp_pat p (pp_exp_prec 0) body)
  | Elet (decs, body) ->
      fprintf fmt "@[<v>let@;<1 2>@[<v>%a@]@ in@;<1 2>@[%a@]@ end@]"
        (pp_print_list ~pp_sep:pp_print_space pp_dec)
        decs (pp_exp_prec 0) body
  | Eorelse (a, b) ->
      paren 1 (fun fmt -> fprintf fmt "%a orelse %a" (pp_exp_prec 2) a (pp_exp_prec 1) b)
  | Eandalso (a, b) ->
      paren 2 (fun fmt -> fprintf fmt "%a andalso %a" (pp_exp_prec 3) a (pp_exp_prec 2) b)
  | Eannot (inner, t) -> fprintf fmt "(%a : %a)" (pp_exp_prec 0) inner pp_stype t
  | Eapp ({ edesc = Evar "::"; _ }, { edesc = Etuple [ a; b ]; _ }) ->
      paren 4 (fun fmt -> fprintf fmt "%a :: %a" (pp_exp_prec 5) a (pp_exp_prec 4) b)
  | Eapp ({ edesc = Evar op; _ }, { edesc = Etuple [ a; b ]; _ })
    when infix_level op <> None ->
      let p = Option.get (infix_level op) in
      (* comparisons are non-associative; arithmetic is left-associative *)
      let lp = if p = 3 then p + 1 else p in
      paren p (fun fmt ->
          fprintf fmt "%a %s %a" (pp_exp_prec lp) a op (pp_exp_prec (p + 1)) b)
  | Eapp ({ edesc = Evar "~"; _ }, arg) ->
      paren 7 (fun fmt -> fprintf fmt "~ %a" (pp_exp_prec 7) arg)
  | Eapp ({ edesc = Evar "!"; _ }, arg) ->
      paren 7 (fun fmt -> fprintf fmt "!%a" (pp_exp_prec 9) arg)
  | Eapp ({ edesc = Evar ":="; _ }, { edesc = Etuple [ a; b ]; _ }) ->
      (* := sits between andalso and the comparisons *)
      paren 3 (fun fmt -> fprintf fmt "%a := %a" (pp_exp_prec 4) a (pp_exp_prec 3) b)
  | Eapp (f, a) -> paren 8 (fun fmt -> fprintf fmt "%a %a" (pp_exp_prec 8) f (pp_exp_prec 9) a)
  | Eraise e -> paren 0 (fun fmt -> fprintf fmt "raise %a" (pp_exp_prec 1) e)
  | Ehandle (e, arms) ->
      (* handle binds loosest: always parenthesise when embedded *)
      paren 0 (fun fmt ->
          fprintf fmt "%a handle " (pp_exp_prec 1) e;
          let last = List.length arms - 1 in
          List.iteri
            (fun i (p, body) ->
              let body_prec = if i = last then 0 else 1 in
              fprintf fmt "%s%a => %a"
                (if i = 0 then "" else " | ")
                pp_pat p (pp_exp_prec body_prec) body)
            arms)

and pp_dec fmt d =
  match d.ddesc with
  | Dval (p, e, annot) ->
      fprintf fmt "@[<hv 2>val %a =@ %a@]" pp_pat p (pp_exp_prec 0) e;
      (match annot with
      | None -> ()
      | Some t -> (
          match p.pdesc with
          | Pvar x -> fprintf fmt "@ where %s <| %a" x pp_stype t
          | _ -> ()))
  | Dexception (name, arg) -> (
      match arg with
      | None -> fprintf fmt "exception %s" name
      | Some t -> fprintf fmt "exception %s of %a" name (pp_stype_prec 1) t)
  | Dfun fds ->
      List.iteri
        (fun i fd ->
          fprintf fmt "@[<v>%s" (if i = 0 then "fun" else "and");
          (match fd.ftyparams with
          | [] -> ()
          | tvs ->
              fprintf fmt "(%a)"
                (pp_print_list
                   ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
                   (fun fmt v -> fprintf fmt "'%s" v))
                tvs);
          List.iter (fun q -> pp_quant "{" "}" fmt q) fd.fiparams;
          let last = List.length fd.fclauses - 1 in
          List.iteri
            (fun j (pats, body) ->
              (* non-final clause bodies are parenthesised so an inner case
                 or fn cannot swallow the next clause's leading bar *)
              let body_prec = if j = last then 0 else 1 in
              if j > 0 then fprintf fmt "@   | ";
              fprintf fmt " %s %a = %a" fd.fname
                (pp_print_list ~pp_sep:pp_print_space (pp_pat_prec 3))
                pats (pp_exp_prec body_prec) body)
            fd.fclauses;
          (match fd.fannot with
          | None -> ()
          | Some t -> fprintf fmt "@ where %s <| %a" fd.fname pp_stype t);
          fprintf fmt "@]";
          if i < List.length fds - 1 then fprintf fmt "@ ")
        fds

let pp_exp fmt e = pp_exp_prec 0 fmt e

(* --- top level ----------------------------------------------------------------------- *)

let pp_typarams fmt = function
  | [] -> ()
  | [ v ] -> fprintf fmt "'%s " v
  | vs ->
      fprintf fmt "(%a) "
        (pp_print_list
           ~pp_sep:(fun fmt () -> pp_print_string fmt ", ")
           (fun fmt v -> fprintf fmt "'%s" v))
        vs

let pp_top fmt = function
  | Tdatatype d ->
      fprintf fmt "@[<v>datatype %a%s =@   %a@]" pp_typarams d.dt_params d.dt_name
        (pp_print_list
           ~pp_sep:(fun fmt () -> fprintf fmt "@ | ")
           (fun fmt (c, arg) ->
             match arg with
             | None -> pp_print_string fmt c
             | Some t -> fprintf fmt "%s of %a" c (pp_stype_prec 1) t))
        d.dt_cons
  | Ttyperef tr ->
      fprintf fmt "@[<v>typeref %a%s of %s with@   %a@]" pp_typarams tr.tr_params tr.tr_name
        (String.concat " * " tr.tr_sorts)
        (pp_print_list
           ~pp_sep:(fun fmt () -> fprintf fmt "@ | ")
           (fun fmt (c, t) -> fprintf fmt "%s <| %a" c pp_stype t))
        tr.tr_cons
  | Tassert asserts ->
      fprintf fmt "@[<v>assert %a@]"
        (pp_print_list
           ~pp_sep:(fun fmt () -> fprintf fmt "@ and ")
           (fun fmt (x, t) -> fprintf fmt "%s <| %a" x pp_stype t))
        asserts
  | Ttypedef (name, t) -> fprintf fmt "type %s = %a" name pp_stype t
  | Tdec d -> pp_dec fmt d

let pp_program fmt prog =
  pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "@.@.") pp_top fmt prog;
  pp_print_newline fmt ()

let exp_to_string e = asprintf "%a" pp_exp e
let stype_to_string t = asprintf "%a" pp_stype t
let program_to_string p = asprintf "%a" pp_program p

(* --- structural equality (ignoring locations) ------------------------------------ *)

module Equal = struct
  let rec sindex a b =
    match (a, b) with
    | Siname x, Siname y -> x = y
    | Siconst x, Siconst y -> x = y
    | Sibool x, Sibool y -> x = y
    | Sibin (o1, a1, b1), Sibin (o2, a2, b2) -> o1 = o2 && sindex a1 a2 && sindex b1 b2
    | Sineg x, Sineg y | Sinot x, Sinot y | Siabs x, Siabs y | Sisgn x, Sisgn y -> sindex x y
    | (Siname _ | Siconst _ | Sibool _ | Sibin _ | Sineg _ | Sinot _ | Siabs _ | Sisgn _), _ ->
        false

  let quant (a : quant) (b : quant) =
    a.qvars = b.qvars
    &&
    match (a.qcond, b.qcond) with
    | None, None -> true
    | Some x, Some y -> sindex x y
    | _ -> false

  let rec stype a b =
    match (a, b) with
    | STvar x, STvar y -> x = y
    | STcon (t1, n1, i1), STcon (t2, n2, i2) ->
        n1 = n2
        && List.length t1 = List.length t2
        && List.for_all2 stype t1 t2
        && List.length i1 = List.length i2
        && List.for_all2 sindex i1 i2
    | STtuple t1, STtuple t2 -> List.length t1 = List.length t2 && List.for_all2 stype t1 t2
    | STarrow (a1, b1), STarrow (a2, b2) -> stype a1 a2 && stype b1 b2
    | STpi (q1, t1), STpi (q2, t2) | STsigma (q1, t1), STsigma (q2, t2) ->
        quant q1 q2 && stype t1 t2
    | (STvar _ | STcon _ | STtuple _ | STarrow _ | STpi _ | STsigma _), _ -> false

  let rec pat a b =
    match (a.pdesc, b.pdesc) with
    | Pwild, Pwild -> true
    | Pvar x, Pvar y -> x = y
    | Pint x, Pint y -> x = y
    | Pbool x, Pbool y -> x = y
    | Ptuple p1, Ptuple p2 -> List.length p1 = List.length p2 && List.for_all2 pat p1 p2
    | Pchar a, Pchar b -> a = b
    | Pstring a, Pstring b -> a = b
    | Pcon (c1, None), Pcon (c2, None) -> c1 = c2
    | Pcon (c1, Some x), Pcon (c2, Some y) -> c1 = c2 && pat x y
    | (Pwild | Pvar _ | Pint _ | Pbool _ | Pchar _ | Pstring _ | Ptuple _ | Pcon _), _ -> false

  let opt f a b =
    match (a, b) with None, None -> true | Some x, Some y -> f x y | _ -> false

  let rec exp a b =
    match (a.edesc, b.edesc) with
    | Eint x, Eint y -> x = y
    | Ebool x, Ebool y -> x = y
    | Echar x, Echar y -> x = y
    | Estring x, Estring y -> x = y
    | Evar x, Evar y -> x = y
    | Etuple e1, Etuple e2 -> List.length e1 = List.length e2 && List.for_all2 exp e1 e2
    | Eapp (f1, a1), Eapp (f2, a2) -> exp f1 f2 && exp a1 a2
    | Eif (a1, b1, c1), Eif (a2, b2, c2) -> exp a1 a2 && exp b1 b2 && exp c1 c2
    | Ecase (s1, arms1), Ecase (s2, arms2) ->
        exp s1 s2
        && List.length arms1 = List.length arms2
        && List.for_all2 (fun (p1, e1) (p2, e2) -> pat p1 p2 && exp e1 e2) arms1 arms2
    | Efn (p1, e1), Efn (p2, e2) -> pat p1 p2 && exp e1 e2
    | Elet (d1, e1), Elet (d2, e2) ->
        List.length d1 = List.length d2 && List.for_all2 dec d1 d2 && exp e1 e2
    | Eandalso (a1, b1), Eandalso (a2, b2) | Eorelse (a1, b1), Eorelse (a2, b2) ->
        exp a1 a2 && exp b1 b2
    | Eannot (e1, t1), Eannot (e2, t2) -> exp e1 e2 && stype t1 t2
    | Eraise e1, Eraise e2 -> exp e1 e2
    | Ehandle (e1, arms1), Ehandle (e2, arms2) ->
        exp e1 e2
        && List.length arms1 = List.length arms2
        && List.for_all2 (fun (p1, b1) (p2, b2) -> pat p1 p2 && exp b1 b2) arms1 arms2
    | ( ( Eint _ | Ebool _ | Echar _ | Estring _ | Evar _ | Etuple _ | Eapp _ | Eif _ | Ecase _
        | Efn _ | Elet _ | Eandalso _ | Eorelse _ | Eannot _ | Eraise _ | Ehandle _ ),
        _ ) ->
        false

  and dec a b =
    match (a.ddesc, b.ddesc) with
    | Dval (p1, e1, t1), Dval (p2, e2, t2) -> pat p1 p2 && exp e1 e2 && opt stype t1 t2
    | Dfun f1, Dfun f2 -> List.length f1 = List.length f2 && List.for_all2 fundef f1 f2
    | Dexception (n1, t1), Dexception (n2, t2) -> n1 = n2 && opt stype t1 t2
    | (Dval _ | Dfun _ | Dexception _), _ -> false

  and fundef (a : fundef) (b : fundef) =
    a.fname = b.fname
    && a.ftyparams = b.ftyparams
    && List.length a.fiparams = List.length b.fiparams
    && List.for_all2 quant a.fiparams b.fiparams
    && List.length a.fclauses = List.length b.fclauses
    && List.for_all2
         (fun (p1, e1) (p2, e2) ->
           List.length p1 = List.length p2 && List.for_all2 pat p1 p2 && exp e1 e2)
         a.fclauses b.fclauses
    && opt stype a.fannot b.fannot

  let top a b =
    match (a, b) with
    | Tdatatype d1, Tdatatype d2 ->
        d1.dt_params = d2.dt_params
        && d1.dt_name = d2.dt_name
        && List.length d1.dt_cons = List.length d2.dt_cons
        && List.for_all2
             (fun (c1, t1) (c2, t2) -> c1 = c2 && opt stype t1 t2)
             d1.dt_cons d2.dt_cons
    | Ttyperef t1, Ttyperef t2 ->
        t1.tr_params = t2.tr_params
        && t1.tr_name = t2.tr_name
        && t1.tr_sorts = t2.tr_sorts
        && List.length t1.tr_cons = List.length t2.tr_cons
        && List.for_all2 (fun (c1, x1) (c2, x2) -> c1 = c2 && stype x1 x2) t1.tr_cons t2.tr_cons
    | Tassert a1, Tassert a2 ->
        List.length a1 = List.length a2
        && List.for_all2 (fun (x1, t1) (x2, t2) -> x1 = x2 && stype t1 t2) a1 a2
    | Ttypedef (n1, t1), Ttypedef (n2, t2) -> n1 = n2 && stype t1 t2
    | Tdec d1, Tdec d2 -> dec d1 d2
    | (Tdatatype _ | Ttyperef _ | Tassert _ | Ttypedef _ | Tdec _), _ -> false

  let program a b = List.length a = List.length b && List.for_all2 top a b
end

(* --- erasure to plain ML ------------------------------------------------------------ *)

(* DML is a conservative extension of ML: dropping a program's dependent
   annotations leaves the ML program it refines.  The top-level [type],
   [assert], [datatype] and [typeref] declarations are library signatures,
   not annotations, and stay. *)
let rec erase_exp e =
  match e.edesc with
  | Eannot (inner, _) -> { e with edesc = (erase_exp inner).edesc }
  | _ -> map_exp ~exp:erase_exp ~dec:erase_dec e

and erase_dec d =
  let d = map_dec ~exp:erase_exp d in
  let ddesc =
    match d.ddesc with
    | Dval (p, e, _) -> Dval (p, e, None)
    | Dfun fs ->
        Dfun (List.map (fun f -> { f with ftyparams = []; fiparams = []; fannot = None }) fs)
    | Dexception _ as dd -> dd
  in
  { d with ddesc }

let erase = List.map (function Tdec d -> Tdec (erase_dec d) | top -> top)
