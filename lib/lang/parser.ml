open Ast
open Token

exception Error of string * Loc.t

(* The parser reads tokens on demand from a lexer and never backtracks, so
   it keeps a window of three: the last token consumed, the current one and
   the one after it (all of its lookahead, [peek2]).  Byte offsets ride
   along as plain ints, so unit boundaries cost no extra pass. *)
type state = {
  lx : Lexer.state;
  mutable cur : Token.t * Loc.t;
  mutable cur_off : int;  (* byte offset of the current token *)
  mutable cur_stop : int;  (* byte offset just past it *)
  mutable next : Token.t * Loc.t;
  mutable next_off : int;
  mutable next_stop : int;
  mutable prev_loc : Loc.t;  (* the last token consumed *)
  mutable prev_stop : int;
  mutable spans : (int * int) list;
      (* line spans of the type annotations parsed so far, innermost last;
         reproduces Table 1's "annotation lines" metric without leaking
         state across parses *)
}

let peek st = fst st.cur
let peek_loc st = snd st.cur
let peek2 st = fst st.next

(* Every token after the last is [EOF], so at [EOF] the window stays put. *)
let advance st =
  match fst st.cur with
  | EOF -> ()
  | _ ->
      st.prev_loc <- snd st.cur;
      st.prev_stop <- st.cur_stop;
      st.cur <- st.next;
      st.cur_off <- st.next_off;
      st.cur_stop <- st.next_stop;
      let lx = st.lx in
      st.next <- Lexer.next_token lx;
      st.next_off <- lx.Lexer.tok_start;
      st.next_stop <- lx.Lexer.pos

let error st msg = raise (Error (msg, peek_loc st))

let expect st tok =
  if peek st = tok then advance st
  else error st (Printf.sprintf "expected %s, found %s" (to_string tok) (to_string (peek st)))

let eat st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let expect_id st =
  match peek st with
  | ID s ->
      advance st;
      s
  | t -> error st (Printf.sprintf "expected an identifier, found %s" (to_string t))

(* ---------- index expressions ------------------------------------------- *)

(* satom: INT, true/false, identifiers, function-style operators, parens *)
let rec p_index st = p_ior st

and p_ior st =
  let lhs = p_iand st in
  if eat st VEE then Sibin (Oor, lhs, p_ior st) else lhs

and p_iand st =
  let lhs = p_icmp st in
  if eat st WEDGE then Sibin (Oand, lhs, p_iand st) else lhs

(* Comparisons chain: [0 <= i < n] means [0 <= i /\ i < n]. *)
and p_icmp st =
  let first = p_iadd st in
  let rec chain lhs acc =
    let op =
      match peek st with
      | LT -> Some Olt
      | LE -> Some Ole
      | EQ -> Some Oeq
      | NE -> Some One
      | GE -> Some Oge
      | GT -> Some Ogt
      | _ -> None
    in
    match op with
    | None -> acc
    | Some op ->
        advance st;
        let rhs = p_iadd st in
        let cmp = Sibin (op, lhs, rhs) in
        let acc = match acc with None -> Some cmp | Some a -> Some (Sibin (Oand, a, cmp)) in
        chain rhs acc
  in
  match chain first None with None -> first | Some b -> b

and p_iadd st =
  let rec loop lhs =
    match peek st with
    | PLUS ->
        advance st;
        loop (Sibin (Oadd, lhs, p_imul st))
    | MINUS ->
        advance st;
        loop (Sibin (Osub, lhs, p_imul st))
    | _ -> lhs
  in
  loop (p_imul st)

and p_imul st =
  let rec loop lhs =
    match peek st with
    | STAR ->
        advance st;
        loop (Sibin (Omul, lhs, p_iunary st))
    | DIV ->
        (* infix div; the prefix form div(i,j) is handled in p_iatom *)
        advance st;
        loop (Sibin (Odiv, lhs, p_iunary st))
    | MOD ->
        advance st;
        loop (Sibin (Omod, lhs, p_iunary st))
    | _ -> lhs
  in
  loop (p_iunary st)

and p_iunary st =
  match peek st with
  | TILDE ->
      advance st;
      Sineg (p_iunary st)
  | MINUS ->
      advance st;
      Sineg (p_iunary st)
  | _ -> p_iatom st

and p_iatom st =
  match peek st with
  | INT n ->
      advance st;
      Siconst n
  | TRUE ->
      advance st;
      Sibool true
  | FALSE ->
      advance st;
      Sibool false
  | DIV ->
      (* function form div(i, j) at the start of an atom *)
      advance st;
      p_call2 st (fun a b -> Sibin (Odiv, a, b))
  | MOD ->
      advance st;
      p_call2 st (fun a b -> Sibin (Omod, a, b))
  | ID "min" when peek2 st = LPAREN ->
      advance st;
      p_call2 st (fun a b -> Sibin (Omin, a, b))
  | ID "max" when peek2 st = LPAREN ->
      advance st;
      p_call2 st (fun a b -> Sibin (Omax, a, b))
  | ID "abs" when peek2 st = LPAREN ->
      advance st;
      p_call1 st (fun a -> Siabs a)
  | ID "sgn" when peek2 st = LPAREN ->
      advance st;
      p_call1 st (fun a -> Sisgn a)
  | ID s ->
      advance st;
      Siname s
  | LPAREN ->
      advance st;
      let e = p_index st in
      expect st RPAREN;
      e
  | t -> error st (Printf.sprintf "expected an index expression, found %s" (to_string t))

and p_call2 st mk =
  expect st LPAREN;
  let a = p_index st in
  expect st COMMA;
  let b = p_index st in
  expect st RPAREN;
  mk a b

and p_call1 st mk =
  expect st LPAREN;
  let a = p_index st in
  expect st RPAREN;
  mk a

(* ---------- quantifier groups -------------------------------------------- *)

(* Inside the braces/brackets: a : g (, b : g)* (| cond)?   The shorthand
   {a:g | cond} attaches the condition to the whole group. *)
let p_quant_body st close =
  let rec vars acc =
    let x = expect_id st in
    expect st COLON;
    let s = expect_id st in
    let acc = (x, s) :: acc in
    if eat st COMMA then vars acc else List.rev acc
  in
  let qvars = vars [] in
  let qcond = if eat st BAR then Some (p_index st) else None in
  expect st close;
  { qvars; qcond }

(* ---------- types ---------------------------------------------------------- *)

let rec p_stype st =
  match peek st with
  | LBRACE ->
      advance st;
      let q = p_quant_body st RBRACE in
      STpi (q, p_stype st)
  | LBRACKET ->
      advance st;
      let q = p_quant_body st RBRACKET in
      STsigma (q, p_stype st)
  | _ -> p_arrow st

and p_arrow st =
  let lhs = p_tuple_type st in
  if eat st ARROW then STarrow (lhs, p_stype st) else lhs

and p_tuple_type st =
  let first = p_postfix_type st in
  let rec loop acc =
    if eat st STAR then loop (p_postfix_type st :: acc) else List.rev acc
  in
  match loop [ first ] with [ t ] -> t | ts -> STtuple ts

and p_postfix_type st =
  let rec loop t =
    match peek st with
    | ID name ->
        advance st;
        let args = p_index_args st in
        loop (STcon ([ t ], name, args))
    | _ -> t
  in
  loop (p_primary_type st)

and p_primary_type st =
  match peek st with
  | TYVAR v ->
      advance st;
      STvar v
  | ID name ->
      advance st;
      let args = p_index_args st in
      STcon ([], name, args)
  | LBRACKET ->
      advance st;
      let q = p_quant_body st RBRACKET in
      STsigma (q, p_postfix_type st)
  | LPAREN -> begin
      advance st;
      let t = p_stype st in
      let rec more acc = if eat st COMMA then more (p_stype st :: acc) else List.rev acc in
      let ts = more [ t ] in
      expect st RPAREN;
      match ts with
      | [ t ] -> t
      | ts -> (
          (* (t1, ..., tk) name : type constructor application *)
          match peek st with
          | ID name ->
              advance st;
              let args = p_index_args st in
              STcon (ts, name, args)
          | _ -> error st "expected a type constructor after (t1, ..., tk)")
    end
  | t -> error st (Printf.sprintf "expected a type, found %s" (to_string t))

and p_index_args st =
  if peek st = LPAREN then begin
    advance st;
    let rec loop acc =
      let i = p_index st in
      if eat st COMMA then loop (i :: acc) else List.rev (i :: acc)
    in
    let args = loop [] in
    expect st RPAREN;
    args
  end
  else []

(* Record the line span of an annotation type for Table 1 metrics. *)
let p_annot_stype st =
  let start_line = (peek_loc st).Loc.start_pos.Loc.line in
  let t = p_stype st in
  let end_line = st.prev_loc.Loc.end_pos.Loc.line in
  st.spans <- (start_line, end_line) :: st.spans;
  t

(* ---------- patterns --------------------------------------------------------- *)

let rec p_pat st = p_cons_pat st

and p_cons_pat st =
  let lhs = p_app_pat st in
  if peek st = COLONCOLON then begin
    let loc = peek_loc st in
    advance st;
    let rhs = p_cons_pat st in
    mk_pat (Pcon ("::", Some (mk_pat (Ptuple [ lhs; rhs ]) loc))) (Loc.merge lhs.ploc rhs.ploc)
  end
  else lhs

and p_app_pat st =
  match peek st with
  | ID name when is_atpat_start (peek2 st) ->
      let loc = peek_loc st in
      advance st;
      let arg = p_atpat st in
      mk_pat (Pcon (name, Some arg)) (Loc.merge loc arg.ploc)
  | _ -> p_atpat st

and is_atpat_start = function
  | ID _ | INT _ | STRING _ | CHAR _ | TRUE | FALSE | UNDERSCORE | LPAREN | TILDE -> true
  | _ -> false

and p_atpat st =
  let loc = peek_loc st in
  match peek st with
  | UNDERSCORE ->
      advance st;
      mk_pat Pwild loc
  | INT n ->
      advance st;
      mk_pat (Pint n) loc
  | TILDE -> begin
      advance st;
      match peek st with
      | INT n ->
          advance st;
          mk_pat (Pint (-n)) loc
      | t -> error st (Printf.sprintf "expected an integer after ~ in pattern, found %s" (to_string t))
    end
  | TRUE ->
      advance st;
      mk_pat (Pbool true) loc
  | FALSE ->
      advance st;
      mk_pat (Pbool false) loc
  | STRING s ->
      advance st;
      mk_pat (Pstring s) loc
  | CHAR c ->
      advance st;
      mk_pat (Pchar c) loc
  | ID name ->
      advance st;
      mk_pat (Pvar name) loc
  | LPAREN -> begin
      advance st;
      if eat st RPAREN then mk_pat (Ptuple []) loc
      else begin
        let p = p_pat st in
        let rec more acc = if eat st COMMA then more (p_pat st :: acc) else List.rev acc in
        let ps = more [ p ] in
        expect st RPAREN;
        match ps with [ p ] -> p | ps -> mk_pat (Ptuple ps) loc
      end
    end
  | t -> error st (Printf.sprintf "expected a pattern, found %s" (to_string t))

(* ---------- expressions -------------------------------------------------------- *)

let rec p_exp st =
  let e = p_exp_no_handle st in
  p_handle_suffix st e

(* [e handle p => e | ...] binds loosest of all operators *)
and p_handle_suffix st e =
  if eat st HANDLE then begin
    let arms = p_match st in
    let last = match List.rev arms with (_, b) :: _ -> b.eloc | [] -> e.eloc in
    p_handle_suffix st (mk_exp (Ehandle (e, arms)) (Loc.merge e.eloc last))
  end
  else e

and p_exp_no_handle st =
  let loc = peek_loc st in
  match peek st with
  | RAISE ->
      advance st;
      let e = p_exp_no_handle st in
      mk_exp (Eraise e) (Loc.merge loc e.eloc)
  | IF ->
      advance st;
      let c = p_exp st in
      expect st THEN;
      let t = p_exp st in
      expect st ELSE;
      let e = p_exp st in
      mk_exp (Eif (c, t, e)) (Loc.merge loc e.eloc)
  | CASE ->
      advance st;
      let scrut = p_exp st in
      expect st OF;
      let arms = p_match st in
      let last = match List.rev arms with (_, e) :: _ -> e.eloc | [] -> loc in
      mk_exp (Ecase (scrut, arms)) (Loc.merge loc last)
  | FN ->
      advance st;
      let p = p_pat st in
      expect st DARROW;
      let body = p_exp st in
      mk_exp (Efn (p, body)) (Loc.merge loc body.eloc)
  | _ -> p_orelse st

and p_match st =
  ignore (eat st BAR);
  let rec arms acc =
    let p = p_pat st in
    expect st DARROW;
    let e = p_exp st in
    let acc = (p, e) :: acc in
    if eat st BAR then arms acc else List.rev acc
  in
  arms []

and p_orelse st =
  let lhs = p_andalso st in
  if eat st ORELSE then begin
    let rhs = p_orelse st in
    mk_exp (Eorelse (lhs, rhs)) (Loc.merge lhs.eloc rhs.eloc)
  end
  else lhs

and p_andalso st =
  let lhs = p_assign st in
  if eat st ANDALSO then begin
    let rhs = p_andalso st in
    mk_exp (Eandalso (lhs, rhs)) (Loc.merge lhs.eloc rhs.eloc)
  end
  else lhs

(* r := e, SML infix level 3 (below the comparisons) *)
and p_assign st =
  let lhs = p_cmp st in
  if eat st ASSIGN then begin
    let rhs = p_assign st in
    binapp ":=" lhs rhs
  end
  else lhs


and binapp name lhs rhs =
  let loc = Loc.merge lhs.eloc rhs.eloc in
  mk_exp (Eapp (mk_exp (Evar name) loc, mk_exp (Etuple [ lhs; rhs ]) loc)) loc

and p_cmp st =
  let lhs = p_consexp st in
  let op =
    match peek st with
    | EQ -> Some "="
    | NE -> Some "<>"
    | LT -> Some "<"
    | LE -> Some "<="
    | GT -> Some ">"
    | GE -> Some ">="
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some name ->
      advance st;
      let rhs = p_consexp st in
      binapp name lhs rhs

and p_consexp st =
  let lhs = p_add st in
  if peek st = COLONCOLON then begin
    let loc = peek_loc st in
    advance st;
    let rhs = p_consexp st in
    let arg = mk_exp (Etuple [ lhs; rhs ]) (Loc.merge lhs.eloc rhs.eloc) in
    mk_exp (Eapp (mk_exp (Evar "::") loc, arg)) (Loc.merge lhs.eloc rhs.eloc)
  end
  else lhs

and p_add st =
  let rec loop lhs =
    match peek st with
    | PLUS ->
        advance st;
        loop (binapp "+" lhs (p_mul st))
    | MINUS ->
        advance st;
        loop (binapp "-" lhs (p_mul st))
    | CARET ->
        advance st;
        loop (binapp "^" lhs (p_mul st))
    | _ -> lhs
  in
  loop (p_mul st)

and p_mul st =
  let rec loop lhs =
    match peek st with
    | STAR ->
        advance st;
        loop (binapp "*" lhs (p_unary st))
    | DIV ->
        advance st;
        loop (binapp "div" lhs (p_unary st))
    | MOD ->
        advance st;
        loop (binapp "mod" lhs (p_unary st))
    | _ -> lhs
  in
  loop (p_unary st)

and p_unary st =
  match peek st with
  | BANG ->
      let loc = peek_loc st in
      advance st;
      let e = p_unary st in
      mk_exp (Eapp (mk_exp (Evar "!") loc, e)) (Loc.merge loc e.eloc)
  | TILDE -> begin
      let loc = peek_loc st in
      advance st;
      (* ~ followed by a literal is a negative literal; otherwise negation *)
      match peek st with
      | INT n ->
          advance st;
          mk_exp (Eint (-n)) loc
      | _ ->
          let e = p_unary st in
          mk_exp (Eapp (mk_exp (Evar "~") loc, e)) (Loc.merge loc e.eloc)
    end
  | _ -> p_app st

and p_app st =
  let rec loop f =
    if is_atexp_start (peek st) then begin
      let arg = p_atexp st in
      loop (mk_exp (Eapp (f, arg)) (Loc.merge f.eloc arg.eloc))
    end
    else f
  in
  loop (p_atexp st)

and is_atexp_start = function
  | INT _ | STRING _ | CHAR _ | TRUE | FALSE | ID _ | LPAREN | LET -> true
  | _ -> false

and p_atexp st =
  let loc = peek_loc st in
  match peek st with
  | INT n ->
      advance st;
      mk_exp (Eint n) loc
  | STRING s ->
      advance st;
      mk_exp (Estring s) loc
  | CHAR c ->
      advance st;
      mk_exp (Echar c) loc
  | TRUE ->
      advance st;
      mk_exp (Ebool true) loc
  | FALSE ->
      advance st;
      mk_exp (Ebool false) loc
  | ID name ->
      advance st;
      mk_exp (Evar name) loc
  | LET ->
      advance st;
      let decs = p_decs st in
      expect st IN;
      let body = p_seq_exp st in
      let end_loc = peek_loc st in
      expect st END;
      mk_exp (Elet (decs, body)) (Loc.merge loc end_loc)
  | LPAREN -> begin
      advance st;
      if eat st RPAREN then mk_exp (Etuple []) loc
      else begin
        let e = p_exp st in
        match peek st with
        | COLON ->
            advance st;
            let t = p_stype st in
            expect st RPAREN;
            mk_exp (Eannot (e, t)) loc
        | SEMI ->
            let rec seq acc =
              if eat st SEMI then seq (p_exp st :: acc) else List.rev acc
            in
            let es = seq [ e ] in
            expect st RPAREN;
            sequence loc es
        | COMMA ->
            let rec more acc = if eat st COMMA then more (p_exp st :: acc) else List.rev acc in
            let es = more [ e ] in
            expect st RPAREN;
            mk_exp (Etuple es) loc
        | _ ->
            expect st RPAREN;
            e
      end
    end
  | t -> error st (Printf.sprintf "expected an expression, found %s" (to_string t))

(* (e1; e2; e3) desugars to let val _ = e1 val _ = e2 in e3 end *)
and sequence loc = function
  | [] -> unit_exp loc
  | [ e ] -> e
  | e :: rest ->
      let d = mk_dec (Dval (mk_pat Pwild e.eloc, e, None)) e.eloc in
      let body = sequence loc rest in
      mk_exp (Elet ([ d ], body)) loc

and p_seq_exp st =
  (* let bodies allow semicolon-separated sequencing without parentheses *)
  let loc = peek_loc st in
  let e = p_exp st in
  if peek st = SEMI then begin
    let rec seq acc = if eat st SEMI then seq (p_exp st :: acc) else List.rev acc in
    sequence loc (seq [ e ])
  end
  else e

(* ---------- declarations ---------------------------------------------------------- *)

and p_decs st =
  let rec loop acc =
    match peek st with
    | VAL | FUN | EXCEPTION -> loop (p_dec st :: acc)
    | SEMI ->
        advance st;
        loop acc
    | _ -> List.rev acc
  in
  loop []

and p_dec st =
  let loc = peek_loc st in
  match peek st with
  | EXCEPTION ->
      advance st;
      let name = expect_id st in
      let arg = if eat st OF then Some (p_stype st) else None in
      mk_dec (Dexception (name, arg)) loc
  | VAL ->
      advance st;
      ignore (eat st REC);
      let p = p_pat st in
      expect st EQ;
      let e = p_exp st in
      let annot =
        if eat st WHERE then begin
          let _name = expect_id st in
          expect st TRIANGLE;
          Some (p_annot_stype st)
        end
        else None
      in
      mk_dec (Dval (p, e, annot)) loc
  | FUN ->
      advance st;
      let rec funs acc =
        let fd = p_fundef st loc in
        if eat st AND then funs (fd :: acc) else List.rev (fd :: acc)
      in
      mk_dec (Dfun (funs [])) loc
  | t -> error st (Printf.sprintf "expected a declaration, found %s" (to_string t))

and p_fundef st loc =
  (* optional explicit parameters: ('a, 'b) and {n:nat} groups *)
  let ftyparams =
    if peek st = LPAREN && (match peek2 st with TYVAR _ -> true | _ -> false) then begin
      advance st;
      let rec tvs acc =
        match peek st with
        | TYVAR v ->
            advance st;
            let acc = v :: acc in
            if eat st COMMA then tvs acc else List.rev acc
        | t -> error st (Printf.sprintf "expected a type variable, found %s" (to_string t))
      in
      let vs = tvs [] in
      expect st RPAREN;
      vs
    end
    else []
  in
  let rec iparams acc =
    if peek st = LBRACE then begin
      advance st;
      let q = p_quant_body st RBRACE in
      iparams (q :: acc)
    end
    else List.rev acc
  in
  let fiparams = iparams [] in
  let fname = expect_id st in
  let clause name =
    if name <> fname then
      error st (Printf.sprintf "clause name %s does not match function name %s" name fname);
    let rec pats acc =
      if is_atpat_start (peek st) then pats (p_atpat st :: acc) else List.rev acc
    in
    let ps = (let first = p_atpat st in first :: pats []) in
    expect st EQ;
    let body = p_exp st in
    (ps, body)
  in
  let first = clause fname in
  let rec clauses acc =
    if peek st = BAR then begin
      advance st;
      let name = expect_id st in
      clauses (clause name :: acc)
    end
    else List.rev acc
  in
  let fclauses = first :: clauses [] in
  let fannot =
    if eat st WHERE then begin
      let name = expect_id st in
      if name <> fname then
        error st (Printf.sprintf "where clause names %s but the function is %s" name fname);
      expect st TRIANGLE;
      Some (p_annot_stype st)
    end
    else None
  in
  { fname; ftyparams; fiparams; fclauses; fannot; floc = loc }

(* ---------- top-level -------------------------------------------------------------- *)

let p_type_params st =
  match peek st with
  | TYVAR v ->
      advance st;
      [ v ]
  | LPAREN when (match peek2 st with TYVAR _ -> true | _ -> false) ->
      advance st;
      let rec tvs acc =
        match peek st with
        | TYVAR v ->
            advance st;
            let acc = v :: acc in
            if eat st COMMA then tvs acc else List.rev acc
        | t -> error st (Printf.sprintf "expected a type variable, found %s" (to_string t))
      in
      let vs = tvs [] in
      expect st RPAREN;
      vs
  | _ -> []

let p_top st =
  match peek st with
  | DATATYPE ->
      advance st;
      let dt_params = p_type_params st in
      let dt_name = expect_id st in
      expect st EQ;
      ignore (eat st BAR);
      let rec cons acc =
        let cname =
          match peek st with
          | COLONCOLON ->
              advance st;
              "::"
          | _ -> expect_id st
        in
        let arg = if eat st OF then Some (p_stype st) else None in
        let acc = (cname, arg) :: acc in
        if eat st BAR then cons acc else List.rev acc
      in
      Tdatatype { dt_params; dt_name; dt_cons = cons [] }
  | TYPEREF ->
      advance st;
      let tr_params = p_type_params st in
      let tr_name = expect_id st in
      expect st OF;
      let rec sorts acc =
        let s = expect_id st in
        let acc = s :: acc in
        if eat st STAR then sorts acc else List.rev acc
      in
      let tr_sorts = sorts [] in
      expect st WITH;
      ignore (eat st BAR);
      let rec cons acc =
        let cname =
          match peek st with
          | COLONCOLON ->
              advance st;
              "::"
          | _ -> expect_id st
        in
        expect st TRIANGLE;
        let t = p_annot_stype st in
        let acc = (cname, t) :: acc in
        if eat st BAR then cons acc else List.rev acc
      in
      Ttyperef { tr_params; tr_name; tr_sorts; tr_cons = cons [] }
  | ASSERT ->
      advance st;
      let rec asserts acc =
        let name =
          match peek st with
          | ID s ->
              advance st;
              s
          | PLUS | MINUS | STAR | LT | LE | GT | GE | NE | EQ | DIV | MOD | COLONCOLON | TILDE
          | BANG | ASSIGN | CARET ->
              let s = to_string (peek st) in
              advance st;
              s
          | t -> error st (Printf.sprintf "expected a name to assert, found %s" (to_string t))
        in
        expect st TRIANGLE;
        let t = p_annot_stype st in
        let acc = (name, t) :: acc in
        if eat st AND then asserts acc else List.rev acc
      in
      Tassert (asserts [])
  | TYPE ->
      advance st;
      let name = expect_id st in
      expect st EQ;
      Ttypedef (name, p_annot_stype st)
  | VAL | FUN | EXCEPTION -> Tdec (p_dec st)
  | t -> raise (Error (Printf.sprintf "expected a top-level declaration, found %s" (to_string t), peek_loc st))

let make_state ?(pos = 0) ?(at = { Loc.line = 1; col = 1 }) src =
  let lx = Lexer.start src ~pos at in
  let cur = Lexer.next_token lx in
  let cur_off = lx.Lexer.tok_start and cur_stop = lx.Lexer.pos in
  let next = Lexer.next_token lx in
  {
    lx;
    cur;
    cur_off;
    cur_stop;
    next;
    next_off = lx.Lexer.tok_start;
    next_stop = lx.Lexer.pos;
    prev_loc = Loc.dummy;
    prev_stop = pos;
    spans = [];
  }

(* A lexical error anywhere in the input wins over a syntax error, so the
   stage a bad input fails in does not depend on where parsing stopped: on
   a syntax error, lex the rest of the input first. *)
let lexing_first st f =
  try f ()
  with Error _ as e ->
    let rec drain () = match Lexer.next_token st.lx with EOF, _ -> () | _ -> drain () in
    drain ();
    raise e

type unit_parse = {
  top : Ast.top;
  spans : (int * int) list;
  first : int;
  first_pos : Loc.pos;
  last : int;
  last_pos : Loc.pos;
  look : int;
}

let parse_units ?pos ?at ?(stop = fun _ _ -> false) src =
  let st = make_state ?pos ?at src in
  lexing_first st @@ fun () ->
  let rec loop acc =
    if eat st SEMI then loop acc
    else
      match peek st with
      | EOF -> (List.rev acc, false)
      | _ ->
          let first = st.cur_off and first_pos = (peek_loc st).Loc.start_pos in
          if stop first first_pos then (List.rev acc, true)
          else begin
            st.spans <- [];
            let top = p_top st in
            loop
              ({
                 top;
                 spans = List.rev st.spans;
                 first;
                 first_pos;
                 last = st.prev_stop;
                 last_pos = st.prev_loc.Loc.end_pos;
                 (* the parser decided where the unit ends from the next two
                    tokens, and the lexer ended the second one by looking
                    one byte past it *)
                 look = st.next_stop + 1;
               }
              :: acc)
          end
  in
  loop []

let parse_program_with_spans src =
  let units, _ = parse_units src in
  (List.map (fun u -> u.top) units, List.concat_map (fun u -> u.spans) units)

let parse_program src = fst (parse_program_with_spans src)

let parse_exp src =
  let st = make_state src in
  lexing_first st @@ fun () ->
  let e = p_exp st in
  expect st EOF;
  e

let parse_stype src =
  let st = make_state src in
  lexing_first st @@ fun () ->
  let t = p_stype st in
  expect st EOF;
  t
