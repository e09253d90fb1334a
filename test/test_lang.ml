open Dml_lang

(* --- lexer --------------------------------------------------------------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "count" 6 (List.length (toks "fun f x = x"));
  (* fun, f, x, =, x, EOF *)
  let open Token in
  Alcotest.(check bool) "symbols" true
    (toks "<| <= < <> :: : -> - => = /\\ \\/"
    = [ TRIANGLE; LE; LT; NE; COLONCOLON; COLON; ARROW; MINUS; DARROW; EQ; WEDGE; VEE; EOF ]);
  Alcotest.(check bool) "tyvar" true (toks "'a 'foo" = [ TYVAR "a"; TYVAR "foo"; EOF ]);
  Alcotest.(check bool) "keywords vs ids" true
    (toks "if iffy then thence" = [ IF; ID "iffy"; THEN; ID "thence"; EOF ]);
  Alcotest.(check bool) "numbers" true (toks "0 42 100" = [ INT 0; INT 42; INT 100; EOF ])

let test_lexer_comments () =
  let open Token in
  Alcotest.(check bool) "comment skipped" true (toks "1 (* hello *) 2" = [ INT 1; INT 2; EOF ]);
  Alcotest.(check bool) "nested" true (toks "1 (* a (* b *) c *) 2" = [ INT 1; INT 2; EOF ]);
  match Lexer.tokenize "1 (* oop" with
  | _ -> Alcotest.fail "expected an unterminated-comment error"
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check string) "message" "unterminated comment" msg

let test_lexer_errors () =
  match Lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected a lexer error"
  | exception Lexer.Error (msg, _) ->
      Alcotest.(check bool) "mentions char" true
        (String.length msg > 0 && String.exists (fun c -> c = '$') msg)

let test_lexer_positions () =
  let all = Lexer.tokenize "ab\n  cd" in
  match all with
  | [ (Token.ID "ab", l1); (Token.ID "cd", l2); (Token.EOF, _) ] ->
      Alcotest.(check int) "line 1" 1 l1.Loc.start_pos.Loc.line;
      Alcotest.(check int) "line 2" 2 l2.Loc.start_pos.Loc.line;
      Alcotest.(check int) "col 3" 3 l2.Loc.start_pos.Loc.col
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_boundaries () =
  let open Token in
  let same what src expected = Alcotest.(check bool) what true (toks src = expected @ [ EOF ]) in
  same "keyword prefix" "letx" [ ID "letx" ];
  same "primed identifier" "x'" [ ID "x'" ];
  same "wildcard" "_" [ UNDERSCORE ];
  same "underscore-led identifier" "_x" [ ID "_x" ];
  same "type variable" "'a" [ TYVAR "a" ];
  same "keyword with suffix" "fun_ fun" [ ID "fun_"; FUN ];
  same "char literal" "#\"c\"" [ CHAR 'c' ];
  same "(*) opens a comment" "(*) x *) y" [ ID "y" ];
  same "nested comments" "(* a (* b *) c *) x (* d *) y" [ ID "x"; ID "y" ];
  same "largest literal" "4611686018427387903" [ INT max_int ];
  match Lexer.tokenize "(*)" with
  | _ -> Alcotest.fail "(*) alone should be an unterminated comment"
  | exception Lexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "unterminated comment" msg;
      Alcotest.(check string) "location" "line 1, characters 1-4" (Loc.to_string loc)

(* An oversized literal used to escape as [Failure "int_of_string"] and
   surface as an internal error with no location. *)
let test_lexer_int_overflow () =
  match Lexer.tokenize "val x = 99999999999999999999" with
  | _ -> Alcotest.fail "expected an out-of-range error"
  | exception Lexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "integer literal out of range" msg;
      Alcotest.(check string) "location" "line 1, characters 9-29" (Loc.to_string loc)

(* --- lexer properties -------------------------------------------------------- *)

let corpus =
  Dml_core.Basis.source
  :: List.map (fun b -> b.Dml_programs.Programs.source) Dml_programs.Programs.all
  @ List.map Dml_programs.Programs.unannotated Dml_programs.Programs.all

(* Byte offset of a position, given the offsets at which lines start. *)
let offset starts (p : Loc.pos) = starts.(p.Loc.line - 1) + p.Loc.col - 1

let line_starts src =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
  Array.of_list (List.rev !starts)

(* Either every token re-lexes, from the source slice under its location, to
   itself, or the input is rejected with a [Lexer.Error]; any other
   exception escapes and fails the property. *)
let lexes_consistently src =
  match Lexer.tokenize src with
  | exception Lexer.Error _ -> true
  | tokens ->
      let starts = line_starts src in
      List.for_all
        (fun (tok, (loc : Loc.t)) ->
          let a = offset starts loc.start_pos and b = offset starts loc.end_pos in
          match Lexer.tokenize (String.sub src a (b - a)) with
          | [ (t, _); (Token.EOF, _) ] -> t = tok
          | [ (Token.EOF, _) ] -> tok = Token.EOF
          | _ -> false)
        tokens

let test_lexer_corpus () =
  List.iteri
    (fun i src -> Alcotest.(check bool) (Printf.sprintf "corpus source %d" i) true (lexes_consistently src))
    corpus

(* Seeded byte-level edits of a corpus source: overwrite, delete or insert
   a byte (mostly one of the lexer's special characters), or truncate. *)
let mutate seed src =
  let rand = Random.State.make [| seed |] in
  let special = "()*\"#'\\_~<>=-|:/\n\t 09azAZ\000\255" in
  let byte () =
    if Random.State.int rand 5 > 0 then special.[Random.State.int rand (String.length special)]
    else Char.chr (Random.State.int rand 256)
  in
  let s = ref src in
  for _ = 0 to Random.State.int rand 8 do
    let len = String.length !s in
    let i = Random.State.int rand (len + 1) in
    let before = String.sub !s 0 i and after = String.sub !s i (len - i) in
    s :=
      match Random.State.int rand 10 with
      | 0 -> before
      | 1 | 2 | 3 when i < len -> before ^ String.make 1 (byte ()) ^ String.sub after 1 (len - i - 1)
      | 4 | 5 | 6 when i < len -> before ^ String.sub after 1 (len - i - 1)
      | _ -> before ^ String.make 1 (byte ()) ^ after
  done;
  !s

let prop_lexer_mutations =
  let gen = QCheck.(pair (int_bound (List.length corpus - 1)) (int_bound 1_000_000)) in
  let gen = QCheck.set_print (fun (i, seed) -> Printf.sprintf "%S" (mutate seed (List.nth corpus i))) gen in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1e8 |])
    (QCheck.Test.make ~count:1000 ~name:"mutated sources lex consistently" gen (fun (i, seed) ->
         lexes_consistently (mutate seed (List.nth corpus i))))

(* --- expression parsing ---------------------------------------------------- *)

let parse_ok src =
  match Parser.parse_exp src with
  | e -> e
  | exception Parser.Error (msg, loc) ->
      Alcotest.failf "parse error: %s at %s" msg (Loc.to_string loc)

let rec exp_to_string (e : Ast.exp) =
  match e.Ast.edesc with
  | Ast.Eint n -> string_of_int n
  | Ast.Ebool b -> string_of_bool b
  | Ast.Echar c -> Printf.sprintf "#%C" c
  | Ast.Estring s -> Printf.sprintf "%S" s
  | Ast.Evar x -> x
  | Ast.Etuple [] -> "()"
  | Ast.Etuple es -> "(" ^ String.concat ", " (List.map exp_to_string es) ^ ")"
  | Ast.Eapp (f, a) -> "(" ^ exp_to_string f ^ " " ^ exp_to_string a ^ ")"
  | Ast.Eif (a, b, c) ->
      Printf.sprintf "(if %s then %s else %s)" (exp_to_string a) (exp_to_string b)
        (exp_to_string c)
  | Ast.Ecase (e, arms) ->
      Printf.sprintf "(case %s of %d arms)" (exp_to_string e) (List.length arms)
  | Ast.Efn (_, body) -> "(fn => " ^ exp_to_string body ^ ")"
  | Ast.Elet (ds, body) -> Printf.sprintf "(let %d in %s)" (List.length ds) (exp_to_string body)
  | Ast.Eandalso (a, b) -> "(" ^ exp_to_string a ^ " andalso " ^ exp_to_string b ^ ")"
  | Ast.Eorelse (a, b) -> "(" ^ exp_to_string a ^ " orelse " ^ exp_to_string b ^ ")"
  | Ast.Eannot (e, _) -> "(" ^ exp_to_string e ^ " : _)"
  | Ast.Eraise e -> "(raise " ^ exp_to_string e ^ ")"
  | Ast.Ehandle (e, arms) ->
      Printf.sprintf "(%s handle %d arms)" (exp_to_string e) (List.length arms)

let check_exp src expected =
  Alcotest.(check string) src expected (exp_to_string (parse_ok src))

let test_precedence () =
  check_exp "1 + 2 * 3" "(+ (1, (* (2, 3))))";
  check_exp "1 * 2 + 3" "(+ ((* (1, 2)), 3))";
  check_exp "1 - 2 - 3" "(- ((- (1, 2)), 3))";
  check_exp "7 div 2 mod 3" "(mod ((div (7, 2)), 3))";
  check_exp "1 < 2 + 3" "(< (1, (+ (2, 3))))";
  check_exp "f x + 1" "(+ ((f x), 1))";
  check_exp "f x y" "((f x) y)";
  (* ~ binds looser than application *)
  check_exp "~f x" "(~ (f x))";
  check_exp "~ (f x)" "(~ (f x))";
  check_exp "~3" "-3";
  check_exp "1 :: 2 :: nil" "(:: (1, (:: (2, nil))))";
  check_exp "a andalso b orelse c" "((a andalso b) orelse c)";
  check_exp "a = b andalso c = d" "((= (a, b)) andalso (= (c, d)))"

let test_exp_forms () =
  check_exp "if a then 1 else 2" "(if a then 1 else 2)";
  check_exp "(1; 2; 3)" "(let 1 in (let 1 in 3))";
  check_exp "(1, 2, 3)" "(1, 2, 3)";
  check_exp "()" "()";
  check_exp "let val x = 1 in x end" "(let 1 in x)";
  check_exp "let val x = 1 val y = 2 in x end" "(let 2 in x)";
  check_exp "fn x => x" "(fn => x)";
  check_exp "case x of nil => 0 | y :: ys => 1" "(case x of 2 arms)"

let test_parse_errors () =
  let bad src =
    match Parser.parse_exp src with
    | _ -> Alcotest.failf "expected syntax error on %S" src
    | exception Parser.Error _ -> ()
  in
  bad "if a then 1";
  bad "let val x = 1 in x";
  bad "(1, 2";
  bad "1 +";
  bad "case x of"

(* --- the paper's listings -------------------------------------------------- *)

let figure1_dotprod =
  {|
assert length <| {n:nat} 'a array(n) -> int(n)
and sub <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a

fun dotprod(v1, v2) = let
  fun loop(i, n, sum) =
    if i = n then sum
    else loop(i+1, n, sum + sub(v1, i) * sub(v2, i))
  where loop <| {n:nat} {i:nat | i <= n} int(i) * int(n) * int -> int
in
  loop(0, length v1, 0)
end
where dotprod <| {p:nat} {q:nat | p <= q} int array(p) * int array(q) -> int
|}

let figure2_reverse =
  {|
datatype 'a list = nil | :: of 'a * 'a list
typeref 'a list of nat with
  nil <| 'a list(0)
| :: <| {n:nat} 'a * 'a list(n) -> 'a list(n+1)

fun reverse(l) = let
  fun rev(nil, ys) = ys
    | rev(x::xs, ys) = rev(xs, x::ys)
  where rev <| {m:nat} {n:nat} 'a list(m) * 'a list(n) -> 'a list(m+n)
in
  rev(l, nil)
end
where reverse <| {n:nat} 'a list(n) -> 'a list(n)
|}

let figure3_bsearch =
  {|
datatype order = LESS | EQUAL | GREATER
datatype 'a answer = NONE | SOME of int * 'a

fun('a){size:nat} bsearch cmp (key, arr) = let
  fun look(lo, hi) =
    if hi >= lo then
      let
        val m = lo + (hi - lo) div 2
        val x = sub(arr, m)
      in
        case cmp(key, x) of
          LESS => look(lo, m-1)
        | EQUAL => SOME(m, x)
        | GREATER => look(m+1, hi)
      end
    else NONE
  where look <| {l:nat | 0 <= l <= size} {h:int | 0 <= h+1 <= size}
               int(l) * int(h) -> 'a answer
in
  look(0, length arr - 1)
end
where bsearch <| ('a * 'a -> order) -> 'a * 'a array(size) -> 'a answer
|}

let filter_example =
  {|
fun filter p nil = nil
  | filter p (x::xs) = if p(x) then x :: (filter p xs) else filter p xs
where filter <| {m:nat} ('a -> bool) -> 'a list(m) -> [n:nat | n <= m] 'a list(n)
|}

let parse_prog_ok name src =
  match Parser.parse_program src with
  | prog -> prog
  | exception Parser.Error (msg, loc) ->
      Alcotest.failf "%s: parse error: %s at %s" name msg (Loc.to_string loc)

let test_figure1 () =
  let prog = parse_prog_ok "dotprod" figure1_dotprod in
  Alcotest.(check int) "two tops" 2 (List.length prog);
  match prog with
  | [ Ast.Tassert asserts; Ast.Tdec { ddesc = Ast.Dfun [ fd ]; _ } ] ->
      Alcotest.(check int) "two asserts" 2 (List.length asserts);
      Alcotest.(check string) "name" "dotprod" fd.Ast.fname;
      Alcotest.(check bool) "has where" true (fd.Ast.fannot <> None);
      Alcotest.(check int) "one clause" 1 (List.length fd.Ast.fclauses)
  | _ -> Alcotest.fail "unexpected program shape"

let test_figure2 () =
  let prog = parse_prog_ok "reverse" figure2_reverse in
  Alcotest.(check int) "three tops" 3 (List.length prog);
  match prog with
  | [ Ast.Tdatatype dt; Ast.Ttyperef tr; Ast.Tdec { ddesc = Ast.Dfun [ fd ]; _ } ] ->
      Alcotest.(check string) "datatype name" "list" dt.Ast.dt_name;
      Alcotest.(check int) "two constructors" 2 (List.length dt.Ast.dt_cons);
      Alcotest.(check bool) "typeref sorts" true (tr.Ast.tr_sorts = [ "nat" ]);
      Alcotest.(check string) "fun name" "reverse" fd.Ast.fname;
      (* the local rev has two clauses; find it in the body *)
      let body = snd (List.hd fd.Ast.fclauses) in
      (match body.Ast.edesc with
      | Ast.Elet ([ { ddesc = Ast.Dfun [ rev ]; _ } ], _) ->
          Alcotest.(check int) "rev clauses" 2 (List.length rev.Ast.fclauses)
      | _ -> Alcotest.fail "expected let with rev")
  | _ -> Alcotest.fail "unexpected program shape"

let test_figure3 () =
  let prog = parse_prog_ok "bsearch" figure3_bsearch in
  match prog with
  | [ Ast.Tdatatype _; Ast.Tdatatype _; Ast.Tdec { ddesc = Ast.Dfun [ fd ]; _ } ] ->
      Alcotest.(check bool) "explicit tyvar" true (fd.Ast.ftyparams = [ "a" ]);
      Alcotest.(check int) "one index group" 1 (List.length fd.Ast.fiparams);
      Alcotest.(check int) "curried clauses" 2 (List.length (fst (List.hd fd.Ast.fclauses)))
  | _ -> Alcotest.fail "unexpected program shape"

let test_filter () =
  let prog = parse_prog_ok "filter" filter_example in
  match prog with
  | [ Ast.Tdec { ddesc = Ast.Dfun [ fd ]; _ } ] -> (
      Alcotest.(check int) "two clauses" 2 (List.length fd.Ast.fclauses);
      match fd.Ast.fannot with
      | Some (Ast.STpi (_, Ast.STarrow (_, Ast.STarrow (_, Ast.STsigma (q, _))))) ->
          Alcotest.(check bool) "sigma cond" true (q.Ast.qcond <> None)
      | _ -> Alcotest.fail "expected pi/arrow/sigma type")
  | _ -> Alcotest.fail "unexpected program shape"

(* --- type parsing ------------------------------------------------------------ *)

let test_types () =
  let ok src =
    match Parser.parse_stype src with
    | t -> t
    | exception Parser.Error (msg, loc) ->
        Alcotest.failf "%s: %s at %s" src msg (Loc.to_string loc)
  in
  (match ok "int(n)" with
  | Ast.STcon ([], "int", [ Ast.Siname "n" ]) -> ()
  | _ -> Alcotest.fail "int(n)");
  (match ok "'a array(n)" with
  | Ast.STcon ([ Ast.STvar "a" ], "array", [ Ast.Siname "n" ]) -> ()
  | _ -> Alcotest.fail "'a array(n)");
  (match ok "int array(p) * int array(q) -> int" with
  | Ast.STarrow (Ast.STtuple [ _; _ ], Ast.STcon ([], "int", [])) -> ()
  | _ -> Alcotest.fail "arrow of tuple");
  (match ok "{n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a" with
  | Ast.STpi (q1, Ast.STpi (q2, Ast.STarrow (_, Ast.STvar "a"))) ->
      Alcotest.(check bool) "no cond on first" true (q1.Ast.qcond = None);
      Alcotest.(check bool) "cond on second" true (q2.Ast.qcond <> None)
  | _ -> Alcotest.fail "pi pi arrow");
  (match ok "bool(m < n)" with
  | Ast.STcon ([], "bool", [ Ast.Sibin (Ast.Olt, _, _) ]) -> ()
  | _ -> Alcotest.fail "bool(m < n)");
  (match ok "int(min(a, b))" with
  | Ast.STcon ([], "int", [ Ast.Sibin (Ast.Omin, _, _) ]) -> ()
  | _ -> Alcotest.fail "min index");
  (match ok "{size:int, i:int | 0 <= i < size} 'a array(size) * int(i) -> 'a" with
  | Ast.STpi (q, _) ->
      Alcotest.(check int) "two vars in group" 2 (List.length q.Ast.qvars);
      (match q.Ast.qcond with
      | Some (Ast.Sibin (Ast.Oand, _, _)) -> ()
      | _ -> Alcotest.fail "chained comparison")
  | _ -> Alcotest.fail "grouped pi");
  match ok "(int * bool) list(n)" with
  | Ast.STcon ([ Ast.STtuple [ _; _ ] ], "list", [ _ ]) -> ()
  | _ -> Alcotest.fail "(int * bool) list(n)"

let test_index_chaining () =
  match Parser.parse_stype "{h:int | 0 <= h+1 <= size} int(h)" with
  | Ast.STpi ({ qcond = Some (Ast.Sibin (Ast.Oand, Ast.Sibin (Ast.Ole, _, _), Ast.Sibin (Ast.Ole, _, _))); _ }, _)
    ->
      ()
  | _ -> Alcotest.fail "0 <= h+1 <= size should chain into a conjunction"

(* --- unit-grain re-parse ------------------------------------------------- *)

(* The cold parse of a text, as a value: the program and its spans, or the
   exception it raises. *)
let cold src =
  match Parser.parse_program_with_spans src with
  | r -> Ok r
  | exception ((Parser.Error _ | Lexer.Error _) as e) -> Error e

let reparse ?last src =
  match Reparse.parse ?last src with
  | t -> Ok t
  | exception ((Parser.Error _ | Lexer.Error _) as e) -> Error e

let show_exn = function
  | Parser.Error (msg, loc) | Lexer.Error (msg, loc) -> msg ^ " at " ^ Loc.to_string loc
  | e -> Printexc.to_string e

(* [None] when the incremental result equals the cold one: the same
   declarations with the same locations, spans and fingerprints, or the
   same exception. *)
let reparse_differs result src =
  match (result, cold src) with
  | Ok t, Ok (prog, spans) ->
      if Reparse.program t <> prog then Some "programs differ"
      else if Reparse.spans t <> spans then Some "annotation spans differ"
      else if Reparse.fingerprints t <> Reparse.fingerprints (Reparse.parse src) then
        Some "fingerprints differ"
      else None
  | Error a, Error b when a = b -> None
  | Error a, Error b -> Some (Printf.sprintf "errors differ: %s vs %s" (show_exn a) (show_exn b))
  | Ok _, Error e -> Some ("reparse succeeded, cold parse raised " ^ show_exn e)
  | Error e, Ok _ -> Some ("reparse raised " ^ show_exn e)

let reparse_base =
  String.concat "\n;\n"
    (List.filteri (fun i _ -> i < 6)
       (List.map (fun b -> b.Dml_programs.Programs.source) Dml_programs.Programs.table_benchmarks))

(* Offsets where a top-level declaration starts or ends in [src]. *)
let boundaries src =
  match Parser.parse_units src with
  | units, _ -> Array.of_list (List.concat_map (fun u -> Parser.[ u.first; u.last ]) units)
  | exception _ -> [||]

(* The first occurrence of [piece] in [src] at or after [at]. *)
let find_from src piece at =
  let n = String.length piece in
  let rec go i =
    if i + n > String.length src then None
    else if String.sub src i n = piece then Some i
    else go (i + 1)
  in
  go at

let fuzz_env name default =
  match Sys.getenv_opt name with Some s -> s | None -> default

let reparse_fuzz_steps () =
  match int_of_string_opt (fuzz_env "DML_REPARSE_FUZZ_STEPS" "1000") with
  | Some n when n > 0 -> n
  | _ -> Alcotest.fail "DML_REPARSE_FUZZ_STEPS is not a positive integer"

(* [DML_REPARSE_FUZZ_SEED] is a comma-separated list of integers. *)
let reparse_fuzz_seed () =
  let s = fuzz_env "DML_REPARSE_FUZZ_SEED" "0x9A25,0x3E1" in
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | ints when List.for_all Option.is_some ints -> Array.of_list (List.filter_map Fun.id ints)
  | _ -> Alcotest.failf "DML_REPARSE_FUZZ_SEED=%S is not a comma-separated list of integers" s

(* Random insertions and deletions of comment brackets, quotes, separators,
   keywords, identifier characters and newlines, at declaration boundaries
   and inside declarations.  After every step the incremental parse against
   the last successful one must equal the cold parse. *)
let test_reparse_fuzz () =
  let rand = Random.State.make (reparse_fuzz_seed ()) in
  let r n = Random.State.int rand n in
  let pieces =
    [| "(*"; "*)"; "\""; ";"; "|"; "and"; "fun"; "val"; "="; "x"; "a1"; "_"; "'"; "\n"; " " |]
  in
  let text = ref reparse_base and good = ref reparse_base in
  let last = ref (Some (Reparse.parse reparse_base)) in
  let units = ref 0 and reparsed = ref 0 in
  for step = 1 to reparse_fuzz_steps () do
    let src = !text in
    let len = String.length src in
    let at =
      let bs = boundaries !good in
      if Array.length bs > 0 && r 2 = 0 then min len (max 0 (bs.(r (Array.length bs)) + r 9 - 2))
      else r (len + 1)
    in
    let piece = pieces.(r (Array.length pieces)) in
    let what, edited =
      match r 10 with
      | 0 -> ("revert to the last good text", !good)
      | 1 | 2 | 3 | 4 -> (
          (* delete the next occurrence of the piece *)
          let n = String.length piece in
          match find_from src piece at with
          | Some i ->
              ( Printf.sprintf "delete %S at %d" piece i,
                String.sub src 0 i ^ String.sub src (i + n) (len - i - n) )
          | None -> ("no-op", src))
      | _ ->
          ( Printf.sprintf "insert %S at %d" piece at,
            String.sub src 0 at ^ piece ^ String.sub src at (len - at) )
    in
    text := edited;
    let result = reparse ?last:!last edited in
    (match reparse_differs result edited with
    | None -> ()
    | Some why ->
        Alcotest.failf "step %d (%s): %s\nlast good text:\n%s\nedited text:\n%s" step what why !good
          edited);
    match result with
    | Ok t ->
        units := !units + List.length (Reparse.program t);
        reparsed := !reparsed + Reparse.reparsed t;
        last := Some t;
        good := edited
    | Error _ -> ()
  done;
  (* the differential is only worth something if most declarations came
     from the last parse *)
  if !reparsed * 2 > !units then
    Alcotest.failf "re-parsed %d of %d declarations: reuse barely happens" !reparsed !units

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "token boundaries" `Quick test_lexer_boundaries;
          Alcotest.test_case "integer literal overflow" `Quick test_lexer_int_overflow;
          Alcotest.test_case "corpus re-lexes" `Quick test_lexer_corpus;
          prop_lexer_mutations;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "forms" `Quick test_exp_forms;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        ] );
      ( "paper listings",
        [
          Alcotest.test_case "Figure 1 (dotprod)" `Quick test_figure1;
          Alcotest.test_case "Figure 2 (reverse)" `Quick test_figure2;
          Alcotest.test_case "Figure 3 (bsearch)" `Quick test_figure3;
          Alcotest.test_case "filter" `Quick test_filter;
        ] );
      ( "types",
        [
          Alcotest.test_case "forms" `Quick test_types;
          Alcotest.test_case "chained comparisons" `Quick test_index_chaining;
        ] );
      ("reparse", [ Alcotest.test_case "byte-edit differential fuzz" `Quick test_reparse_fuzz ]);
    ]
