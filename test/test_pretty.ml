(* Round-trip tests for the pretty-printer: parse, print, re-parse, compare
   structurally.  Exercised on every bundled program (including the basis)
   and on randomly generated expressions.  Then the erasure to plain ML that
   the unannotated twins are built from. *)

open Dml_lang

let roundtrip_program name src =
  let prog =
    try Parser.parse_program src
    with Parser.Error (msg, loc) ->
      Alcotest.failf "%s: parse: %s at %s" name msg (Loc.to_string loc)
  in
  let printed = Pretty.program_to_string prog in
  let reparsed =
    try Parser.parse_program printed
    with
    | Parser.Error (msg, loc) ->
        Alcotest.failf "%s: reparse failed: %s at %s\n--- printed:\n%s" name msg
          (Loc.to_string loc) printed
    | Lexer.Error (msg, loc) ->
        Alcotest.failf "%s: relex failed: %s at %s\n--- printed:\n%s" name msg
          (Loc.to_string loc) printed
  in
  if not (Pretty.Equal.program prog reparsed) then
    Alcotest.failf "%s: round-trip changed the program\n--- printed:\n%s" name printed

let program_cases =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      Alcotest.test_case b.Dml_programs.Programs.name `Quick (fun () ->
          roundtrip_program b.Dml_programs.Programs.name b.Dml_programs.Programs.source))
    Dml_programs.Programs.all

let test_basis () = roundtrip_program "basis" Dml_core.Basis.source

(* --- random expression round-trips --------------------------------------------- *)

let gen_exp =
  let open QCheck.Gen in
  let mk d = Ast.mk_exp d Loc.dummy in
  let var = oneofl [ "x"; "y"; "f"; "g"; "zs" ] in
  let rec gen n =
    if n = 0 then
      oneof
        [
          map (fun i -> mk (Ast.Eint i)) (int_range (-20) 20);
          map (fun b -> mk (Ast.Ebool b)) bool;
          map (fun x -> mk (Ast.Evar x)) var;
          map (fun c -> mk (Ast.Echar c)) (oneofl [ 'a'; 'Z'; '0'; ' '; '\n'; '"'; '\\' ]);
          map
            (fun parts -> mk (Ast.Estring (String.concat "" parts)))
            (list_size (int_range 0 4) (oneofl [ "ab"; "\n"; "\t"; "\\"; "\""; "x" ]));
          return (mk (Ast.Etuple []));
        ]
    else
      let sub = gen (n / 2) in
      frequency
        [
          (2, gen 0);
          (2, map2 (fun f a -> mk (Ast.Eapp (f, a))) sub sub);
          ( 2,
            map2
              (fun op (a, b) ->
                mk (Ast.Eapp (mk (Ast.Evar op), mk (Ast.Etuple [ a; b ]))))
              (oneofl [ "+"; "-"; "*"; "div"; "<"; "<="; "="; "::" ])
              (pair sub sub) );
          (1, map3 (fun a b c -> mk (Ast.Eif (a, b, c))) sub sub sub);
          (1, map2 (fun a b -> mk (Ast.Eandalso (a, b))) sub sub);
          (1, map2 (fun a b -> mk (Ast.Eorelse (a, b))) sub sub);
          (1, map (fun es -> mk (Ast.Etuple es)) (list_size (int_range 2 3) sub));
          ( 1,
            map2
              (fun x body -> mk (Ast.Efn (Ast.mk_pat (Ast.Pvar x) Loc.dummy, body)))
              var sub );
          ( 1,
            map3
              (fun x e body ->
                mk
                  (Ast.Elet
                     ( [ Ast.mk_dec (Ast.Dval (Ast.mk_pat (Ast.Pvar x) Loc.dummy, e, None)) Loc.dummy ],
                       body )))
              var sub sub );
          ( 1,
            map3
              (fun scrut x body ->
                mk
                  (Ast.Ecase
                     ( scrut,
                       [
                         (Ast.mk_pat (Ast.Pint 0) Loc.dummy, body);
                         (Ast.mk_pat (Ast.Pvar x) Loc.dummy, mk (Ast.Eint 1));
                       ] )))
              sub var sub );
        ]
  in
  gen 12

let prop_exp_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"random expression round-trip"
       (QCheck.make ~print:Pretty.exp_to_string gen_exp)
       (fun e ->
         let printed = Pretty.exp_to_string e in
         match Parser.parse_exp printed with
         | reparsed -> Pretty.Equal.exp e reparsed
         | exception _ -> false))

(* --- random type round-trips ------------------------------------------------------ *)

let gen_stype =
  let open QCheck.Gen in
  let rec gen_idx n =
    if n = 0 then
      oneof
        [ map (fun i -> Ast.Siconst i) (int_range 0 9); oneofl [ Ast.Siname "n"; Ast.Siname "m" ] ]
    else
      let sub = gen_idx (n / 2) in
      frequency
        [
          (3, gen_idx 0);
          ( 2,
            map3
              (fun op a b -> Ast.Sibin (op, a, b))
              (oneofl [ Ast.Oadd; Ast.Osub; Ast.Omul; Ast.Omin; Ast.Omax; Ast.Odiv ])
              sub sub );
        ]
  in
  let rec gen n =
    if n = 0 then
      oneof
        [
          oneofl [ Ast.STvar "a"; Ast.STcon ([], "int", []); Ast.STcon ([], "bool", []) ];
          map (fun i -> Ast.STcon ([], "int", [ i ])) (gen_idx 2);
        ]
    else
      let sub = gen (n / 2) in
      frequency
        [
          (2, gen 0);
          (2, map2 (fun a b -> Ast.STarrow (a, b)) sub sub);
          (1, map (fun ts -> Ast.STtuple ts) (list_size (int_range 2 3) sub));
          (1, map2 (fun t i -> Ast.STcon ([ t ], "array", [ i ])) sub (gen_idx 2));
          ( 1,
            map2
              (fun t c ->
                Ast.STpi ({ Ast.qvars = [ ("n", "nat") ]; qcond = c }, t))
              sub
              (option (map (fun i -> Ast.Sibin (Ast.Ole, Ast.Siname "n", i)) (gen_idx 1))) );
          ( 1,
            map
              (fun t -> Ast.STsigma ({ Ast.qvars = [ ("m", "int") ]; qcond = None }, t))
              sub );
        ]
  in
  gen 8

let prop_stype_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"random type round-trip"
       (QCheck.make ~print:Pretty.stype_to_string gen_stype)
       (fun t ->
         let printed = Pretty.stype_to_string t in
         match Parser.parse_stype printed with
         | reparsed -> Pretty.Equal.stype t reparsed
         | exception _ -> false))

(* --- erasure ----------------------------------------------------------------------- *)

let parse name src =
  try Parser.parse_program src
  with Parser.Error (msg, loc) -> Alcotest.failf "%s: parse: %s at %s" name msg (Loc.to_string loc)

let check_program what expected got =
  if not (Pretty.Equal.program expected got) then
    Alcotest.failf "%s\n--- expected:\n%s--- got:\n%s" what (Pretty.program_to_string expected)
      (Pretty.program_to_string got)

(* one of each annotation form, and the library declarations that stay *)
let test_erase_constructs () =
  let dml =
    {|
type pos = [i:int | 0 < i] int(i)

assert mkpos <| int -> pos

fun('a){n:nat} fill(a, x) = let
  fun loop(i) = if i < length a then (update(a, i, x); loop(i+1)) else ()
  where loop <| {i:nat} int(i) -> unit
  val start = (0 : int(0))
in
  loop(start)
end
where fill <| 'a array(n) * 'a -> unit

val three = 3 where three <| int(3)
|}
  and ml =
    {|
type pos = [i:int | 0 < i] int(i)

assert mkpos <| int -> pos

fun fill(a, x) = let
  fun loop(i) = if i < length a then (update(a, i, x); loop(i+1)) else ()
  val start = 0
in
  loop(start)
end

val three = 3
|}
  in
  check_program "erasure" (parse "ml" ml) (Pretty.erase (parse "dml" dml))

(* The ML schemes of a program's top-level bindings, after the basis. *)
let top_level_schemes prog =
  let open Dml_mltype in
  let env, _, _ = Dml_core.Prelude.start (Dml_core.Prelude.get ()) prog in
  List.concat_map
    (function
      | Ast.Tdec { Ast.ddesc = Ast.Dval (p, _, _); _ } -> Ast.pat_vars p
      | Ast.Tdec { Ast.ddesc = Ast.Dfun fs; _ } -> List.map (fun f -> f.Ast.fname) fs
      | _ -> [])
    prog
  |> List.map (fun x -> (x, Infer.SMap.find x env.Infer.vals))

(* [s] with its quantified variables renamed in order of occurrence, so an
   annotation's ['a] prints like an inferred ['_0] *)
let canonical s =
  let open Dml_mltype in
  Format.asprintf "%a" Mltype.pp_scheme (Mltype.generalize ~level:0 (Mltype.instantiate ~level:1 s))

(* [specific] is an instance of [general]: its quantified variables held
   rigid, it unifies with a fresh instance of [general] *)
let instance_of ~general specific =
  let open Dml_mltype in
  match Mltype.unify (Mltype.instantiate ~level:1 general) specific.Mltype.sbody with
  | () -> true
  | exception Mltype.Unify_error _ -> false

(* Bindings whose annotation fixes a type that ML inference alone leaves
   polymorphic: bcopy's arrays are [int array], binary search's key and
   element types are one ['a].  Every other binding keeps its exact type. *)
let generalised_by_erasure = [ "bcopy"; "bsearch" ]

(* Over the whole corpus: erasure is idempotent, its printed form re-parses
   to the same program, and ML inference gives every top-level binding of
   the erased program a type of which the annotated one is an instance
   (DML is a conservative extension of ML: annotations only refine). *)
let erasure_cases =
  List.map
    (fun (b : Dml_programs.Programs.benchmark) ->
      let name = b.Dml_programs.Programs.name in
      Alcotest.test_case name `Quick (fun () ->
          let p = parse name b.Dml_programs.Programs.source in
          let e = Pretty.erase p in
          check_program "idempotent" e (Pretty.erase e);
          check_program "printed erasure re-parses" e (parse name (Pretty.program_to_string e));
          List.iter2
            (fun (x, annotated) (x', erased) ->
              Alcotest.(check string) "same bindings" x x';
              if List.mem x generalised_by_erasure then
                Alcotest.(check bool) (x ^ ": annotated type is an instance") true
                  (instance_of ~general:erased annotated)
              else
                Alcotest.(check string) (x ^ ": same ML type") (canonical annotated)
                  (canonical erased))
            (top_level_schemes p) (top_level_schemes e)))
    Dml_programs.Programs.all

let () =
  Alcotest.run "pretty"
    [
      ("programs round-trip", program_cases);
      ("basis", [ Alcotest.test_case "basis round-trip" `Quick test_basis ]);
      ("properties", [ prop_exp_roundtrip; prop_stype_roundtrip ]);
      ("erasure", Alcotest.test_case "each construct" `Quick test_erase_constructs :: erasure_cases);
    ]
