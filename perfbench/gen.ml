(* Seeded inputs for the check-batch and serve-edit workloads.

   A generated program is a list of blocks: renamed copies of the twelve
   annotated corpus programs and bound-probe declarations.  Every input
   carries its known answer, computed from the generator's own bookkeeping
   and never from the checker: a probe [sub(a, I)] under [n >= B] is proven
   exactly when [I < B], so the unproven sites of a program are the lines of
   its off-by-one probes, and a broken probe makes the whole program a
   front-end (parse) failure. *)

module Lexer = Dml_lang.Lexer
module Token = Dml_lang.Token
module Ast = Dml_lang.Ast
module Programs = Dml_programs.Programs

let corpus = List.map (fun (b : Programs.benchmark) -> (b.Programs.name, b.Programs.source)) Programs.all

(* --- renaming -------------------------------------------------------------- *)

(* Names a program binds at top level.  Asserted names are library
   primitives (kmp's [arrayPrefix] family) and must keep their spelling. *)
let top_names (prog : Ast.program) =
  List.concat_map
    (function
      | Ast.Tdatatype d -> d.Ast.dt_name :: List.map fst d.Ast.dt_cons
      | Ast.Ttyperef r -> r.Ast.tr_name :: List.map fst r.Ast.tr_cons
      | Ast.Ttypedef (n, _) -> [ n ]
      | Ast.Tassert _ -> []
      | Ast.Tdec { Ast.ddesc = Ast.Dval (p, _, _); _ } -> Ast.pat_vars p
      | Ast.Tdec { Ast.ddesc = Ast.Dfun fs; _ } -> List.map (fun f -> f.Ast.fname) fs
      | Ast.Tdec { Ast.ddesc = Ast.Dexception (n, _); _ } -> [ n ])
    prog

let line_starts src =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
  Array.of_list (List.rev !starts)

(* Rename every identifier token that spells a top-level name of [src] by
   appending [suffix].  Consistent renaming of whole tokens is an alpha
   conversion, so a renamed copy checks exactly as its original does, and
   copies with distinct suffixes neither shadow one another nor share
   declaration digests. *)
let rename ~suffix src =
  let names = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace names n ()) (top_names (Dml_lang.Parser.parse_program src));
  let starts = line_starts src in
  let buf = Buffer.create (String.length src + 256) in
  let pos = ref 0 in
  List.iter
    (fun (tok, (loc : Dml_lang.Loc.t)) ->
      match tok with
      | Token.ID id when Hashtbl.mem names id ->
          let off = starts.(loc.Dml_lang.Loc.start_pos.line - 1) + loc.start_pos.col - 1 in
          if String.sub src off (String.length id) <> id then
            failwith ("perfbench: token position mismatch for " ^ id);
          Buffer.add_string buf (String.sub src !pos (off - !pos));
          Buffer.add_string buf id;
          Buffer.add_string buf suffix;
          pos := off + String.length id
      | _ -> ())
    (Lexer.tokenize src);
  Buffer.add_string buf (String.sub src !pos (String.length src - !pos));
  Buffer.contents buf

(* --- programs ---------------------------------------------------------------- *)

type probe = {
  tag : string;
  idx : int;  (** the subscript I *)
  bound : int;  (** the lower bound B on the array length *)
  comment : bool;  (** a trailing comment on the access line *)
  broken : bool;  (** the access line lost its closing parenthesis *)
}

type block = Copy of string | Probe of probe

type program = block list

type answer =
  | Residual of int list  (** the lines of the unproven sites, ascending; [] = valid *)
  | Front_failure of string  (** the front-end stage slug, e.g. ["parse"] *)

let probe_lines p =
  [
    Printf.sprintf "fun probe_%s(a) = sub(a, %d%s%s" p.tag p.idx
      (if p.broken then "" else ")")
      (if p.comment then " (* edited *)" else "");
    Printf.sprintf "where probe_%s <| {n:nat | n >= %d} int array(n) -> int" p.tag p.bound;
  ]

let block_lines = function
  | Copy src -> String.split_on_char '\n' (String.trim src)
  | Probe p -> probe_lines p

(* The source text and its known answer.  Blocks are separated by one blank
   line; a probe's access sits on its block's first line. *)
let render (prog : program) =
  let lines = ref [] and line = ref 1 and residual = ref [] and broken = ref false in
  List.iter
    (fun b ->
      (match b with
      | Probe p ->
          if p.broken then broken := true;
          if p.idx >= p.bound then residual := !line :: !residual
      | Copy _ -> ());
      let ls = block_lines b in
      lines := "" :: List.rev_append ls !lines;
      line := !line + List.length ls + 1)
    prog;
  let src = String.concat "\n" (List.rev !lines) in
  (src, if !broken then Front_failure "parse" else Residual (List.rev !residual))

(* --- the seeded generator ------------------------------------------------------ *)

type t = {
  rng : Random.State.t;
  mutable fresh : int;
  mutable deck : (string * string) list;  (** corpus programs left in the current shuffled pass *)
}

let create ~seed ~stream = { rng = Random.State.make [| seed; stream |]; fresh = 0; deck = [] }

let fresh_tag g =
  g.fresh <- g.fresh + 1;
  Printf.sprintf "g%d" g.fresh

let copy g (_, src) = Copy (rename ~suffix:("_" ^ fresh_tag g) src)

let valid_probe g =
  let bound = 1 + Random.State.int g.rng 64 in
  { tag = fresh_tag g; idx = Random.State.int g.rng bound; bound; comment = false; broken = false }

let shuffle g l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g.rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The next corpus program: the corpus is dealt in shuffled passes, so a
   program's size depends little on the seed, and twelve copies dealt from a
   fresh generator or after whole passes hold each corpus program once. *)
let deal g =
  if g.deck = [] then g.deck <- shuffle g corpus;
  match g.deck with
  | c :: rest ->
      g.deck <- rest;
      c
  | [] -> assert false

(* [copies] renamed corpus programs, with one probe
   after every fourth copy (at least one).  With [off_by_one] the last probe
   indexes one past its bound. *)
let program g ~copies ~off_by_one =
  let rec go i acc =
    if i = copies then List.rev acc
    else
      let c = copy g (deal g) in
      let acc = if i mod 4 = 3 then Probe (valid_probe g) :: c :: acc else c :: acc in
      go (i + 1) acc
  in
  let blocks = go 0 [] in
  let blocks = if copies mod 4 = 0 then blocks else blocks @ [ Probe (valid_probe g) ] in
  if not off_by_one then blocks
  else
    match List.rev blocks with
    | Probe p :: rest -> List.rev (Probe { p with idx = p.bound } :: rest)
    | _ -> assert false (* every program ends with a probe *)

(* Every copy count from 1 to 32 twice, in seeded order; about one program
   in ten carries an off-by-one probe.  The fixed size set keeps the latency
   distribution of a run independent of the seed. *)
let batch_size = 64

let batch g =
  shuffle g (List.init batch_size (fun i -> (i mod 32) + 1))
  |> List.map (fun copies -> program g ~copies ~off_by_one:(Random.State.int g.rng 10 = 0))

(* The editor buffer: the corpus twice, in seeded order, with eight probes
   spread through it. *)
let editor_buffer g =
  let copies = shuffle g (corpus @ corpus) |> List.map (copy g) in
  List.concat (List.mapi (fun i c -> if i mod 3 = 2 then [ c; Probe (valid_probe g) ] else [ c ]) copies)

(* --- edits ----------------------------------------------------------------------- *)

type edit = Bump | Toggle_comment | Change_bound | Break

let edit_name = function
  | Bump -> "bump"
  | Toggle_comment -> "comment"
  | Change_bound -> "bound"
  | Break -> "break"

let probes prog = List.filter_map (function Probe p -> Some p | Copy _ -> None) prog

let apply_edit g prog kind =
  let ps = probes prog in
  let target = (List.nth ps (Random.State.int g.rng (List.length ps))).tag in
  let change p =
    match kind with
    | Bump -> { p with idx = p.idx + 1; bound = p.bound + 1 }
    | Toggle_comment -> { p with comment = not p.comment }
    | Change_bound ->
        (* a proven probe goes off by one three times in ten; an unproven
           one is always repaired *)
        if p.idx < p.bound && Random.State.int g.rng 10 < 3 then { p with bound = p.idx }
        else { p with bound = p.idx + 1 + Random.State.int g.rng 8 }
    | Break -> { p with broken = true }
  in
  List.map (function Probe p when p.tag = target -> Probe (change p) | b -> b) prog
