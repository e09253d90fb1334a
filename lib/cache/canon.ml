open Dml_numeric
open Dml_index
open Dml_constr

(* ------------------------------------------------------------------ *)
(* Variable numbering                                                  *)
(* ------------------------------------------------------------------ *)

(* De Bruijn-style numbering: variables are numbered by their position in
   the binder list, restricted to the variables that actually occur in the
   sequent, with stray free variables (a degenerate case the sequent form
   should not produce) appended in a deterministic order.  The variables
   of the hypotheses are numbered first and those only the conclusion
   mentions after them, so one numbering of a hypothesis list serves every
   conclusion tested under it.  Renaming a binder changes neither
   positions nor the canonical form; reordering hypotheses never touches
   the binder list, so the numbering commutes with the conjunct sorting
   done below. *)

type numbering = { index : (int, int) Hashtbl.t; sorts : string }

let no_numbering = { index = Hashtbl.create 1; sorts = "" }

let base_sort_char g =
  match Idx.base_sort g with Idx.Sint -> 'i' | Idx.Sbool -> 'b' | Idx.Ssubset _ -> '?'

(* [base] extended with the variables of [occurring] it does not number
   yet; [base] itself is never mutated. *)
let extend base goal_vars occurring =
  let fresh = Ivar.Set.filter (fun v -> not (Hashtbl.mem base.index v.Ivar.id)) occurring in
  if Ivar.Set.is_empty fresh then base
  else begin
    let index = Hashtbl.copy base.index in
    let sorts = Buffer.create 16 in
    Buffer.add_string sorts base.sorts;
    let add v c =
      if not (Hashtbl.mem index v.Ivar.id) then begin
        Hashtbl.add index v.Ivar.id (Hashtbl.length index);
        if Buffer.length sorts > 0 then Buffer.add_char sorts ',';
        Buffer.add_char sorts c
      end
    in
    List.iter
      (fun (v, srt) -> if Ivar.Set.mem v fresh then add v (base_sort_char srt))
      goal_vars;
    let unbound = Ivar.Set.filter (fun v -> not (Hashtbl.mem index v.Ivar.id)) fresh in
    List.iter
      (fun v -> add v '?')
      (List.sort
         (fun a b ->
           match compare (Ivar.name a) (Ivar.name b) with
           | 0 -> compare a.Ivar.id b.Ivar.id
           | c -> c)
         (Ivar.Set.elements unbound));
    { index; sorts = Buffer.contents sorts }
  end

let var_index nb v = Hashtbl.find nb.index v.Ivar.id

(* ------------------------------------------------------------------ *)
(* Atom normalization                                                  *)
(* ------------------------------------------------------------------ *)

(* An affine atom is the solver's own normal form: [Linear.normalize
   ~tighten:true] divides [sum k_i x_i + c <= 0] through by the positive
   gcd g of the k_i and floors the bound, an *equivalence* over the
   integers (the left-hand side is an integer), so goals that differ by a
   common factor or by the strict/non-strict presentation of the same
   half-space share one canonical atom; an equation whose constant g does
   not divide has no integer solution and becomes the constant [1 = 0].
   The terms are rendered in the numbering's order, an equation's with its
   first coefficient made positive. *)
let render_atom nb tag rel (c : Bigint.t Linear.cstr) =
  let f = c.Linear.form in
  let terms = Array.mapi (fun i v -> (var_index nb v, f.Linear.coeffs.(i))) f.Linear.vars in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) terms;
  let flip = c.Linear.kind = Linear.Eq && Bigint.sign (snd terms.(0)) < 0 in
  let signed k = if flip then Bigint.neg k else k in
  let buf = Buffer.create 32 in
  Buffer.add_string buf tag;
  Array.iter
    (fun (v, k) ->
      Buffer.add_string buf (Bigint.to_string (signed k));
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf '+')
    terms;
  Buffer.add_string buf rel;
  Buffer.add_string buf (Bigint.to_string (Bigint.neg (signed f.Linear.const)));
  Buffer.contents buf

(* [form <= 0] *)
let atom_le nb f =
  match Linear.normalize ~tighten:true (Linear.cstr_le f) with
  | None -> "T"
  | Some c when Array.length c.Linear.form.Linear.vars = 0 -> "F"
  | Some c -> render_atom nb "L:" "<=" c

(* [form = 0], or [form <> 0] with [~ne] *)
let atom_eqne nb ~ne f =
  let holds = if ne then "F" else "T" and fails = if ne then "T" else "F" in
  match Linear.normalize ~tighten:true (Linear.cstr_eq f) with
  | None -> holds
  | Some c when Array.length c.Linear.form.Linear.vars = 0 -> fails
  | Some c -> render_atom nb (if ne then "N:" else "E:") (if ne then "<>" else "=") c

(* Structural fallback for atoms outside the affine fragment (div, mod,
   min, max, abs, sgn, non-linear products): a deterministic prefix
   rendering over numbered variables, with the operands of commutative
   operators sorted. *)
let rec render_iexp nb e =
  let bin tag a b = Printf.sprintf "%s(%s,%s)" tag (render_iexp nb a) (render_iexp nb b) in
  let bin_comm tag a b =
    let sa = render_iexp nb a and sb = render_iexp nb b in
    let sa, sb = if sa <= sb then (sa, sb) else (sb, sa) in
    Printf.sprintf "%s(%s,%s)" tag sa sb
  in
  match e with
  | Idx.Ivar v -> "v" ^ string_of_int (var_index nb v)
  | Idx.Iconst n -> string_of_int n
  | Idx.Iadd (a, b) -> bin_comm "add" a b
  | Idx.Isub (a, b) -> bin "sub" a b
  | Idx.Ineg a -> Printf.sprintf "neg(%s)" (render_iexp nb a)
  | Idx.Imul (a, b) -> bin_comm "mul" a b
  | Idx.Idiv (a, b) -> bin "div" a b
  | Idx.Imod (a, b) -> bin "mod" a b
  | Idx.Imin (a, b) -> bin_comm "min" a b
  | Idx.Imax (a, b) -> bin_comm "max" a b
  | Idx.Iabs a -> Printf.sprintf "abs(%s)" (render_iexp nb a)
  | Idx.Isgn a -> Printf.sprintf "sgn(%s)" (render_iexp nb a)

let atom_structural nb rel a b =
  (* normalize the direction so [a > b] and [b < a] coincide; equality and
     disequality are symmetric, so order their operands lexically *)
  let rel, a, b =
    match rel with
    | Idx.Rgt -> (Idx.Rlt, b, a)
    | Idx.Rge -> (Idx.Rle, b, a)
    | (Idx.Rlt | Idx.Rle | Idx.Req | Idx.Rne) as r -> (r, a, b)
  in
  let sa = render_iexp nb a and sb = render_iexp nb b in
  let sa, sb =
    match rel with
    | Idx.Req | Idx.Rne -> if sa <= sb then (sa, sb) else (sb, sa)
    | _ -> (sa, sb)
  in
  let tag =
    match rel with
    | Idx.Rlt -> "lt"
    | Idx.Rle -> "le"
    | Idx.Req -> "eq"
    | Idx.Rne -> "ne"
    | Idx.Rge | Idx.Rgt -> assert false
  in
  Printf.sprintf "X:%s(%s,%s)" tag sa sb

let atom_cmp nb rel a b =
  match Linear.of_iexp (Idx.Isub (a, b)) with
  | None -> atom_structural nb rel a b
  | Some d -> (
      (* integrality turns strict comparisons into non-strict ones, so
         [a < b] and [a + 1 <= b] share one canonical atom *)
      match rel with
      | Idx.Rle -> atom_le nb d
      | Idx.Rlt -> atom_le nb (Linear.add d (Linear.of_int 1))
      | Idx.Rge -> atom_le nb (Linear.neg d)
      | Idx.Rgt -> atom_le nb (Linear.add (Linear.neg d) (Linear.of_int 1))
      | Idx.Req -> atom_eqne nb ~ne:false d
      | Idx.Rne -> atom_eqne nb ~ne:true d)

(* ------------------------------------------------------------------ *)
(* Formula normalization                                               *)
(* ------------------------------------------------------------------ *)

let negate_rel = function
  | Idx.Rlt -> Idx.Rge
  | Idx.Rle -> Idx.Rgt
  | Idx.Req -> Idx.Rne
  | Idx.Rne -> Idx.Req
  | Idx.Rge -> Idx.Rlt
  | Idx.Rgt -> Idx.Rle

(* Canonical rendering in negation normal form.  Conjunctions and
   disjunctions are flattened, their children canonicalized, deduplicated
   and sorted (commutativity, associativity, idempotence), and absorbed
   constants are dropped — all Boolean equivalences, so the verdict of the
   goal is untouched. *)
let rec canon_bexp nb ~pos (e : Idx.bexp) =
  match e with
  | Idx.Bconst b -> if b = pos then "T" else "F"
  | Idx.Bvar v -> (if pos then "P" else "!P") ^ string_of_int (var_index nb v)
  | Idx.Bcmp (rel, a, b) -> atom_cmp nb (if pos then rel else negate_rel rel) a b
  | Idx.Bnot e -> canon_bexp nb ~pos:(not pos) e
  | Idx.Band _ | Idx.Bor _ ->
      let conj = match (e, pos) with Idx.Band _, true | Idx.Bor _, false -> true | _ -> false in
      junction ~conj (collect_children nb ~conj [] pos e)

(* Gather the children of a maximal same-kind junction in NNF: [Band] under
   a positive polarity and [Bor] under a negative one are both conjunctions
   (De Morgan), and symmetrically for disjunctions; anything else is a
   child, rendered at its current polarity. *)
and collect_children nb ~conj acc pos e =
  match (e, pos) with
  | Idx.Bnot e, _ -> collect_children nb ~conj acc (not pos) e
  | Idx.Band (a, b), true when conj ->
      collect_children nb ~conj (collect_children nb ~conj acc pos a) pos b
  | Idx.Bor (a, b), false when conj ->
      collect_children nb ~conj (collect_children nb ~conj acc pos a) pos b
  | Idx.Bor (a, b), true when not conj ->
      collect_children nb ~conj (collect_children nb ~conj acc pos a) pos b
  | Idx.Band (a, b), false when not conj ->
      collect_children nb ~conj (collect_children nb ~conj acc pos a) pos b
  | _ -> canon_bexp nb ~pos e :: acc

and junction ~conj rendered =
  let unit_, absorb = if conj then ("T", "F") else ("F", "T") in
  if List.mem absorb rendered then absorb
  else
    match List.sort_uniq compare (List.filter (fun s -> s <> unit_) rendered) with
    | [] -> unit_
    | [ one ] -> one
    | many ->
        Printf.sprintf "%s(%s)" (if conj then "A" else "O") (String.concat ";" many)

(* ------------------------------------------------------------------ *)
(* Goal assembly                                                       *)
(* ------------------------------------------------------------------ *)

(* The hypothesis half of a canonical form: the numbering of the
   hypotheses' variables and the sorted conjunct set. *)
type hyps_part = {
  hp_vars : (Ivar.t * Idx.sort) list;
  hp_hyps : Idx.bexp list;
  hp_numbering : numbering;
  hp_rendered : string;
}

let render_hyps (g : Constr.goal) =
  let occurring =
    List.fold_left
      (fun acc h -> Ivar.Set.union acc (Idx.fv_bexp h))
      Ivar.Set.empty g.Constr.goal_hyps
  in
  let nb = extend no_numbering g.Constr.goal_vars occurring in
  (* the hypothesis list is one big conjunction: collect every top-level
     conjunct (through nested [Band]s and negated [Bor]s) into a single
     sorted, deduplicated set, so splitting, nesting or reordering the
     hypotheses is invisible *)
  let hyp_set =
    List.fold_left
      (fun acc h -> collect_children nb ~conj:true acc true h)
      [] g.Constr.goal_hyps
  in
  let hyps =
    if List.mem "F" hyp_set then [ "F" ]
    else List.sort_uniq compare (List.filter (fun s -> s <> "T") hyp_set)
  in
  {
    hp_vars = g.Constr.goal_vars;
    hp_hyps = g.Constr.goal_hyps;
    hp_numbering = nb;
    hp_rendered = String.concat ";" hyps;
  }

(* The inference fixpoint tests a goal and then each conjunct of its
   conclusion under the very same (physically shared) binder and
   hypothesis lists; the hypothesis half of the last goal is kept, per
   domain, so that family renders its hypotheses once. *)
let last_hyps : hyps_part option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let hyps_part (g : Constr.goal) =
  match Domain.DLS.get last_hyps with
  | Some hp when hp.hp_vars == g.Constr.goal_vars && hp.hp_hyps == g.Constr.goal_hyps -> hp
  | _ ->
      let hp = render_hyps g in
      Domain.DLS.set last_hyps (Some hp);
      hp

let canonical (g : Constr.goal) =
  let hp = hyps_part g in
  let nb = extend hp.hp_numbering g.Constr.goal_vars (Idx.fv_bexp g.Constr.goal_concl) in
  let concl = canon_bexp nb ~pos:true g.Constr.goal_concl in
  Printf.sprintf "g1|V:%s|H:%s|C:%s" nb.sorts hp.hp_rendered concl

let digest g = Digest.to_hex (Digest.string (canonical g))
let digest_hex_length = 32
