type iexp =
  | Ivar of Ivar.t
  | Iconst of int
  | Iadd of iexp * iexp
  | Isub of iexp * iexp
  | Ineg of iexp
  | Imul of iexp * iexp
  | Idiv of iexp * iexp
  | Imod of iexp * iexp
  | Imin of iexp * iexp
  | Imax of iexp * iexp
  | Iabs of iexp
  | Isgn of iexp

type rel = Rlt | Rle | Req | Rne | Rge | Rgt

type bexp =
  | Bvar of Ivar.t
  | Bconst of bool
  | Bcmp of rel * iexp * iexp
  | Bnot of bexp
  | Band of bexp * bexp
  | Bor of bexp * bexp

type sort = Sint | Sbool | Ssubset of Ivar.t * sort * bexp

let iadd a b =
  match (a, b) with
  | Iconst x, Iconst y -> Iconst (x + y)
  | Iconst 0, e | e, Iconst 0 -> e
  | _ -> Iadd (a, b)

let isub a b =
  match (a, b) with
  | Iconst x, Iconst y -> Iconst (x - y)
  | e, Iconst 0 -> e
  | _ -> Isub (a, b)

let imul a b =
  match (a, b) with
  | Iconst x, Iconst y -> Iconst (x * y)
  | Iconst 1, e | e, Iconst 1 -> e
  | (Iconst 0 as z), _ | _, (Iconst 0 as z) -> z
  | _ -> Imul (a, b)

let band a b =
  match (a, b) with
  | Bconst true, e | e, Bconst true -> e
  | (Bconst false as f), _ | _, (Bconst false as f) -> f
  | _ -> Band (a, b)

let bor a b =
  match (a, b) with
  | Bconst false, e | e, Bconst false -> e
  | (Bconst true as t), _ | _, (Bconst true as t) -> t
  | _ -> Bor (a, b)

let bnot = function Bconst b -> Bconst (not b) | Bnot e -> e | e -> Bnot e
let cmp r a b = Bcmp (r, a, b)
let conj bs = List.fold_left band (Bconst true) bs

let nat =
  let a = Ivar.fresh "a" in
  Ssubset (a, Sint, Bcmp (Rge, Ivar a, Iconst 0))

let rec base_sort = function
  | (Sint | Sbool) as s -> s
  | Ssubset (_, s, _) -> base_sort s

let rec fv_iexp = function
  | Ivar v -> Ivar.Set.singleton v
  | Iconst _ -> Ivar.Set.empty
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b) | Imin (a, b) | Imax (a, b)
    ->
      Ivar.Set.union (fv_iexp a) (fv_iexp b)
  | Ineg a | Iabs a | Isgn a -> fv_iexp a

let rec fv_bexp = function
  | Bvar v -> Ivar.Set.singleton v
  | Bconst _ -> Ivar.Set.empty
  | Bcmp (_, a, b) -> Ivar.Set.union (fv_iexp a) (fv_iexp b)
  | Bnot e -> fv_bexp e
  | Band (a, b) | Bor (a, b) -> Ivar.Set.union (fv_bexp a) (fv_bexp b)

(* Occurrence tests answer [Ivar.Set.mem a (fv_* e)] without building the
   set, and stop at the first hit. *)
let rec occurs_iexp a = function
  | Ivar v -> Ivar.equal a v
  | Iconst _ -> false
  | Iadd (x, y) | Isub (x, y) | Imul (x, y) | Idiv (x, y) | Imod (x, y) | Imin (x, y) | Imax (x, y)
    ->
      occurs_iexp a x || occurs_iexp a y
  | Ineg x | Iabs x | Isgn x -> occurs_iexp a x

let rec occurs_bexp a = function
  | Bvar v -> Ivar.equal a v
  | Bconst _ -> false
  | Bcmp (_, x, y) -> occurs_iexp a x || occurs_iexp a y
  | Bnot e -> occurs_bexp a e
  | Band (x, y) | Bor (x, y) -> occurs_bexp a x || occurs_bexp a y

let rec occurs_sort a = function
  | Sint | Sbool -> false
  | Ssubset (b, g, cond) -> occurs_sort a g || ((not (Ivar.equal a b)) && occurs_bexp a cond)

let rec subst_iexp s = function
  | Ivar v as e -> ( match Ivar.Map.find_opt v s with Some e' -> e' | None -> e)
  | Iconst _ as e -> e
  | Iadd (a, b) -> iadd (subst_iexp s a) (subst_iexp s b)
  | Isub (a, b) -> isub (subst_iexp s a) (subst_iexp s b)
  | Ineg a -> Ineg (subst_iexp s a)
  | Imul (a, b) -> imul (subst_iexp s a) (subst_iexp s b)
  | Idiv (a, b) -> Idiv (subst_iexp s a, subst_iexp s b)
  | Imod (a, b) -> Imod (subst_iexp s a, subst_iexp s b)
  | Imin (a, b) -> Imin (subst_iexp s a, subst_iexp s b)
  | Imax (a, b) -> Imax (subst_iexp s a, subst_iexp s b)
  | Iabs a -> Iabs (subst_iexp s a)
  | Isgn a -> Isgn (subst_iexp s a)

let rec subst_bexp s = function
  | (Bvar _ | Bconst _) as e -> e
  | Bcmp (r, a, b) -> Bcmp (r, subst_iexp s a, subst_iexp s b)
  | Bnot e -> bnot (subst_bexp s e)
  | Band (a, b) -> band (subst_bexp s a) (subst_bexp s b)
  | Bor (a, b) -> bor (subst_bexp s a) (subst_bexp s b)

let rec subst_bvar s = function
  | Bvar v as e -> ( match Ivar.Map.find_opt v s with Some e' -> e' | None -> e)
  | (Bconst _ | Bcmp _) as e -> e
  | Bnot e -> bnot (subst_bvar s e)
  | Band (a, b) -> band (subst_bvar s a) (subst_bvar s b)
  | Bor (a, b) -> bor (subst_bvar s a) (subst_bvar s b)

let subst_sort im bm g =
  let rec go im bm = function
    | (Sint | Sbool) as g -> g
    | Ssubset (a, g, cond) ->
        (* [a] scopes over [cond] only, as in [occurs_sort] *)
        let g = go im bm g in
        let im = Ivar.Map.remove a im and bm = Ivar.Map.remove a bm in
        let cond = subst_bexp im cond in
        Ssubset (a, g, if Ivar.Map.is_empty bm then cond else subst_bvar bm cond)
  in
  if Ivar.Map.is_empty im && Ivar.Map.is_empty bm then g else go im bm g

let sort_refinement a g =
  let rec go a = function
    | Sint | Sbool -> Bconst true
    | Ssubset (b, g', cond) ->
        let inner = go a g' in
        let cond = subst_bexp (Ivar.Map.singleton b (Ivar a)) cond in
        band inner cond
  in
  go a g

(* Does [a] mention any condition of [g], bound there or not? *)
let rec mentions_sort a = function
  | Sint | Sbool -> false
  | Ssubset (_, g, cond) -> occurs_bexp a cond || mentions_sort a g

let occurs_refinement a b g =
  match g with
  | Sint | Sbool -> false
  | Ssubset _ ->
      (* the refinement renames every subset binder to [b] and simplifies as
         it is built, so [a] can occur in it only if it is [b] or mentioned
         in a condition; either way the built refinement decides exactly *)
      (Ivar.equal a b || mentions_sort a g) && occurs_bexp a (sort_refinement b g)

let rec equal_iexp x y =
  match (x, y) with
  | Ivar a, Ivar b -> Ivar.equal a b
  | Iconst a, Iconst b -> a = b
  | Iadd (a, b), Iadd (c, d)
  | Isub (a, b), Isub (c, d)
  | Imul (a, b), Imul (c, d)
  | Idiv (a, b), Idiv (c, d)
  | Imod (a, b), Imod (c, d)
  | Imin (a, b), Imin (c, d)
  | Imax (a, b), Imax (c, d) ->
      equal_iexp a c && equal_iexp b d
  | Ineg a, Ineg b | Iabs a, Iabs b | Isgn a, Isgn b -> equal_iexp a b
  | ( ( Ivar _ | Iconst _ | Iadd _ | Isub _ | Ineg _ | Imul _ | Idiv _ | Imod _ | Imin _ | Imax _
      | Iabs _ | Isgn _ ),
      _ ) ->
      false

let rec equal_bexp x y =
  match (x, y) with
  | Bvar a, Bvar b -> Ivar.equal a b
  | Bconst a, Bconst b -> a = b
  | Bcmp (r1, a, b), Bcmp (r2, c, d) -> r1 = r2 && equal_iexp a c && equal_iexp b d
  | Bnot a, Bnot b -> equal_bexp a b
  | Band (a, b), Band (c, d) | Bor (a, b), Bor (c, d) -> equal_bexp a c && equal_bexp b d
  | (Bvar _ | Bconst _ | Bcmp _ | Bnot _ | Band _ | Bor _), _ -> false

type value = Vint of int | Vbool of bool

let fdiv a b = if b = 0 then raise Division_by_zero else (a - ((a mod b) + b) mod b) / b
let fmod a b = if b = 0 then raise Division_by_zero else ((a mod b) + b) mod b

let rec eval_iexp env = function
  | Ivar v -> (
      match Ivar.Map.find v env with
      | Vint n -> n
      | Vbool _ -> invalid_arg "Idx.eval_iexp: boolean variable in integer position")
  | Iconst n -> n
  | Iadd (a, b) -> eval_iexp env a + eval_iexp env b
  | Isub (a, b) -> eval_iexp env a - eval_iexp env b
  | Ineg a -> -eval_iexp env a
  | Imul (a, b) -> eval_iexp env a * eval_iexp env b
  | Idiv (a, b) -> fdiv (eval_iexp env a) (eval_iexp env b)
  | Imod (a, b) -> fmod (eval_iexp env a) (eval_iexp env b)
  | Imin (a, b) -> Stdlib.min (eval_iexp env a) (eval_iexp env b)
  | Imax (a, b) -> Stdlib.max (eval_iexp env a) (eval_iexp env b)
  | Iabs a -> Stdlib.abs (eval_iexp env a)
  | Isgn a -> Stdlib.compare (eval_iexp env a) 0

let holds r a b =
  match r with
  | Rlt -> a < b
  | Rle -> a <= b
  | Req -> a = b
  | Rne -> a <> b
  | Rge -> a >= b
  | Rgt -> a > b

let rec eval_bexp env = function
  | Bvar v -> (
      match Ivar.Map.find v env with
      | Vbool b -> b
      | Vint _ -> invalid_arg "Idx.eval_bexp: integer variable in boolean position")
  | Bconst b -> b
  | Bcmp (r, a, b) -> holds r (eval_iexp env a) (eval_iexp env b)
  | Bnot e -> not (eval_bexp env e)
  | Band (a, b) -> eval_bexp env a && eval_bexp env b
  | Bor (a, b) -> eval_bexp env a || eval_bexp env b

let rel_to_string = function
  | Rlt -> "<"
  | Rle -> "<="
  | Req -> "="
  | Rne -> "<>"
  | Rge -> ">="
  | Rgt -> ">"

(* Precedences: additive 1, multiplicative 2, atoms 3. *)
let rec pp_iexp_prec prec fmt e =
  let open Format in
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match e with
  | Ivar v -> Ivar.pp fmt v
  | Iconst n -> fprintf fmt "%d" n
  | Iadd (a, b) -> paren 1 (fun fmt -> fprintf fmt "%a + %a" (pp_iexp_prec 1) a (pp_iexp_prec 2) b)
  | Isub (a, b) -> paren 1 (fun fmt -> fprintf fmt "%a - %a" (pp_iexp_prec 1) a (pp_iexp_prec 2) b)
  | Ineg a -> paren 2 (fun fmt -> fprintf fmt "-%a" (pp_iexp_prec 3) a)
  | Imul (a, b) -> paren 2 (fun fmt -> fprintf fmt "%a * %a" (pp_iexp_prec 2) a (pp_iexp_prec 3) b)
  | Idiv (a, b) -> fprintf fmt "div(%a, %a)" (pp_iexp_prec 0) a (pp_iexp_prec 0) b
  | Imod (a, b) -> fprintf fmt "mod(%a, %a)" (pp_iexp_prec 0) a (pp_iexp_prec 0) b
  | Imin (a, b) -> fprintf fmt "min(%a, %a)" (pp_iexp_prec 0) a (pp_iexp_prec 0) b
  | Imax (a, b) -> fprintf fmt "max(%a, %a)" (pp_iexp_prec 0) a (pp_iexp_prec 0) b
  | Iabs a -> fprintf fmt "abs(%a)" (pp_iexp_prec 0) a
  | Isgn a -> fprintf fmt "sgn(%a)" (pp_iexp_prec 0) a

let pp_iexp fmt e = pp_iexp_prec 0 fmt e

(* Precedences: or 1, and 2, not/atom 3. *)
let rec pp_bexp_prec prec fmt e =
  let open Format in
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match e with
  | Bvar v -> Ivar.pp fmt v
  | Bconst b -> pp_print_bool fmt b
  | Bcmp (r, a, b) -> fprintf fmt "%a %s %a" pp_iexp a (rel_to_string r) pp_iexp b
  | Bnot e -> paren 3 (fun fmt -> fprintf fmt "~%a" (pp_bexp_prec 3) e)
  | Band (a, b) ->
      paren 2 (fun fmt -> fprintf fmt "%a /\\ %a" (pp_bexp_prec 2) a (pp_bexp_prec 3) b)
  | Bor (a, b) -> paren 1 (fun fmt -> fprintf fmt "%a \\/ %a" (pp_bexp_prec 1) a (pp_bexp_prec 2) b)

let pp_bexp fmt e = pp_bexp_prec 0 fmt e

let rec pp_sort fmt = function
  | Sint -> Format.pp_print_string fmt "int"
  | Sbool -> Format.pp_print_string fmt "bool"
  | Ssubset (a, g, b) -> Format.fprintf fmt "{%a : %a | %a}" Ivar.pp a pp_sort g pp_bexp b

let iexp_to_string e = Format.asprintf "%a" pp_iexp e
let bexp_to_string e = Format.asprintf "%a" pp_bexp e
