open Dml_index

type index = Iint of Idx.iexp | Ibool of Idx.bexp

type t =
  | Dvar of string
  | Dcon of string * t list * index list
  | Dtuple of t list
  | Darrow of t * t
  | Dpi of Ivar.t * Idx.sort * t
  | Dsigma of Ivar.t * Idx.sort * t

let int_ i = Dcon ("int", [], [ Iint i ])

let bool_ b = Dcon ("bool", [], [ Ibool b ])

let bool_any =
  let a = Ivar.fresh "b" in
  Dsigma (a, Idx.Sbool, bool_ (Idx.Bvar a))

let subst_index im bm = function
  | Iint i -> Iint (Idx.subst_iexp im i)
  | Ibool b -> Ibool (Idx.subst_bvar bm (Idx.subst_bexp im b))

let rec subst im bm t =
  if Ivar.Map.is_empty im && Ivar.Map.is_empty bm then t
  else
    match t with
    | Dvar _ -> t
    | Dcon (c, targs, idxs) ->
        Dcon (c, List.map (subst im bm) targs, List.map (subst_index im bm) idxs)
    | Dtuple ts -> Dtuple (List.map (subst im bm) ts)
    | Darrow (a, b) -> Darrow (subst im bm a, subst im bm b)
    | Dpi (a, g, body) -> Dpi (a, Idx.subst_sort im bm g, under a im bm body)
    | Dsigma (a, g, body) -> Dsigma (a, Idx.subst_sort im bm g, under a im bm body)

(* a binder hides its own variable *)
and under a im bm body = subst (Ivar.Map.remove a im) (Ivar.Map.remove a bm) body

(* One pass over the prefix collects the renaming; the body is substituted
   once, at the end. *)
let open_prefix ?pi ?sigma t =
  let rec go im bm t =
    match (t, pi, sigma) with
    | (Dpi (a, g, body), Some fresh, _ | Dsigma (a, g, body), _, Some fresh) ->
        let a' = fresh a (Idx.subst_sort im bm g) in
        go (Ivar.Map.add a (Idx.Ivar a') im) (Ivar.Map.add a (Idx.Bvar a') bm) body
    | _ -> subst im bm t
  in
  go Ivar.Map.empty Ivar.Map.empty t

let rec subst_tyvars s t =
  match t with
  | Dvar v -> ( match List.assoc_opt v s with Some u -> u | None -> t)
  | Dcon (c, targs, idxs) -> Dcon (c, List.map (subst_tyvars s) targs, idxs)
  | Dtuple ts -> Dtuple (List.map (subst_tyvars s) ts)
  | Darrow (a, b) -> Darrow (subst_tyvars s a, subst_tyvars s b)
  | Dpi (a, g, body) -> Dpi (a, g, subst_tyvars s body)
  | Dsigma (a, g, body) -> Dsigma (a, g, subst_tyvars s body)

let rec occurs a = function
  | Dvar _ -> false
  | Dcon (_, targs, idxs) ->
      List.exists (occurs a) targs
      || List.exists
           (function Iint i -> Idx.occurs_iexp a i | Ibool b -> Idx.occurs_bexp a b)
           idxs
  | Dtuple ts -> List.exists (occurs a) ts
  | Darrow (x, y) -> occurs a x || occurs a y
  | Dpi (b, g, body) | Dsigma (b, g, body) ->
      Idx.occurs_sort a g || ((not (Ivar.equal a b)) && occurs a body)

let open_sigmas t =
  match t with
  | Dsigma _ | Dtuple _ ->
      let opened = ref [] in
      let sigma a g =
        let a' = Ivar.refresh a in
        opened := (a', g) :: !opened;
        a'
      in
      let rec go t =
        match open_prefix ~sigma t with Dtuple ts -> Dtuple (List.map go ts) | t -> t
      in
      let t = go t in
      (List.rev !opened, t)
  | _ -> ([], t)

let index_eq a b =
  match (a, b) with
  | Iint i, Iint j -> Idx.cmp Idx.Req i j
  | Ibool p, Ibool q ->
      (* p <=> q *)
      Idx.bor (Idx.band p q) (Idx.band (Idx.bnot p) (Idx.bnot q))
  | (Iint _ | Ibool _), _ -> invalid_arg "Dtype.index_eq: kind mismatch"

let pp_index fmt = function
  | Iint i -> Idx.pp_iexp fmt i
  | Ibool b -> Idx.pp_bexp fmt b

(* Precedence: arrow 0, tuple 1, atom 2. *)
let rec pp_prec prec fmt t =
  let open Format in
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match t with
  | Dvar v -> fprintf fmt "'%s" v
  | Dtuple [] -> pp_print_string fmt "unit"
  | Dtuple ts ->
      paren 1 (fun fmt ->
          pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt " * ") (pp_prec 2) fmt ts)
  | Darrow (a, b) -> paren 0 (fun fmt -> fprintf fmt "%a -> %a" (pp_prec 1) a (pp_prec 0) b)
  | Dpi (a, g, body) ->
      paren 0 (fun fmt -> fprintf fmt "{%a : %a} %a" Ivar.pp a Idx.pp_sort g (pp_prec 0) body)
  | Dsigma (a, g, body) ->
      paren 0 (fun fmt -> fprintf fmt "[%a : %a] %a" Ivar.pp a Idx.pp_sort g (pp_prec 0) body)
  | Dcon (c, targs, idxs) ->
      let pp_args fmt = function
        | [] -> ()
        | [ t ] -> fprintf fmt "%a " (pp_prec 2) t
        | ts ->
            fprintf fmt "(%a) "
              (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (pp_prec 0))
              ts
      in
      let pp_idxs fmt = function
        | [] -> ()
        | idxs ->
            fprintf fmt "(%a)"
              (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_index)
              idxs
      in
      fprintf fmt "%a%s%a" pp_args targs c pp_idxs idxs

let pp fmt t = pp_prec 0 fmt t
let to_string t = Format.asprintf "%a" pp t
