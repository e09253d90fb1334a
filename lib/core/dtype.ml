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

let unit_ = Dtuple []

let rename v v' t =
  let im = Ivar.Map.singleton v (Idx.Ivar v') in
  let bm = Ivar.Map.singleton v (Idx.Bvar v') in
  let ren_iexp i = Idx.subst_iexp im i in
  let ren_bexp b = Idx.subst_bvar bm (Idx.subst_bexp im b) in
  let ren_index = function
    | Iint i -> Iint (ren_iexp i)
    | Ibool b -> Ibool (ren_bexp b)
  in
  let rec ren_sort = function
    | (Idx.Sint | Idx.Sbool) as g -> g
    | Idx.Ssubset (a, g, b) ->
        if Ivar.equal a v then Idx.Ssubset (a, ren_sort g, b)
        else Idx.Ssubset (a, ren_sort g, ren_bexp b)
  in
  let rec go t =
    match t with
    | Dvar _ -> t
    | Dcon (c, targs, idxs) -> Dcon (c, List.map go targs, List.map ren_index idxs)
    | Dtuple ts -> Dtuple (List.map go ts)
    | Darrow (a, b) -> Darrow (go a, go b)
    | Dpi (a, g, body) ->
        if Ivar.equal a v then Dpi (a, ren_sort g, body) else Dpi (a, ren_sort g, go body)
    | Dsigma (a, g, body) ->
        if Ivar.equal a v then Dsigma (a, ren_sort g, body) else Dsigma (a, ren_sort g, go body)
  in
  go t

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

let strip_pis t =
  let rec go acc = function
    | Dpi (a, g, body) -> go ((a, g) :: acc) body
    | t -> (List.rev acc, t)
  in
  go [] t

let open_sigmas t =
  let rec go acc t =
    match t with
    | Dsigma (a, g, body) ->
        let a' = Ivar.refresh a in
        let body = rename a a' body in
        go ((a', g) :: acc) body
    | Dtuple ts ->
        let acc, ts =
          List.fold_left
            (fun (acc, ts) t ->
              let acc, t = go acc t in
              (acc, t :: ts))
            (acc, []) ts
        in
        (acc, Dtuple (List.rev ts))
    | _ -> (acc, t)
  in
  let acc, t = go [] t in
  (List.rev acc, t)

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
