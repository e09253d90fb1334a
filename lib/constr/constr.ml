open Dml_index

type t =
  | Top
  | Pred of Idx.bexp
  | Conj of t * t
  | Impl of Idx.bexp * t
  | Forall of Ivar.t * Idx.sort * t
  | Exists of Ivar.t * Idx.sort * t

let top = Top
let pred b = match b with Idx.Bconst true -> Top | _ -> Pred b

let conj a b =
  match (a, b) with Top, c | c, Top -> c | _ -> Conj (a, b)

let conj_list l = List.fold_left conj Top l

let impl b phi =
  match (b, phi) with
  | Idx.Bconst true, _ -> phi
  | Idx.Bconst false, _ -> Top
  | _, Top -> Top
  | _ -> Impl (b, phi)

(* [occurs a phi] is membership of [a] in the free variables of [phi]. A
   quantifier node's sort refinement counts as free, and it names the
   node's own binder. *)
let rec occurs a = function
  | Top -> false
  | Pred b -> Idx.occurs_bexp a b
  | Conj (x, y) -> occurs a x || occurs a y
  | Impl (b, x) -> Idx.occurs_bexp a b || occurs a x
  | Forall (b, g, x) | Exists (b, g, x) ->
      Idx.occurs_refinement a b g || ((not (Ivar.equal a b)) && occurs a x)

let forall a g phi = if occurs a phi then Forall (a, g, phi) else phi
let exists a g phi = if occurs a phi then Exists (a, g, phi) else phi

let is_top = function Top -> true | _ -> false

(* Substitution inside a sort's refinement, avoiding its own binder. *)
let rec subst_sort s = function
  | (Idx.Sint | Idx.Sbool) as g -> g
  | Idx.Ssubset (a, g, b) ->
      let s = Ivar.Map.remove a s in
      Idx.Ssubset (a, subst_sort s g, Idx.subst_bexp s b)

let rec subst s phi =
  if Ivar.Map.is_empty s then phi
  else
    match phi with
    | Top -> Top
    | Pred b -> pred (Idx.subst_bexp s b)
    | Conj (a, b) -> conj (subst s a) (subst s b)
    | Impl (b, phi) -> impl (Idx.subst_bexp s b) (subst s phi)
    | Forall (a, g, body) ->
        let a', body' = avoid_capture s a body in
        forall a' (subst_sort s g) (subst s body')
    | Exists (a, g, body) ->
        let a', body' = avoid_capture s a body in
        exists a' (subst_sort s g) (subst s body')

and avoid_capture s a body =
  if Ivar.Map.exists (fun v e -> (not (Ivar.equal v a)) && Idx.occurs_iexp a e) s then begin
    let a' = Ivar.refresh a in
    let body' = subst (Ivar.Map.singleton a (Idx.Ivar a')) body in
    (a', body')
  end
  else (a, body)

let rec size = function
  | Top -> 0
  | Pred _ -> 1
  | Conj (a, b) -> size a + size b
  | Impl (_, phi) -> 1 + size phi
  | Forall (_, _, phi) | Exists (_, _, phi) -> size phi

let rec pp fmt = function
  | Top -> Format.pp_print_string fmt "true"
  | Pred b -> Idx.pp_bexp fmt b
  | Conj (a, b) -> Format.fprintf fmt "(%a) /\\ (%a)" pp a pp b
  | Impl (b, phi) -> Format.fprintf fmt "%a => (%a)" Idx.pp_bexp b pp phi
  | Forall (a, g, phi) -> Format.fprintf fmt "forall %a : %a. %a" Ivar.pp a Idx.pp_sort g pp phi
  | Exists (a, g, phi) -> Format.fprintf fmt "exists %a : %a. %a" Ivar.pp a Idx.pp_sort g pp phi

let to_string phi = Format.asprintf "%a" pp phi

(* --- Solving a linear equation for a variable ------------------------- *)

(* A partial linear view of an index expression: constant + coefficient map.
   Returns None on any construct that is not affine (div, mod, min, ...) or
   any product of two non-constant parts. *)
let linear_view e =
  let open Idx in
  let rec go = function
    | Ivar v -> Some (0, Ivar.Map.singleton v 1)
    | Iconst n -> Some (n, Ivar.Map.empty)
    | Iadd (a, b) -> combine ( + ) a b
    | Isub (a, b) -> combine ( - ) a b
    | Ineg a -> Option.map (fun (c, m) -> (-c, Ivar.Map.map (fun k -> -k) m)) (go a)
    | Imul (Iconst k, a) | Imul (a, Iconst k) ->
        Option.map (fun (c, m) -> (k * c, Ivar.Map.map (fun x -> k * x) m)) (go a)
    | Imul _ | Idiv _ | Imod _ | Imin _ | Imax _ | Iabs _ | Isgn _ -> None
  and combine op a b =
    match (go a, go b) with
    | Some (ca, ma), Some (cb, mb) ->
        let m =
          Ivar.Map.merge
            (fun _ x y ->
              let v = op (Option.value x ~default:0) (Option.value y ~default:0) in
              if v = 0 then None else Some v)
            ma mb
        in
        Some (op ca cb, m)
    | _ -> None
  in
  go e

(* Rebuild an index expression from a linear view. *)
let of_linear_view (c, m) =
  let open Idx in
  let terms =
    Ivar.Map.fold
      (fun v k acc -> if k = 0 then acc else (v, k) :: acc)
      m []
  in
  let add_term acc (v, k) =
    let t = if k = 1 then Ivar v else imul (Iconst k) (Ivar v) in
    match acc with None -> Some t | Some e -> Some (iadd e t)
  in
  let e = List.fold_left add_term None (List.rev terms) in
  match e with
  | None -> Iconst c
  | Some e -> if c = 0 then e else iadd e (Iconst c)

let solve_equation_for a b =
  match b with
  | Idx.Bcmp (Idx.Req, lhs, rhs) -> (
      match linear_view (Idx.isub lhs rhs) with
      | None -> None
      | Some (c, m) -> (
          match Ivar.Map.find_opt a m with
          | Some k when k = 1 || k = -1 ->
              (* a*k + rest + c = 0  =>  a = -(rest + c)/k *)
              let rest = Ivar.Map.remove a m in
              let flip = if k = 1 then -1 else 1 in
              let sol = (flip * c, Ivar.Map.map (fun x -> flip * x) rest) in
              Some (of_linear_view sol)
          | _ -> None))
  | _ -> None

(* Collect candidate equations usable to define an existential witness.  We
   look at every atomic predicate of the constraint: instantiating a witness
   is sound regardless of the atom's position. *)
let rec candidate_atoms phi acc =
  match phi with
  | Top -> acc
  | Pred b -> bexp_atoms b acc
  | Conj (x, y) -> candidate_atoms x (candidate_atoms y acc)
  | Impl (b, x) -> bexp_atoms b (candidate_atoms x acc)
  | Forall (_, _, x) | Exists (_, _, x) -> candidate_atoms x acc

and bexp_atoms b acc =
  match b with
  | Idx.Band (x, y) -> bexp_atoms x (bexp_atoms y acc)
  | Idx.Bcmp (Idx.Req, _, _) -> b :: acc
  | Idx.Bvar _ | Idx.Bconst _ | Idx.Bcmp _ | Idx.Bnot _ | Idx.Bor _ -> acc

let rec eliminate_existentials phi =
  match phi with
  | Top | Pred _ -> phi
  | Conj (a, b) -> conj (eliminate_existentials a) (eliminate_existentials b)
  | Impl (b, x) -> impl b (eliminate_existentials x)
  | Forall (a, g, x) -> forall a g (eliminate_existentials x)
  | Exists (a, g, x) -> begin
      let x = eliminate_existentials x in
      let atoms = candidate_atoms x [] in
      let rec try_atoms = function
        | [] -> exists a g x
        | atom :: rest -> (
            match solve_equation_for a atom with
            | Some witness ->
                (* Substitute the witness ([a] is not free in it); the sort
                   refinement of [a] becomes a proof obligation on the
                   witness. *)
                let s = Ivar.Map.singleton a witness in
                let obligation =
                  match Idx.sort_refinement a g with
                  | Idx.Bconst true -> Top
                  | refinement -> pred (Idx.subst_bexp s refinement)
                in
                eliminate_existentials (conj obligation (subst s x))
            | None -> try_atoms rest)
      in
      try_atoms atoms
    end

(* --- Goal extraction --------------------------------------------------- *)

type goal = {
  goal_vars : (Ivar.t * Idx.sort) list;
  goal_hyps : Idx.bexp list;
  goal_concl : Idx.bexp;
}

exception Residual_existential of Ivar.t

let goals phi =
  let rec go vars hyps phi acc =
    match phi with
    | Top -> acc
    | Pred b -> { goal_vars = List.rev vars; goal_hyps = List.rev hyps; goal_concl = b } :: acc
    | Conj (a, b) -> go vars hyps a (go vars hyps b acc)
    | Impl (b, x) -> go vars (b :: hyps) x acc
    | Forall (a, g, x) ->
        let hyps =
          match Idx.sort_refinement a g with
          | Idx.Bconst true -> hyps
          | refinement -> refinement :: hyps
        in
        go ((a, Idx.base_sort g) :: vars) hyps x acc
    | Exists (a, _, _) -> raise (Residual_existential a)
  in
  match go [] [] phi [] with
  | gs -> Ok gs
  | exception Residual_existential a ->
      Error
        (Format.asprintf
           "residual existential variable %a: constraint is outside the linear fragment" Ivar.pp a)

let pp_goal fmt g =
  let open Format in
  fprintf fmt "@[<v>";
  List.iter (fun (a, s) -> fprintf fmt "%a : %a,@ " Ivar.pp a Idx.pp_sort s) g.goal_vars;
  List.iter (fun h -> fprintf fmt "%a,@ " Idx.pp_bexp h) g.goal_hyps;
  fprintf fmt "|- %a@]" Idx.pp_bexp g.goal_concl
