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

let rec subst s phi =
  if Ivar.Map.is_empty s then phi
  else
    match phi with
    | Top -> Top
    | Pred b -> pred (Idx.subst_bexp s b)
    | Conj (a, b) -> conj (subst s a) (subst s b)
    | Impl (b, phi) -> impl (Idx.subst_bexp s b) (subst s phi)
    | Forall (a, g, body) ->
        let inner = Ivar.Map.remove a s in
        let a', body' = avoid_capture inner a body in
        forall a' (Idx.subst_sort s Ivar.Map.empty g) (subst inner body')
    | Exists (a, g, body) ->
        let inner = Ivar.Map.remove a s in
        let a', body' = avoid_capture inner a body in
        exists a' (Idx.subst_sort s Ivar.Map.empty g) (subst inner body')

(* [s] no longer maps [a]: a quantifier's own binder is not free under it.
   [Ivar.Map.remove] returns the map itself when the binder is absent, so
   the common case allocates nothing.  [a] is refreshed only when an image
   mentions it. *)
and avoid_capture s a body =
  if Ivar.Map.exists (fun _ e -> Idx.occurs_iexp a e) s then begin
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

(* [a = -(rest + c)/k] from [k*a + rest + c = 0] in {!Linear}'s normal
   form, when [k] is [1] or [-1].  The witness is rebuilt over native ints,
   terms in ascending variable id; there is none when a coefficient of it
   does not fit. *)
let solve_equation_for a b =
  let open Dml_numeric in
  match b with
  | Idx.Bcmp (Idx.Req, lhs, rhs) -> (
      match Linear.of_iexp (Idx.isub lhs rhs) with
      | Some f when Bigint.equal (Bigint.abs (Linear.coeff a f)) Bigint.one -> (
          let rest = Linear.remove a f in
          let sol = if Bigint.sign (Linear.coeff a f) > 0 then Linear.neg rest else rest in
          let int n = match Bigint.to_int n with Some n -> n | None -> raise Exit in
          let term v k = if k = 1 then Idx.Ivar v else Idx.imul (Idx.Iconst k) (Idx.Ivar v) in
          try
            let e = ref None in
            Array.iteri
              (fun i v ->
                let t = term v (int sol.coeffs.(i)) in
                e := Some (match !e with None -> t | Some e -> Idx.iadd e t))
              sol.vars;
            let c = int sol.const in
            match !e with
            | None -> Some (Idx.Iconst c)
            | Some e -> Some (if c = 0 then e else Idx.iadd e (Idx.Iconst c))
          with Exit -> None)
      | _ -> None)
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
