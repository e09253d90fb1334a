type t =
  | Tvar of tv ref
  | Tqvar of string
  | Tcon of string * t list
  | Ttuple of t list
  | Tarrow of t * t

and tv = Unbound of int * int | Link of t

let tint = Tcon ("int", [])
let tbool = Tcon ("bool", [])
let tchar = Tcon ("char", [])
let tstring = Tcon ("string", [])
let tunit = Ttuple []

let counter = ref 0

let fresh_var ~level =
  incr counter;
  Tvar (ref (Unbound (!counter, level)))

let rec repr t =
  match t with
  | Tvar ({ contents = Link u } as r) ->
      let u = repr u in
      r := Link u;
      u
  | _ -> t

exception Unify_error of t * t

(* Occurs check combined with level adjustment: when unifying [r] at level l
   with a type containing variables of deeper level, those variables must be
   lowered so they are not generalised past [r]'s binder. *)
let occurs_or_adjust r level t =
  let rec go t =
    match repr t with
    | Tvar r' ->
        if r == r' then true
        else begin
          (match !r' with
          | Unbound (id, l) when l > level -> r' := Unbound (id, level)
          | _ -> ());
          false
        end
    | Tqvar _ -> false
    | Tcon (_, args) -> List.exists go args
    | Ttuple ts -> List.exists go ts
    | Tarrow (a, b) -> go a || go b
  in
  go t

let rec unify a b =
  let a = repr a and b = repr b in
  match (a, b) with
  | Tvar r, Tvar r' when r == r' -> ()
  | Tvar r, t | t, Tvar r -> begin
      match !r with
      | Link _ -> assert false (* repr removed links *)
      | Unbound (_, level) ->
          if occurs_or_adjust r level t then raise (Unify_error (a, b));
          r := Link t
    end
  | Tqvar x, Tqvar y when x = y -> ()
  | Tcon (c1, a1), Tcon (c2, a2) when c1 = c2 && List.length a1 = List.length a2 ->
      List.iter2 unify a1 a2
  | Ttuple t1, Ttuple t2 when List.length t1 = List.length t2 -> List.iter2 unify t1 t2
  | Tarrow (a1, b1), Tarrow (a2, b2) ->
      unify a1 a2;
      unify b1 b2
  | _ -> raise (Unify_error (a, b))

type scheme = { svars : string list; sbody : t }

let mono t = { svars = []; sbody = t }

let generalize ~level t =
  let renamed = Hashtbl.create 8 in
  let names = ref [] in
  let rec go t =
    match repr t with
    | Tvar r -> begin
        match !r with
        | Link _ -> assert false
        | Unbound (id, l) when l > level ->
            let name =
              match Hashtbl.find_opt renamed id with
              | Some n -> n
              | None ->
                  let n = Printf.sprintf "_%d" (Hashtbl.length renamed) in
                  Hashtbl.add renamed id n;
                  names := n :: !names;
                  n
            in
            r := Link (Tqvar name);
            Tqvar name
        | Unbound _ -> t
      end
    | Tqvar _ as t -> t
    | Tcon (c, args) -> Tcon (c, List.map go args)
    | Ttuple ts -> Ttuple (List.map go ts)
    | Tarrow (a, b) -> Tarrow (go a, go b)
  in
  let body = go t in
  { svars = List.rev !names; sbody = body }

let instantiate_mapped ~level s =
  let mapping = List.map (fun v -> (v, fresh_var ~level)) s.svars in
  let rec go t =
    match repr t with
    | Tqvar x as t -> ( match List.assoc_opt x mapping with Some u -> u | None -> t)
    | Tvar _ as t -> t
    | Tcon (c, args) -> Tcon (c, List.map go args)
    | Ttuple ts -> Ttuple (List.map go ts)
    | Tarrow (a, b) -> Tarrow (go a, go b)
  in
  (go s.sbody, mapping)

let instantiate ~level s = fst (instantiate_mapped ~level s)

let rec zonk t =
  match repr t with
  | Tvar r -> begin
      match !r with
      | Link _ -> assert false
      | Unbound (id, _) -> Tqvar (Printf.sprintf "_weak%d" id)
    end
  | Tqvar _ as t -> t
  | Tcon (c, args) -> Tcon (c, List.map zonk args)
  | Ttuple ts -> Ttuple (List.map zonk ts)
  | Tarrow (a, b) -> Tarrow (zonk a, zonk b)

(* Precedence: arrow 0, tuple 1, application/atom 2. *)
let rec pp_prec prec fmt t =
  let open Format in
  let paren p body = if prec > p then fprintf fmt "(%t)" body else body fmt in
  match repr t with
  | Tvar { contents = Unbound (id, _) } -> fprintf fmt "'_%d" id
  | Tvar _ -> assert false
  | Tqvar x -> fprintf fmt "'%s" x
  | Ttuple [] -> pp_print_string fmt "unit"
  | Ttuple ts ->
      paren 1 (fun fmt ->
          pp_print_list
            ~pp_sep:(fun fmt () -> pp_print_string fmt " * ")
            (pp_prec 2) fmt ts)
  | Tarrow (a, b) -> paren 0 (fun fmt -> fprintf fmt "%a -> %a" (pp_prec 1) a (pp_prec 0) b)
  | Tcon (c, []) -> pp_print_string fmt c
  | Tcon (c, [ arg ]) -> fprintf fmt "%a %s" (pp_prec 2) arg c
  | Tcon (c, args) ->
      fprintf fmt "(%a) %s"
        (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (pp_prec 0))
        args c

let pp fmt t = pp_prec 0 fmt t
let to_string t = Format.asprintf "%a" pp t

let pp_scheme fmt s =
  if s.svars = [] then pp fmt s.sbody
  else
    Format.fprintf fmt "forall %s. %a"
      (String.concat " " (List.map (fun v -> "'" ^ v) s.svars))
      pp s.sbody
