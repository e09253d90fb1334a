open Dml_index
open Idx

type literal =
  | Lle of iexp * iexp
  | Leq of iexp * iexp
  | Lbool of bool * Ivar.t

exception Too_large

let max_disjuncts = 20_000

(* NNF with atom canonicalisation.  [pos] is the current polarity. *)
type nf = Lit of literal | Const of bool | And of nf * nf | Or of nf * nf

let lt a b = Lit (Lle (iadd a (Iconst 1), b))
let le a b = Lit (Lle (a, b))
let eq a b = Lit (Leq (a, b))

let rec nnf pos b =
  match b with
  | Bconst c -> Const (if pos then c else not c)
  | Bvar v -> Lit (Lbool (pos, v))
  | Bnot b -> nnf (not pos) b
  | Band (x, y) -> if pos then And (nnf pos x, nnf pos y) else Or (nnf pos x, nnf pos y)
  | Bor (x, y) -> if pos then Or (nnf pos x, nnf pos y) else And (nnf pos x, nnf pos y)
  | Bcmp (r, a, b) -> (
      let r = if pos then r else ( match r with
        | Rlt -> Rge | Rle -> Rgt | Req -> Rne | Rne -> Req | Rge -> Rlt | Rgt -> Rle)
      in
      match r with
      | Rlt -> lt a b
      | Rle -> le a b
      | Req -> eq a b
      | Rge -> le b a
      | Rgt -> lt b a
      | Rne -> Or (lt a b, lt b a))

let dnf ?budget b =
  let charge =
    match budget with
    | Some bu when Budget.is_limited bu -> fun n -> Budget.spend bu n
    | _ -> fun _ -> ()
  in
  (* charge an expansion of [n] disjuncts, then cap it; an expansion is
     sized before it is built, since a product of two in-range factors can
     be far beyond the heap *)
  let admit n =
    charge n;
    if n > max_disjuncts then raise Too_large
  in
  let rec go = function
    | Const true -> [ [] ]
    | Const false -> []
    | Lit l -> [ [ l ] ]
    | Or (x, y) ->
        let dx = go x and dy = go y in
        admit (List.length dx + List.length dy);
        dx @ dy
    | And (x, y) ->
        let dx = go x and dy = go y in
        admit (List.length dx * List.length dy);
        List.concat_map (fun cx -> List.map (fun cy -> cx @ cy) dy) dx
  in
  go (nnf true b)
