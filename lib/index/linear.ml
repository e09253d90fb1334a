open Dml_numeric

type 'n form = { const : 'n; vars : Ivar.t array; coeffs : 'n array }
type kind = Le | Eq
type 'n cstr = { kind : kind; form : 'n form }

module type S = sig
  type num

  module N : Number.S with type t = num

  val of_int : int -> num form
  val var : Ivar.t -> num form
  val add : num form -> num form -> num form
  val sub : num form -> num form -> num form
  val neg : num form -> num form
  val scale : num -> num form -> num form
  val combine : num -> num form -> num -> num form -> num form
  val coeff : Ivar.t -> num form -> num
  val remove : Ivar.t -> num form -> num form
  val of_iexp : Idx.iexp -> num form option
  val cstr_le : num form -> num cstr
  val cstr_eq : num form -> num cstr
  val is_trivially_false : num cstr -> bool
  val normalize : tighten:bool -> num cstr -> num cstr option
end

module Make (N : Number.S) = struct
  type num = N.t

  module N = N

  let const c = { const = c; vars = [||]; coeffs = [||] }
  let of_int n = const (N.of_int n)
  let var v = { const = N.zero; vars = [| v |]; coeffs = [| N.one |] }

  (* The one merge of two id-sorted forms, in a single pass: a coefficient
     present only in [a] maps through [fa], only in [b] through [fb], in
     both through [fab]; zero results are dropped.  The arrays are sized to
     the union of the two variable sets, and trimmed only when a shared
     coefficient cancelled. *)
  let merge const fa fb fab a b =
    let na = Array.length a.vars and nb = Array.length b.vars in
    let union =
      let rec count i j u =
        if i >= na then u + nb - j
        else if j >= nb then u + na - i
        else
          let c = Int.compare a.vars.(i).Ivar.id b.vars.(j).Ivar.id in
          if c < 0 then count (i + 1) j (u + 1)
          else if c > 0 then count i (j + 1) (u + 1)
          else count (i + 1) (j + 1) (u + 1)
      in
      count 0 0 0
    in
    if union = 0 then { const; vars = [||]; coeffs = [||] }
    else begin
      let vars = Array.make union (if na > 0 then a.vars.(0) else b.vars.(0)) in
      let coeffs = Array.make union N.zero in
      let i = ref 0 and j = ref 0 and n = ref 0 in
      let push v k =
        if N.sign k <> 0 then begin
          vars.(!n) <- v;
          coeffs.(!n) <- k;
          incr n
        end
      in
      while !i < na || !j < nb do
        if !j >= nb || (!i < na && a.vars.(!i).Ivar.id < b.vars.(!j).Ivar.id) then begin
          push a.vars.(!i) (fa a.coeffs.(!i));
          incr i
        end
        else if !i >= na || b.vars.(!j).Ivar.id < a.vars.(!i).Ivar.id then begin
          push b.vars.(!j) (fb b.coeffs.(!j));
          incr j
        end
        else begin
          push a.vars.(!i) (fab a.coeffs.(!i) b.coeffs.(!j));
          incr i;
          incr j
        end
      done;
      if !n = union then { const; vars; coeffs }
      else { const; vars = Array.sub vars 0 !n; coeffs = Array.sub coeffs 0 !n }
    end

  let add a b =
    let const = N.add a.const b.const in
    if Array.length b.vars = 0 then { a with const }
    else if Array.length a.vars = 0 then { b with const }
    else merge const Fun.id Fun.id N.add a b

  let sub a b =
    let const = N.sub a.const b.const in
    if Array.length b.vars = 0 then { a with const } else merge const Fun.id N.neg N.sub a b

  let neg a = { a with const = N.neg a.const; coeffs = Array.map N.neg a.coeffs }

  let scale k a =
    if N.sign k = 0 then const N.zero
    else { a with const = N.mul k a.const; coeffs = Array.map (N.mul k) a.coeffs }

  let combine ka a kb b =
    merge
      (N.add (N.mul ka a.const) (N.mul kb b.const))
      (N.mul ka) (N.mul kb)
      (fun x y -> N.add (N.mul ka x) (N.mul kb y))
      a b

  let index v a =
    let rec go i =
      if i >= Array.length a.vars || a.vars.(i).Ivar.id > v.Ivar.id then -1
      else if a.vars.(i).Ivar.id = v.Ivar.id then i
      else go (i + 1)
    in
    go 0

  let coeff v a = match index v a with -1 -> N.zero | i -> a.coeffs.(i)

  let remove v a =
    match index v a with
    | -1 -> a
    | i ->
        let drop arr = Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (Array.length arr - i - 1)) in
        { a with vars = drop a.vars; coeffs = drop a.coeffs }

  let is_const a = if Array.length a.vars = 0 then Some a.const else None

  let of_iexp e =
    let open Idx in
    let rec go = function
      | Ivar v -> Some (var v)
      | Iconst n -> Some (of_int n)
      | Iadd (a, b) -> map2 add a b
      | Isub (a, b) -> map2 sub a b
      | Ineg a -> Option.map neg (go a)
      | Imul (a, b) -> (
          match (go a, go b) with
          | Some fa, Some fb -> (
              match (is_const fa, is_const fb) with
              | Some k, _ -> Some (scale k fb)
              | _, Some k -> Some (scale k fa)
              | None, None -> None)
          | _ -> None)
      | Idiv _ | Imod _ | Imin _ | Imax _ | Iabs _ | Isgn _ -> None
    and map2 op a b =
      match (go a, go b) with Some fa, Some fb -> Some (op fa fb) | _ -> None
    in
    go e

  let cstr_le form = { kind = Le; form }
  let cstr_eq form = { kind = Eq; form }

  let is_trivially_false c =
    match is_const c.form with
    | Some k -> ( match c.kind with Le -> N.sign k > 0 | Eq -> N.sign k <> 0)
    | None -> false

  let is_trivially_true c =
    match is_const c.form with
    | Some k -> ( match c.kind with Le -> N.sign k <= 0 | Eq -> N.sign k = 0)
    | None -> false

  let normalize ~tighten c =
    if is_trivially_true c then None
    else if is_trivially_false c then Some c
    else begin
      let g = Array.fold_left (fun g k -> N.gcd k g) N.zero c.form.coeffs in
      if N.compare g N.one = 0 then Some c
      else
        let divided const =
          { c with form = { c.form with const; coeffs = Array.map (fun k -> N.div k g) c.form.coeffs } }
        in
        match c.kind with
        | Le ->
            (* k.x + c <= 0, i.e. (k/g).x <= -c/g.  Over the integers the
               right hand side may be rounded down: (k/g).x <= floor(-c/g),
               which is the paper's tightening rule.  Without tightening we
               only divide when g exactly divides the constant. *)
            if tighten then Some (divided (N.neg (N.fdiv (N.neg c.form.const) g)))
            else if N.sign (N.fmod c.form.const g) = 0 then Some (divided (N.div c.form.const g))
            else Some c
        | Eq ->
            (* k.x + c = 0 has no integer solution unless g divides c. *)
            if N.sign (N.fmod c.form.const g) = 0 then Some (divided (N.div c.form.const g))
            else if tighten then Some { kind = Eq; form = const N.one }
            else Some c
    end
end

include Make (Bigint)
