open Dml_numeric
open Dml_index

type verdict = Unsat | Sat

type stats = {
  mutable eliminations : int;
  mutable combinations : int;
  mutable max_constraints : int;
  mutable max_coeff : Bigint.t;
  mutable pair_refuted : int;
}

let new_stats () =
  { eliminations = 0; combinations = 0; max_constraints = 0; max_coeff = Bigint.zero; pair_refuted = 0 }

let m_pair_refuted = Dml_obs.Metrics.counter "solver.pair_refuted"

module type S = sig
  type num
  type rat

  val check : ?stats:stats -> ?budget:Budget.t -> tighten:bool -> num Linear.cstr list -> verdict
  val opposed_pair : num Linear.cstr list -> bool
  val rational_model : ?budget:Budget.t -> num Linear.cstr list -> rat Ivar.Map.t option
end

exception Contradiction

module Make (L : Linear.S) (R : Rat.S with type num = L.num) = struct
  type num = L.num
  type rat = R.t

  module N = L.N

  (* The elimination trace, most recent step first: a Fourier--Motzkin
     pivot with the bounds that mentioned its variable at elimination
     time, or a Gaussian substitution [var := image]. *)
  type step =
    | Pivot of { var : Ivar.t; uppers : num Linear.cstr list; lowers : num Linear.cstr list }
    | Subst of { var : Ivar.t; image : num Linear.form }

  (* Normalise a constraint; raise on contradiction, drop when trivial. *)
  let norm ~tighten c =
    match L.normalize ~tighten c with
    | None -> None
    | Some c -> if L.is_trivially_false c then raise Contradiction else Some c

  let norm_all ~tighten cs = List.filter_map (norm ~tighten) cs

  let is_unit k = N.compare (N.abs k) N.one = 0

  (* Equalities ordered by variable count (the sparsest substitution
     spreads least), then by the forms themselves: a total order on the
     constraints, so which equality is substituted first depends on the
     set, never on the order the hypotheses arrived in. *)
  let compare_eqs (a : num Linear.cstr) (b : num Linear.cstr) =
    let a = a.form and b = b.form in
    let id (v : Ivar.t) = v.id in
    match Int.compare (Array.length a.vars) (Array.length b.vars) with
    | 0 -> (
        match compare (Array.map id a.vars) (Array.map id b.vars) with
        | 0 -> (
            match List.compare N.compare (Array.to_list a.coeffs) (Array.to_list b.coeffs) with
            | 0 -> N.compare a.const b.const
            | c -> c)
        | c -> c)
    | c -> c

  (* Gaussian elimination of equalities that contain a unit-coefficient
     variable: substitute and drop, shrinking the system before the
     exponential phase. *)
  let rec gauss ~tighten trace cs =
    let is_unit_eq (c : num Linear.cstr) = c.kind = Linear.Eq && Array.exists is_unit c.form.coeffs in
    match List.partition is_unit_eq cs with
    | [], rest -> rest
    | eqs, rest ->
        let eq, other_eqs =
          match List.sort compare_eqs eqs with eq :: others -> (eq, others) | [] -> assert false
        in
        (* the first unit variable in ascending-id order: s*v + rest = 0,
           so v = -s * rest (s is +-1) *)
        let rec first i = if is_unit eq.form.coeffs.(i) then i else first (i + 1) in
        let i = first 0 in
        let v = eq.form.vars.(i) in
        let image = L.scale (N.neg eq.form.coeffs.(i)) (L.remove v eq.form) in
        trace := Subst { var = v; image } :: !trace;
        let substitute (c : num Linear.cstr) =
          let k = L.coeff v c.form in
          if N.sign k = 0 then c else { c with form = L.add (L.remove v c.form) (L.scale k image) }
        in
        let cs' = List.map substitute (other_eqs @ rest) in
        gauss ~tighten trace (norm_all ~tighten cs')

  (* Split remaining equalities into two inequalities. *)
  let split_eqs cs =
    List.concat_map
      (fun (c : num Linear.cstr) ->
        match c.kind with
        | Linear.Le -> [ c ]
        | Linear.Eq -> [ L.cstr_le c.form; L.cstr_le (L.neg c.form) ])
      cs

  let all_vars cs =
    List.fold_left
      (fun acc (c : num Linear.cstr) -> Array.fold_left (fun acc v -> Ivar.Set.add v acc) acc c.form.vars)
      Ivar.Set.empty cs

  (* Choose the variable whose elimination produces the fewest combinations;
     ties go to the smallest id. *)
  let pick_var cs vars =
    let cost v =
      let upper = ref 0 and lower = ref 0 in
      List.iter
        (fun (c : num Linear.cstr) ->
          let k = N.sign (L.coeff v c.form) in
          if k > 0 then incr upper else if k < 0 then incr lower)
        cs;
      (!upper * !lower) - (!upper + !lower)
    in
    let best, _ =
      Ivar.Set.fold
        (fun v (bv, bc) ->
          let c = cost v in
          match bv with Some _ when bc <= c -> (bv, bc) | _ -> (Some v, c))
        vars (None, 0)
    in
    Option.get best

  (* Runs on an already-normalised system. *)
  let eliminate_normalized ?stats ?budget ~tighten cs =
    let stats = match stats with Some s -> s | None -> new_stats () in
    let charge, note_elim =
      match budget with
      | Some bu when Budget.is_limited bu ->
          ((fun n -> Budget.spend bu n), fun () -> Budget.eliminate bu)
      | _ -> ((fun _ -> ()), fun () -> ())
    in
    (* The coefficient high-water mark is tracked in [num] and folded into
       the bignum-valued stat once, on every exit path. *)
    let max_coeff = ref N.zero in
    let note_coeffs (c : num Linear.cstr) =
      Array.iter
        (fun k ->
          let a = N.abs k in
          if N.compare a !max_coeff > 0 then max_coeff := a)
        c.form.coeffs
    in
    let flush_max_coeff () =
      let m = N.to_bigint !max_coeff in
      if Bigint.gt m stats.max_coeff then stats.max_coeff <- m
    in
    Fun.protect ~finally:flush_max_coeff @@ fun () ->
    let trace = ref [] in
    let cs = gauss ~tighten trace cs in
    let cs = split_eqs cs in
    let rec loop cs =
      stats.max_constraints <- Stdlib.max stats.max_constraints (List.length cs);
      List.iter note_coeffs cs;
      let vars = all_vars cs in
      if Ivar.Set.is_empty vars then !trace
      else begin
        let v = pick_var cs vars in
        stats.eliminations <- stats.eliminations + 1;
        note_elim ();
        let uppers, lowers, rest =
          List.fold_left
            (fun (u, l, r) (c : num Linear.cstr) ->
              let k = N.sign (L.coeff v c.form) in
              if k > 0 then (c :: u, l, r) else if k < 0 then (u, c :: l, r) else (u, l, c :: r))
            ([], [], []) cs
        in
        trace := Pivot { var = v; uppers; lowers } :: !trace;
        let combined =
          List.concat_map
            (fun (u : num Linear.cstr) ->
              let a = L.coeff v u.form in
              List.filter_map
                (fun (l : num Linear.cstr) ->
                  let b = L.coeff v l.form in
                  stats.combinations <- stats.combinations + 1;
                  charge 1;
                  (* (-b)*u + a*l has a zero coefficient on v; both
                     multipliers are positive so the inequality direction
                     is preserved. *)
                  norm ~tighten (L.cstr_le (L.combine (N.neg b) u.form a l.form)))
                lowers)
            uppers
        in
        loop (combined @ rest)
      end
    in
    loop cs

  let eliminate ?stats ?budget ~tighten cs =
    eliminate_normalized ?stats ?budget ~tighten (norm_all ~tighten cs)

  (* Whether [f] and [g] agree from variable [i] on: same ids, and
     coefficients equal ([same]) or negated.  Negation cannot overflow: no
     lane holds [min_int]. *)
  let rec agree_from (f : num Linear.form) (g : num Linear.form) same i =
    i = Array.length f.vars
    || f.vars.(i).Ivar.id = g.vars.(i).Ivar.id
       && N.compare f.coeffs.(i) (if same then g.coeffs.(i) else N.neg g.coeffs.(i)) = 0
       && agree_from f g same (i + 1)

  (* How the variable parts of two forms relate: [`Same] when the
     coefficients agree, [`Opposed] when they cancel, over the same
     non-empty variable set. *)
  let relate (f : num Linear.form) (g : num Linear.form) =
    let n = Array.length f.vars in
    if n = 0 || n <> Array.length g.vars then `Unrelated
    else
      let same = N.compare f.coeffs.(0) g.coeffs.(0) = 0 in
      if not (agree_from f g same 0) then `Unrelated else if same then `Same else `Opposed

  (* [c] and [d] sum to a false constant bound.  With [c] as [f + a] and
     [d] as [-f + b], [a + b > 0] refutes; an equality also bounds its
     negation, so [f + a = 0] against [f + b <= 0] refutes when [b > a],
     and two equalities refute whenever their constants disagree. *)
  let clash (c : num Linear.cstr) (d : num Linear.cstr) =
    let a = c.form.const and b = d.form.const in
    match relate c.form d.form with
    | `Unrelated -> false
    | `Opposed -> (
        let sum = N.compare a (N.neg b) in
        match (c.kind, d.kind) with Linear.Eq, Linear.Eq -> sum <> 0 | _ -> sum > 0)
    | `Same -> (
        match (c.kind, d.kind) with
        | Linear.Le, Linear.Le -> false
        | Linear.Eq, Linear.Le -> N.compare b a > 0
        | Linear.Le, Linear.Eq -> N.compare a b > 0
        | Linear.Eq, Linear.Eq -> N.compare a b <> 0)

  (* The search runs from the back of the system.  A goal's disjuncts list
     the hypotheses first and the negated conclusion last, and a refuting
     pair nearly always has one end in the conclusion, so it is usually
     found within one pass over the hypotheses. *)
  let opposed_pair cs =
    let rec go = function [] -> false | c :: rest -> List.exists (clash c) rest || go rest in
    go (List.rev cs)

  let check ?stats ?budget ~tighten cs =
    match norm_all ~tighten cs with
    | exception Contradiction -> Unsat
    | cs when opposed_pair cs ->
        Option.iter (fun s -> s.pair_refuted <- s.pair_refuted + 1) stats;
        Dml_obs.Metrics.incr m_pair_refuted;
        Unsat
    | cs -> (
        match eliminate_normalized ?stats ?budget ~tighten cs with
        | _trace -> Sat
        | exception Contradiction -> Unsat)

  (* Reconstruct a model by walking the elimination trace backwards.  A
     substitution step assigns its variable the value of its image; a pivot
     step's upper and lower bounds are concrete numbers once every later
     variable is assigned.

     Two walks.  The integer walk runs the tightened elimination and rounds
     each bound endpoint inwards — when it verifies, the counterexample is a
     genuine integer assignment, the strongest witness we can report.  But
     it is blind to fractional-only witnesses twice over: tightening can
     refute a rationally-satisfiable system outright (2x = 1 tightens to a
     contradiction), and the rounded endpoints can miss a witness that only
     exists between two integers.  So when the integer walk comes up empty,
     a second walk runs the untightened elimination with exact rational
     bounds (FM is exact over the rationals, so it always verifies when the
     system is rationally satisfiable). *)
  let walk ?budget ~tighten cs =
    match eliminate ?budget ~tighten cs with
    | exception Contradiction -> None
    | trace ->
        let env = ref Ivar.Map.empty in
        (* Variables that vanished through one-sided elimination may be
           unbound when we evaluate a bound; they are unconstrained here,
           so zero. *)
        let eval (f : num Linear.form) =
          let acc = ref (R.of_num f.const) in
          Array.iteri
            (fun i v ->
              let x =
                match Ivar.Map.find_opt v !env with
                | Some x -> x
                | None ->
                    env := Ivar.Map.add v R.zero !env;
                    R.zero
              in
              acc := R.add !acc (R.mul (R.of_num f.coeffs.(i)) x))
            f.vars;
          !acc
        in
        (* c : k*v + rest <= 0 bounds v by -rest/k, from above when k > 0
           and from below when k < 0. *)
        let fold_bound pick round var cs =
          List.fold_left
            (fun acc (c : num Linear.cstr) ->
              let k = R.of_num (L.coeff var c.form) in
              let b = R.div (R.neg (eval (L.remove var c.form))) k in
              let b = if tighten then R.of_num (round b) else b in
              match acc with None -> Some b | Some x -> Some (pick x b))
            None cs
        in
        let assign = function
          | Subst { var; image } -> env := Ivar.Map.add var (eval image) !env
          | Pivot { var; uppers; lowers } ->
              let upper = fold_bound R.min R.floor var uppers in
              let lower = fold_bound R.max R.ceil var lowers in
              let value =
                match (lower, upper) with
                | Some l, _ -> l
                | None, Some u -> u
                | None, None -> R.zero
              in
              env := Ivar.Map.add var value !env
        in
        List.iter assign trace;
        (* FM is not exact over the integers, so verify before answering. *)
        let holds (c : num Linear.cstr) =
          let x = eval c.form in
          match c.kind with Linear.Le -> R.sign x <= 0 | Linear.Eq -> R.is_zero x
        in
        if List.for_all holds cs then Some !env else None

  let rational_model ?budget cs =
    (* Budget.Exhausted deliberately propagates: a caller that could not
       afford the model reconstruction must report a timeout, not "no
       counterexample". *)
    match walk ?budget ~tighten:true cs with
    | Some m -> Some m
    | None -> walk ?budget ~tighten:false cs
end

include Make (Linear) (Rat)
