open Dml_numeric
open Dml_index

type verdict = Unsat | Sat

module type S = sig
  type num

  val check : ?budget:Budget.t -> num Linear.cstr list -> verdict
end

module IMap = Map.Make (Int)

(* Dictionary simplex.  Variables are integers: 0 is the phase-1 artificial
   variable; each free structural variable x is split into x = pos - neg
   with pos, neg >= 0; slack variables close the inequalities.  A dictionary
   maps each basic variable to an affine row over the nonbasic variables. *)
module Make (R : Rat.S) = struct
  type num = R.num

  type row = { rconst : R.t; rcoeffs : R.t IMap.t }

  let rcoeff j r = Option.value (IMap.find_opt j r.rcoeffs) ~default:R.zero

  let radd a b =
    {
      rconst = R.add a.rconst b.rconst;
      rcoeffs =
        IMap.merge
          (fun _ x y ->
            let v = R.add (Option.value x ~default:R.zero) (Option.value y ~default:R.zero) in
            if R.is_zero v then None else Some v)
          a.rcoeffs b.rcoeffs;
    }

  let rscale k r =
    if R.is_zero k then { rconst = R.zero; rcoeffs = IMap.empty }
    else { rconst = R.mul k r.rconst; rcoeffs = IMap.map (R.mul k) r.rcoeffs }

  type dict = { mutable rows : row IMap.t (* basic var -> row *); mutable objective : row }

  (* Express nonbasic variable [enter] from the row of basic variable [leave],
     then substitute everywhere. *)
  let pivot d leave enter =
    let row = IMap.find leave d.rows in
    let a = rcoeff enter row in
    (* leave = rconst + ... + a*enter + ...  =>
       enter = (leave - rconst - rest)/a, with [leave] appearing as a fresh
       nonbasic variable of coefficient 1. *)
    let rest = { row with rcoeffs = IMap.remove enter row.rcoeffs } in
    let inv_a = R.inv a in
    let enter_row =
      radd
        (rscale (R.neg inv_a) rest)
        { rconst = R.zero; rcoeffs = IMap.singleton leave inv_a }
    in
    let substitute r =
      let k = rcoeff enter r in
      if R.is_zero k then r
      else radd { r with rcoeffs = IMap.remove enter r.rcoeffs } (rscale k enter_row)
    in
    d.rows <- IMap.add enter enter_row (IMap.map substitute (IMap.remove leave d.rows));
    d.objective <- substitute d.objective

  (* Bland's rule: entering variable is the smallest-index nonbasic variable
     with a positive objective coefficient; leaving variable is the
     smallest-index basic variable achieving the tightest ratio.  Bland's rule
     terminates, but a pivot touches every row, so each one charges the budget
     proportionally to the dictionary size. *)
  let rec optimise ?budget d =
    (match budget with
    | Some bu when Budget.is_limited bu -> Budget.spend bu (2 + IMap.cardinal d.rows)
    | _ -> ());
    let enter =
      IMap.fold
        (fun j k acc ->
          if R.gt k R.zero then match acc with Some j' when j' <= j -> acc | _ -> Some j
          else acc)
        d.objective.rcoeffs None
    in
    match enter with
    | None -> `Optimal
    | Some enter -> (
        let leave =
          IMap.fold
            (fun i r acc ->
              let k = rcoeff enter r in
              if R.lt k R.zero then begin
                let ratio = R.div r.rconst (R.neg k) in
                match acc with
                | Some (_, best) when R.lt best ratio -> acc
                | Some (i', best) when R.equal best ratio && i' < i -> acc
                | _ -> Some (i, ratio)
              end
              else acc)
            d.rows None
        in
        match leave with
        | None -> `Unbounded
        | Some (leave, _) ->
            pivot d leave enter;
            optimise ?budget d)

  (* Build the dictionary for phase 1 and solve. *)
  let solve ?budget cs =
    (* Collect the structural variables and assign pos/neg indices. *)
    let vars =
      List.fold_left
        (fun acc (c : num Linear.cstr) ->
          Array.fold_left (fun acc v -> Ivar.Set.add v acc) acc c.form.vars)
        Ivar.Set.empty cs
    in
    let var_ids, next_id =
      Ivar.Set.fold
        (fun v (m, i) -> (Ivar.Map.add v (i, i + 1) m, i + 2))
        vars (Ivar.Map.empty, 1)
    in
    (* each inequality as a form and a sign: sign * form <= 0 *)
    let ineqs =
      List.concat_map
        (fun (c : num Linear.cstr) ->
          match c.kind with
          | Linear.Le -> [ (R.one, c.form) ]
          | Linear.Eq -> [ (R.one, c.form); (R.minus_one, c.form) ])
        cs
    in
    (* form + const' <= 0, i.e. sum coeffs <= b with b = -const. *)
    let to_row slack_id (sign, (form : num Linear.form)) =
      let b = R.neg (R.mul sign (R.of_num form.const)) in
      let coeffs = ref IMap.empty in
      Array.iteri
        (fun i v ->
          let pos, neg = Ivar.Map.find v var_ids in
          let k = R.mul sign (R.of_num form.coeffs.(i)) in
          coeffs := !coeffs |> IMap.add pos (R.neg k) |> IMap.add neg k)
        form.vars;
      (* slack = b - sum a_j x_j + x0 *)
      (slack_id, { rconst = b; rcoeffs = IMap.add 0 R.one !coeffs })
    in
    let rows, _ =
      List.fold_left
        (fun (rows, id) ineq ->
          let slack, row = to_row id ineq in
          (IMap.add slack row rows, id + 1))
        (IMap.empty, next_id)
        ineqs
    in
    let d = { rows; objective = { rconst = R.zero; rcoeffs = IMap.singleton 0 R.minus_one } } in
    (* If every slack is already nonnegative the origin is feasible. *)
    let worst =
      IMap.fold
        (fun i r acc ->
          match acc with
          | Some (_, b) when R.le b r.rconst -> acc
          | _ -> if R.lt r.rconst R.zero then Some (i, r.rconst) else acc)
        d.rows None
    in
    match worst with
    | None -> true (* feasible with all structural variables zero *)
    | Some (leave, _) -> (
        (* Make the dictionary feasible by pivoting in the artificial x0. *)
        pivot d leave 0;
        match optimise ?budget d with
        | `Unbounded -> true (* -x0 unbounded above cannot happen; treat as feasible *)
        | `Optimal ->
            let x0_value =
              match IMap.find_opt 0 d.rows with Some r -> r.rconst | None -> R.zero
            in
            R.is_zero x0_value)

  let check ?budget cs = if solve ?budget cs then Sat else Unsat
end

include Make (Rat)
