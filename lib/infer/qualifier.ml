open Dml_lang

type harvest = { h_consts : int list; h_divisors : int list }

(* Literals above this magnitude are treated as data rather than candidate
   bounds: every harvested constant multiplies the vocabulary (and hence
   the per-round solver work) by five atoms per liquid variable. *)
let const_cap = 4096

let harvest prog =
  let consts = Hashtbl.create 32 in
  let divisors = Hashtbl.create 8 in
  let note_const n = if abs n <= const_cap then Hashtbl.replace consts n () in
  let rec exp (e : Ast.exp) =
    match e.Ast.edesc with
    | Ast.Eint n -> note_const n
    | Ast.Eapp
        ({ edesc = Ast.Evar f; _ }, { edesc = Ast.Etuple [ a; { edesc = Ast.Eint d; _ } ]; _ })
      when d > 0 && List.mem f Dml_core.Basis.divisor_prims ->
        Hashtbl.replace divisors d ();
        note_const d;
        exp a
    | _ -> Ast.iter_exp ~exp ~dec e
  and dec d = Ast.iter_dec ~exp d in
  List.iter (function Ast.Tdec d -> dec d | _ -> ()) prog;
  List.iter note_const [ -1; 0; 1 ];
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
  { h_consts = sorted consts; h_divisors = sorted divisors }

let render si = Format.asprintf "%a" Pretty.pp_sindex si

let relations = [ Ast.Olt; Ast.Ole; Ast.Oeq; Ast.Oge; Ast.Ogt ]

let atoms ?(keep = fun _ -> true) h ~own ~candidates =
  let vars =
    (* innermost candidate wins a name clash, matching index-scope shadowing *)
    List.fold_left
      (fun acc v -> if List.mem v acc || v = own then acc else acc @ [ v ])
      [] candidates
  in
  let v = Ast.Siname own in
  let rel_atoms rhs = List.map (fun op -> Ast.Sibin (op, v, rhs)) relations in
  let var_atoms = List.concat_map (fun w -> rel_atoms (Ast.Siname w)) vars in
  let const_atoms = List.concat_map (fun c -> rel_atoms (Ast.Siconst c)) h.h_consts in
  let mod_atoms =
    List.map
      (fun d -> Ast.Sibin (Ast.Oeq, Ast.Sibin (Ast.Omod, v, Ast.Siconst d), Ast.Siconst 0))
      h.h_divisors
  in
  (* the alignment form of bcopy's word loop: own is w rounded down to a
     multiple of d, i.e. own = w - mod(w,d) *)
  let align_atoms =
    List.concat_map
      (fun w ->
        List.map
          (fun d ->
            let wn = Ast.Siname w in
            Ast.Sibin (Ast.Oeq, v, Ast.Sibin (Ast.Osub, wn, Ast.Sibin (Ast.Omod, wn, Ast.Siconst d))))
          h.h_divisors)
      vars
  in
  let all = var_atoms @ const_atoms @ mod_atoms @ align_atoms in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun a ->
      let key = render a in
      if Hashtbl.mem seen key || not (keep key) then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    all
