open Dml_lang
open Dml_index
open Dml_constr
open Dml_solver
open Dml_core
module Mltype = Dml_mltype.Mltype
module Tast = Dml_mltype.Tast
module Json = Dml_obs.Json
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

type stats = {
  st_liquid_vars : int;
  st_iterations : int;
  st_quals_tested : int;
  st_quals_kept : int;
}

type var_solution = { vs_var : string; vs_kept : string list }
type fun_solution = { fs_fun : string; fs_type : string; fs_vars : var_solution list }

type outcome = {
  oc_report : Pipeline.report;
  oc_stats : stats;
  oc_solution : fun_solution list;
  oc_abandoned : string option;
}

let m_liquid_vars = Metrics.counter "infer.liquid_vars"
let m_iterations = Metrics.counter "infer.iterations"
let m_quals_tested = Metrics.counter "infer.quals_tested"
let m_quals_kept = Metrics.counter "infer.quals_kept"

(* --- liquid variables --------------------------------------------------- *)

(* A liquid variable's conjunction is recognized inside solver goals by a
   sentinel conjunct [tag = tag]: [Idx.cmp] never constant-folds, [band]
   folds only [Bconst], and substitution rebuilds comparisons structurally,
   so the sentinel survives elaboration, coercion and substitution intact.
   Tags start far above any constant a reasonable program compares to
   itself, and recognition additionally requires registry membership. *)
let tag_base = 1_000_003

type kappa = {
  k_tag : int;
  k_var : string;  (* binder name; contains '%' so it can never collide or shadow *)
  mutable k_kept : Ast.sindex list;
      (* current conjunction, shrinks monotonically; only between rounds
         ([apply_marks], [sweep]), so within a round it is exactly the
         conjunction rendered into that round's goals *)
}

type skeleton = {
  sk_fun : string;
  sk_pi : kappa list;  (* parameter binders, creation (= binding) order *)
  sk_sigma : kappa list;  (* result binders, creation order *)
  sk_template : Ast.stype;  (* qconds hold bare sentinels; re-rendered per round *)
}

let sk_kappas sk = sk.sk_pi @ sk.sk_sigma

type state = {
  session : Session.t;  (* always carries a verdict cache, see [check_s] *)
  registry : (int, kappa) Hashtbl.t;  (* sentinel tag -> its variable *)
  kmap : (string, kappa) Hashtbl.t;  (* binder name -> its variable *)
  templates : (string * Loc.t, skeleton) Hashtbl.t;  (* per templated fundef *)
  mutable skeletons : skeleton list;  (* source order *)
  mutable next_tag : int;
  mutable tested : int;
  mutable rounds : int;
  solver_stats : Solver.stats;  (* qualifier-test work, separate from the final report *)
}

(* --- solver access ------------------------------------------------------ *)

(* One qualifier test = one budgeted solver call under the session's exact
   solving policy: fresh budget, same method, memoised in the session's
   verdict cache.  The goal goes to the solver as is, so the per-conjunct
   tests of [process_goal] share its binder and hypothesis lists and the
   canonicalizer renders those hypotheses once.  Any non-[Valid] verdict —
   including [Timeout] — reads as "not provable", which only ever drops a
   qualifier: a slow solver degrades the inferred types, never the
   fixpoint's termination. *)
let test_goal st g =
  st.tested <- st.tested + 1;
  let config = Session.solve st.session in
  let budget = Session.budget_of_solve_config config in
  Solver.check_goal ~method_:config.Session.sc_method ~stats:st.solver_stats ?budget
    ?cache:(Session.cache st.session) g

(* --- template construction ---------------------------------------------- *)

exception Skip
(* raised while building when the function cannot be templated (unresolved
   or weak type variables); the attempt is discarded without a trace *)

let is_weak v = String.length v >= 5 && String.sub v 0 5 = "_weak"

type build = {
  bd_denv : Denv.t;
  bd_harvest : Qualifier.harvest;
  bd_keep : string -> bool;
  bd_outer : string list;  (* enclosing-scope index variables, innermost first *)
  mutable bd_next : int;  (* local tag counter, committed only on success *)
  mutable bd_pi : kappa list;  (* reverse creation order *)
  mutable bd_sigma : kappa list;
  mutable bd_in_result : bool;
}

let new_var bd ~base =
  let tag = bd.bd_next in
  bd.bd_next <- tag + 1;
  let name = Printf.sprintf "%s%%%d" base (tag - tag_base) in
  let earlier = List.rev_map (fun k -> k.k_var) (bd.bd_sigma @ bd.bd_pi) in
  let kept =
    Qualifier.atoms ~keep:bd.bd_keep bd.bd_harvest ~own:name
      ~candidates:(earlier @ bd.bd_outer)
  in
  let k = { k_tag = tag; k_var = name; k_kept = kept } in
  if bd.bd_in_result then bd.bd_sigma <- k :: bd.bd_sigma else bd.bd_pi <- k :: bd.bd_pi;
  k

(* Types under an arrow are left entirely plain: a functional argument's own
   dependencies belong to its call sites, not to a first-order template. *)
let rec plain_ty (t : Mltype.t) : Ast.stype =
  match Mltype.repr t with
  | Mltype.Tvar _ -> raise Skip
  | Mltype.Tqvar v -> if is_weak v then raise Skip else Ast.STvar v
  | Mltype.Ttuple [] -> Ast.STcon ([], "unit", [])
  | Mltype.Ttuple ts -> Ast.STtuple (List.map plain_ty ts)
  | Mltype.Tarrow (a, b) -> Ast.STarrow (plain_ty a, plain_ty b)
  | Mltype.Tcon (name, args) -> Ast.STcon (List.map plain_ty args, name, [])

(* [value_pos] marks positions holding one run-time integer whose exact value
   flows through the type ([int] gets a singleton index there); element
   positions recurse with it off, because a singleton element type would
   force a container's elements all equal.  Size-indexed families other than
   [int] get an index variable at any depth except under arrows — one
   variable per element position, i.e. nested containers are assumed
   regular, which is exactly the shape the paper's matmult needs. *)
let rec build_ty bd ~value_pos ?pat (t : Mltype.t) : Ast.stype =
  match Mltype.repr t with
  | Mltype.Tvar _ -> raise Skip
  | Mltype.Tqvar v -> if is_weak v then raise Skip else Ast.STvar v
  | Mltype.Ttuple [] -> Ast.STcon ([], "unit", [])
  | Mltype.Ttuple ts ->
      let pats =
        match pat with
        | Some { Tast.tpdesc = Tast.TPtuple ps; _ } when List.length ps = List.length ts ->
            List.map Option.some ps
        | _ -> List.map (fun _ -> None) ts
      in
      Ast.STtuple (List.map2 (fun p t -> build_ty bd ~value_pos ?pat:p t) pats ts)
  | Mltype.Tarrow (a, b) -> Ast.STarrow (plain_ty a, plain_ty b)
  | Mltype.Tcon (name, args) ->
      let indexable =
        match Denv.SMap.find_opt name bd.bd_denv.Denv.families with
        | Some f ->
            f.Denv.fam_sorts <> []
            && List.for_all (fun s -> Idx.base_sort s = Idx.Sint) f.Denv.fam_sorts
        | None -> false
      in
      let args' = List.map (fun a -> build_ty bd ~value_pos:false a) args in
      if (not indexable) || (name = "int" && not value_pos) then Ast.STcon (args', name, [])
      else begin
        let base =
          (* a variable, or a nullary constructor, names it as written *)
          match pat with
          | Some { Tast.tpdesc = Tast.TPvar x | Tast.TPcon (x, _, None); _ } -> x
          | _ -> if name = "int" then "n" else String.make 1 name.[0]
        in
        let sorts =
          (Denv.SMap.find name bd.bd_denv.Denv.families).Denv.fam_sorts
        in
        let idx = List.map (fun _ -> Ast.Siname (new_var bd ~base).k_var) sorts in
        Ast.STcon (args', name, idx)
      end

let rec split_arrows n t acc =
  if n = 0 then (List.rev acc, t)
  else
    match Mltype.repr t with
    | Mltype.Tarrow (a, b) -> split_arrows (n - 1) b (a :: acc)
    | _ -> raise Skip

let sentinel_atom tag = Ast.Sibin (Ast.Oeq, Ast.Siconst tag, Ast.Siconst tag)

let quant_of k = { Ast.qvars = [ (k.k_var, "int") ]; qcond = Some (sentinel_atom k.k_tag) }

(* --- which functions get a template ------------------------------------- *)

(* Names used as first-class values (any variable occurrence that is not
   the callee spine of an application).  Templating such a function would
   make its uses contravariant in the synthesized Pi binders (cf. passing
   [cmpint] to [bsearch]), so they are skipped — conservatively by name. *)
let collect_value_uses (tprog : Tast.tprogram) =
  let tbl = Hashtbl.create 16 in
  let rec texp (e : Tast.texp) =
    match e.Tast.tdesc with
    | Tast.TEapp ({ tdesc = Tast.TEvar _; _ }, a) ->
        (* the callee spine of [f x y] — [TEapp (TEapp (TEvar f, x), y)] — is
           entered through here at each application step, skipping only the
           [TEvar] head; any other callee shape is walked in full *)
        texp a
    | Tast.TEvar (x, _) -> Hashtbl.replace tbl x ()
    | _ -> Tast.iter_texp ~texp ~tdec e
  and tdec d = Tast.iter_tdec ~texp d in
  List.iter (function Tast.TTdec d -> tdec d | _ -> ()) tprog;
  tbl

(* Integer index binders an *annotated* function's body sees: its explicit
   index parameters plus the Pi spine of its where-clause. *)
let annotated_int_binders (fd : Tast.tfundef) =
  let of_quants qs =
    List.concat_map
      (fun q ->
        List.filter_map
          (fun (n, srt) -> if srt = "int" || srt = "nat" then Some n else None)
          q.Ast.qvars)
      qs
  in
  let rec spine (st : Ast.stype) acc =
    match st with
    | Ast.STpi (q, body) -> spine body (of_quants [ q ] @ acc)
    | Ast.STarrow (_, b) -> spine b acc
    | _ -> acc
  in
  of_quants fd.Tast.tfiparams
  @ (match fd.Tast.tfannot with Some st -> spine st [] | None -> [])

type setup = {
  su_value_used : (string, unit) Hashtbl.t;
  su_harvest : Qualifier.harvest;
  su_keep : string -> bool;
  su_denv : Denv.t;
}

let try_template st su scope (fd : Tast.tfundef) =
  if fd.Tast.tfannot <> None || fd.Tast.tfiparams <> [] || fd.Tast.tftyparams <> [] then None
  else if Hashtbl.mem su.su_value_used fd.Tast.tfname then None
  else
    match fd.Tast.tfclauses with
    | (ps0, _) :: _ when ps0 <> [] -> (
        let bd =
          {
            bd_denv = su.su_denv;
            bd_harvest = su.su_harvest;
            bd_keep = su.su_keep;
            bd_outer = scope;
            bd_next = st.next_tag;
            bd_pi = [];
            bd_sigma = [];
            bd_in_result = false;
          }
        in
        try
          let doms, cod = split_arrows (List.length ps0) fd.Tast.tfscheme.Mltype.sbody [] in
          let doms' = List.map2 (fun p t -> build_ty bd ~value_pos:true ~pat:p t) ps0 doms in
          bd.bd_in_result <- true;
          let cod' = build_ty bd ~value_pos:true cod in
          if bd.bd_pi = [] && bd.bd_sigma = [] then None (* nothing to infer *)
          else begin
            let pi = List.rev bd.bd_pi and sigma = List.rev bd.bd_sigma in
            let cod'' = List.fold_right (fun k acc -> Ast.STsigma (quant_of k, acc)) sigma cod' in
            let arrow = List.fold_right (fun d acc -> Ast.STarrow (d, acc)) doms' cod'' in
            let template = List.fold_right (fun k acc -> Ast.STpi (quant_of k, acc)) pi arrow in
            let sk =
              { sk_fun = fd.Tast.tfname; sk_pi = pi; sk_sigma = sigma; sk_template = template }
            in
            st.next_tag <- bd.bd_next;
            List.iter
              (fun k ->
                Hashtbl.replace st.registry k.k_tag k;
                Hashtbl.replace st.kmap k.k_var k)
              (sk_kappas sk);
            Hashtbl.replace st.templates (fd.Tast.tfname, fd.Tast.tfloc) sk;
            st.skeletons <- sk :: st.skeletons;
            Some sk
          end
        with Skip -> None)
    | _ -> None

(* Walk the typed program outer-before-inner, templating every eligible
   fundef and accumulating the index-variable scope nested templates may
   quote in their qualifiers.  A templated body sees the function's own Pi
   binders (Sigma binders scope only over the result); an annotated body
   sees its declared binders — mirroring exactly what elaboration has in
   scope when it checks each body.  Templates are keyed by (name, loc),
   which the typed fundef copies from the surface one the rewrite walks:
   names may repeat across nesting levels but parse locations cannot. *)
let build_templates st su (tprog : Tast.tprogram) =
  let rec texp scope e = Tast.iter_texp ~texp:(texp scope) ~tdec:(tdec scope) e
  and tdec scope = function
    | Tast.TDfun fds ->
        let decided = List.map (fun fd -> (fd, try_template st su scope fd)) fds in
        List.iter
          (fun ((fd : Tast.tfundef), sk) ->
            let own =
              match sk with
              | Some sk -> List.map (fun k -> k.k_var) sk.sk_pi
              | None -> annotated_int_binders fd
            in
            let scope' = own @ scope in
            List.iter (fun (_, body) -> texp scope' body) fd.Tast.tfclauses)
          decided
    | d -> Tast.iter_tdec ~texp:(texp scope) d
  in
  List.iter (function Tast.TTdec d -> tdec [] d | _ -> ()) tprog;
  st.skeletons <- List.rev st.skeletons

(* --- per-round rendering and rewriting ---------------------------------- *)

let kappa_qcond ~with_sentinel k =
  let init = if with_sentinel then Some (sentinel_atom k.k_tag) else None in
  List.fold_left
    (fun acc q ->
      match acc with None -> Some q | Some a -> Some (Ast.Sibin (Ast.Oand, a, q)))
    init k.k_kept

let rec rerender st ~with_sentinel (t : Ast.stype) =
  match t with
  | Ast.STvar _ -> t
  | Ast.STcon (args, n, idx) -> Ast.STcon (List.map (rerender st ~with_sentinel) args, n, idx)
  | Ast.STtuple ts -> Ast.STtuple (List.map (rerender st ~with_sentinel) ts)
  | Ast.STarrow (a, b) -> Ast.STarrow (rerender st ~with_sentinel a, rerender st ~with_sentinel b)
  | Ast.STpi (q, b) -> Ast.STpi (requant st ~with_sentinel q, rerender st ~with_sentinel b)
  | Ast.STsigma (q, b) -> Ast.STsigma (requant st ~with_sentinel q, rerender st ~with_sentinel b)

and requant st ~with_sentinel q =
  match q.Ast.qvars with
  | [ (name, _) ] -> (
      match Hashtbl.find_opt st.kmap name with
      | Some k -> { q with Ast.qcond = kappa_qcond ~with_sentinel k }
      | None -> q)
  | _ -> q

(* Attach the current conjunctions: every templated fundef gets its skeleton
   re-rendered as its where-clause; everything else is preserved untouched
   (locations included, so the (name, loc) keys stay stable across rounds). *)
let rec rw_exp st ~ws e = Ast.map_exp ~exp:(rw_exp st ~ws) ~dec:(rw_dec st ~ws) e

and rw_dec st ~ws d =
  let d = Ast.map_dec ~exp:(rw_exp st ~ws) d in
  match d.Ast.ddesc with
  | Ast.Dfun fds ->
      let annotate (fd : Ast.fundef) =
        match Hashtbl.find_opt st.templates (fd.Ast.fname, fd.Ast.floc) with
        | Some sk -> { fd with Ast.fannot = Some (rerender st ~with_sentinel:ws sk.sk_template) }
        | None -> fd
      in
      { d with Ast.ddesc = Ast.Dfun (List.map annotate fds) }
  | Ast.Dval _ | Ast.Dexception _ -> d

let rewrite st ~ws (prog : Ast.program) =
  List.map (function Ast.Tdec d -> Ast.Tdec (rw_dec st ~ws d) | t -> t) prog

(* --- the weakening rounds ------------------------------------------------ *)

let flatten_band b =
  let rec go b acc = match b with Idx.Band (x, y) -> go x (y :: acc) | b -> b :: acc in
  go b []

(* A flow goal is one whose conclusion is a liquid conjunction: a left-
   associated [Band] spine headed by a registered sentinel.  Its remaining
   atoms align positionally with [k_kept], which this round rendered and
   which changes only after it.  The whole spine is tested first (on an
   already-converged variable that is one cache-friendly call); only on
   failure is each atom tried on its own, and every unprovable one is
   marked for removal. *)
let process_goal st marks g =
  match flatten_band g.Constr.goal_concl with
  | Idx.Bcmp (Idx.Req, Idx.Iconst a, Idx.Iconst b) :: rest
    when a = b && Hashtbl.mem st.registry a ->
      let k = Hashtbl.find st.registry a in
      if rest = [] then () (* the conjunction is already empty: trivially valid *)
      else if test_goal st g = Solver.Valid then ()
      else if List.length rest = List.length k.k_kept then
        List.iter2
          (fun q atom ->
            match test_goal st { g with Constr.goal_concl = atom } with
            | Solver.Valid -> ()
            | _ -> marks := (k, q) :: !marks)
          k.k_kept rest
      else
        (* conclusion and conjunction disagree (never observed: substitution
           is structural) — drop the whole conjunction rather than misalign *)
        List.iter (fun q -> marks := (k, q) :: !marks) k.k_kept
  | _ -> ()

let apply_marks marks =
  List.fold_left
    (fun n (k, q) ->
      let before = List.length k.k_kept in
      k.k_kept <- List.filter (fun q' -> q' <> q) k.k_kept;
      n + (before - List.length k.k_kept))
    0 marks

(* One weakening round: render the current conjunctions into the program,
   re-run the front end, and weaken against every flow goal.  Removals are
   collected during the round and applied at its end, keeping the positional
   alignment between goals and [k_kept] intact. *)
let run_round st ~src ~spans prog =
  let prog' = rewrite st ~ws:true prog in
  match Pipeline.frontend_ast ~src ~spans prog' with
  | Error f -> Error f
  | Ok fe ->
      st.rounds <- st.rounds + 1;
      let marks = ref [] in
      List.iter
        (fun (ob : Elab.obligation) ->
          match Constr.goals (Constr.eliminate_existentials ob.Elab.ob_constr) with
          | Error _ -> () (* residual existential: no flow information here *)
          | Ok gs -> List.iter (process_goal st marks) gs)
        fe.Pipeline.fe_obligations;
      Ok (fe, apply_marks !marks)

(* A function none of whose surviving conjunctions is satisfiable can prove
   anything inside its own body — vacuous truth, reachable only when the
   function is never applied (every call site would have failed some flow
   goal and weakened it).  Such refinements are cleared wholesale; clearing
   can re-enable other removals, so the caller re-runs the rounds after. *)
let sweep st =
  let rec names_of acc = function
    | Ast.Siname n -> if List.mem n acc then acc else n :: acc
    | Ast.Siconst _ | Ast.Sibool _ -> acc
    | Ast.Sibin (_, a, b) -> names_of (names_of acc a) b
    | Ast.Sineg a | Ast.Sinot a | Ast.Siabs a | Ast.Sisgn a -> names_of acc a
  in
  List.fold_left
    (fun cleared sk ->
      let atoms = List.concat_map (fun k -> k.k_kept) (sk_kappas sk) in
      if atoms = [] then cleared
      else begin
        let names = List.fold_left names_of [] atoms in
        let scope, vars =
          List.fold_left
            (fun (sc, vs) n ->
              let v = Ivar.fresh n in
              (Denv.SMap.add n (v, Idx.Sint) sc, (v, Idx.Sint) :: vs))
            (Denv.SMap.empty, []) names
        in
        let hyps = List.map (Denv.resolve_bexp scope) atoms in
        let goal =
          { Constr.goal_vars = List.rev vars; goal_hyps = hyps; goal_concl = Idx.Bconst false }
        in
        match test_goal st goal with
        | Solver.Valid ->
            List.iter (fun k -> k.k_kept <- []) (sk_kappas sk);
            true
        | _ -> cleared
      end)
    false st.skeletons

(* --- end-to-end ---------------------------------------------------------- *)

let engine_stats st =
  {
    st_liquid_vars = Hashtbl.length st.registry;
    st_iterations = st.rounds;
    st_quals_tested = st.tested;
    st_quals_kept =
      List.fold_left
        (fun n sk -> List.fold_left (fun n k -> n + List.length k.k_kept) n (sk_kappas sk))
        0 st.skeletons;
  }

let solution_of st =
  List.map
    (fun sk ->
      {
        fs_fun = sk.sk_fun;
        fs_type = Pretty.stype_to_string (rerender st ~with_sentinel:false sk.sk_template);
        fs_vars =
          List.map
            (fun k -> { vs_var = k.k_var; vs_kept = List.map Qualifier.render k.k_kept })
            (sk_kappas sk);
      })
    st.skeletons

let bump_metrics s =
  Metrics.incr ~by:s.st_liquid_vars m_liquid_vars;
  Metrics.incr ~by:s.st_iterations m_iterations;
  Metrics.incr ~by:s.st_quals_tested m_quals_tested;
  Metrics.incr ~by:s.st_quals_kept m_quals_kept

let check_s ?(vocab_keep = fun _ -> true) session src =
  (* the fixpoint re-tests the same goals round after round, and the final
     solve re-tests the converged ones: a session without a verdict cache
     gets one for this call *)
  let session =
    match Session.cache session with
    | Some _ -> session
    | None ->
        Session.create ?sink:(Session.sink session) ~cache:(Dml_cache.Cache.create ())
          ~options:(Session.options session) ()
  in
  let front () =
    let user_prog, spans = Pipeline.parse src in
    (* the plain front end: principal ML types and the resolved families *)
    match Pipeline.frontend_ast ~src ~spans user_prog with
    | Error f -> Error f
    | Ok fe0 ->
        let st =
          {
            session;
            registry = Hashtbl.create 32;
            kmap = Hashtbl.create 32;
            templates = Hashtbl.create 16;
            skeletons = [];
            next_tag = tag_base;
            tested = 0;
            rounds = 0;
            solver_stats = Solver.new_stats ();
          }
        in
        let su =
          {
            su_value_used = collect_value_uses fe0.Pipeline.fe_user_tprog;
            su_harvest = Qualifier.harvest user_prog;
            su_keep = vocab_keep;
            su_denv = fe0.Pipeline.fe_denv;
          }
        in
        let sp = Trace.start "infer-fixpoint" in
        build_templates st su fe0.Pipeline.fe_user_tprog;
        let final =
          (* nothing to infer: behave exactly like a plain check *)
          if st.skeletons = [] then Ok fe0
          else begin
            (* the weakening cap is a belt on top of monotonicity: every
               productive round removes at least one qualifier, so rounds
               are bounded by the initial vocabulary size *)
            let initial_total =
              List.fold_left
                (fun n sk ->
                  List.fold_left (fun n k -> n + List.length k.k_kept) n (sk_kappas sk))
                0 st.skeletons
            in
            let cap = initial_total + 2 in
            let rec fix () =
              match run_round st ~src ~spans user_prog with
              | Error f -> Error f
              | Ok (fe, removed) -> if removed > 0 && st.rounds < cap then fix () else Ok fe
            in
            let rec stabilize () =
              match fix () with
              | Error f -> Error f
              | Ok fe -> if sweep st then stabilize () else Ok fe
            in
            match stabilize () with
            | Error f -> Error f
            | Ok _ ->
                (* final pass without sentinels: the types as a user would
                   have written them, and a report free of marker atoms *)
                Pipeline.frontend_ast ~src ~spans (rewrite st ~ws:false user_prog)
          end
        in
        let s = engine_stats st in
        if Trace.real sp then begin
          Trace.set_int sp "liquid_vars" s.st_liquid_vars;
          Trace.set_int sp "iterations" s.st_iterations;
          Trace.set_int sp "quals_tested" s.st_quals_tested;
          Trace.set_int sp "quals_kept" s.st_quals_kept
        end;
        Trace.finish sp;
        bump_metrics s;
        (* a synthesized template that broke the front end degrades to the
           plain (uninferred) check rather than failing the program *)
        let fe, abandoned =
          match final with
          | Ok fe -> (fe, None)
          | Error f -> (fe0, Some (Pipeline.failure_to_string f))
        in
        Ok (fe, (s, solution_of st, abandoned))
  in
  Pipeline.run session front Pipeline.solve_all
  |> Result.map (fun (report, (s, solution, abandoned)) ->
         { oc_report = report; oc_stats = s; oc_solution = solution; oc_abandoned = abandoned })

let infer_json ~program oc =
  let r = oc.oc_report in
  let residual = Pipeline.unproven r in
  Json.Obj
    [
      ("schema", Json.String "dml-infer/1");
      ("program", Json.String program);
      ("valid", Json.Bool r.Pipeline.rp_valid);
      ("residual", Json.Int r.Pipeline.rp_residual);
      ( "abandoned",
        match oc.oc_abandoned with None -> Json.Null | Some m -> Json.String m );
      ( "stats",
        Json.Obj
          [
            ("liquid_vars", Json.Int oc.oc_stats.st_liquid_vars);
            ("iterations", Json.Int oc.oc_stats.st_iterations);
            ("quals_tested", Json.Int oc.oc_stats.st_quals_tested);
            ("quals_kept", Json.Int oc.oc_stats.st_quals_kept);
          ] );
      ( "functions",
        Json.List
          (List.map
             (fun fs ->
               Json.Obj
                 [
                   ("name", Json.String fs.fs_fun);
                   ("type", Json.String fs.fs_type);
                   ( "vars",
                     Json.List
                       (List.map
                          (fun vs ->
                            Json.Obj
                              [
                                ("var", Json.String vs.vs_var);
                                ( "kept",
                                  Json.List
                                    (List.map (fun s -> Json.String s) vs.vs_kept) );
                              ])
                          fs.fs_vars) );
                 ])
             oc.oc_solution) );
      ( "residual_sites",
        Json.List
          (List.map
             (fun (co : Pipeline.checked_obligation) ->
               Json.Obj
                 [
                   ("what", Json.String co.Pipeline.co_obligation.Elab.ob_what);
                   ( "loc",
                     Json.String
                       (Format.asprintf "%a" Loc.pp co.Pipeline.co_obligation.Elab.ob_loc) );
                   ("verdict", Json.String (Solver.verdict_slug co.Pipeline.co_verdict));
                 ])
             residual) );
    ]

(* The one place that picks a session's checker and its document schema:
   every surface ([dmlc check], batch rows, [dmld] inline and pooled) runs
   and renders its checks through these two. *)
let check session src =
  if (Session.options session).Session.op_infer then
    Result.map (fun oc -> (oc.oc_report, Some oc)) (check_s session src)
  else Result.map (fun rp -> (rp, None)) (Pipeline.check_s session src)

let check_json ?(extra = []) session ~program result =
  (* dml-check/2 only when the session opted into inference, so every
     pre-existing consumer keeps seeing byte-identical /1 documents *)
  let schema = if (Session.options session).Session.op_infer then Some "dml-check/2" else None in
  match result with
  | Ok (report, outcome) ->
      let inferred =
        match outcome with Some oc -> [ ("inferred", infer_json ~program oc) ] | None -> []
      in
      Report_json.of_report ?schema ~program ~extra:(inferred @ extra) report
  | Error f -> Report_json.of_failure ?schema ~program ~extra f
