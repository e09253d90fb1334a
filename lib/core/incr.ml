(* Declaration-grain incremental rechecking.

   The pipeline is whole-program, but an edit rarely is: at editor keystroke
   rates almost every recheck differs from the last one by a single
   declaration.  This module splits a check into per-declaration *units*,
   content-addresses each unit by a digest over its own (pretty-printed,
   location- and comment-insensitive) source plus the digests of the units
   it depends on, and keeps every unit's solved verdicts in a store.  On a
   recheck the work happens only where the edit reaches (the basis is
   processed once per process, {!Prelude}):
   - *parsing* runs only for the declarations the edit can reach
     ({!Reparse}): the last successfully parsed text is kept unit by unit,
     the new text is diffed against it by common byte prefix and suffix,
     and lexing and parsing restart after the last unit the prefix fully
     determines and stop where the old suffix resumes at the same line and
     column.  Reused units keep their exact fingerprints, so only the
     re-parsed ones are pretty-printed, hashed and walked for names;
   - *solving*, the dominant cost of a cold check, runs only for units whose
     digest is not in the store: the dirty cone of the edit;
   - *phases 1 and 2* (ML inference and elaboration) are skipped for every
     [fun] unit that the last check saw with the same digest at exactly the
     same source positions.  Its stored ML and dependent schemes are bound
     into both environments instead, and its typed item, obligations and
     warnings are reused as they are, so every location in the report stays
     exact without a relocation pass.  A unit whose tokens moved (a line
     was inserted above it) simply runs again.  Datatype, typeref, assert,
     typedef and exception units always run, and so does every unit from
     the first top-level [val] on: a [val] is the one form that pushes
     entries into the elaboration context's prefix or leaves weak type
     variables a later unit can fix.

   Correctness rests on three properties, all hammered by the differential
   fuzzer in [test/test_incr.ml]:
   - staged elaboration equals whole-program elaboration
     ({!Elab.elaborate_tops} threads the full elaboration context, so this
     holds by construction), and binding a [fun]'s stored schemes gives the
     context its elaboration would ({!Elab.bind_vals});
   - the dependency edges over-approximate every way one declaration's
     constraints and types can depend on another.  Edges are harvested from
     the surface syntax: every identifier mentioned anywhere in a unit
     (terms, patterns, types, index expressions — binders included,
     constructor/variable ambiguity included) that an earlier unit defines
     is an edge.  Every earlier top-level [val] is an edge too, mentioned or
     not, because the existentials its type opens wrap every later
     obligation.  Because a unit's digest folds in its dependencies'
     digests, dirtiness propagates transitively through the graph with no
     separate cone walk: editing a callee's interface changes the callee's
     digest, hence every (transitive) caller's digest, hence re-solves and
     re-elaborates them all;
   - a stored dependent scheme binds all its index variables and every use
     refreshes them, so a later unit elaborated against a reused scheme
     gets the constraints it would get against a freshly elaborated one.

   The verdict store is keyed by options fingerprint × unit digest, so a
   state may be shared across derived sessions without ever reusing a
   verdict across differing solver policies; the parse and front-end
   products do not depend on solving options at all.  They hold only the
   last successful check's (or parse's) units, so they are bounded by one
   buffer. *)

open Dml_lang
open Dml_solver
open Dml_mltype
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

let m_rechecks = Metrics.counter "incr.rechecks"
let m_units = Metrics.counter "incr.units"
let m_dirty = Metrics.counter "incr.dirty"
let m_reused = Metrics.counter "incr.reused"
let m_solver_calls = Metrics.counter "incr.solver_calls"
let m_mismatches = Metrics.counter "incr.mismatches"
let m_front_reused = Metrics.counter "incr.front_reused"

(* ------------------------------------------------------------------ *)
(* Name harvesting over the surface syntax                             *)
(* ------------------------------------------------------------------ *)

(* Every identifier a unit mentions, over-approximated: binders are
   included (a [Pvar] may be a nullary constructor, a local binder may
   shadow an earlier top-level name — both only ever add edges), and so are
   type names, index-variable names, quantifier sorts and constructor
   names.  A spurious edge re-solves a clean unit; a missed edge would
   silently reuse a stale verdict — so every ambiguity resolves toward
   more edges. *)

open Ast

let rec names_sindex acc = function
  | Siname n -> n :: acc
  | Siconst _ | Sibool _ -> acc
  | Sibin (_, a, b) -> names_sindex (names_sindex acc a) b
  | Sineg a | Sinot a | Siabs a | Sisgn a -> names_sindex acc a

let names_quant acc q =
  let acc = List.fold_left (fun acc (v, sort) -> v :: sort :: acc) acc q.qvars in
  match q.qcond with None -> acc | Some i -> names_sindex acc i

let rec names_stype acc = function
  | STvar _ -> acc
  | STcon (ts, name, is) ->
      let acc = List.fold_left names_stype (name :: acc) ts in
      List.fold_left names_sindex acc is
  | STtuple ts -> List.fold_left names_stype acc ts
  | STarrow (a, b) -> names_stype (names_stype acc a) b
  | STpi (q, t) | STsigma (q, t) -> names_stype (names_quant acc q) t

let names_stype_opt acc = function None -> acc | Some t -> names_stype acc t

let rec names_pat acc p =
  match p.pdesc with
  | Pwild | Pint _ | Pbool _ | Pchar _ | Pstring _ -> acc
  | Pvar x -> x :: acc
  | Ptuple ps -> List.fold_left names_pat acc ps
  | Pcon (c, None) -> c :: acc
  | Pcon (c, Some p) -> names_pat (c :: acc) p

(* Over the one-level walkers of {!Ast}, built once per declaration *)
let names_dec d =
  let acc = ref [] in
  let pat p = acc := names_pat !acc p and typ t = acc := names_stype !acc t in
  let rec exp e =
    (match e.edesc with Evar x -> acc := x :: !acc | _ -> ());
    iter_exp ~pat ~typ ~exp ~dec e
  and dec d =
    (match d.ddesc with
    | Dval _ -> ()
    | Dfun fds ->
        List.iter (fun fd -> acc := List.fold_left names_quant (fd.fname :: !acc) fd.fiparams) fds
    | Dexception (n, _) -> acc := n :: !acc);
    iter_dec ~pat ~typ ~exp d
  in
  dec d;
  !acc

let mentioned_top = function
  | Tdatatype d ->
      List.fold_left
        (fun acc (c, t) -> names_stype_opt (c :: acc) t)
        [ d.dt_name ] d.dt_cons
  | Ttyperef tr ->
      List.fold_left
        (fun acc (c, t) -> names_stype (c :: acc) t)
        ((tr.tr_name :: tr.tr_sorts) : string list)
        tr.tr_cons
  | Tassert asserts ->
      List.fold_left (fun acc (n, t) -> names_stype (n :: acc) t) [] asserts
  | Ttypedef (n, t) -> names_stype [ n ] t
  | Tdec d -> names_dec d

(* The names a unit defines for the units after it.  An [assert] counts as
   a definer too: a later [fun f] carries the asserted signature, so it
   must (and does, via the self-name in [mentioned_top]) pick up an edge to
   the assert unit. *)
let defined_top = function
  | Tdatatype d -> d.dt_name :: List.map fst d.dt_cons
  | Ttyperef tr -> tr.tr_name :: List.map fst tr.tr_cons
  | Tassert asserts -> List.map fst asserts
  | Ttypedef (n, _) -> [ n ]
  | Tdec d -> (
      match d.ddesc with
      | Dval (p, _, _) -> pat_vars p
      | Dfun fds -> List.map (fun fd -> fd.fname) fds
      | Dexception (n, _) -> [ n ])

(* ------------------------------------------------------------------ *)
(* Unit digests                                                        *)
(* ------------------------------------------------------------------ *)

(* The basis is elaborated through the same store as a pseudo-unit: its
   obligations are solved on the first check of a state and reused on
   every recheck after. *)
let basis_digest = lazy (Digest.to_hex (Digest.string Basis.source))

(* The content half of a unit's digest: the pretty-printed declaration,
   which is parseable, location-free and comment-free, so whitespace and
   comment edits cannot dirty a unit. *)
let content_digest top = Digest.string (Format.asprintf "%a" Pretty.pp_top top)

let is_val = function Tdec { ddesc = Dval _; _ } -> true | _ -> false

let fun_names = function
  | Tdec { ddesc = Dfun fds; _ } -> List.map (fun fd -> fd.fname) fds
  | _ -> []

(* What a unit's digest is made of besides its dependencies' digests: a
   function of the declaration alone, so a recheck keeps it by exact
   fingerprint and walks only the re-parsed units. *)
type summary = {
  content : string;  (* {!content_digest} *)
  mentioned : string list;  (* {!mentioned_top}, without duplicates *)
  defined : string list;  (* {!defined_top} *)
  a_val : bool;
}

let summarize top =
  {
    content = content_digest top;
    mentioned = List.sort_uniq String.compare (mentioned_top top);
    defined = defined_top top;
    a_val = is_val top;
  }

(* One digest per declaration, in program order: its content digest plus
   the sorted digests of the latest earlier definer of every mentioned name
   and of every earlier top-level [val].  A name no earlier unit defines
   resolves to the basis or the builtins, both compiled-in constants.  The
   [val] edges are not about names: a top-level [val] whose type opens
   existential indices pushes universal entries and hypotheses that wrap
   every later obligation, whatever it mentions. *)
let digests_of_summaries summaries =
  let definer : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let vals = ref [] in
  List.map
    (fun u ->
      let deps =
        List.filter_map (Hashtbl.find_opt definer) u.mentioned @ !vals
        |> List.sort_uniq String.compare
      in
      let digest = Digest.to_hex (Digest.string (String.concat "\n" (u.content :: deps))) in
      List.iter (fun n -> Hashtbl.replace definer n digest) u.defined;
      if u.a_val then vals := digest :: !vals;
      digest)
    summaries

let unit_digests (prog : Ast.program) : string list =
  digests_of_summaries (List.map summarize prog)

(* ------------------------------------------------------------------ *)
(* The stores                                                          *)
(* ------------------------------------------------------------------ *)

(* What a clean unit contributes without solving: its verdicts (reused
   positionally, guarded by the obligation provenance list) and its solver
   work delta (merged back so the report's solver block stays the sum over
   all units, exactly a cold check's figures when no verdict cache
   interferes). *)
type stored_unit = {
  su_what : string list;  (* ob_what per obligation, generation order *)
  su_verdicts : (Solver.verdict * float) list;
  su_stats : Solver.stats;
}

(* What a [fun] unit contributes without running phases 1 and 2: the
   bindings it adds to both environments, its zonked typed item, its
   obligations and its warnings (most recent first, as {!Infer} keeps
   them). *)
type stored_front = {
  sf_schemes : (string * Mltype.scheme) list;
  sf_dschemes : (string * Denv.dscheme) list;
  sf_titem : Tast.ttop;
  sf_obligations : Elab.obligation list;
  sf_warnings : (string * Loc.t) list;
}

(* Every edit to a declaration stores a new unit for it and for every unit
   whose digest composes its digest, so the store is bounded.  The bound
   never evicts a unit of the last check: after each check the store is
   trimmed to the larger of [unit_capacity] and that check's unit count, so
   only units of older versions and of other sources go, least recently
   used first, and an edit back to an evicted version is solved again.  A
   stored unit costs about 0.9 KB (key, node, verdicts and stats), so the
   4,096 units hold about 3.6 MiB of history, the order of dmld's response
   memo; the serve-edit benchmark's 42-unit buffer peaks at 72 units per
   session, and the largest corpus source or twin has 7. *)
let unit_capacity = 4096

(* What the last successful check kept of one declaration, by its exact
   fingerprint: its summary, and for a [fun] unit before the first [val]
   its phase 1 and 2 products, tagged with the digest they were made under. *)
type kept_unit = { k_summary : summary; k_front : (string * stored_front) option }

type state = {
  store : (string, stored_unit) Dml_cache.Lru.t;
  mutable parsed : Reparse.t option;
      (* the last successfully parsed text, declaration by declaration *)
  mutable kept : (string, kept_unit) Hashtbl.t;
      (* the last successful check's units, by exact fingerprint *)
}

let create () = { store = Dml_cache.Lru.create 0; parsed = None; kept = Hashtbl.create 1 }

let stored_units state = Dml_cache.Lru.length state.store

type stats = {
  st_units : int;  (** user declarations in the checked source *)
  st_dirty : int;  (** units (re-)solved this check *)
  st_reused : int;  (** units answered from the store *)
  st_solver_calls : int;  (** obligations actually sent to the solver *)
  st_front_reused : int;  (** units whose phase 1 and 2 products were reused *)
  st_reparsed : int;  (** units lexed and parsed this check *)
}

(* ------------------------------------------------------------------ *)
(* The incremental check                                               *)
(* ------------------------------------------------------------------ *)

(* The warnings [Infer] added since the list had [before] entries. *)
let new_warnings (env : Infer.env) before =
  let all = !(env.Infer.warnings) in
  let n = List.length all - before in
  List.filteri (fun i _ -> i < n) all

(* How phase 1 treated a unit. *)
type phase1 =
  | Reused of stored_front
  | Inferred of Tast.ttop * (string * Mltype.scheme) list * (string * Loc.t) list
      (** a [fun] unit to store: its item, the schemes it binds, its warnings *)
  | Always of Tast.ttop  (** a unit that runs the front end on every check *)

(* Phases 1 and 2 over the user program, reusing the stored products of
   every [fun] unit before the first top-level [val] that the last check
   kept under the same exact fingerprint and digest.  Units from the first
   [val] onward always run: only a [val] pushes entries into the
   elaboration context's prefix or leaves weak type variables a later unit
   can fix, so before it a [fun] unit's products depend on nothing but the
   declarations it names, which its digest covers.  [keys] gives each
   unit's exact fingerprint, summary and digest.  Returns the final
   environments, the typed user program, each unit's obligations, what to
   keep of each unit for the next check and how many units were reused. *)
let front_end kept (prelude : Prelude.t) user_prog keys =
  let stored (exact, _, digest) =
    match Hashtbl.find_opt kept exact with
    | Some { k_front = Some (d, sf); _ } when d = digest -> Some sf
    | _ -> None
  in
  (* phase 1: units before the first [val] one at a time, each zonked on
     its own (nothing after it can reach its type variables), then the
     rest in one pass zonked together, as a cold check does *)
  let rec phase1 env acc = function
    | (top, key) :: rest when not (is_val top) ->
        let names = fun_names top in
        let env, p =
          match if names = [] then None else stored key with
          | Some sf ->
              env.Infer.warnings := sf.sf_warnings @ !(env.Infer.warnings);
              (Infer.bind env sf.sf_schemes, Reused sf)
          | None -> (
              let before = List.length !(env.Infer.warnings) in
              match Infer.infer_program env [ top ] with
              | env, [ item ] when names <> [] ->
                  let schemes = List.map (fun x -> (x, Infer.SMap.find x env.Infer.vals)) names in
                  (env, Inferred (item, schemes, new_warnings env before))
              | env, [ item ] -> (env, Always item)
              | _ -> assert false)
        in
        phase1 env ((key, p) :: acc) rest
    | rest ->
        let env, items = Infer.infer_program env (List.map fst rest) in
        (env, List.rev_append acc (List.map2 (fun (_, key) item -> (key, Always item)) rest items))
  in
  let sp = Trace.start "infer" in
  let mlenv, units = phase1 (Prelude.env prelude) [] (List.combine user_prog keys) in
  Trace.finish sp;
  (* phase 2, unit by unit, threading the whole elaboration context *)
  let sp = Trace.start "elaborate" in
  let kept' = Hashtbl.create 64 in
  let keep (exact, k_summary, digest) front =
    Hashtbl.replace kept' exact
      { k_summary; k_front = Option.map (fun sf -> (digest, sf)) front }
  in
  let ectx, done_rev =
    List.fold_left
      (fun (ectx, acc) (key, p) ->
        match p with
        | Reused sf ->
            keep key (Some sf);
            (Elab.bind_vals ectx sf.sf_dschemes, (sf.sf_titem, sf.sf_obligations) :: acc)
        | Inferred (item, schemes, warnings) ->
            let ectx, obs = Elab.elaborate_tops ectx [ item ] in
            keep key
              (Some
                 {
                   sf_schemes = schemes;
                   sf_dschemes = Elab.bound_vals ectx (List.map fst schemes);
                   sf_titem = item;
                   sf_obligations = obs;
                   sf_warnings = warnings;
                 });
            (ectx, (item, obs) :: acc)
        | Always item ->
            keep key None;
            let ectx, obs = Elab.elaborate_tops ectx [ item ] in
            (ectx, (item, obs) :: acc))
      (Elab.with_tyenv prelude.ectx mlenv.Infer.tyenv, [])
      units
  in
  Trace.finish sp;
  let items, unit_obs = List.split (List.rev done_rev) in
  let reused = List.length (List.filter (function _, Reused _ -> true | _ -> false) units) in
  (mlenv, items, ectx, unit_obs, kept', reused)

(* Solve dirty units, reuse clean ones; program order is the assembly
   order, so reordered-but-unedited declarations reuse their verdicts under
   their new positions and locations. *)
let solve_units state ~fp (solve : Pipeline.solve) units st =
  let total_stats = Solver.new_stats () in
  let dirty = ref 0 and reused = ref 0 and solver_calls = ref 0 in
  let checked_units =
    List.map
      (fun (is_user, digest, obs) ->
        let key = fp ^ ":" ^ digest in
        let what = List.map (fun ob -> ob.Elab.ob_what) obs in
        match Dml_cache.Lru.find state.store key with
        | Some su when su.su_what = what ->
            if is_user then incr reused;
            Solver.merge_stats ~into:total_stats su.su_stats;
            List.map2
              (fun ob (v, dur) -> { Pipeline.co_obligation = ob; co_verdict = v; co_time = dur })
              obs su.su_verdicts
        | found ->
            (* unknown digest — or a stored unit whose obligation list no
               longer lines up, which means a dependency edge was missed:
               count it and fall back to solving, never to stale reuse *)
            if found <> None then Metrics.incr m_mismatches;
            if is_user then incr dirty;
            solver_calls := !solver_calls + List.length obs;
            let ustats = Solver.new_stats () in
            let checked = List.map (solve ~stats:ustats) obs in
            Dml_cache.Lru.add state.store key
              {
                su_what = what;
                su_verdicts =
                  List.map (fun co -> (co.Pipeline.co_verdict, co.Pipeline.co_time)) checked;
                su_stats = ustats;
              };
            Solver.merge_stats ~into:total_stats ustats;
            checked)
      units
  in
  Dml_cache.Lru.trim state.store (max unit_capacity (List.length units));
  let st = { st with st_dirty = !dirty; st_reused = !reused; st_solver_calls = !solver_calls } in
  Metrics.incr ~by:st.st_units m_units;
  Metrics.incr ~by:st.st_dirty m_dirty;
  Metrics.incr ~by:st.st_reused m_reused;
  Metrics.incr ~by:st.st_solver_calls m_solver_calls;
  Metrics.incr ~by:st.st_front_reused m_front_reused;
  (List.concat checked_units, total_stats, st)

let check state session src =
  let fp = Session.fingerprint (Session.options session) in
  let front () =
    Metrics.incr m_rechecks;
    let t0 = Budget.now () in
    let sp = Trace.start "parse" in
    let parsed = Reparse.parse ?last:state.parsed src in
    Trace.finish sp;
    state.parsed <- Some parsed;
    let user_prog = Reparse.program parsed in
    let prelude = Prelude.get () in
    (* pretty-print and walk only the units whose exact form the last
       check did not see *)
    let exacts = Reparse.fingerprints parsed in
    let summaries =
      List.map2
        (fun top exact ->
          match Hashtbl.find_opt state.kept exact with
          | Some k -> k.k_summary
          | None -> summarize top)
        user_prog exacts
    in
    let digests = digests_of_summaries summaries in
    let keys = List.map2 (fun (e, s) d -> (e, s, d)) (List.combine exacts summaries) digests in
    let mlenv, user_tprog, ectx, user_obs, kept, front_reused =
      front_end state.kept prelude user_prog keys
    in
    state.kept <- kept;
    let fe =
      Pipeline.frontend_of ~t0 ~src ~spans:(Reparse.spans parsed) ~mlenv ~user_tprog ~ectx
        (List.concat user_obs)
    in
    let units =
      (false, Lazy.force basis_digest, prelude.obligations)
      :: List.map2 (fun d obs -> (true, d, obs)) digests user_obs
    in
    let st =
      {
        st_units = List.length user_prog;
        st_dirty = 0;
        st_reused = 0;
        st_solver_calls = 0;
        st_front_reused = front_reused;
        st_reparsed = Reparse.reparsed parsed;
      }
    in
    Ok (fe, (units, st))
  in
  Pipeline.run session front (fun solve _ (units, st) -> solve_units state ~fp solve units st)
