(* Declaration-grain incremental rechecking.

   The pipeline is whole-program, but an edit rarely is: at editor keystroke
   rates almost every recheck differs from the last one by a single
   declaration.  This module splits a check into per-declaration *units*,
   content-addresses each unit by a digest over its own (pretty-printed,
   location- and comment-insensitive) source plus the digests of the units
   it references, and keeps every unit's solved verdicts in a store.  On a
   recheck the front end still runs over the whole user program (the basis
   is processed once per process, {!Prelude}) — parse, ML inference and
   elaboration are cheap and keep every location and warning exact — but
   *solving*, the dominant cost, happens only for units whose digest is not
   in the store: the dirty cone of the edit.

   Correctness rests on two properties, both hammered by the differential
   fuzzer in [test/test_incr.ml]:
   - staged elaboration equals whole-program elaboration
     ({!Elab.elaborate_tops} threads the full elaboration context, so this
     holds by construction), and
   - the dependency edges over-approximate every way one declaration's
     constraints can mention another.  Edges are harvested from the surface
     syntax: every identifier mentioned anywhere in a unit (terms, patterns,
     types, index expressions — binders included, constructor/variable
     ambiguity included) that an earlier unit defines is an edge.  Because a
     unit's digest folds in its dependencies' digests, dirtiness propagates
     transitively through the graph with no separate cone walk: editing a
     callee's interface changes the callee's digest, hence every
     (transitive) caller's digest, hence re-solves them all.

   The store is keyed by options fingerprint × unit digest, so a state may
   be shared across derived sessions without ever reusing a verdict across
   differing solver policies. *)

open Dml_lang
open Dml_solver
open Dml_mltype
module Metrics = Dml_obs.Metrics

let m_rechecks = Metrics.counter "incr.rechecks"
let m_units = Metrics.counter "incr.units"
let m_dirty = Metrics.counter "incr.dirty"
let m_reused = Metrics.counter "incr.reused"
let m_solver_calls = Metrics.counter "incr.solver_calls"
let m_mismatches = Metrics.counter "incr.mismatches"

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

let rec names_exp acc e =
  match e.edesc with
  | Eint _ | Ebool _ | Echar _ | Estring _ -> acc
  | Evar x -> x :: acc
  | Etuple es -> List.fold_left names_exp acc es
  | Eapp (a, b) | Eandalso (a, b) | Eorelse (a, b) -> names_exp (names_exp acc a) b
  | Eif (a, b, c) -> names_exp (names_exp (names_exp acc a) b) c
  | Ecase (e, arms) | Ehandle (e, arms) ->
      List.fold_left
        (fun acc (p, body) -> names_exp (names_pat acc p) body)
        (names_exp acc e) arms
  | Efn (p, body) -> names_exp (names_pat acc p) body
  | Elet (ds, body) -> names_exp (List.fold_left names_dec acc ds) body
  | Eannot (e, t) -> names_stype (names_exp acc e) t
  | Eraise e -> names_exp acc e

and names_dec acc d =
  match d.ddesc with
  | Dval (p, e, ann) -> names_stype_opt (names_exp (names_pat acc p) e) ann
  | Dfun fds -> List.fold_left names_fundef acc fds
  | Dexception (n, t) -> names_stype_opt (n :: acc) t

and names_fundef acc fd =
  let acc = List.fold_left names_quant (fd.fname :: acc) fd.fiparams in
  let acc =
    List.fold_left
      (fun acc (ps, body) -> names_exp (List.fold_left names_pat acc ps) body)
      acc fd.fclauses
  in
  names_stype_opt acc fd.fannot

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
  | Tdec d -> names_dec [] d

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

(* One digest per declaration, in program order.  The content half is the
   pretty-printed declaration — parseable, location-free and
   comment-free, so whitespace and comment edits cannot dirty a unit —
   and the dependency half is the sorted digests of the latest earlier
   definer of every mentioned name.  A name no earlier unit defines
   resolves to the basis or the builtins, both compiled-in constants. *)
let unit_digests (prog : Ast.program) : string list =
  let definer : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.map
    (fun top ->
      let text = Format.asprintf "%a" Pretty.pp_top top in
      let deps =
        mentioned_top top
        |> List.filter_map (Hashtbl.find_opt definer)
        |> List.sort_uniq String.compare
      in
      let digest = Digest.to_hex (Digest.string (String.concat "\n" (text :: deps))) in
      List.iter (fun n -> Hashtbl.replace definer n digest) (defined_top top);
      digest)
    prog

(* ------------------------------------------------------------------ *)
(* The unit store                                                      *)
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

type state = { store : (string, stored_unit) Hashtbl.t }

let create () = { store = Hashtbl.create 64 }
let stored_units state = Hashtbl.length state.store

type stats = {
  st_units : int;  (** user declarations in the checked source *)
  st_dirty : int;  (** units (re-)solved this check *)
  st_reused : int;  (** units answered from the store *)
  st_solver_calls : int;  (** obligations actually sent to the solver *)
}

(* ------------------------------------------------------------------ *)
(* The incremental check                                               *)
(* ------------------------------------------------------------------ *)

let check state session src =
  Pipeline.with_session_sink session @@ fun () ->
  Metrics.incr m_rechecks;
  let cache = Session.cache session in
  let cache_before = Option.map Dml_cache.Cache.snapshot cache in
  let fp = Session.fingerprint (Session.options session) in
  try
    let t0 = Budget.now () in
    let user_prog, spans = Parser.parse_program_with_spans src in
    let prelude = Prelude.get () in
    let mlenv, user_tprog, ectx = Prelude.start prelude user_prog in
    (* stage the elaboration declaration-by-declaration, threading the full
       context, to learn which obligations each unit generates *)
    let ectx, user_obs_rev =
      List.fold_left
        (fun (ectx, acc) titem ->
          let ectx, obs = Elab.elaborate_tops ectx [ titem ] in
          (ectx, obs :: acc))
        (ectx, []) user_tprog
    in
    let gen_time = Budget.now () -. t0 in
    let digests = unit_digests user_prog in
    let units =
      (false, Lazy.force basis_digest, prelude.obligations)
      :: List.map2
           (fun d obs -> (true, d, obs))
           digests
           (List.rev user_obs_rev)
    in
    (* solve dirty units, reuse clean ones; program order is the assembly
       order, so reordered-but-unedited declarations reuse their verdicts
       under their new positions and locations *)
    let t1 = Budget.now () in
    let total_stats = Solver.new_stats () in
    let dirty = ref 0 and reused = ref 0 and solver_calls = ref 0 in
    let checked_units =
      List.map
        (fun (is_user, digest, obs) ->
          let key = fp ^ ":" ^ digest in
          let what = List.map (fun ob -> ob.Elab.ob_what) obs in
          match Hashtbl.find_opt state.store key with
          | Some su when su.su_what = what ->
              if is_user then incr reused;
              Solver.merge_stats ~into:total_stats su.su_stats;
              List.map2
                (fun ob (v, dur) ->
                  { Pipeline.co_obligation = ob; co_verdict = v; co_time = dur })
                obs su.su_verdicts
          | found ->
              (* unknown digest — or a stored unit whose obligation list no
                 longer lines up, which means a dependency edge was missed:
                 count it and fall back to solving, never to stale reuse *)
              if found <> None then Metrics.incr m_mismatches;
              if is_user then incr dirty;
              solver_calls := !solver_calls + List.length obs;
              let ustats = Solver.new_stats () in
              let checked =
                List.map (fun ob -> Pipeline.solve_obligation_s session ~stats:ustats ob) obs
              in
              Hashtbl.replace state.store key
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
    let solve_time = Budget.now () -. t1 in
    let obligations = List.concat checked_units in
    let annotations, annotation_lines = Pipeline.annotation_metrics spans in
    let fe =
      {
        Pipeline.fe_obligations = List.map (fun co -> co.Pipeline.co_obligation) obligations;
        fe_gen_time = gen_time;
        fe_annotations = annotations;
        fe_annotation_lines = annotation_lines;
        fe_code_lines = Pipeline.count_code_lines src;
        fe_tprog = prelude.tprog @ user_tprog;
        fe_user_tprog = user_tprog;
        fe_warnings = List.rev !(mlenv.Infer.warnings);
        fe_mlenv = mlenv;
        fe_denv = Elab.export_denv ectx;
      }
    in
    let cache_stats =
      match (cache, cache_before) with
      | Some c, Some before ->
          Some (Dml_cache.Cache.diff (Dml_cache.Cache.snapshot c) before)
      | _ -> None
    in
    let report = Pipeline.assemble ?cache_stats ~stats:total_stats ~solve_time fe obligations in
    let st =
      {
        st_units = List.length user_prog;
        st_dirty = !dirty;
        st_reused = !reused;
        st_solver_calls = !solver_calls;
      }
    in
    Metrics.incr ~by:st.st_units m_units;
    Metrics.incr ~by:st.st_dirty m_dirty;
    Metrics.incr ~by:st.st_reused m_reused;
    Metrics.incr ~by:st.st_solver_calls m_solver_calls;
    Ok (report, st)
  with
  | Sys.Break as e -> raise e
  | e -> Error (Pipeline.failure_of_exn e)
