open Dml_numeric
open Dml_index
open Dml_constr
module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace

type method_ = Fm_tightened | Fm_plain | Simplex_rational

type lane = Lane_bignum | Lane_native

type verdict = Dml_cache.Cache.verdict =
  | Valid
  | Not_valid of string
  | Unsupported of string
  | Timeout of string

type stats = {
  mutable checked_goals : int;
  mutable disjuncts : int;
  mutable fm : Fourier.stats;
  mutable solve_time : float;
  mutable timeouts : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable native_solves : int;
  mutable overflow_escalations : int;
}

(* Registry instruments: the process-wide spine the per-run [stats] records
   mirror into.  [stats] stays the per-check view; the registry accumulates
   across every solve in the process (dumped by [dmlc --profile]/[--json]). *)
let m_goals = Metrics.counter "solver.goals"
let m_disjuncts = Metrics.counter "solver.disjuncts"
let m_timeouts = Metrics.counter "solver.timeouts"
let m_cache_hits = Metrics.counter "solver.cache_hits"
let m_cache_misses = Metrics.counter "solver.cache_misses"
let m_solves = Metrics.counter "solver.uncached_solves"
let m_native_solves = Metrics.counter "solver.native_solves"
let m_overflow_escalations = Metrics.counter "solver.overflow_escalations"
let h_solve_ms = Metrics.histogram "solver.solve_ms"

let h_dnf_disjuncts =
  Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |] "solver.dnf_disjuncts"

let new_stats () =
  {
    checked_goals = 0;
    disjuncts = 0;
    fm = Fourier.new_stats ();
    solve_time = 0.;
    timeouts = 0;
    cache_hits = 0;
    cache_misses = 0;
    native_solves = 0;
    overflow_escalations = 0;
  }

let merge_stats ~into (s : stats) =
  into.checked_goals <- into.checked_goals + s.checked_goals;
  into.disjuncts <- into.disjuncts + s.disjuncts;
  into.solve_time <- into.solve_time +. s.solve_time;
  into.timeouts <- into.timeouts + s.timeouts;
  into.cache_hits <- into.cache_hits + s.cache_hits;
  into.cache_misses <- into.cache_misses + s.cache_misses;
  into.native_solves <- into.native_solves + s.native_solves;
  into.overflow_escalations <- into.overflow_escalations + s.overflow_escalations;
  let fm = into.fm and fm' = s.fm in
  fm.Fourier.eliminations <- fm.Fourier.eliminations + fm'.Fourier.eliminations;
  fm.Fourier.combinations <- fm.Fourier.combinations + fm'.Fourier.combinations;
  fm.Fourier.max_constraints <- max fm.Fourier.max_constraints fm'.Fourier.max_constraints;
  fm.Fourier.pair_refuted <- fm.Fourier.pair_refuted + fm'.Fourier.pair_refuted;
  if Bigint.compare fm'.Fourier.max_coeff fm.Fourier.max_coeff > 0 then
    fm.Fourier.max_coeff <- fm'.Fourier.max_coeff

let negation_formula (g : Constr.goal) =
  Idx.band (Idx.conj g.goal_hyps) (Idx.bnot g.goal_concl)

(* A disjunct whose boolean literals clash ([b] and [not b]) is
   unsatisfiable before any arithmetic. *)
let consistent literals =
  let rec go pos neg = function
    | [] -> true
    | Dnf.Lbool (p, v) :: rest ->
        let id = v.Ivar.id in
        if p then (not (List.mem id neg)) && go (id :: pos) neg rest
        else (not (List.mem id pos)) && go pos (id :: neg) rest
    | (Dnf.Lle _ | Dnf.Leq _) :: rest -> go pos neg rest
  in
  go [] [] literals

(* Purify + DNF, boolean-contradictory disjuncts dropped.
   @raise Purify.Nonlinear, Dnf.Too_large *)
let disjuncts ?budget formula =
  List.filter consistent (Dnf.dnf ?budget (Purify.purify formula))

let nonlinear msg = "non-linear constraint: " ^ msg
let too_large = "constraint normal form too large"

(* One solver lane: the single Linear/Fourier/Simplex body instantiated
   over one number type.  [system] builds the lane's forms straight from a
   disjunct's literals, so no lane converts another's representation. *)
module Lane
    (L : Linear.S)
    (F : Fourier.S with type num = L.num)
    (S : Simplex.S with type num = L.num) =
struct
  (* The translations made so far for one goal, keyed by the literal
     itself.  The disjuncts of one DNF share their literals physically, so
     each literal is translated once per goal.  The memo fills as the
     disjuncts are visited: a literal that overflows the lane's numbers
     is never stored, and surfaces again on every disjunct that holds it.
     The lookup is a linear scan.  That is cheap on annotated programs:
     the check-batch benchmark averages 25.6 literal occurrences per goal.
     It is not on inferred ones: a disjunct of the hanoi [--infer] twin
     holds 562 literals on average, and the scan turns quadratic there
     (ROADMAP item 1). *)
  type memo = (Dnf.literal * L.num Linear.cstr option) list ref

  let new_memo () : memo = ref []

  let translate literal =
    let form_of e =
      match L.of_iexp e with
      | Some f -> f
      | None -> raise (Purify.Nonlinear (Idx.iexp_to_string e))
    in
    match literal with
    | Dnf.Lle (a, b) -> Some (L.cstr_le (L.sub (form_of a) (form_of b)))
    | Dnf.Leq (a, b) -> Some (L.cstr_eq (L.sub (form_of a) (form_of b)))
    | Dnf.Lbool _ -> None

  let system (memo : memo) literals =
    List.filter_map
      (fun literal ->
        match List.assq_opt literal !memo with
        | Some c -> c
        | None ->
            let c = translate literal in
            memo := (literal, c) :: !memo;
            c)
      literals

  let refute ?stats ?budget memo method_ literals =
    let system = system memo literals in
    let fm_stats = Option.map (fun s -> s.fm) stats in
    let refuted =
      match method_ with
      | Fm_tightened -> F.check ?stats:fm_stats ?budget ~tighten:true system = Fourier.Unsat
      | Fm_plain -> F.check ?stats:fm_stats ?budget ~tighten:false system = Fourier.Unsat
      | Simplex_rational -> S.check ?budget system = Simplex.Unsat
    in
    if refuted then `Refuted else `Open
end

module Bignum = Lane (Linear) (Fourier) (Simplex)

module Native = struct
  module L = Linear.Make (Checked)
  module R = Rat.Make (Checked)
  include Lane (L) (Fourier.Make (L) (R)) (Simplex.Make (R))
end

let disjunct_systems ?budget formula =
  let memo = Bignum.new_memo () in
  match List.map (Bignum.system memo) (disjuncts ?budget formula) with
  | systems -> Ok systems
  | exception Purify.Nonlinear msg -> Error (nonlinear msg)
  | exception Dnf.Too_large -> Error too_large

(* The translation memos of one goal, one per lane. *)
type memos = { bignum : Bignum.memo; native : Native.memo }

(* One disjunct, one method, lane-dispatched.  Both lanes run the same
   algorithm body, so a completed native run IS the bignum verdict; on
   [Checked.Overflow] the bignum lane re-solves the disjunct from its
   literals.  An overflow escalation is an arithmetic-representation
   event, not an extra proof-method attempt. *)
let refute ?stats ?budget ~lane memos method_ literals =
  match lane with
  | Lane_bignum -> Bignum.refute ?stats ?budget memos.bignum method_ literals
  | Lane_native -> (
      match Native.refute ?stats ?budget memos.native method_ literals with
      | answer ->
          Option.iter (fun s -> s.native_solves <- s.native_solves + 1) stats;
          Metrics.incr m_native_solves;
          answer
      | exception Checked.Overflow ->
          Option.iter (fun s -> s.overflow_escalations <- s.overflow_escalations + 1) stats;
          Metrics.incr m_overflow_escalations;
          Bignum.refute ?stats ?budget memos.bignum method_ literals)

(* Rational counterexamples print integer values without a denominator. *)
let rat_model_to_string model =
  let parts =
    Ivar.Map.fold
      (fun v k acc -> Format.asprintf "%a = %a" Ivar.pp v Rat.pp k :: acc)
      model []
  in
  String.concat ", " (List.rev parts)

let check_goal_uncached ?(method_ = Fm_tightened) ?(lane = Lane_native) ?stats ?budget goal =
  let t0 = Budget.now () in
  Option.iter (fun s -> s.checked_goals <- s.checked_goals + 1) stats;
  Metrics.incr m_goals;
  Metrics.incr m_solves;
  let result =
    (* Isolation barrier: a single obligation must not be able to kill the
       whole pipeline.  Budget exhaustion becomes [Timeout]; resource
       exhaustion of the runtime itself and any unexpected solver exception
       become [Unsupported] with a diagnostic, exactly as a failure to decide
       (both are conservative: the caller keeps the dynamic check). *)
    match
      let disjuncts = disjuncts ?budget (negation_formula goal) in
      let n = List.length disjuncts in
      Option.iter (fun s -> s.disjuncts <- s.disjuncts + n) stats;
      Metrics.incr ~by:n m_disjuncts;
      Metrics.observe h_dnf_disjuncts (float_of_int n);
      let memos = { bignum = Bignum.new_memo (); native = Native.new_memo () } in
      let rec go = function
        | [] -> Valid
        | literals :: rest -> (
            match refute ?stats ?budget ~lane memos method_ literals with
            | `Refuted -> go rest
            | `Open ->
                let hint =
                  match Fourier.rational_model ?budget (Bignum.system memos.bignum literals) with
                  | Some model -> "counterexample: " ^ rat_model_to_string model
                  | None -> "could not refute a disjunct of the negation"
                in
                Not_valid hint)
      in
      go disjuncts
    with
    | verdict -> verdict
    | exception Purify.Nonlinear msg -> Unsupported (nonlinear msg)
    | exception Dnf.Too_large -> Unsupported too_large
    | exception Budget.Exhausted msg ->
        Option.iter (fun s -> s.timeouts <- s.timeouts + 1) stats;
        Metrics.incr m_timeouts;
        Timeout msg
    | exception Stack_overflow -> Unsupported "solver stack overflow"
    | exception Out_of_memory -> Unsupported "solver out of memory"
    | exception e -> Unsupported ("internal solver error: " ^ Printexc.to_string e)
  in
  let dt = Budget.now () -. t0 in
  Option.iter (fun s -> s.solve_time <- s.solve_time +. dt) stats;
  Metrics.observe h_solve_ms (dt *. 1000.);
  result

(* --- the verdict cache --------------------------------------------------- *)

let method_slug = function
  | Fm_tightened -> "fm"
  | Fm_plain -> "fm-plain"
  | Simplex_rational -> "simplex"

let verdict_slug = function
  | Valid -> "valid"
  | Not_valid _ -> "not-valid"
  | Unsupported _ -> "unsupported"
  | Timeout _ -> "timeout"

(* The front door with the cache and the trace span around it; the span
   carries the cache status. *)
let check_goal ?(method_ = Fm_tightened) ?(lane = Lane_native) ?stats ?budget ?cache goal =
  let sp = Trace.start "solve" in
  let fm0, pair0, disj0 =
    if Trace.real sp then
      match stats with
      | Some s -> (s.fm.Fourier.eliminations, s.fm.Fourier.pair_refuted, s.disjuncts)
      | None -> (0, 0, 0)
    else (0, 0, 0)
  in
  let tier = match budget with None -> max_int | Some b -> Budget.tier b in
  let digest =
    (* canonicalization runs outside the solver's isolation barrier, so it
       must not be able to kill the caller either: on resource exhaustion
       the goal is simply solved uncached *)
    match cache with
    | None -> None
    | Some _ -> (
        match Dml_cache.Canon.digest goal with
        | d -> Some d
        | exception (Stack_overflow | Out_of_memory) -> None)
  in
  let verdict, status =
    match (cache, digest) with
    | None, _ | _, None -> (check_goal_uncached ~method_ ~lane ?stats ?budget goal, `Uncached)
    | Some cache, Some digest -> (
        let m = method_slug method_ in
        match Dml_cache.Cache.find cache ~digest ~method_:m ~tier with
        | Some v ->
            Option.iter
              (fun s ->
                s.checked_goals <- s.checked_goals + 1;
                s.cache_hits <- s.cache_hits + 1;
                match v with Timeout _ -> s.timeouts <- s.timeouts + 1 | _ -> ())
              stats;
            Metrics.incr m_goals;
            Metrics.incr m_cache_hits;
            (match v with Timeout _ -> Metrics.incr m_timeouts | _ -> ());
            (v, `Hit)
        | None ->
            Option.iter (fun s -> s.cache_misses <- s.cache_misses + 1) stats;
            Metrics.incr m_cache_misses;
            let v = check_goal_uncached ~method_ ~lane ?stats ?budget goal in
            Dml_cache.Cache.add cache ~digest ~method_:m ~tier v;
            (v, `Miss))
  in
  if Trace.real sp then begin
    Trace.set_str sp "method" (method_slug method_);
    (if tier = max_int then Trace.set_str sp "tier" "unlimited" else Trace.set_int sp "tier" tier);
    Trace.set_str sp "cache"
      (match status with `Hit -> "hit" | `Miss -> "miss" | `Uncached -> "off");
    Trace.set_str sp "verdict" (verdict_slug verdict);
    match stats with
    | Some s ->
        Trace.set_int sp "disjuncts" (s.disjuncts - disj0);
        Trace.set_int sp "fm_eliminations" (s.fm.Fourier.eliminations - fm0);
        Trace.set_int sp "pair_refuted" (s.fm.Fourier.pair_refuted - pair0)
    | None -> ()
  end;
  Trace.finish sp;
  verdict

let check_constraint ?method_ ?lane ?stats ?budget ?cache phi =
  match
    let phi = Constr.eliminate_existentials phi in
    Constr.goals phi
  with
  | Error msg -> Unsupported msg
  | exception Stack_overflow -> Unsupported "solver stack overflow"
  | exception Out_of_memory -> Unsupported "solver out of memory"
  | exception e -> Unsupported ("internal solver error: " ^ Printexc.to_string e)
  | Ok goals ->
      let rec go = function
        | [] -> Valid
        | g :: rest -> (
            match check_goal ?method_ ?lane ?stats ?budget ?cache g with
            | Valid -> go rest
            | other -> other)
      in
      go goals

let pp_verdict fmt = function
  | Valid -> Format.pp_print_string fmt "valid"
  | Not_valid hint -> Format.fprintf fmt "NOT valid (%s)" hint
  | Unsupported msg -> Format.fprintf fmt "unsupported (%s)" msg
  | Timeout msg -> Format.fprintf fmt "timeout (%s)" msg
