(* Declaration-grain incremental rechecking (lib/core/incr.ml) and the
   dml-server/1 check_patch op: the edit-sequence differential fuzzer plus
   the deterministic regressions around it.

   The central property: after EVERY edit in a random patch sequence, the
   incremental report is byte-identical (modulo the schedule-dependent
   fields, both sides cache-free) to a cold full `Pipeline.check_s` of the
   same text.  Edits include binder renames, array-bound changes,
   out-of-bounds weakenings (residual obligations must match too),
   declaration swaps, delete/reinsert, parse-breaking garbage (failure
   documents must match too) and comment/whitespace-only decorations; the
   moves carry a top-level [val], a weak [ref] and an exception across the
   boundaries of front-end reuse.  A failing sequence is shrunk to a
   minimal edit script before reporting. *)

module J = Dml_obs.Json
module Metrics = Dml_obs.Metrics
module P = Dml_core.Pipeline
module S = Dml_core.Session
module I = Dml_core.Incr
module R = Dml_core.Report_json
module Pr = Dml_programs.Programs
module Server = Dml_server.Server

let scrub doc = J.scrub ~keys:R.schedule_dependent_fields doc

let doc_of ~program result =
  match result with
  | Ok rp -> R.of_report ~program rp
  | Error f -> R.of_failure ~program f

let session () = S.create ~options:S.default_options ()

let full_doc src =
  scrub (doc_of ~program:"fuzz" (P.check_s (session ()) src))

let debug = Sys.getenv_opt "DML_INCR_FUZZ_DEBUG" <> None

let incr_doc st sess src =
  match I.check st sess src with
  | Ok (rp, stats) -> (scrub (R.of_report ~program:"fuzz" rp), Some stats)
  | Error f ->
      if debug then Printf.eprintf "fuzz failure step: %s\n%!" (P.failure_to_string f);
      (scrub (R.of_failure ~program:"fuzz" f), None)

(* --- the edit model ---------------------------------------------------- *)

(* The buffer is a list of segments: opaque corpus programs plus probe
   declarations the ops can rewrite structurally.  [p_bad] makes the
   probe's access out of bounds (a residual obligation, not an error);
   [s_comment] is a comment/whitespace decoration that must never dirty a
   unit. *)
type probe = { p_slot : int; p_suffix : int; p_idx : int; p_rev : int; p_bad : bool }

type body = Corpus of string | Probe of probe | Garbage of body

type seg = { s_body : body; s_comment : int }

let probe_text { p_slot; p_suffix; p_idx; p_rev; p_bad } =
  let name = Printf.sprintf "dmlprobe%d_%d" p_slot p_suffix in
  Printf.sprintf "fun %s(a) = sub(a, %d%s) + %d\nwhere %s <| {n:nat | n > %d} int array(n) -> int\n"
    name p_idx
    (if p_bad then " + 1" else "")
    p_rev name p_idx

let seg_text s =
  let body =
    match s.s_body with
    | Corpus src -> src
    | Probe p -> probe_text p
    | Garbage _ -> "fun = = garbage\n"
  in
  if s.s_comment = 0 then body
  else Printf.sprintf "(* decoration %d *)\n\n%s\n(* end %d *)\n" s.s_comment body s.s_comment

let render segs = String.concat "\n" (List.map seg_text segs)

type op =
  | Rename of int * int  (** probe pick, new suffix *)
  | Rebound of int * int  (** probe pick, new array bound *)
  | Bump of int * int  (** probe pick, new body constant *)
  | Toggle_bad of int  (** probe pick: flip in/out of bounds *)
  | Swap of int * int  (** segment positions *)
  | Delete of int  (** segment position -> clipboard *)
  | Reinsert of int  (** clipboard -> position *)
  | Break of int  (** replace segment with unparseable garbage *)
  | Comment of int * int  (** segment, decoration tag (0 clears) *)

let op_to_string = function
  | Rename (i, k) -> Printf.sprintf "Rename (%d, %d)" i k
  | Rebound (i, k) -> Printf.sprintf "Rebound (%d, %d)" i k
  | Bump (i, k) -> Printf.sprintf "Bump (%d, %d)" i k
  | Toggle_bad i -> Printf.sprintf "Toggle_bad %d" i
  | Swap (i, j) -> Printf.sprintf "Swap (%d, %d)" i j
  | Delete i -> Printf.sprintf "Delete %d" i
  | Reinsert i -> Printf.sprintf "Reinsert %d" i
  | Break i -> Printf.sprintf "Break %d" i
  | Comment (i, k) -> Printf.sprintf "Comment (%d, %d)" i k

type buffer = { segs : seg list; clipboard : seg option }

(* Ops address segments modulo the current length, so any script replays
   deterministically on any intermediate state — which is what makes
   shrinking (dropping arbitrary ops) sound. *)
let nth_mod segs i = i mod max 1 (List.length segs)

let update_at segs i f = List.mapi (fun j s -> if j = i then f s else s) segs

let probe_positions segs =
  List.filteri (fun _ _ -> true) (List.mapi (fun j s -> (j, s)) segs)
  |> List.filter_map (fun (j, s) -> match s.s_body with Probe _ -> Some j | _ -> None)

let update_probe buf pick f =
  match probe_positions buf.segs with
  | [] -> buf
  | ps ->
      let j = List.nth ps (pick mod List.length ps) in
      {
        buf with
        segs =
          update_at buf.segs j (fun s ->
              match s.s_body with
              | Probe p -> { s with s_body = Probe (f p) }
              | _ -> s);
      }

let apply buf op =
  match op with
  | Rename (pick, k) -> update_probe buf pick (fun p -> { p with p_suffix = k })
  | Rebound (pick, k) -> update_probe buf pick (fun p -> { p with p_idx = k mod 8 })
  | Bump (pick, k) -> update_probe buf pick (fun p -> { p with p_rev = k })
  | Toggle_bad pick -> update_probe buf pick (fun p -> { p with p_bad = not p.p_bad })
  | Swap (i, j) ->
      let i = nth_mod buf.segs i and j = nth_mod buf.segs j in
      let a = List.nth buf.segs i and b = List.nth buf.segs j in
      { buf with segs = List.mapi (fun k s -> if k = i then b else if k = j then a else s) buf.segs }
  | Delete i ->
      if List.length buf.segs <= 1 || buf.clipboard <> None then buf
      else
        let i = nth_mod buf.segs i in
        {
          segs = List.filteri (fun j _ -> j <> i) buf.segs;
          clipboard = Some (List.nth buf.segs i);
        }
  | Reinsert pos -> (
      match buf.clipboard with
      | None -> buf
      | Some s ->
          let pos = pos mod (List.length buf.segs + 1) in
          let before = List.filteri (fun j _ -> j < pos) buf.segs in
          let after = List.filteri (fun j _ -> j >= pos) buf.segs in
          { segs = before @ (s :: after); clipboard = None })
  | Break i -> (
      (* repair-first, and breaking is 3x rarer than repairing: parse
         failures must come and go, not dominate the run with
         trivially-matching failure documents *)
      let broken =
        List.find_index (fun s -> match s.s_body with Garbage _ -> true | _ -> false) buf.segs
      in
      match broken with
      | Some j ->
          {
            buf with
            segs =
              update_at buf.segs j (fun s ->
                  match s.s_body with
                  | Garbage original -> { s with s_body = original }
                  | body -> { s with s_body = body });
          }
      | None when i mod 3 = 0 ->
          let j = nth_mod buf.segs (i / 3) in
          { buf with segs = update_at buf.segs j (fun s -> { s with s_body = Garbage s.s_body }) }
      | None -> buf)
  | Comment (i, k) ->
      let i = nth_mod buf.segs i in
      { buf with segs = update_at buf.segs i (fun s -> { s with s_comment = k }) }

(* Three fixed segments at the boundaries of front-end reuse: a top-level
   [val] opening an existential (its universal entry wraps every later
   obligation), a [ref] whose element type a later declaration fixes (a
   weak type variable), and an exception declaration (a unit that always
   runs the front end). *)
let boundary_segments =
  List.map
    (fun src -> { s_body = Corpus src; s_comment = 0 })
    [
      "exception DmlsegE of int\n";
      "val dmlseg_n = 3\nwhere dmlseg_n <| [m:nat | m < 8] int(m)\n";
      "val dmlseg_r = ref nil\nfun dmlseg_fix(x) = (dmlseg_r := x :: nil; x)\n\
       where dmlseg_fix <| int -> int\n";
    ]

(* The corpus programs, then the probes, with the boundary segments after
   the first half of the probes. *)
let buffer_of ~corpus ~probes =
  let corpus =
    List.map (fun (b : Pr.benchmark) -> { s_body = Corpus b.Pr.source; s_comment = 0 }) corpus
  in
  let probes =
    List.init probes (fun i ->
        {
          s_body = Probe { p_slot = i; p_suffix = 0; p_idx = i mod 4; p_rev = 0; p_bad = false };
          s_comment = 0;
        })
  in
  let half = List.length probes / 2 in
  let early = List.filteri (fun i _ -> i < half) probes in
  let late = List.filteri (fun i _ -> i >= half) probes in
  { segs = corpus @ early @ boundary_segments @ late; clipboard = None }

let initial_buffer () = buffer_of ~corpus:Pr.table_benchmarks ~probes:6

let gen_op rand =
  let r n = Random.State.int rand n in
  match r 9 with
  | 0 -> Rename (r 16, 1 + r 50)
  | 1 -> Rebound (r 16, r 32)
  | 2 -> Bump (r 16, r 1000)
  | 3 -> Toggle_bad (r 16)
  | 4 -> Swap (r 32, r 32)
  | 5 -> if r 2 = 0 then Delete (r 32) else Reinsert (r 32)
  | 6 -> Break (r 32)
  | 7 -> Comment (r 32, r 5)
  | _ -> Bump (r 16, r 1000)

(* Replay a script on a fresh state, running the differential after every
   step.  Returns the index of the first divergent step, if any. *)
let replay ops =
  let sess = session () in
  let st = I.create () in
  let buf = ref (initial_buffer ()) in
  let rec go i = function
    | [] -> None
    | op :: rest ->
        buf := apply !buf op;
        let src = render !buf.segs in
        let idoc, _ = incr_doc st sess src in
        if J.to_string idoc <> J.to_string (full_doc src) then Some i else go (i + 1) rest
  in
  go 0 ops

(* Greedy shrink: repeatedly drop any op whose removal keeps the script
   failing, to a local fixpoint. *)
let shrink ops =
  let drop i l = List.filteri (fun j _ -> j <> i) l in
  let rec fixpoint ops =
    let n = List.length ops in
    let rec try_drop i =
      if i >= n then None
      else
        let candidate = drop i ops in
        if replay candidate <> None then Some candidate else try_drop (i + 1)
    in
    match try_drop 0 with Some smaller -> fixpoint smaller | None -> ops
  in
  fixpoint ops

let fuzz_steps () =
  match Sys.getenv_opt "DML_INCR_FUZZ_STEPS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

(* [DML_INCR_FUZZ_SEED] is a comma-separated list of integers. *)
let fuzz_seed () =
  match Sys.getenv_opt "DML_INCR_FUZZ_SEED" with
  | None -> [| 0xD31; 0xE02 |]
  | Some s -> (
      match List.map int_of_string_opt (String.split_on_char ',' s) with
      | ints when ints <> [] && List.for_all Option.is_some ints ->
          Array.of_list (List.filter_map Fun.id ints)
      | _ -> Alcotest.failf "DML_INCR_FUZZ_SEED=%S is not a comma-separated list of integers" s)

let test_differential_fuzz () =
  let steps = fuzz_steps () in
  let rand = Random.State.make (fuzz_seed ()) in
  let sess = session () in
  let st = I.create () in
  let buf = ref (initial_buffer ()) in
  let script = ref [] in
  let report_steps = ref 0 and failure_steps = ref 0 in
  let reused_total = ref 0 and front_reused_total = ref 0 in
  (try
     for step = 1 to steps do
       let op = gen_op rand in
       script := !script @ [ op ];
       buf := apply !buf op;
       let src = render !buf.segs in
       let idoc, stats = incr_doc st sess src in
       (match stats with
       | Some s ->
           incr report_steps;
           reused_total := !reused_total + s.I.st_reused;
           front_reused_total := !front_reused_total + s.I.st_front_reused
       | None -> incr failure_steps);
       let fdoc = full_doc src in
       if J.to_string idoc <> J.to_string fdoc then begin
         let minimal = shrink !script in
         Alcotest.failf
           "incremental and full reports diverged at step %d (%s); minimal edit script (%d \
            ops):\n%s"
           step (op_to_string op) (List.length minimal)
           (String.concat "\n" (List.map op_to_string minimal))
       end
     done
   with Stack_overflow -> Alcotest.fail "stack overflow during fuzz");
  (* the run must have exercised both worlds: real incremental reports with
     genuine reuse, and failure documents (Break steps) that matched too *)
  Alcotest.(check bool) "mostly real reports" true (!report_steps >= steps / 2);
  Alcotest.(check bool) "some failure steps" true (steps < 50 || !failure_steps > 0);
  Alcotest.(check bool) "reuse actually happened" true (!reused_total > 0);
  Alcotest.(check bool) "front-end reuse happened" true (!front_reused_total > 0);
  Alcotest.(check bool) "store grew" true (I.stored_units st > 0)

(* --- deterministic regressions ----------------------------------------- *)

let callee g =
  Printf.sprintf
    "fun callee(a) = sub(a, 0)\nwhere callee <| {n:nat | n > %d} int array(n) -> int\n" g

let caller =
  "fun caller(a) = callee(a) + sub(a, 3)\nwhere caller <| {n:nat | n > 5} int array(n) -> int\n"

(* (a) editing a callee's interface must re-solve its callers: the caller's
   obligations quantify over the callee's type, so its digest (which folds
   in the callee's) changes too. *)
let test_callee_interface_edit () =
  let sess = session () in
  let st = I.create () in
  (match I.check st sess (callee 0 ^ "\n" ^ caller) with
  | Ok (_, s) -> Alcotest.(check int) "base units" 2 s.I.st_units
  | Error f -> Alcotest.fail (P.failure_to_string f));
  let edited = callee 1 ^ "\n" ^ caller in
  match I.check st sess edited with
  | Ok (rp, s) ->
      Alcotest.(check int) "both units dirty" 2 s.I.st_dirty;
      Alcotest.(check int) "nothing reused" 0 s.I.st_reused;
      Alcotest.(check string) "report matches cold full check"
        (J.to_string (full_doc edited))
        (J.to_string (scrub (R.of_report ~program:"fuzz" rp)))
  | Error f -> Alcotest.fail (P.failure_to_string f)

(* (b) a comment/whitespace-only edit dirties nothing and never calls the
   solver — unit digests are over the parsed, pretty-printed declarations,
   so concrete syntax trivia cannot reach them. *)
let test_comment_only_edit_is_free () =
  let src = callee 0 ^ "\n" ^ caller in
  let sess = session () in
  let st = I.create () in
  (match I.check st sess src with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (P.failure_to_string f));
  let decorated = "(* a comment *)\n\n" ^ callee 0 ^ "\n  \n(* more *)\n" ^ caller ^ "\n" in
  let goals_before = Metrics.value (Metrics.counter "solver.goals") in
  match I.check st sess decorated with
  | Ok (rp, s) ->
      Alcotest.(check int) "dirty" 0 s.I.st_dirty;
      Alcotest.(check int) "solver calls" 0 s.I.st_solver_calls;
      Alcotest.(check int) "reused" 2 s.I.st_reused;
      Alcotest.(check bool) "no solver goals ran" true
        (Metrics.value (Metrics.counter "solver.goals") = goals_before);
      Alcotest.(check string) "report matches cold full check"
        (J.to_string (full_doc decorated))
        (J.to_string (scrub (R.of_report ~program:"fuzz" rp)))
  | Error f -> Alcotest.fail (P.failure_to_string f)

(* (c) a top-level [val] wraps every later obligation in the prefix its
   type opens, whether or not the later unit names it: here [m < m] makes
   the prefix contradictory, so [g]'s [sub] is vacuously proven until [f]'s
   result changes.  The edit must re-solve [g], never reuse its verdict. *)
let val_prefix_program result =
  Printf.sprintf
    "fun f(x) = x\nwhere f <| int -> %s\nval k = f(0)\n\
     fun g(a) = sub(a, 5)\nwhere g <| {n:nat | n >= 1} int array(n) -> int\n"
    result

let test_val_prefix_edit () =
  let sess = session () in
  let st = I.create () in
  (match I.check st sess (val_prefix_program "[m:int | m < m] int(m)") with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (P.failure_to_string f));
  let edited = val_prefix_program "[m:int | m >= 0] int(m)" in
  match I.check st sess edited with
  | Ok (rp, _) ->
      let sub_valid =
        List.exists
          (fun co ->
            co.P.co_obligation.Dml_core.Elab.ob_what = "bound check for sub"
            && co.P.co_verdict = Dml_solver.Solver.Valid)
          rp.P.rp_obligations
      in
      Alcotest.(check bool) "g's sub is unproven" false sub_valid;
      Alcotest.(check string) "report matches cold full check"
        (J.to_string (full_doc edited))
        (J.to_string (scrub (R.of_report ~program:"fuzz" rp)))
  | Error f -> Alcotest.fail (P.failure_to_string f)

(* --- front-end reuse ------------------------------------------------------ *)

(* Units that run phases 1 and 2 on every check: every non-[fun] unit and
   every unit from the first top-level [val] onward. *)
let always_run src =
  let rec go = function
    | [] -> 0
    | Dml_lang.Ast.Tdec { ddesc = Dml_lang.Ast.Dval _; _ } :: _ as rest -> List.length rest
    | Dml_lang.Ast.Tdec { ddesc = Dml_lang.Ast.Dfun _; _ } :: rest -> go rest
    | _ :: rest -> 1 + go rest
  in
  go (Dml_lang.Parser.parse_program src)

(* The establishing check is cold (every unit dirty), so it is compared with
   a full check too. *)
let recheck name base edited =
  let sess = session () in
  let st = I.create () in
  (match I.check st sess base with
  | Ok (rp, _) ->
      Alcotest.(check string) (name ^ ": establishing check matches cold full check")
        (J.to_string (full_doc base))
        (J.to_string (scrub (R.of_report ~program:"fuzz" rp)))
  | Error f -> Alcotest.fail (P.failure_to_string f));
  match I.check st sess edited with
  | Ok (rp, s) ->
      Alcotest.(check string) (name ^ ": report matches cold full check")
        (J.to_string (full_doc edited))
        (J.to_string (scrub (R.of_report ~program:"fuzz" rp)));
      s
  | Error f -> Alcotest.fail (P.failure_to_string f)

let insert_before ~anchor text src =
  let n = String.length src and m = String.length anchor in
  let rec find i =
    if i + m > n then None else if String.sub src i m = anchor then Some i else find (i + 1)
  in
  match find 0 with
  | Some i -> String.sub src 0 i ^ text ^ String.sub src i (String.length src - i)
  | None -> Alcotest.failf "no %S in the buffer" anchor

let test_front_end_reuse () =
  let buf = buffer_of ~corpus:Pr.all ~probes:20 in
  let src = render buf.segs in
  let units = List.length (Dml_lang.Parser.parse_program src) in
  let always = always_run src in
  if units < 35 then Alcotest.failf "%d units, want about 40" units;
  Alcotest.(check bool) "a val splits the buffer" true (always > 3 && always < units / 2);
  (* a one-probe bound edit: only the edited probe reruns among the funs *)
  let edited = render (apply buf (Rebound (0, 3))).segs in
  let s = recheck "bound edit" src edited in
  Alcotest.(check int) "bound edit: front end runs for the dirty unit only" (1 + always)
    (s.I.st_units - s.I.st_front_reused);
  Alcotest.(check int) "bound edit: one unit re-solved" 1 s.I.st_dirty;
  (* a ~10% edit: a tenth of the units, each a probe, change at once *)
  let k = units / 10 in
  let bumped = List.fold_left (fun b i -> apply b (Bump (i, 1))) buf (List.init k Fun.id) in
  let edited = render bumped.segs in
  let s = recheck "10% edit" src edited in
  Alcotest.(check int) "10% edit: the edited units re-solved" k s.I.st_dirty;
  (* an end-of-line comment moves no token: every fun unit is reused *)
  let commented = insert_before ~anchor:"\nwhere dmlprobe0_0" " (* eol *)" src in
  let s = recheck "comment toggle" src commented in
  Alcotest.(check int) "comment toggle: every fun unit reused" (units - always) s.I.st_front_reused;
  Alcotest.(check int) "comment toggle: nothing re-solved" 0 s.I.st_dirty;
  (* a line inserted at the top moves every token: nothing is reused, and
     the stored locations never leak into the report *)
  let s = recheck "line at top" src ("(* top *)\n" ^ src) in
  Alcotest.(check int) "line at top: no front-end reuse" 0 s.I.st_front_reused;
  Alcotest.(check int) "line at top: nothing re-solved" 0 s.I.st_dirty

(* --- the acceptance criterion: >= 5x fewer solver calls ----------------- *)

(* For every Table 1 corpus program: establish it through check_patch, then
   send a 1-declaration edit (append an index-free helper).  The dml-check
   document must be byte-identical to a cold full check of the patched
   source, and the solver-call count — read off the metrics registry — must
   be at least 5x below the full check's. *)
let zero_probe = "fun dmlprobe(x) = x + 1\nwhere dmlprobe <| int -> int\n"

let patch_req ?base ~source () =
  J.Obj
    ([ ("op", J.String "check_patch"); ("id", J.Int 1); ("source", J.String source) ]
    @ match base with None -> [] | Some b -> [ ("base", J.String b) ])

let expect_ok name resp =
  match (J.member "ok" resp, J.member "result" resp) with
  | Some (J.Bool true), Some result -> result
  | _ -> Alcotest.failf "%s: expected an ok response, got %s" name (J.to_string resp)

let incr_field result name =
  match Option.bind (J.member "incr" result) (J.member name) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing incr field %s in %s" name (J.to_string result)

let source_id_of result =
  match Option.bind (J.member "incr" result) (J.member "source_id") with
  | Some (J.String s) -> s
  | _ -> Alcotest.fail "missing incr.source_id"

let test_corpus_patch_solver_calls () =
  List.iter
    (fun (b : Pr.benchmark) ->
      let options = { S.default_options with S.op_incremental = true } in
      let server = Server.create ~options () in
      let base_result =
        expect_ok (b.Pr.name ^ " base")
          (Server.handle server (patch_req ~source:b.Pr.source ()))
      in
      let patched = b.Pr.source ^ "\n" ^ zero_probe in
      let calls0 = Metrics.value (Metrics.counter "incr.solver_calls") in
      let patch_result =
        expect_ok (b.Pr.name ^ " patch")
          (Server.handle server
             (patch_req ~base:(source_id_of base_result) ~source:patched ()))
      in
      let incr_calls = Metrics.value (Metrics.counter "incr.solver_calls") - calls0 in
      Alcotest.(check int)
        (b.Pr.name ^ ": registry delta agrees with the incr object")
        (incr_field patch_result "solver_calls")
        incr_calls;
      let full_rp =
        match P.check_s (session ()) patched with
        | Ok rp -> rp
        | Error f -> Alcotest.fail (P.failure_to_string f)
      in
      let full_calls = List.length full_rp.P.rp_obligations in
      Alcotest.(check bool) (b.Pr.name ^ ": full check solves something") true (full_calls > 0);
      if incr_calls * 5 > full_calls then
        Alcotest.failf "%s: %d incremental solver calls vs %d full — less than 5x apart"
          b.Pr.name incr_calls full_calls;
      match J.member "check" patch_result with
      | Some doc ->
          Alcotest.(check string)
            (b.Pr.name ^ ": byte-identical to a cold full check")
            (J.to_string (scrub (R.of_report ~program:"-" full_rp)))
            (J.to_string (scrub doc))
      | None -> Alcotest.fail "missing check document")
    Pr.table_benchmarks

(* --- per-check warnings under the shared basis prelude ------------------- *)

let nonexhaustive = "datatype t = A | B\nfun f(x) = case x of A => 1\n"

let warnings_of what doc =
  match J.member "warnings" doc with
  | Some (J.List ws) ->
      Alcotest.(check int) (what ^ ": one warning") 1 (List.length ws);
      J.to_string (J.List ws)
  | _ -> Alcotest.failf "%s: no warnings in %s" what (J.to_string doc)

let test_warnings_per_recheck () =
  let st = I.create () and sess = session () in
  let direct () =
    match I.check st sess nonexhaustive with
    | Ok (rp, _) -> warnings_of "Incr.check" (R.of_report ~program:"-" rp)
    | Error f -> Alcotest.fail (P.failure_to_string f)
  in
  let first = direct () in
  Alcotest.(check string) "second Incr.check" first (direct ());
  let server = Server.create ~options:{ S.default_options with S.op_incremental = true } () in
  let served ?base source =
    let result = expect_ok "check_patch" (Server.handle server (patch_req ?base ~source ())) in
    match J.member "check" result with
    | Some doc -> (result, warnings_of "check_patch" doc)
    | None -> Alcotest.fail "missing check document"
  in
  let base, w1 = served nonexhaustive in
  let _, w2 = served ~base:(source_id_of base) (nonexhaustive ^ zero_probe) in
  Alcotest.(check string) "server, first check" first w1;
  Alcotest.(check string) "server, patched recheck" first w2

(* --- unit digests ------------------------------------------------------- *)

let parse src =
  match Dml_lang.Parser.parse_program src with
  | p -> p
  | exception e -> Alcotest.failf "parse failed: %s" (Printexc.to_string e)

let test_unit_digests () =
  let base = parse (callee 0 ^ "\n" ^ caller) in
  let ds = I.unit_digests base in
  Alcotest.(check int) "one digest per declaration" 2 (List.length ds);
  (* deterministic *)
  Alcotest.(check (list string)) "stable" ds (I.unit_digests (parse (callee 0 ^ "\n" ^ caller)));
  (* an interface edit changes the callee's digest and its caller's *)
  let edited = I.unit_digests (parse (callee 1 ^ "\n" ^ caller)) in
  List.iter2
    (fun d d' -> Alcotest.(check bool) "digest changed" true (d <> d'))
    ds edited;
  (* an earlier top-level val is an edge whether or not the unit names it *)
  let after_val v = List.nth (I.unit_digests (parse (Printf.sprintf "val k = %d\n%s" v caller))) 1 in
  Alcotest.(check bool) "val edge" true (after_val 1 <> after_val 2);
  (* trivia never reaches a digest *)
  Alcotest.(check (list string)) "comment-insensitive" ds
    (I.unit_digests (parse ("(* x *)\n" ^ callee 0 ^ "\n(* y *)\n" ^ caller)))

(* --- unit-grain re-parse ---------------------------------------------- *)

(* A recheck lexes and parses only the declarations an edit reaches: an
   edit inside one body re-parses that declaration; one that adds a line
   re-parses it and every declaration below it, which moved. *)
let test_reparse_proportional () =
  let sess = session () in
  let st = I.create () in
  let src ?(extra = "") k =
    String.concat ""
      (List.init 8 (fun i ->
           Printf.sprintf "fun f%d(a) = sub(a, %d)%s\nwhere f%d <| int array(10) -> int\n" i
             (if i = 4 then k else 1)
             (if i = 4 then extra else "")
             i))
  in
  let reparsed what src =
    let idoc, stats = incr_doc st sess src in
    Alcotest.(check string) (what ^ ": same report as a cold check") (J.to_string (full_doc src))
      (J.to_string idoc);
    match stats with
    | Some s -> s.I.st_reparsed
    | None -> Alcotest.failf "%s: check failed" what
  in
  Alcotest.(check int) "first check parses every declaration" 8 (reparsed "first" (src 1));
  Alcotest.(check int) "a constant in one body" 1 (reparsed "constant" (src 2));
  Alcotest.(check int) "a comment in one body" 1 (reparsed "comment" (src ~extra:" (* c *)" 2));
  Alcotest.(check int) "a line inside the fifth" 4 (reparsed "line" (src ~extra:"\n" 2));
  Alcotest.(check int) "a line at the top" 8 (reparsed "top" ("\n" ^ src ~extra:"\n" 2))

(* --- byte-stability guard ----------------------------------------------- *)

(* With op_incremental unset, the incremental checker may not perturb
   options JSON, fingerprints or memo keys: the constants are pinned here
   verbatim, so any accidental unconditional field shows up as a diff. *)
let test_fingerprint_stability () =
  Alcotest.(check string) "default options JSON"
    {|{"solve":{"method":"fm","fuel":null,"timeout_ms":null,"max_eliminations":null},"cache":null,"jobs":null}|}
    (J.to_string (S.options_to_json S.default_options));
  Alcotest.(check string) "default fingerprint" "a5fa40d13d827c1662aa4c0da81cf34b"
    (S.fingerprint S.default_options);
  Alcotest.(check string) "memo key shape"
    "071ff3dd54ba73a5c062b276fd74a102:a5fa40d13d827c1662aa4c0da81cf34b:\
     336d5ebc5436534e61d16e63ddfca327"
    (Server.memo_key S.default_options ~program:"-" "val x = 1");
  (* and with the flag set, the fingerprint moves *)
  let on = { S.default_options with S.op_incremental = true } in
  Alcotest.(check bool) "incremental fingerprint differs" true
    (S.fingerprint on <> S.fingerprint S.default_options)

(* The unit store is bounded: every edit below stores one new version of
   [caller] (its digest changes, the callee's does not), so
   [unit_capacity + k] distinct edits leave exactly [unit_capacity] units.
   Editing back to the first, long evicted version re-solves it and still
   reports exactly what a cold check does. *)
let test_store_bounded () =
  let sess = session () in
  let st = I.create () in
  let version k =
    callee 0 ^ "\nfun caller(a) = callee(a) + sub(a, 3) + " ^ string_of_int k
    ^ "\nwhere caller <| {n:nat | n > 5} int array(n) -> int\n"
  in
  let edits = I.unit_capacity + 8 in
  for k = 1 to edits do
    match I.check st sess (version k) with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "edit %d: %s" k (P.failure_to_string f)
  done;
  Alcotest.(check int) "store holds its capacity" I.unit_capacity (I.stored_units st);
  let idoc, stats = incr_doc st sess (version 1) in
  (match stats with
  | Some s -> Alcotest.(check int) "the evicted version is solved again" 1 s.I.st_dirty
  | None -> Alcotest.fail "edit back failed");
  Alcotest.(check string) "edit back equals a cold check" (J.to_string (full_doc (version 1)))
    (J.to_string idoc);
  Alcotest.(check int) "still at capacity" I.unit_capacity (I.stored_units st)

(* The bound never evicts the last check's units: in a buffer with more
   declarations than [unit_capacity], a one-declaration edit re-solves that
   declaration alone and reuses every other, as an unbounded store does;
   afterwards the store holds exactly the live units (the declarations and
   the basis), the edited declaration's old version evicted. *)
let test_store_keeps_live_units () =
  let sess = session () in
  let st = I.create () in
  let n = I.unit_capacity + 4 in
  let buffer last =
    String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf "fun f%d(x) = x + %d" i (if i = n - 1 then last else i)))
  in
  (match I.check st sess (buffer 0) with
  | Ok (_, s) -> Alcotest.(check int) "cold: every unit solved" n s.I.st_dirty
  | Error f -> Alcotest.fail (P.failure_to_string f));
  (match I.check st sess (buffer 1) with
  | Ok (_, s) ->
      Alcotest.(check int) "one unit re-solved" 1 s.I.st_dirty;
      Alcotest.(check int) "every other unit reused" (n - 1) s.I.st_reused
  | Error f -> Alcotest.fail (P.failure_to_string f));
  Alcotest.(check int) "store holds the live units" (n + 1) (I.stored_units st)

let () =
  Alcotest.run "incr"
    [
      ( "differential",
        [
          Alcotest.test_case "edit-sequence fuzz" `Slow test_differential_fuzz;
          Alcotest.test_case "callee interface edit re-solves callers" `Quick
            test_callee_interface_edit;
          Alcotest.test_case "comment-only edit is free" `Quick test_comment_only_edit_is_free;
          Alcotest.test_case "val prefix edit re-solves later units" `Quick test_val_prefix_edit;
          Alcotest.test_case "front-end reuse" `Quick test_front_end_reuse;
          Alcotest.test_case "unit store is bounded" `Quick test_store_bounded;
          Alcotest.test_case "unit store keeps the live units" `Quick test_store_keeps_live_units;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "corpus 1-decl patches: >=5x fewer solver calls" `Slow
            test_corpus_patch_solver_calls;
        ] );
      ( "units",
        [
          Alcotest.test_case "unit digests" `Quick test_unit_digests;
          Alcotest.test_case "fingerprint byte-stability" `Quick test_fingerprint_stability;
          Alcotest.test_case "warnings are per recheck" `Quick test_warnings_per_recheck;
          Alcotest.test_case "edits re-parse what they reach" `Quick test_reparse_proportional;
        ] );
    ]
