(* The constraint-verdict cache: canonicalization identifies goals up to
   alpha-renaming, conjunct order and integer-equivalent atoms; the store
   evicts LRU and survives (or gracefully ignores) a damaged disk layer;
   tier rules keep reuse sound; and the oracle property — cache-on and
   cache-off produce identical verdicts — holds over the whole benchmark
   corpus and over generated token soup. *)

open Dml_index
open Dml_constr
open Dml_cache
open Dml_solver
open Dml_core
open Idx

let v = Ivar.fresh
let le a b = Bcmp (Rle, a, b)
let lt a b = Bcmp (Rlt, a, b)
let ge a b = Bcmp (Rge, a, b)
let eq a b = Bcmp (Req, a, b)
let goal vars hyps concl = { Constr.goal_vars = vars; goal_hyps = hyps; goal_concl = concl }

let check_digest_eq msg g1 g2 =
  Alcotest.(check string) msg (Canon.canonical g1) (Canon.canonical g2);
  Alcotest.(check string) (msg ^ " (digest)") (Canon.digest g1) (Canon.digest g2)

let check_digest_ne msg g1 g2 =
  Alcotest.(check bool) msg true (Canon.digest g1 <> Canon.digest g2)

(* --- canonicalization ------------------------------------------------------ *)

(* [0 <= x, x < n |- x <= n] under two independent sets of fresh binders *)
let indexing_goal () =
  let x = v "x" and n = v "n" in
  goal
    [ (x, Sint); (n, Sint) ]
    [ le (Iconst 0) (Ivar x); lt (Ivar x) (Ivar n) ]
    (le (Ivar x) (Ivar n))

let test_alpha_renaming () =
  let g1 = indexing_goal () in
  let a = v "completely_different" and b = v "names" in
  let g2 =
    goal
      [ (a, Sint); (b, Sint) ]
      [ le (Iconst 0) (Ivar a); lt (Ivar a) (Ivar b) ]
      (le (Ivar a) (Ivar b))
  in
  check_digest_eq "alpha-renamed goals canonicalize equal" g1 g2

let test_hyp_order_and_duplication () =
  let x = v "x" and n = v "n" in
  let h1 = le (Iconst 0) (Ivar x) and h2 = lt (Ivar x) (Ivar n) in
  let concl = le (Ivar x) (Ivar n) in
  let vars = [ (x, Sint); (n, Sint) ] in
  check_digest_eq "hypothesis order is canonicalized away"
    (goal vars [ h1; h2 ] concl)
    (goal vars [ h2; h1 ] concl);
  check_digest_eq "duplicate hypotheses are deduplicated"
    (goal vars [ h1; h2 ] concl)
    (goal vars [ h1; h2; h1 ] concl);
  check_digest_eq "a conjoined hypothesis equals the split list"
    (goal vars [ Band (h1, h2) ] concl)
    (goal vars [ h2; h1 ] concl);
  check_digest_eq "nested conjunction flattens"
    (goal vars [ Band (h1, Band (h2, h1)) ] concl)
    (goal vars [ h1; h2 ] concl)

let test_atom_equivalences () =
  let x = v "x" and y = v "y" in
  let vars = [ (x, Sint); (y, Sint) ] in
  let g c = goal vars [] c in
  check_digest_eq "x < y equals x + 1 <= y (integrality)"
    (g (lt (Ivar x) (Ivar y)))
    (g (le (Iadd (Ivar x, Iconst 1)) (Ivar y)));
  check_digest_eq "2x <= 4 equals x <= 2 (gcd division)"
    (g (le (Imul (Iconst 2, Ivar x)) (Iconst 4)))
    (g (le (Ivar x) (Iconst 2)));
  check_digest_eq "x <= y equals y >= x (direction)"
    (g (le (Ivar x) (Ivar y)))
    (g (ge (Ivar y) (Ivar x)));
  check_digest_eq "3x = 3y equals x = y"
    (g (eq (Imul (Iconst 3, Ivar x)) (Imul (Iconst 3, Ivar y))))
    (g (eq (Ivar x) (Ivar y)))

let test_distinct_goals_differ () =
  let x = v "x" and n = v "n" in
  let vars = [ (x, Sint); (n, Sint) ] in
  check_digest_ne "different bounds differ"
    (goal vars [] (le (Ivar x) (Iconst 1)))
    (goal vars [] (le (Ivar x) (Iconst 2)));
  check_digest_ne "different hypotheses differ"
    (goal vars [ le (Iconst 0) (Ivar x) ] (le (Ivar x) (Ivar n)))
    (goal vars [ le (Iconst 1) (Ivar x) ] (le (Ivar x) (Ivar n)));
  check_digest_ne "conclusion vs hypothesis roles differ"
    (goal vars [ le (Ivar x) (Ivar n) ] (le (Iconst 0) (Ivar x)))
    (goal vars [ le (Iconst 0) (Ivar x) ] (le (Ivar x) (Ivar n)))

(* Conclusions tested under one physically shared hypothesis list (the
   inference fixpoint's spine and per-conjunct tests) reuse its rendered
   hypothesis half; every member must still canonicalize exactly as the
   same goal built from fresh lists, including a conclusion-only variable
   bound before the hypotheses' ones. *)
let test_hypothesis_family () =
  let y = v "y" and x = v "x" and n = v "n" in
  let vars = [ (y, Sint); (x, Sint); (n, Sint) ] in
  let hyps = [ le (Iconst 0) (Ivar x); lt (Ivar x) (Ivar n) ] in
  let g1 = goal vars hyps (le (Ivar x) (Ivar n)) in
  let g2 = { g1 with Constr.goal_concl = le (Ivar y) (Ivar n) } in
  let fresh g =
    goal (List.map Fun.id g.Constr.goal_vars) (List.map Fun.id g.Constr.goal_hyps)
      g.Constr.goal_concl
  in
  List.iter
    (fun (msg, g) -> check_digest_eq msg g (fresh g))
    [ ("family spine", g1); ("conclusion-only variable", g2); ("spine again", g1) ];
  check_digest_ne "the conclusion-only variable is numbered" g1 g2;
  let y' = v "y'" and x' = v "x'" and n' = v "n'" in
  check_digest_eq "family member alpha-renamed" g2
    (goal
       [ (y', Sint); (x', Sint); (n', Sint) ]
       [ lt (Ivar x') (Ivar n'); le (Iconst 0) (Ivar x') ]
       (le (Ivar y') (Ivar n')))

let test_nonaffine_stable () =
  let x = v "x" and n = v "n" in
  let g1 =
    goal
      [ (x, Sint); (n, Sint) ]
      [ le (Iconst 0) (Ivar x) ]
      (le (Idiv (Ivar x, Iconst 2)) (Ivar n))
  in
  let a = v "a" and b = v "b" in
  let g2 =
    goal
      [ (a, Sint); (b, Sint) ]
      [ le (Iconst 0) (Ivar a) ]
      (le (Idiv (Ivar a, Iconst 2)) (Ivar b))
  in
  check_digest_eq "non-affine atoms canonicalize structurally" g1 g2

(* --- the benchmark corpus: functionality and no collisions ------------------ *)

let corpus_goals () =
  List.concat_map
    (fun (b : Dml_programs.Programs.benchmark) ->
      match Pipeline.check_s (Session.create ()) b.Dml_programs.Programs.source with
      | Error _ -> []
      | Ok r ->
          List.concat_map
            (fun co ->
              let c =
                Constr.eliminate_existentials co.Pipeline.co_obligation.Elab.ob_constr
              in
              match Constr.goals c with Ok gs -> gs | Error _ -> [])
            r.Pipeline.rp_obligations)
    Dml_programs.Programs.all

let test_corpus_no_collisions () =
  let goals = corpus_goals () in
  Alcotest.(check bool) "corpus yields goals" true (List.length goals > 50);
  let by_digest : (string, string) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun g ->
      let d = Canon.digest g and c = Canon.canonical g in
      Alcotest.(check int) "digest is 32 hex chars" Canon.digest_hex_length
        (String.length d);
      match Hashtbl.find_opt by_digest d with
      | None -> Hashtbl.add by_digest d c
      | Some c' ->
          Alcotest.(check string) "equal digests imply equal canonical forms" c' c)
    goals;
  (* sharing exists: strictly fewer classes than goals, but more than one *)
  let classes = Hashtbl.length by_digest in
  Alcotest.(check bool) "several digest classes" true (classes > 1);
  Alcotest.(check bool) "goals shared across the corpus" true
    (classes < List.length goals)

(* --- the canonical-form golden ------------------------------------------------ *)

(* Every corpus program and its erased twin, elaborated through the
   pipeline's front end, recorded as one row: the number of solver goals
   and the MD5 of their [Canon.canonical] strings.  The canonical string is
   the pre-image of every cache key, so a row that moves means an existing
   [--cache-dir] directory stops hitting for that program.

   Regenerating after an intentional change to the canonical form:
     DML_CANON_GOLDEN=$PWD/test/canon_golden.txt \
       dune exec test/test_cache.exe -- test canon *)

module Pr = Dml_programs.Programs

let canon_row name src =
  match Pipeline.frontend src with
  | Error f -> Alcotest.failf "%s: %s" name (Pipeline.failure_to_string f)
  | Ok fe ->
      let goals =
        List.concat_map
          (fun ob ->
            match Constr.goals (Constr.eliminate_existentials ob.Elab.ob_constr) with
            | Ok gs -> gs
            | Error _ -> [])
          fe.Pipeline.fe_obligations
      in
      let canon = String.concat "\n" (List.map Canon.canonical goals) in
      Printf.sprintf "%s\t%d\t%s" name (List.length goals) (Digest.to_hex (Digest.string canon))

let test_canon_golden () =
  let rows =
    List.concat_map
      (fun (b : Pr.benchmark) ->
        [
          canon_row b.Pr.name b.Pr.source;
          canon_row (b.Pr.name ^ ":unannotated") (Pr.unannotated b);
        ])
      Pr.all
  in
  let got = String.concat "\n" rows ^ "\n" in
  match Sys.getenv_opt "DML_CANON_GOLDEN" with
  | Some out ->
      Out_channel.with_open_bin out (fun oc -> output_string oc got);
      print_endline ("wrote golden canonical forms to " ^ out)
  | None ->
      let path =
        if Sys.file_exists "canon_golden.txt" then "canon_golden.txt"
        else "test/canon_golden.txt"
      in
      let want = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "canonical-form rows match the golden file" want got

(* --- LRU eviction ----------------------------------------------------------- *)

let entry tier verdict = { Store.e_tier = tier; e_verdict = verdict }

let test_lru_eviction () =
  let s = Store.create ~max_entries:2 () in
  Store.add s "k1" (entry 1 Store.Valid);
  Store.add s "k2" (entry 1 Store.Valid);
  (* touch k1 so k2 is the least recently used *)
  ignore (Store.find s "k1");
  Store.add s "k3" (entry 1 Store.Valid);
  Alcotest.(check int) "capacity respected" 2 (Store.size s);
  Alcotest.(check int) "one eviction" 1 (Store.evictions s);
  Alcotest.(check bool) "LRU key evicted" true (Store.find s "k2" = None);
  Alcotest.(check bool) "touched key survives" true (Store.find s "k1" <> None);
  Alcotest.(check bool) "new key present" true (Store.find s "k3" <> None)

let test_cache_eviction_counter () =
  (* the memo table has a fixed size: one digest past it evicts the oldest *)
  let c = Cache.create () in
  for i = 0 to Store.memo_capacity do
    Cache.add c ~digest:(Printf.sprintf "d%d" i) ~method_:"fm" ~tier:1 Cache.Valid
  done;
  let s = Cache.snapshot c in
  Alcotest.(check int) "eviction counted" 1 s.Cache.s_evictions;
  Alcotest.(check int) "entries bounded" Store.memo_capacity s.Cache.s_entries;
  Alcotest.(check bool) "evicted digest misses" true
    (Cache.find c ~digest:"d0" ~method_:"fm" ~tier:1 = None)

(* --- budget-tier reuse rules ------------------------------------------------- *)

let test_tier_rules () =
  let c = Cache.create () in
  (* circumstantial: reusable only at equal-or-smaller tier *)
  Cache.add c ~digest:"t" ~method_:"fm" ~tier:3 (Cache.Timeout "fuel");
  Alcotest.(check bool) "timeout reused at smaller tier" true
    (Cache.find c ~digest:"t" ~method_:"fm" ~tier:2 <> None);
  Alcotest.(check bool) "timeout reused at equal tier" true
    (Cache.find c ~digest:"t" ~method_:"fm" ~tier:3 <> None);
  Alcotest.(check bool) "timeout discarded when the budget grew" true
    (Cache.find c ~digest:"t" ~method_:"fm" ~tier:4 = None);
  (* definitive: reusable unconditionally *)
  Cache.add c ~digest:"v" ~method_:"fm" ~tier:3 Cache.Valid;
  Alcotest.(check bool) "valid reused at any tier" true
    (Cache.find c ~digest:"v" ~method_:"fm" ~tier:max_int = Some Cache.Valid);
  (* a definitive verdict is never downgraded by a circumstantial one *)
  Cache.add c ~digest:"v" ~method_:"fm" ~tier:1 (Cache.Timeout "late");
  Alcotest.(check bool) "definitive survives circumstantial add" true
    (Cache.find c ~digest:"v" ~method_:"fm" ~tier:max_int = Some Cache.Valid);
  (* among circumstantial, the larger tier wins *)
  Cache.add c ~digest:"t" ~method_:"fm" ~tier:5 (Cache.Timeout "later");
  Alcotest.(check bool) "circumstantial upgraded to the larger tier" true
    (Cache.find c ~digest:"t" ~method_:"fm" ~tier:4 <> None);
  (* methods are independent key components *)
  Alcotest.(check bool) "method is part of the key" true
    (Cache.find c ~digest:"v" ~method_:"simplex" ~tier:1 = None)

(* --- persistence: roundtrip and damage hygiene -------------------------------- *)

let temp_dir () = Filename.temp_dir "dml-cache-test" ""

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.add s1 "key" (entry 7 (Store.Not_valid "cex"));
  let s2 = Store.create ~dir () in
  (match Store.find s2 "key" with
  | Some (e, `Disk) ->
      Alcotest.(check int) "tier survives the roundtrip" 7 e.Store.e_tier;
      Alcotest.(check bool) "verdict survives the roundtrip" true
        (e.Store.e_verdict = Store.Not_valid "cex")
  | Some (_, `Mem) -> Alcotest.fail "fresh store answered from memory"
  | None -> Alcotest.fail "persisted entry not found");
  (* the disk hit was promoted: a second lookup is a memo hit *)
  match Store.find s2 "key" with
  | Some (_, `Mem) -> ()
  | _ -> Alcotest.fail "disk hit was not promoted into the memo table"

let flip_last_byte path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let b = Bytes.of_string b in
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_bit_flip_is_a_miss () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.add s1 "key" (entry 3 Store.Valid);
  let path = Option.get (Store.disk_file s1 "key") in
  flip_last_byte path;
  let s2 = Store.create ~dir () in
  Alcotest.(check bool) "bit-flipped entry is a miss" true (Store.find s2 "key" = None);
  Alcotest.(check int) "corruption counted" 1 (Store.corrupt_entries s2)

let test_truncation_is_a_miss () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.add s1 "key" (entry 3 (Store.Timeout "deadline exceeded after a while"));
  let path = Option.get (Store.disk_file s1 "key") in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic (n / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc b;
  close_out oc;
  let s2 = Store.create ~dir () in
  Alcotest.(check bool) "truncated entry is a miss" true (Store.find s2 "key" = None);
  Alcotest.(check int) "corruption counted" 1 (Store.corrupt_entries s2)

let test_foreign_file_is_a_miss () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.add s1 "key" (entry 1 Store.Valid);
  let path = Option.get (Store.disk_file s1 "key") in
  let oc = open_out_bin path in
  output_string oc "this is not a cache entry at all\n";
  close_out oc;
  let s2 = Store.create ~dir () in
  Alcotest.(check bool) "foreign file is a miss" true (Store.find s2 "key" = None);
  Alcotest.(check bool) "corruption counted" true (Store.corrupt_entries s2 >= 1)

let test_cache_level_corruption () =
  let dir = temp_dir () in
  let c1 = Cache.create ~config:{ Cache.dir = Some dir } () in
  Cache.add c1 ~digest:"deadbeef" ~method_:"fm" ~tier:2 Cache.Valid;
  let files = Sys.readdir dir in
  Alcotest.(check int) "one entry persisted" 1 (Array.length files);
  flip_last_byte (Filename.concat dir files.(0));
  let c2 = Cache.create ~config:{ Cache.dir = Some dir } () in
  Alcotest.(check bool) "corrupt disk entry becomes a cache miss" true
    (Cache.find c2 ~digest:"deadbeef" ~method_:"fm" ~tier:2 = None);
  Alcotest.(check int) "snapshot reports the corruption" 1
    (Cache.snapshot c2).Cache.s_corrupt

(* Regression: the temp-file name must be unique per in-flight write even
   within one process — a pid-only suffix collides when two tasks of the
   same process write the same key, one renaming the other's half-written
   file into place.  The fault-injection hook runs while the temp file is
   open, so [readdir] observes each write's temp name. *)
let test_tmp_names_unique () =
  let dir = temp_dir () in
  let s = Store.create ~dir () in
  let seen = ref [] in
  let capture _oc =
    Array.iter
      (fun f -> if not (Filename.check_suffix f ".dmlv") then seen := f :: !seen)
      (Sys.readdir dir)
  in
  Store.write_fault_injection := capture;
  Fun.protect
    ~finally:(fun () -> Store.write_fault_injection := (fun _ -> ()))
    (fun () ->
      Store.add s "k" (entry 1 Store.Valid);
      Store.add s "k" (entry 1 Store.Valid));
  match !seen with
  | [ b; a ] ->
      Alcotest.(check bool) "temp names of successive writes differ" true (a <> b)
  | l -> Alcotest.failf "expected two temp files over two writes, saw %d" (List.length l)

(* --- crash safety: quarantine, bounded growth, concurrent writers ------------- *)

(* A corrupt entry is not only a miss: it is renamed aside (so it is never
   re-read and re-rejected on every lookup) and counted. *)
let test_quarantine () =
  let dir = temp_dir () in
  let s1 = Store.create ~dir () in
  Store.add s1 "key" (entry 3 Store.Valid);
  let path = Option.get (Store.disk_file s1 "key") in
  flip_last_byte path;
  let s2 = Store.create ~dir () in
  Alcotest.(check bool) "corrupt entry is a miss" true (Store.find s2 "key" = None);
  Alcotest.(check int) "quarantine counted" 1 (Store.quarantined s2);
  Alcotest.(check bool) "entry renamed aside" true (Sys.file_exists (path ^ ".bad"));
  Alcotest.(check bool) "poisoned file gone" false (Sys.file_exists path);
  (* the slot is writable again, and the rewrite reads back *)
  Store.add s2 "key" (entry 3 Store.Valid);
  let s3 = Store.create ~dir () in
  (match Store.find s3 "key" with
  | Some (e, `Disk) -> Alcotest.(check int) "rewritten entry reads back" 3 e.Store.e_tier
  | _ -> Alcotest.fail "rewritten entry not found");
  Alcotest.(check int) "no further quarantine" 0 (Store.quarantined s3)

let dmlv_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".dmlv")

let test_sweep_cap () =
  let dir = temp_dir () in
  let s = Store.create ~dir ~max_disk_entries:3 () in
  for i = 1 to 8 do
    Store.add s (Printf.sprintf "key%d" i) (entry 1 Store.Valid);
    (* distinct mtimes, so oldest-first is deterministic *)
    Unix.sleepf 0.01
  done;
  Store.sweep s;
  Alcotest.(check int) "swept down to the entry cap" 3 (List.length (dmlv_files dir));
  Alcotest.(check bool) "evictions counted" true (Store.disk_evictions s >= 5);
  (* quarantined copies count toward the cap and age out with everything
     else: push the directory over again with fresh entries, and the old
     group — the renamed .bad among it — is what gets reclaimed *)
  let survivor = List.hd (dmlv_files dir) in
  Sys.rename (Filename.concat dir survivor) (Filename.concat dir (survivor ^ ".bad"));
  Unix.sleepf 0.01;
  for i = 9 to 11 do
    Store.add s (Printf.sprintf "key%d" i) (entry 1 Store.Valid);
    Unix.sleepf 0.01
  done;
  Store.sweep s;
  Alcotest.(check bool) "quarantined copy swept under the cap" false
    (Sys.file_exists (Filename.concat dir (survivor ^ ".bad")));
  Alcotest.(check int) "still at the cap" 3 (List.length (dmlv_files dir))

let test_sweep_byte_cap () =
  let dir = temp_dir () in
  let s0 = Store.create ~dir () in
  Store.add s0 "k1" (entry 1 Store.Valid);
  Unix.sleepf 0.01;
  Store.add s0 "k2" (entry 1 Store.Valid);
  let bytes =
    List.fold_left
      (fun a f -> a + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (dmlv_files dir)
  in
  (* a budget one byte short of both entries: creating a capped store over
     the directory sweeps exactly the older one *)
  let _s = Store.create ~dir ~max_disk_bytes:(bytes - 1) () in
  Alcotest.(check int) "byte cap enforced at open" 1 (List.length (dmlv_files dir))

(* Many processes writing the same directory — including the same keys —
   must never produce a torn read: tmp+rename keeps every published entry
   whole, whichever writer wins. *)
let test_concurrent_writers () =
  let dir = temp_dir () in
  let n_writers = 4 and n_keys = 25 in
  let pids =
    List.init n_writers (fun w ->
        match Unix.fork () with
        | 0 ->
            let s = Store.create ~dir () in
            for i = 1 to n_keys do
              Store.add s (Printf.sprintf "key%d" i) (entry ((w + i) mod 5) Store.Valid)
            done;
            Unix._exit 0
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "writer exited cleanly" true (status = Unix.WEXITED 0))
    pids;
  let s = Store.create ~dir () in
  for i = 1 to n_keys do
    match Store.find s (Printf.sprintf "key%d" i) with
    | Some ({ Store.e_verdict = Store.Valid; _ }, _) -> ()
    | Some _ -> Alcotest.failf "key%d read back a wrong verdict" i
    | None -> Alcotest.failf "key%d unreadable after concurrent writes" i
  done;
  Alcotest.(check int) "no torn entries" 0 (Store.corrupt_entries s);
  Alcotest.(check int) "nothing quarantined" 0 (Store.quarantined s);
  Alcotest.(check int) "every writer's files were counted once" n_keys
    (List.length (dmlv_files dir))

(* --- solver integration ------------------------------------------------------- *)

let test_solver_hits () =
  let cache = Cache.create () in
  let stats = Solver.new_stats () in
  let g = indexing_goal () in
  let v1 = Solver.check_goal ~stats ~cache g in
  Alcotest.(check bool) "goal is valid" true (v1 = Solver.Valid);
  Alcotest.(check int) "first call misses" 1 stats.Solver.cache_misses;
  Alcotest.(check int) "no hit yet" 0 stats.Solver.cache_hits;
  (* an alpha-variant of the same goal: answered from the cache *)
  let a = v "a" and b = v "b" in
  let g' =
    goal
      [ (a, Sint); (b, Sint) ]
      [ le (Iconst 0) (Ivar a); lt (Ivar a) (Ivar b) ]
      (le (Ivar a) (Ivar b))
  in
  let v2 = Solver.check_goal ~stats ~cache g' in
  Alcotest.(check bool) "cached verdict replayed" true (v2 = v1);
  Alcotest.(check int) "second call hits" 1 stats.Solver.cache_hits;
  Alcotest.(check int) "hit still counts as a checked goal" 2 stats.Solver.checked_goals

(* --- the oracle property over the benchmark corpus ----------------------------- *)

(* Under the default (unlimited) configuration solving is deterministic, so
   cache-on and cache-off must agree verdict for verdict.  (With finite
   budgets a warm cache may legitimately *improve* verdicts — hits spend no
   fuel — which is why the oracle runs unlimited.) *)
let project ?cache src =
  match Pipeline.check_s (Session.create ?cache ()) src with
  | Error f -> Error (Pipeline.failure_to_string f)
  | Ok r ->
      Ok
        ( r.Pipeline.rp_valid,
          List.map (fun co -> co.Pipeline.co_verdict) r.Pipeline.rp_obligations )

let test_oracle_equivalence () =
  let warm = Cache.create () in
  List.iter
    (fun (b : Dml_programs.Programs.benchmark) ->
      let name = b.Dml_programs.Programs.name in
      let src = b.Dml_programs.Programs.source in
      let bare = project src in
      let cold = project ~cache:(Cache.create ()) src in
      let first = project ~cache:warm src in
      let second = project ~cache:warm src in
      Alcotest.(check bool) (name ^ ": cold cache matches no cache") true (cold = bare);
      Alcotest.(check bool) (name ^ ": shared cache matches no cache") true (first = bare);
      Alcotest.(check bool) (name ^ ": warm replay matches no cache") true (second = bare))
    Dml_programs.Programs.all

(* --- warm batch pass: strictly fewer solver calls ------------------------------- *)

let test_warm_pass_amortizes () =
  let cache = Cache.create () in
  let run_pass () =
    let before = Cache.snapshot cache in
    List.iter
      (fun (b : Dml_programs.Programs.benchmark) ->
        match Pipeline.check_s (Session.create ~cache ()) b.Dml_programs.Programs.source with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "static failure: %s" (Pipeline.failure_to_string f))
      Dml_programs.Programs.table_benchmarks;
    Cache.diff (Cache.snapshot cache) before
  in
  let p1 = run_pass () in
  let p2 = run_pass () in
  (* misses are exactly the solver calls made under a cache *)
  Alcotest.(check bool) "cold pass solves" true (p1.Cache.s_misses > 0);
  Alcotest.(check bool) "cold pass already shares goals" true (p1.Cache.s_hits > 0);
  Alcotest.(check int) "warm pass performs zero solver calls" 0 p2.Cache.s_misses;
  Alcotest.(check bool) "warm pass answers everything from the cache" true
    (p2.Cache.s_hits >= p1.Cache.s_misses);
  Alcotest.(check bool) "warm pass strictly fewer solver calls than cold" true
    (p2.Cache.s_misses < p1.Cache.s_misses)

(* --- token soup: cache-on/off equivalence on arbitrary inputs --------------------- *)

let token_fragments =
  [|
    "fun "; "val "; "let "; "in "; "end "; "if "; "then "; "else "; "where ";
    "sub"; "update"; "array"; "length "; "("; ")"; "{"; "}"; "["; "]"; "<|";
    "->"; "="; "<"; "<="; "+"; "-"; "*"; ","; ";"; ":"; "x"; "y "; "i ";
    "0 "; "1 "; "42 "; "nat"; "int"; "bool "; "true "; "false "; "\n"; "  ";
  |]

let gen_token_soup =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 40) (oneofa token_fragments)))

let prop_token_soup_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"cache preserves outcomes on token soup"
       gen_token_soup (fun src -> project src = project ~cache:(Cache.create ()) src))

let () =
  Alcotest.run "cache"
    [
      ( "canon",
        [
          Alcotest.test_case "alpha renaming" `Quick test_alpha_renaming;
          Alcotest.test_case "hypothesis order" `Quick test_hyp_order_and_duplication;
          Alcotest.test_case "atom equivalences" `Quick test_atom_equivalences;
          Alcotest.test_case "distinct goals" `Quick test_distinct_goals_differ;
          Alcotest.test_case "non-affine atoms" `Quick test_nonaffine_stable;
          Alcotest.test_case "hypothesis family" `Quick test_hypothesis_family;
          Alcotest.test_case "corpus collisions" `Quick test_corpus_no_collisions;
          Alcotest.test_case "corpus canonical forms" `Quick test_canon_golden;
        ] );
      ( "store",
        [
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "cache eviction counter" `Quick test_cache_eviction_counter;
          Alcotest.test_case "tier rules" `Quick test_tier_rules;
        ] );
      ( "persist",
        [
          Alcotest.test_case "disk roundtrip" `Quick test_disk_roundtrip;
          Alcotest.test_case "bit flip" `Quick test_bit_flip_is_a_miss;
          Alcotest.test_case "truncation" `Quick test_truncation_is_a_miss;
          Alcotest.test_case "foreign file" `Quick test_foreign_file_is_a_miss;
          Alcotest.test_case "cache-level corruption" `Quick test_cache_level_corruption;
          Alcotest.test_case "unique temp names" `Quick test_tmp_names_unique;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "quarantine" `Quick test_quarantine;
          Alcotest.test_case "entry-cap sweep" `Quick test_sweep_cap;
          Alcotest.test_case "byte-cap sweep" `Quick test_sweep_byte_cap;
          Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers;
        ] );
      ( "solver",
        [
          Alcotest.test_case "hits and stats" `Quick test_solver_hits;
          Alcotest.test_case "warm pass amortizes" `Quick test_warm_pass_amortizes;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "corpus equivalence" `Quick test_oracle_equivalence;
          prop_token_soup_oracle;
        ] );
    ]
