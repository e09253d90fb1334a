(* The constraint-verdict cache: canonicalization identifies goals up to
   alpha-renaming, conjunct order and integer-equivalent atoms; the memo
   evicts LRU; the verdict log survives concurrent writers and reads
   damage as misses; tier rules keep reuse sound; and the oracle property
   — cache-on and cache-off produce identical verdicts — holds over the
   whole benchmark corpus and over generated token soup. *)

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

let test_lru_eviction () =
  let s = Lru.create 2 in
  Lru.add s "k1" 1;
  Lru.add s "k2" 2;
  (* touch k1 so k2 is the least recently used *)
  ignore (Lru.find s "k1");
  Lru.add s "k3" 3;
  Alcotest.(check int) "capacity respected" 2 (Lru.length s);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions s);
  Alcotest.(check bool) "LRU key evicted" true (Lru.find s "k2" = None);
  Alcotest.(check bool) "touched key survives" true (Lru.find s "k1" <> None);
  Alcotest.(check bool) "new key present" true (Lru.find s "k3" <> None)

let test_cache_eviction_counter () =
  (* the memo table has a fixed size, 4,096 entries: one digest past it
     evicts the oldest *)
  let c = Cache.create () in
  for i = 0 to 4096 do
    Cache.add c ~digest:(Printf.sprintf "d%d" i) ~method_:"fm" ~tier:1 Cache.Valid
  done;
  let s = Cache.snapshot c in
  Alcotest.(check int) "eviction counted" 1 s.Cache.s_evictions;
  Alcotest.(check int) "entries bounded" 4096 s.Cache.s_entries;
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

(* --- persistence: one verdict log per directory -------------------------------- *)

let temp_dir () = Filename.temp_dir "dml-cache-test" ""
let on dir = Cache.create ~config:{ Cache.dir = Some dir } ()
let log_of dir = Filename.concat dir "verdicts.log"
let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let append_file path s =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path (fun oc ->
      output_string oc s)

let put c d = Cache.add c ~digest:d ~method_:"fm" ~tier:1 Cache.Valid
let hits c d = Cache.find c ~digest:d ~method_:"fm" ~tier:1 = Some Cache.Valid
let corrupt c = (Cache.snapshot c).Cache.s_corrupt
let disk_hits c = (Cache.snapshot c).Cache.s_disk_hits

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let c1 = on dir in
  Cache.add c1 ~digest:"d" ~method_:"fm" ~tier:7 (Cache.Timeout "deadline");
  (* a message with a newline, a tab and backslashes survives the record
     format *)
  let msg = "x = 1\n\ty = \"2\\n\" \\" in
  Cache.add c1 ~digest:"n" ~method_:"fm" ~tier:1 (Cache.Not_valid msg);
  Alcotest.(check (array string)) "one log file" [| "verdicts.log" |] (Sys.readdir dir);
  let c2 = on dir in
  Alcotest.(check bool) "verdict replayed at its tier" true
    (Cache.find c2 ~digest:"d" ~method_:"fm" ~tier:7 = Some (Cache.Timeout "deadline"));
  Alcotest.(check bool) "the tier survives the roundtrip" true
    (Cache.find c2 ~digest:"d" ~method_:"fm" ~tier:8 = None);
  Alcotest.(check bool) "the message survives the roundtrip" true
    (Cache.find c2 ~digest:"n" ~method_:"fm" ~tier:1 = Some (Cache.Not_valid msg));
  Alcotest.(check int) "both read from the log" 2 (disk_hits c2);
  (* the disk hit was promoted: a second lookup is a memo hit *)
  ignore (Cache.find c2 ~digest:"n" ~method_:"fm" ~tier:1);
  Alcotest.(check int) "promoted into the memo" 2 (disk_hits c2)

let flip_last_byte path =
  let b = Bytes.of_string (read_file path) in
  let n = Bytes.length b in
  Bytes.set b (n - 1) (Char.chr (Char.code (Bytes.get b (n - 1)) lxor 0xff));
  write_file path (Bytes.to_string b)

let test_bit_flip_is_a_miss () =
  let dir = temp_dir () in
  put (on dir) "key";
  flip_last_byte (log_of dir);
  let c = on dir in
  Alcotest.(check bool) "bit-flipped record is a miss" true (not (hits c "key"));
  Alcotest.(check int) "corruption counted" 1 (corrupt c)

(* A truncated tail cannot be told from a record another process is still
   writing, so it is a miss but not yet corrupt; once a record follows it,
   it is. *)
let test_truncation_is_a_miss () =
  let dir = temp_dir () in
  let c1 = on dir in
  Cache.add c1 ~digest:"k1" ~method_:"fm" ~tier:3 (Cache.Timeout "deadline exceeded after a while");
  let path = log_of dir in
  let b = read_file path in
  write_file path (String.sub b 0 (String.length b / 2));
  let c2 = on dir in
  Alcotest.(check bool) "truncated record is a miss" true
    (Cache.find c2 ~digest:"k1" ~method_:"fm" ~tier:3 = None);
  Alcotest.(check int) "a tail still being written is not corrupt" 0 (corrupt c2);
  put c1 "k2";
  Alcotest.(check bool) "the record appended behind it hits" true (hits c2 "k2");
  Alcotest.(check int) "then the torn tail is corrupt" 1 (corrupt c2)

let test_foreign_file_is_a_miss () =
  let dir = temp_dir () in
  write_file (log_of dir) "this is not a cache log at all\n";
  let c1 = on dir in
  Alcotest.(check bool) "foreign bytes are a miss" true (not (hits c1 "key"));
  Alcotest.(check int) "corruption counted" 1 (corrupt c1);
  put c1 "key";
  (* junk appended without a newline after a whole record *)
  append_file (log_of dir) "garbage";
  let c2 = on dir in
  Alcotest.(check bool) "the record before the junk hits" true (hits c2 "key");
  put c2 "key2";
  let c3 = on dir in
  Alcotest.(check bool) "a record after the junk hits" true (hits c3 "key" && hits c3 "key2");
  Alcotest.(check int) "each run of junk counted once" 2 (corrupt c3)

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

(* A record torn in the middle of the log loses itself only: the reader
   resynchronises at the newline that opens the next record. *)
let test_torn_record () =
  let dir = temp_dir () in
  let c1 = on dir in
  List.iter (put c1) [ "k1"; "k2"; "k3" ];
  let path = log_of dir in
  let b = read_file path in
  let second = String.index_from b 1 '\n' in
  let third = String.index_from b (second + 1) '\n' in
  write_file path
    (String.sub b 0 ((second + third) / 2) ^ String.sub b third (String.length b - third));
  let c2 = on dir in
  Alcotest.(check bool) "records around it hit" true (hits c2 "k1" && hits c2 "k3");
  Alcotest.(check bool) "the torn record is a miss" true (not (hits c2 "k2"));
  Alcotest.(check int) "it alone is corrupt" 1 (corrupt c2)

(* A miss reads what other processes appended since the last scan. *)
let test_sees_other_writers () =
  let dir = temp_dir () in
  let reader = on dir in
  Alcotest.(check bool) "cold" true (not (hits reader "k"));
  (match Unix.fork () with
  | 0 ->
      put (on dir) "k";
      Unix._exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  Alcotest.(check bool) "the other process's verdict hits without reopening" true
    (hits reader "k");
  Alcotest.(check int) "read from the log" 1 (disk_hits reader)

(* --- crash safety: bounded growth, concurrent writers ---------------------------- *)

let test_log_cap () =
  let dir = temp_dir () in
  let path = log_of dir in
  let size () = (Unix.stat path).Unix.st_size in
  write_file path (String.make (Cache.log_cap + 1) 'x');
  let c = on dir in
  Alcotest.(check int) "a log over the cap starts over at open" 0 (size ());
  put c "k";
  Alcotest.(check bool) "and takes records again" true (hits (on dir) "k");
  write_file path (String.make (Cache.log_cap - 10) 'x');
  let c = on dir in
  put c "k2";
  Alcotest.(check int) "the append that crosses the cap starts it over" 0 (size ());
  Alcotest.(check bool) "the verdict is still served from memory" true (hits c "k2")

(* Many processes appending to one log — the same keys included — write
   whole records: every key reads back and nothing is corrupt. *)
let test_concurrent_writers () =
  let dir = temp_dir () in
  let n_writers = 4 and n_keys = 25 in
  let pids =
    List.init n_writers (fun w ->
        match Unix.fork () with
        | 0 ->
            let c = on dir in
            for i = 1 to n_keys do
              Cache.add c ~digest:(Printf.sprintf "key%d" i) ~method_:"fm"
                ~tier:((w + i) mod 5) Cache.Valid
            done;
            Unix._exit 0
        | pid -> pid)
  in
  List.iter
    (fun pid ->
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "writer exited cleanly" true (status = Unix.WEXITED 0))
    pids;
  let c = on dir in
  for i = 1 to n_keys do
    if not (hits c (Printf.sprintf "key%d" i)) then
      Alcotest.failf "key%d unreadable after concurrent writes" i
  done;
  Alcotest.(check int) "no torn records" 0 (corrupt c);
  Alcotest.(check int) "all from the log" n_keys (disk_hits c);
  Alcotest.(check (array string)) "one log file" [| "verdicts.log" |] (Sys.readdir dir)

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
          Alcotest.test_case "torn record mid-log" `Quick test_torn_record;
          Alcotest.test_case "sees other writers" `Quick test_sees_other_writers;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "log byte cap" `Quick test_log_cap;
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
