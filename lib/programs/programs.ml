(* Registry of the paper's programs: the eight Section 4 benchmarks
   (Tables 1-3) and the four illustrative listings (Figures 1, 2, 5 and the
   filter example), with the paper's measured numbers where the available
   scan of the paper is legible. *)

type paper_row = {
  pr_checked : float option;  (* seconds with array bound checks *)
  pr_unchecked : float option;  (* seconds without *)
  pr_gain : string option;
  pr_eliminated : string option;
}

let no_row = { pr_checked = None; pr_unchecked = None; pr_gain = None; pr_eliminated = None }

type benchmark = {
  name : string;
  description : string;
  workload_note : string;  (* paper workload -> ours *)
  source : string;
  driver : string;  (* concrete top-level calls closing the unannotated twin *)
  in_tables : bool;  (* appears in the paper's Tables 1-3 *)
  run : Workloads.exec -> scale:int -> string;
  paper_alpha : paper_row;  (* Table 2: DEC Alpha / SML-NJ *)
  paper_sparc : paper_row;  (* Table 3: Sun SPARC / MLWorks *)
}

let all =
  [
    {
      name = "bcopy";
      description = "optimised byte copy (Fox project); needs the integral tightening rule";
      workload_note = "paper: 1M bytes x10 byte-by-byte; ours: 64k ints x4*scale";
      source = Sources.bcopy;
      driver = {|
val s = array(64, 1)
val d = array(64, 2)
val u = bcopy(s, d)
|};
      in_tables = true;
      run = Workloads.run_bcopy;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "binary search";
      description = "binary search over a sorted integer array (Figure 3)";
      workload_note = "paper: 2^20 lookups in a 2^20 array; ours: 16384*scale lookups in 4096";
      source = Sources.bsearch;
      driver = {|
val arr = array(100, 7)
val r = bsearchInt(5, arr)
|};
      in_tables = true;
      run = Workloads.run_bsearch;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "bubble sort";
      description = "bubble sort on an integer array";
      workload_note = "paper: array of 2^13; ours: 512 x scale rounds";
      source = Sources.bubblesort;
      driver = {|
val a = array(512, 3)
val u = bsort(a)
|};
      in_tables = true;
      run = Workloads.run_bubblesort;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "matrix mult";
      description = "matrix multiplication on two-dimensional integer arrays";
      workload_note = "paper: 256x256; ours: 48x48 x scale";
      source = Sources.matmult;
      driver = {|
val m1 = array(8, array(8, 1))
val m2 = array(8, array(8, 2))
val m3 = array(8, array(8, 0))
val u = matmult(m1, m2, m3)
|};
      in_tables = true;
      run = Workloads.run_matmult;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "queen";
      description = "n-queens placement counting";
      workload_note = "paper: 12x12 board; ours: 8x8 x scale";
      source = Sources.queens;
      driver = {|
val q = queens(8)
|};
      in_tables = true;
      run = Workloads.run_queens;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "quick sort";
      description = "array quicksort (after the SML/NJ library)";
      workload_note = "paper: 2^20-element array; ours: 20000 x scale";
      source = Sources.quicksort;
      driver = {|
val a = array(100, 5)
val u = qsort(a)
|};
      in_tables = true;
      run = Workloads.run_quicksort;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "hanoi towers";
      description = "towers of hanoi with a circular move-trace buffer";
      workload_note = "paper: 24 disks; ours: 16 disks x scale";
      source = Sources.hanoi;
      driver = {|
val trace = array(1024, 0)
val heights = array(3, 0)
val c = hanoi(trace, heights, 8)
|};
      in_tables = true;
      run = Workloads.run_hanoi;
      paper_alpha =
        {
          pr_checked = Some 11.34;
          pr_unchecked = Some 8.28;
          pr_gain = Some "27%";
          pr_eliminated = None;
        };
      paper_sparc =
        { pr_checked = None; pr_unchecked = None; pr_gain = Some "45%"; pr_eliminated = None };
    };
    {
      name = "list access";
      description = "first sixteen elements of a list, repeatedly (nth without tag checks)";
      workload_note = "paper: 2^20 accesses; ours: 4096*scale x 16 accesses";
      source = Sources.listaccess;
      driver = {|
val l = 1::2::3::4::5::6::7::8::9::10::11::12::13::14::15::16::nil
val x = access16(l)
|};
      in_tables = true;
      run = Workloads.run_listaccess;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    (* listings, checked and executed but outside the paper's tables *)
    {
      name = "dotprod";
      description = "dot product (Figure 1)";
      workload_note = "two 10000-element arrays x16*scale";
      source = Sources.dotprod;
      driver = {|
val a = array(10, 1)
val b = array(10, 2)
val d = dotprod(a, b)
|};
      in_tables = false;
      run = Workloads.run_dotprod;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "reverse";
      description = "list reverse with length preservation (Figure 2)";
      workload_note = "30000-element list x8*scale";
      source = Sources.reverse;
      driver = {|
val l = 1::2::3::nil
val r = reverse(l)
|};
      in_tables = false;
      run = Workloads.run_reverse;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "filter";
      description = "filter with existential result length (Section 2.4)";
      workload_note = "10000-element list x8*scale";
      source = Sources.filter;
      driver = {|
fun positive(x) = x > 0

val r = filter positive (1::2::3::nil)
|};
      in_tables = false;
      run = Workloads.run_filter;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
    {
      name = "kmp";
      description = "Knuth-Morris-Pratt string matching (Figure 5)";
      workload_note = "40000-char text, 8 patterns x scale";
      source = Sources.kmp;
      driver = {|
val text = array(40, 1)
val pat = array(4, 1)
val r = kmpMatch(text, pat)
|};
      in_tables = false;
      run = Workloads.run_kmp;
      paper_alpha = no_row;
      paper_sparc = no_row;
    };
  ]

let table_benchmarks = List.filter (fun b -> b.in_tables) all
let find name = List.find_opt (fun b -> b.name = name) all

(* The --infer corpus: the plain ML program under [source] (its annotations
   erased) followed by [driver].  The driver matters: a function that is
   never applied generates no flow goals at call sites, so nothing anchors
   cross-parameter qualifiers (dotprod's [p <= q] lives in the relation
   between its two argument arrays, observable only where concrete arrays
   flow in). *)
let unannotated b =
  let open Dml_lang in
  Pretty.program_to_string (Pretty.erase (Parser.parse_program b.source)) ^ "\n" ^ b.driver
