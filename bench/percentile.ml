(* The one percentile estimator of the latency harness (bench/load) and
   anything downstream that summarizes a sample population.

   Nearest-rank on a sorted array: p(q) is the smallest sample such that at
   least q·n samples are <= it.  The edge cases are what the gate history
   taught us to treat carefully: an empty population yields 0.0 (callers that
   must distinguish "measured nothing" check the count themselves — see
   Gate_core.No_warm_samples), and a one-sample population yields that sample
   for every q. *)

module J = Dml_obs.Json

let of_sorted sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      (* clamp both edges: q=0 ranks to -1 and q=1 can rank past the end *)
      sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let of_samples samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  of_sorted a q

(* The latency summary object embedded in dml-load/1 documents; field set
   and order are part of that schema. *)
let latency_doc ms =
  let a = Array.of_list ms in
  Array.sort compare a;
  J.Obj
    [
      ("requests", J.Int (Array.length a));
      ("p50_ms", J.Float (of_sorted a 0.50));
      ("p90_ms", J.Float (of_sorted a 0.90));
      ("p95_ms", J.Float (of_sorted a 0.95));
      ("p99_ms", J.Float (of_sorted a 0.99));
      ("max_ms", J.Float (of_sorted a 1.0));
    ]
