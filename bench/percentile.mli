(** Nearest-rank percentile estimation for the latency harness
    ([bench/load]), so every report computes quantiles the same way and the
    gate compares like with like. *)

val of_sorted : float array -> float -> float
(** [of_sorted a q] on an already-sorted array: the smallest sample with at
    least [q]·n samples at or below it.  Empty population: [0.] (callers
    that must distinguish "measured nothing" check the count — the gate
    does).  One sample: that sample, for every [q]. *)

val of_samples : float list -> float -> float
(** Convenience: sort a copy, then {!of_sorted}. *)

val latency_doc : float list -> Dml_obs.Json.t
(** The latency summary object of dml-load/1 documents:
    [{"requests", "p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms"}] over a
    list of millisecond samples. *)
