.PHONY: all check build test fuzz bench-json bench-load bench-gate perfbench clean

all: build

build:
	dune build @all

test:
	dune runtest

# A fuzz smoke run with a hard timeout: the budgeted solver must never hang,
# so a wedged run is itself a failure.
fuzz:
	timeout 300 dune exec test/test_fuzz_pipeline.exe
	timeout 300 dune exec test/test_budget.exe

check: build
	timeout 600 dune runtest
	$(MAKE) fuzz

# Machine-readable benchmark artifacts, each a dmlc document: Table 1
# (dml-table1/1), Tables 2 and 3 (dml-table23/1) and profiled dml-batch/1
# batches for the ablations.  Solver and tightening ablations: the corpus
# checked uncached, five passes per method; the "binary search" row holds the
# Figure 4 goals, the bcopy row the divisibility obligations, and a best-of-5
# figure is the minimum solve_s over passes.  Cache ablation: the fm document
# is "off" (batches are uncached by default); passes 1 and 2 of
# BENCH_batch_cache.json, run against a fresh --cache-dir, are cold and warm.
# Batch scheduling: in process and -j 1/2/4, three passes, uncached.
bench-json: build
	dune exec bin/dmlc.exe -- table1 --json > BENCH_table1.json
	dune exec bin/dmlc.exe -- table23 --backend cost-model --json > BENCH_table2.json
	dune exec bin/dmlc.exe -- table23 --backend closure --json > BENCH_table3.json
	for s in fm fm-plain simplex; do \
	  timeout 300 dune exec bin/dmlc.exe -- batch --all --solver $$s \
	    --repeat 5 --json --profile > BENCH_ablation_$$s.json || exit 1; \
	done
	d=$$(mktemp -d) && \
	  dune exec bin/dmlc.exe -- batch --all --repeat 3 --cache-dir $$d --json --profile \
	    > BENCH_batch_cache.json; s=$$?; rm -rf $$d; exit $$s
	dune exec bin/dmlc.exe -- batch --all --repeat 3 --json --profile > BENCH_batch_seq.json
	for j in 1 2 4; do \
	  dune exec bin/dmlc.exe -- batch --all -j $$j --repeat 3 --json --profile \
	    > BENCH_batch_j$$j.json || exit 1; \
	done
	python3 -c 'import json; \
	passes = lambda f: json.load(open(f"BENCH_{f}.json"))["passes"]; \
	row = lambda p, n: next(r for r in p["programs"] if r["program"] == n); \
	best = lambda f, n=None: min((row(p, n) if n else p["aggregate"])["solve_s"] for p in passes(f)); \
	print("solver, binary search best-of-5 solve_s: " + ", ".join("%s %.5fs" % (s, best("ablation_" + s, "binary search")) for s in ("fm", "fm-plain", "simplex"))); \
	print("tightening, bcopy best-of-5 solve_s: " + ", ".join("%s %.5fs residual %d" % (s, best("ablation_" + s, "bcopy"), row(passes("ablation_" + s)[0], "bcopy")["residual"]) for s in ("fm", "fm-plain"))); \
	cached = passes("batch_cache"); \
	print("cache, aggregate solve_s: off %.4fs cold %.4fs warm %.4fs" % (best("ablation_fm"), cached[0]["aggregate"]["solve_s"], cached[1]["aggregate"]["solve_s"])); \
	print("batch, best-of-3 aggregate solve_s: " + ", ".join("%s %.4fs" % (b, best("batch_" + b)) for b in ("seq", "j1", "j2", "j4")))'

# The dmld fault-injection load harness (schema dml-load/1): concurrent
# clients against a pooled server with injected worker crashes and hangs.
# Exits non-zero if any request degrades to a dropped or malformed response.
bench-load: build
	timeout 300 dune exec bench/load.exe -- --out BENCH_dmld.json

# Latency regression gate: run the harness at the baseline's configuration
# and fail when the warm p95 regresses past the checked-in band (wide by
# design — it catches lost-memo-class regressions, not percent drift).
bench-gate: bench-load
	dune exec bench/gate.exe -- --run BENCH_dmld.json --baseline bench/baseline_dmld.json

# The seeded end-to-end benchmark declared in BENCHMARK.json: every workload
# once, each printing its one-line JSON result last.  Override the seed and
# the per-workload duration with `make perfbench SEED=7 SECONDS=10`.
SEED ?= 1
SECONDS ?= 30
perfbench:
	for w in check-batch serve-edit run-kernels; do \
	  python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds $(SECONDS) || exit 1; \
	done

clean:
	dune clean
