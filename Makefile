.PHONY: all check build test fuzz bench-json bench-load bench-gate bench-solver bench-incr perfbench clean

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

# Machine-readable benchmark artifacts: the batch checker's aggregate report
# (schema dml-batch/1) and the Bechamel microbenchmarks (schema dml-bench/1).
bench-json: build
	dune exec bin/dmlc.exe -- batch --all --json > BENCH_batch.json
	dune exec bench/main.exe -- --out BENCH_micro.json

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

# The two-lane solver ablation: the whole corpus checked uncached, five
# passes on the bignum lane and five on the machine-int lane, each written
# as a profiled dml-batch/1 document.  A lane's best-of-5 figure is the
# minimum over passes of the aggregate solve_s.
bench-solver: build
	for lane in bignum native; do \
	  timeout 300 dune exec bin/dmlc.exe -- batch --all --no-cache --solver-lane $$lane \
	    --repeat 5 --json --profile > BENCH_solver_$$lane.json || exit 1; \
	done
	python3 -c 'import json; \
	best = {l: min(p["aggregate"]["solve_s"] for p in json.load(open(f"BENCH_solver_{l}.json"))["passes"]) for l in ("bignum", "native")}; \
	print("best-of-5 solve_s: bignum %.4fs native %.4fs (native speedup %.2fx)" % (best["bignum"], best["native"], best["bignum"] / best["native"]))'

# Incremental recheck latency by edit size (schema dml-bench/1): the Table 1
# corpus as one editor buffer, re-checked after a 1-declaration, ~10% and
# 100% edit; each row pairs the incremental figure with a cold full check
# and asserts the reports are byte-identical first.
bench-incr: build
	timeout 300 dune exec bench/incr.exe -- --out BENCH_incr.json

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
