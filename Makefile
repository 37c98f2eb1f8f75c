# Convenience targets for the NetRS reproduction.

PYTHON ?= python3

.PHONY: install test test-fast test-slow ci faults-smoke mesoscale-smoke docs-check consistency-smoke bench bench-smoke bench-profile bench-compare bench-figures perfbench-check lint lint-report lint-baseline contracts help

help:
	@echo "install       editable install"
	@echo "test          full test suite (incl. slow shape assertions)"
	@echo "test-fast     fast tests only (~15 s)"
	@echo "ci            what CI runs: fast tests (see .github/workflows/ci.yml)"
	@echo "faults-smoke  crash-and-recover drill from docs/FAULTS.md (retries, zero lost)"
	@echo "mesoscale-smoke  1k-host flow-tier demo + fidelity gate on one paper config"
	@echo "docs-check    validate every relative link/anchor in README.md + docs/*.md, then run the docs/CONSISTENCY.md example"
	@echo "consistency-smoke  quorum-write/read-repair/churn drill from docs/CONSISTENCY.md"
	@echo "lint          determinism + contract sanitizers + ruff + mypy (latter two skip if absent)"
	@echo "lint-report   lint (incl. contracts) with JSON output to lint-report.json (CI artifact)"
	@echo "lint-baseline re-snapshot lint-baseline.json (grandfathering workflow)"
	@echo "contracts     contract sanitizer only: mirror/anchor/stream/digest drift (CON001..CON003)"
	@echo "bench         all benchmarks (figures + ablations + microbench)"
	@echo "bench-smoke   engine microbenchmarks, low rounds, JSON for CI trends"
	@echo "bench-profile harness suite under cProfile (pstats under benchmarks/results/)"
	@echo "bench-compare harness suite vs committed BENCH_8.json (regression gate)"
	@echo "bench-figures just the paper figures (results under benchmarks/results/)"
	@echo "perfbench-check each BENCHMARK.json workload once: outputs correct, nothing failed"

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

ci:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The runnable example of docs/FAULTS.md, exactly as written there: server#0
# crashes at 20 ms and recovers at 60 ms while clients retry on a 20 ms
# timeout.  Expect retries > 0 and lost=0 in the `faults:` report line.
faults-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run clirs \
		--requests 4000 \
		--faults "server-down@0.02:server#0;server-up@0.06:server#0" \
		--request-timeout 0.02 --max-retries 5

# Documentation gate: every relative link and anchor across README.md and
# docs/*.md must resolve (repro.lint.docs), then the runnable example of
# docs/CONSISTENCY.md executes exactly as written there.
docs-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint.docs
	$(MAKE) consistency-smoke

# The runnable example of docs/CONSISTENCY.md, exactly as written there:
# a 20% write mix with W=2, quorum reads R=2, and server#1 leaving the
# ring at 30 ms then rejoining at 80 ms.  Expect writes/consistency/churn
# report lines with churn events=2 and migrated keys > 0.
consistency-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run clirs --requests 4000 \
		--write-fraction 0.2 --write-quorum 2 --read-quorum 2 \
		--churn-schedule "node-leave@0.03:server#1;node-join@0.08:server#1" \
		--request-timeout 0.05

# The flow tier's CI drill (docs/MESOSCALE.md): the scaled-down 1,024-host
# demo must beat the packet tier by 50x engine events per request, and the
# fidelity gate must hold on one committed paper scenario.
mesoscale-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) examples/mesoscale_1m.py --smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro validate-fidelity \
		--scenario fig4-clirs-r95

# Three layers: the project AST sanitizer (per-file rules + declared
# contracts) is mandatory; ruff/mypy run when installed (pip install -e
# ".[lint]") and are skipped gracefully otherwise so `make lint` works in
# the minimal container.
lint:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint src/repro --contracts --stats
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed; skipping (pip install -e '.[lint]')"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping (pip install -e '.[lint]')"; fi

lint-report:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint src/repro --contracts \
		--format json --output lint-report.json

lint-baseline:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint src/repro --contracts --write-baseline

# The contract sanitizer alone (what `netrs contracts` runs): CON001 mirror
# pairs, CON002 stream order, CON003 digest completeness -- docs/LINTING.md.
contracts:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.lint --contracts-only --stats

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	mkdir -p benchmarks/results
	$(PYTHON) -m pytest benchmarks/test_bench_engine.py --benchmark-only \
		--benchmark-disable-gc --benchmark-min-rounds=3 --benchmark-warmup=off \
		--benchmark-json=benchmarks/results/bench-smoke.json

bench-profile:
	mkdir -p benchmarks/results
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.sim.bench \
		--repeats 2 --profile benchmarks/results/bench-profile.pstats

bench-compare:
	mkdir -p benchmarks/results
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.sim.bench \
		--repeats 3 --compare BENCH_8.json \
		--compare-out benchmarks/results/bench-compare.json

bench-figures:
	$(PYTHON) -m pytest benchmarks/test_bench_fig4_clients.py \
		benchmarks/test_bench_fig5_skew.py \
		benchmarks/test_bench_fig6_utilization.py \
		benchmarks/test_bench_fig7_service_time.py --benchmark-only -s

# The benchmark of record (BENCHMARK.json) as an output check: every
# workload runs once at seed 1 and its last line (the JSON result) must say
# "correct": true with "failed": 0.  Timings are printed, never gated.
PERFBENCH_WORKLOADS = $(shell $(PYTHON) -c "import json; print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")

perfbench-check:
	@for w in $(PERFBENCH_WORKLOADS); do \
		out=$$($(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 16 --trace 0) || exit 1; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | $(PYTHON) -c 'import json, sys; r = json.load(sys.stdin); sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
			|| { echo "perfbench-check: $$w failed its output check"; exit 1; }; \
	done
