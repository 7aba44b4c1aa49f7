# Convenience targets for the Tincy YOLO reproduction.

PYTHON ?= python

.PHONY: install test test-fast coverage bench-e2e-smoke bench-pytest serve-smoke serve-shard-smoke opt-check isa-roundtrip line-budget report demo quickstart analyze clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# The unit tier only: wall-clock free, guarded by the conftest sleep budget
# (docs/TESTING.md).  The inner loop while developing.
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m "not slow and not integration"

# Coverage gate (CI runs this; needs pytest-cov: pip install pytest-cov).
COV_FAIL_UNDER ?= 75
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ --cov=repro \
		--cov-report=term-missing --cov-fail-under=$(COV_FAIL_UNDER)

# The end-to-end benchmark's own checks (BENCHMARK.json, bench/): every
# workload's code path on mlp4/cnv6 with 1 s phases, then the harness's
# unit tests.  No timing assertions.
bench-e2e-smoke:
	python3 bench/run.py --smoke
	PYTHONPATH=src $(PYTHON) -m pytest bench/test_harness.py -q

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Serving CI canary: the round trip and CLI smoke, plus the deterministic
# burst-split case (8 queued requests, 2 free workers -> two batches of 4
# in the VM at once), so a regression to one-worker bursts fails by count,
# and the stage placement case (a hybrid batch's CPU layers on CPU
# workers, its offload on the one fabric worker), so a regression to
# whole-batch fabric jobs fails by thread name, and the two start cases
# (a started server, and a tier's inline fallback, have run no frame
# before the first request), so a frame run at start fails by count.
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serve_smoke.py \
		"tests/test_serve_server.py::TestWorkConservingBatching::test_queued_burst_splits_over_both_free_workers" \
		"tests/test_serve_server.py::TestFabricSerialization::test_hybrid_stages_run_on_their_resource_workers" \
		"tests/test_serve_server.py::TestLifecycle::test_start_runs_no_frame" \
		"tests/test_serve_shard.py::TestTierBuild::test_the_inline_fallback_serves_on_the_tiers_vm" -q

# Shard-tier CI canary: 2 shard processes, 500 closed-loop requests, one
# injected mid-run shard kill.  Exits non-zero unless the SLOs hold and
# every result is bit-identical to single-process serving; finishes in
# seconds (well under the 60s budget).
serve-shard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro serve-bench --network mlp4 \
		--shards 2 --requests 500 --faults "shard-kill@100" --fault-seed 7

# The optimizer's gate: every zoo network at every -O level must stay
# bit-identical to the frozen legacy reference, every pass must prove its
# rewrite semantics-preserving (translation validation, with the tv_ok
# marker surviving the binary round-trip), and -O2 must strictly beat -O0
# on compute instructions and peak buffer liveness.
opt-check:
	PYTHONPATH=src $(PYTHON) -m repro opt-check

# Full artifact round trip: compile + serialize the Tincy YOLO plan, verify
# the encoded form decodes byte-identically and executes bit-identically
# to the reference (--check), then disassemble + ISA-verify the artifact.
# Then the band kernel's lane canary: forced two lanes must split every
# geometry onto two threads bit-identically, and a forked child must run
# its own helper — a regression to one lane fails by count, not timing.
isa-roundtrip:
	PYTHONPATH=src $(PYTHON) -m repro compile --network tincy \
		--out /tmp/repro-tincy-plan.rpb --check
	PYTHONPATH=src $(PYTHON) -m repro disasm /tmp/repro-tincy-plan.rpb --verify
	PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_dtype_kernels.py::TestBandLanes::test_forced_two_lanes_are_bit_identical \
		tests/test_dtype_kernels.py::TestBandLanes::test_forked_child_runs_its_own_helper

# Line budgets: the .py lines of src/repro/serve and of all of src/repro
# must stay under fixed ceilings.  Raising one is a visible diff here with
# its reason in CHANGES.md.
line-budget:
	@serve=$$(find src/repro/serve -name '*.py' | xargs cat | wc -l); \
	total=$$(find src/repro -name '*.py' | xargs cat | wc -l); \
	echo "src/repro/serve: $$serve lines (ceiling 3686)"; \
	echo "src/repro: $$total lines (ceiling 25324)"; \
	test "$$serve" -le 3686 && test "$$total" -le 25324

report:
	$(PYTHON) -m repro report --output reproduction-report.md

quickstart:
	$(PYTHON) examples/quickstart.py

demo:
	$(PYTHON) examples/live_demo.py

analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze
	PYTHONPATH=src $(PYTHON) -m repro analyze --self

clean:
	rm -rf build src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
