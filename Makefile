PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-serving bench-serving-smoke verify \
	verify-fuzz lint cluster-smoke controlplane-smoke trace-smoke \
	approx-smoke tune-smoke moe-smoke results-check

test:
	$(PYTHON) -m pytest -x -q

# Everything except tests marked `slow` — the edit-run loop subset.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Prefers ruff, falls back to pyflakes, and degrades to a syntax check
# when neither is installed (offline environments).  Always ends with
# the seed audit: no unseeded randomness in tests or benchmarks.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check --select E9,F src tests benchmarks examples; \
	elif $(PYTHON) -m pyflakes --version >/dev/null 2>&1; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples; \
	else \
		echo "ruff/pyflakes unavailable; syntax check only"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi
	$(PYTHON) tools/lint_seeded_rng.py tests benchmarks

# Tiny fixed-seed approx-sweep compared byte-for-byte (modulo float
# ulp) against the committed golden report (see docs/approx.md).
approx-smoke:
	$(PYTHON) -m repro approx-sweep --models bert-large \
		--seq-lens 256,1024 --cases 2 --seed 0 \
		--output /tmp/approx_sweep_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/approx_sweep_smoke.json \
		tests/golden/approx_sweep_smoke.json

# Tiny fixed-seed tuning run compared byte-for-byte (modulo float ulp)
# against the committed golden artifact — pins both the search's
# determinism and the repro.tuned_plan/v1 schema (see docs/tuning.md).
tune-smoke:
	$(PYTHON) -m repro tune --objective ttft_p99 --budget 8 \
		--rate 2 --duration 3 --seed 0 \
		--output /tmp/tune_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/tune_smoke.json \
		tests/golden/tune_smoke.json

# Fixed-seed MoE + speculative-decoding serving run compared against
# the committed golden report — pins the expert-parallel cost model
# and the deterministic speculative schedule (see docs/models.md).
moe-smoke:
	$(PYTHON) -m repro serve-sim --model bert-large \
		--n-experts 8 --top-k 2 \
		--draft-model gpt-neo-1.3b --draft-len 4 --accept-rate 0.75 \
		--rate 4 --duration 3 --seed 0 --plans baseline,sdf \
		--json > /tmp/moe_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/moe_smoke.json \
		tests/golden/moe_smoke.json

bench:
	$(PYTHON) benchmarks/bench_selfperf.py

# Regenerate the paper tables and figures (benchmarks/results/*.txt)
# and fail if any of them differs from the committed copy.
results-check:
	$(PYTHON) -m pytest benchmarks --ignore=benchmarks/e2e \
		--benchmark-disable -q -p no:cacheprovider
	git diff --exit-code benchmarks/results

# Full-scale serving benchmark: 100k-request event-vs-epoch timing
# (byte-identical reports required) plus the million-request sharded
# cluster smoke; writes BENCH_serving.json (see docs/performance.md).
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

# Small-N CI smoke of the same harness; at this scale the equivalence
# check runs in exact-percentile mode, the strictest comparison.
bench-serving-smoke:
	$(PYTHON) benchmarks/bench_serving.py --requests 2000 \
		--cluster-requests 4000 --jobs 2 \
		--output /tmp/bench_serving_smoke.json

verify:
	$(PYTHON) -m repro verify

# Differential fuzzing of every registered oracle; failure artifacts
# land in verify-artifacts/ (see docs/verification.md).
verify-fuzz:
	$(PYTHON) -m repro verify fuzz --cases 200 --seed 0 \
		--artifact-dir verify-artifacts

# Two-replica, TP=2 cluster simulation (see docs/cluster.md).
cluster-smoke:
	$(PYTHON) -m repro cluster-sim --replicas 2 --tp 2 \
		--policy least-outstanding --rate 4 --duration 5 --seed 0 --json

# Bursty-arrival control-plane run with one injected replica death:
# the fleet must recover without losing a request and the conservation
# identity must hold (see docs/controlplane.md).
controlplane-smoke:
	$(PYTHON) -m repro controlplane-sim --arrival mmpp --rate 2 \
		--burst-rate 10 --duration 8 --replicas 2 --death 1.5 \
		--cold-start 0.1 --seed 0 --json \
	| $(PYTHON) -c "import json, sys; \
		doc = json.load(sys.stdin); \
		assert doc['kind'] == 'controlplane-report', doc['kind']; \
		plan = doc['plans']['sdf']; \
		section = plan['controlplane']; \
		assert section['schema'] == 'repro.controlplane/v1'; \
		assert section['conservation_ok'], 'requests leaked'; \
		deaths = [f for f in section['faults'] if f['kind'] == 'death']; \
		assert len(deaths) == 1, section['faults']; \
		assert deaths[0]['requeued'] > 0, deaths[0]; \
		assert deaths[0]['lost'] == 0, deaths[0]; \
		assert deaths[0]['recovery_s'] > 0.0, deaths[0]; \
		print('controlplane-smoke ok:', plan['finished'], 'finished,', \
			deaths[0]['requeued'], 'requeued, recovered in', \
			round(deaths[0]['recovery_s'], 3), 's')"

# Traced serving simulation: the exported Chrome trace must parse and
# its spans must strictly nest (see docs/observability.md).
trace-smoke:
	$(PYTHON) -m repro trace --sim serving --rate 2 --duration 2 \
		--seed 0 --json \
	| $(PYTHON) -c "import json, sys; \
		from repro.obs import validate_nesting; \
		doc = json.load(sys.stdin); \
		assert doc['schema'] == 'repro.trace/v1', doc['schema']; \
		assert doc['summary']['spans'] > 0, 'no spans recorded'; \
		problems = validate_nesting(doc['traceEvents']); \
		assert not problems, problems; \
		print('trace-smoke ok:', len(doc['traceEvents']), 'events')"
