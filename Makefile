PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast parity-smoke verify \
	verify-fuzz lint cluster-smoke controlplane-smoke trace-smoke \
	approx-smoke tune-smoke moe-smoke parallel-smoke scenario-smoke \
	plans-smoke results-check bench-counts

test:
	$(PYTHON) -m pytest -x -q

# Everything except tests marked `slow` — the edit-run loop subset.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Prefers ruff, falls back to pyflakes, and degrades to a syntax check
# that writes no bytecode when neither is installed (offline
# environments).  Always ends with the seed audit: no unseeded
# randomness in tests or benchmarks.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check --select E9,F src tests benchmarks examples; \
	elif $(PYTHON) -m pyflakes --version >/dev/null 2>&1; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples; \
	else \
		echo "ruff/pyflakes unavailable; syntax check only"; \
		$(PYTHON) tools/syntax_check.py src tests benchmarks examples; \
	fi
	$(PYTHON) tools/lint_seeded_rng.py tests benchmarks

# The end-to-end benchmark at 2% scale, traced, one repetition: each
# workload's report digest, every count-unit per-layer metric and the
# epoch step share, compared exactly against the committed golden.
# These figures do not depend on the machine, so a change to them means
# the simulator took different paths (see tools/bench_counts.py).
bench-counts:
	$(PYTHON) benchmarks/e2e/run.py --scale 0.02 --repetitions 1 \
		--trace 1 --out /tmp/e2e_counts_run.json >/dev/null
	$(PYTHON) tools/bench_counts.py /tmp/e2e_counts_run.json \
		--output /tmp/e2e_counts.json
	$(PYTHON) tools/compare_golden.py /tmp/e2e_counts.json \
		tests/golden/e2e_counts.json

# Tiny fixed-seed approx-sweeps compared byte-for-byte (modulo float
# ulp) against the committed golden reports (see docs/approx.md); the
# fp32 GPT-Neo run pins a FlashAttention launch that does not fit.
approx-smoke:
	$(PYTHON) -m repro approx-sweep --models bert-large \
		--seq-lens 256,1024 --cases 2 --seed 0 \
		--output /tmp/approx_sweep_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/approx_sweep_smoke.json \
		tests/golden/approx_sweep_smoke.json
	$(PYTHON) -m repro approx-sweep --dtype fp32 --models gpt-neo-1.3b \
		--seq-lens 256 --cases 1 --seed 0 \
		--output /tmp/approx_sweep_fp32_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/approx_sweep_fp32_smoke.json \
		tests/golden/approx_sweep_fp32_smoke.json

# Tiny fixed-seed tuning runs, serving and cluster mode plus a MoE +
# speculative scenario that searches top_k and draft_len, compared
# byte-for-byte (modulo float ulp) against the committed golden
# artifacts — pins the search's determinism, the repro.tuned_plan/v1
# schema and the cost models the cluster evaluations share (see
# docs/tuning.md).  Each golden is the output of the command above it.
tune-smoke:
	$(PYTHON) -m repro tune --objective ttft_p99 --budget 8 \
		--rate 2 --duration 3 --seed 0 \
		--output /tmp/tune_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/tune_smoke.json \
		tests/golden/tune_smoke.json
	$(PYTHON) -m repro tune --sim cluster --replicas 2 \
		--objective ttft_p99 --budget 8 --rate 2 --duration 3 --seed 0 \
		--output /tmp/tune_cluster_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/tune_cluster_smoke.json \
		tests/golden/tune_cluster_smoke.json
	$(PYTHON) -m repro tune --model gpt-neo-1.3b --n-experts 4 --top-k 2 \
		--draft-model bert-large --objective tpot_p99 --budget 8 \
		--rate 1 --duration 3 --seed 0 \
		--output /tmp/tune_moe_spec_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/tune_moe_spec_smoke.json \
		tests/golden/tune_moe_spec_smoke.json

# Fixed-seed MoE + speculative-decoding serving run and a TP=2
# speculative cluster run, each under both engines, compared against
# the committed golden reports — pins the expert-parallel cost model,
# the deterministic speculative schedule (see docs/models.md) and its
# epoch fast path.
moe-smoke:
	for engine in epoch event; do \
		$(PYTHON) -m repro serve-sim --model bert-large \
			--n-experts 8 --top-k 2 \
			--draft-model gpt-neo-1.3b --draft-len 4 --accept-rate 0.75 \
			--rate 4 --duration 3 --seed 0 --plans baseline,sdf \
			--engine $$engine --json > /tmp/moe_smoke.json && \
		$(PYTHON) tools/compare_golden.py /tmp/moe_smoke.json \
			tests/golden/moe_smoke.json && \
		$(PYTHON) -m repro cluster-sim --model bert-large \
			--replicas 2 --tp 2 \
			--draft-model gpt-neo-1.3b --draft-len 4 --accept-rate 0.75 \
			--rate 4 --duration 3 --seed 0 --plans baseline,sdf \
			--engine $$engine --json > /tmp/cluster_spec_smoke.json && \
		$(PYTHON) tools/compare_golden.py /tmp/cluster_spec_smoke.json \
			tests/golden/cluster_spec_smoke.json || exit 1; \
	done

# Fixed-seed runs through the scenario flags compared against the
# committed golden reports — pins the flag -> ScenarioSpec -> simulator
# path (see docs/api.md): plain serving with MMPP arrivals, three plans
# and engine knobs; a TP x PP prefix-affinity cluster with diurnal
# arrivals, tree all-reduce and PCIe; controlplane-sim's own defaults;
# and a committed 40-request trace replayed by serve-sim, a
# least-outstanding cluster and the tuner.
TRACE_REQUESTS := tests/golden/trace_requests.jsonl
scenario-smoke:
	$(PYTHON) -m repro serve-sim --rate 3 --duration 4 --seed 1 \
		--arrival mmpp --burst-rate 9 --base-dwell 2 --burst-dwell 1 \
		--chunk-tokens 256 --max-batch 16 --plans baseline,sd,sdf \
		--json > /tmp/scenario_serve_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/scenario_serve_smoke.json \
		tests/golden/scenario_serve_smoke.json
	$(PYTHON) -m repro cluster-sim --replicas 3 --tp 2 --pp 2 \
		--policy prefix-affinity --prefix-groups 4 --algorithm tree \
		--interconnect pcie4 --arrival diurnal --rate 4 --duration 4 \
		--seed 2 --json > /tmp/scenario_cluster_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/scenario_cluster_smoke.json \
		tests/golden/scenario_cluster_smoke.json
	$(PYTHON) -m repro controlplane-sim --duration 6 \
		--json > /tmp/scenario_controlplane_smoke.json
	$(PYTHON) tools/compare_golden.py \
		/tmp/scenario_controlplane_smoke.json \
		tests/golden/scenario_controlplane_smoke.json
	$(PYTHON) -m repro serve-sim --trace-file $(TRACE_REQUESTS) \
		--rate 10 --duration 4 --seed 0 \
		--json > /tmp/scenario_trace_serve_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/scenario_trace_serve_smoke.json \
		tests/golden/scenario_trace_serve_smoke.json
	$(PYTHON) -m repro cluster-sim --trace-file $(TRACE_REQUESTS) \
		--rate 10 --duration 4 --seed 0 --replicas 3 \
		--policy least-outstanding \
		--json > /tmp/scenario_trace_cluster_smoke.json
	$(PYTHON) tools/compare_golden.py \
		/tmp/scenario_trace_cluster_smoke.json \
		tests/golden/scenario_trace_cluster_smoke.json
	$(PYTHON) -m repro tune --trace-file $(TRACE_REQUESTS) \
		--rate 10 --duration 4 --budget 6 --seed 0 \
		--output /tmp/scenario_trace_tune_smoke.json >/dev/null
	$(PYTHON) tools/compare_golden.py /tmp/scenario_trace_tune_smoke.json \
		tests/golden/scenario_trace_tune_smoke.json

# Tensor-parallel scaling runs compared against the committed golden
# reports — pins the sharded layer table and the shared collective
# terms behind `repro parallel` (see docs/cluster.md).
parallel-smoke:
	$(PYTHON) -m repro parallel --model bigbird-large --plan sdf \
		--seq-len 2048 --json > /tmp/parallel_bigbird_sdf.json
	$(PYTHON) tools/compare_golden.py /tmp/parallel_bigbird_sdf.json \
		tests/golden/parallel_bigbird_sdf.json
	$(PYTHON) -m repro parallel --model longformer-large --plan sd \
		--algorithm tree --json > /tmp/parallel_longformer_tree.json
	$(PYTHON) tools/compare_golden.py /tmp/parallel_longformer_tree.json \
		tests/golden/parallel_longformer_tree.json

# The CLI's per-plan tables and generation runs compared against the
# committed golden reports — pins the paper's plan set
# (PAPER_CANDIDATES) behind `compare`/`footprint` and the serving-step
# shape kinds behind `generate`: decode under a whole-block plan and
# chunked prefill under SDF (see docs/serving.md).
plans-smoke:
	$(PYTHON) -m repro compare --seq-len 512 \
		--json > /tmp/plans_compare_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/plans_compare_smoke.json \
		tests/golden/plans_compare_smoke.json
	$(PYTHON) -m repro footprint --seq-len 512 \
		--json > /tmp/plans_footprint_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/plans_footprint_smoke.json \
		tests/golden/plans_footprint_smoke.json
	$(PYTHON) -m repro generate --tokens 4 --seq-len 512 --plan flash \
		--json > /tmp/plans_generate_flash_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/plans_generate_flash_smoke.json \
		tests/golden/plans_generate_flash_smoke.json
	$(PYTHON) -m repro generate --tokens 4 --seq-len 512 --plan sdf \
		--prefill-chunk 256 --json > /tmp/plans_generate_sdf_chunked_smoke.json
	$(PYTHON) tools/compare_golden.py \
		/tmp/plans_generate_sdf_chunked_smoke.json \
		tests/golden/plans_generate_sdf_chunked_smoke.json

# Regenerate the paper tables and figures (benchmarks/results/*.txt)
# and fail if any of them differs from the committed copy.
results-check:
	$(PYTHON) -m pytest benchmarks --ignore=benchmarks/e2e \
		--benchmark-disable -q -p no:cacheprovider
	git diff --exit-code benchmarks/results

# The serving engines' parity checks.  serve-decode's first run replays
# the leading 2,000 requests of its GPT-Neo / A100 / SDF decode-heavy
# stream (seed 7) under the classic event loop and the epoch engine,
# and exits non-zero unless the two reports are byte-identical; a
# four-replica round-robin cluster run of ~4,000 requests must print
# the same JSON with two worker processes as serially.
parity-smoke:
	$(PYTHON) benchmarks/e2e/run.py --workloads serve-decode \
		--repetitions 1
	for jobs in 1 2; do \
		$(PYTHON) -m repro cluster-sim --model bert-large --replicas 4 \
			--policy round-robin --rate 8 --duration 500 --seed 7 \
			--plans sdf --jobs $$jobs --json \
			> /tmp/parity_cluster_jobs$$jobs.json || exit 1; \
	done
	cmp /tmp/parity_cluster_jobs1.json /tmp/parity_cluster_jobs2.json
	@echo "parity-smoke ok: cluster-sim --jobs 2 matches --jobs 1"

verify:
	$(PYTHON) -m repro verify

# Differential fuzzing of every registered oracle; failure artifacts
# land in verify-artifacts/ (see docs/verification.md).
verify-fuzz:
	$(PYTHON) -m repro verify fuzz --cases 200 --seed 0 \
		--artifact-dir verify-artifacts

# Two-replica, TP=2 cluster simulation compared against the committed
# golden report (see docs/cluster.md).
cluster-smoke:
	$(PYTHON) -m repro cluster-sim --replicas 2 --tp 2 \
		--policy least-outstanding --rate 4 --duration 5 --seed 0 \
		--json > /tmp/cluster_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/cluster_smoke.json \
		tests/golden/cluster_smoke.json

# Bursty-arrival control-plane run with one injected replica death,
# compared against the committed golden report: the fleet must recover
# without losing a request and the conservation identity must hold
# (see docs/controlplane.md).
controlplane-smoke:
	$(PYTHON) -m repro controlplane-sim --arrival mmpp --rate 2 \
		--burst-rate 10 --duration 8 --replicas 2 --death 1.5 \
		--cold-start 0.1 --seed 0 --json > /tmp/controlplane_smoke.json
	$(PYTHON) tools/compare_golden.py /tmp/controlplane_smoke.json \
		tests/golden/controlplane_smoke.json
	$(PYTHON) -c "import json; \
		doc = json.load(open('/tmp/controlplane_smoke.json')); \
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
# its spans must strictly nest (see docs/observability.md).  Traced
# serving and two-replica cluster runs must also export the same
# events and summary on the epoch fast path as on the classic loop.
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
	for sim in "serving" "cluster --replicas 2"; do \
		for engine in event epoch; do \
			$(PYTHON) -m repro trace --sim $$sim --rate 2 --duration 2 \
				--seed 0 --engine $$engine --json \
				> /tmp/trace_smoke_$$engine.json || exit 1; \
		done; \
		$(PYTHON) -c "import json; \
			event, epoch = (json.load(open(f'/tmp/trace_smoke_{e}.json')) \
				for e in ('event', 'epoch')); \
			assert event['traceEvents'] == epoch['traceEvents'], \
				'traced engines emit different events'; \
			assert event['summary'] == epoch['summary'], \
				'traced engines summarize differently'; \
			print('trace-smoke engines agree:', \
				len(epoch['traceEvents']), 'events')" || exit 1; \
	done
