"""Unit tests of the epoch-batched simulation core's parts.

Whether the epoch engine, the traced fast path and the sharded cluster
mode report what the classic one-step-at-a-time loop does is checked
scenario by scenario in ``tests/test_equivalence.py``.  This file pins
the pieces underneath: segment pricing against per-step pricing, the
round schedule against a naive round-by-round walk, the sharded mode's
input checks, the traced epoch's bulk metric updates and shared step
arguments, and the order in which a traced epoch writes its events.
"""

import random

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, ShardedStepCostModel
from repro.cluster.replica import Replica
from repro.common.errors import ServingError, TraceError
from repro.gpu import simcache
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.obs import Tracer, chrome_events, tracing
from repro.obs.metrics import MetricsRegistry, sequential_sum
from repro.serving import (
    Request,
    ServingSimulator,
    ServingWorkload,
    StepCostModel,
)
from repro.serving.engine import RoundSchedule
from repro.verify.equivalence import Cell
from tests.test_equivalence import TRACED_ROWS


class TestSegmentPricing:
    def test_decode_step_time_bit_identical_to_step_time(self):
        cost = StepCostModel(get_model("gpt-neo-1.3b"), get_gpu("a100"),
                             plan="sdf")
        rng = np.random.default_rng(0)
        for _ in range(50):
            batch = int(rng.integers(1, 33))
            decode_kv = [int(v) for v in rng.integers(1, 4096, size=batch)]
            assert cost.decode_step_time(decode_kv) \
                == cost.step_time(decode_kv=decode_kv)
        assert cost.decode_step_time([]) == 0.0

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single-gpu", "tp2"])
    def test_sharded_decode_step_cost_matches_step_cost(self, sharded):
        # The engine prices through step_cost/decode_step_cost only; the
        # single-GPU model speaks the same protocol with zero comm.
        model, gpu = get_model("bert-large"), get_gpu("a100")
        cost = (ShardedStepCostModel(model, gpu, plan="sdf", tp=2)
                if sharded else StepCostModel(model, gpu, plan="sdf"))
        rng = np.random.default_rng(1)
        for _ in range(20):
            batch = int(rng.integers(1, 17))
            decode_kv = [int(v) for v in rng.integers(1, 2048, size=batch)]
            total, comm = cost.step_cost(decode_kv=decode_kv)
            assert cost.decode_step_cost(decode_kv) == (total, comm)
            assert total == cost.step_time(decode_kv=decode_kv)
            assert (comm > 0.0) if sharded else (comm == 0.0)

    def test_sequential_sum_matches_running_addition(self):
        values = [0.1, 0.2, 0.30000000000000004, 1e-18, 5.5]
        total = 3.7
        for v in values:
            total += v
        assert sequential_sum(3.7, values) == total
        assert sequential_sum(3.7, []) == 3.7


class TestRoundSchedule:
    """``RoundSchedule`` against a naive round-by-round walk."""

    @staticmethod
    def naive(kv0, rem, tau, n, step, held):
        """Walk every request round by round: its finish round, the
        rounds that allocate each new block, the rounds after which
        its stride-1 target KV and its draft KV change bucket, and
        every round's ``(prefill, decode_kv)``."""
        def bucket(length):
            return -(-length // step) * step

        finish, grows, target, draft = [], [], [], []
        entries = {}
        for kv, r, h in zip(kv0, rem, held):
            f = -(-r // tau)
            finish.append(f)
            rounds, blocks = [], h // step
            for s in range(1, f + 1):
                after = kv + min(tau * s, r)
                entry = entries.setdefault(s, ([], []))
                added = after - kv - tau * (s - 1)
                if added > 1:
                    entry[0].append((added, after))
                else:
                    entry[1].append(after)
                while s <= n and blocks * step < after:
                    blocks += 1
                    rounds.append(s)
            grows.append(rounds)
            last = min(f, n)
            target.append([e for e in range(1, last)
                           if bucket(kv + e) != bucket(kv + e + 1)])
            draft.append([e for e in range(1, last)
                          for _ in range(bucket(kv + tau * e + 1) // step
                                         - bucket(kv + tau * (e - 1) + 1)
                                         // step)])
        return finish, grows, target, draft, entries

    @pytest.mark.parametrize("tau", [1, 2, 3, 17, 33])
    def test_matches_round_by_round_walk(self, tau):
        rng = random.Random(tau)
        for _ in range(25):
            step = rng.choice([1, 4, 16, 64])
            b = rng.randint(1, 5)
            kv0 = [rng.randint(1, 300) for _ in range(b)]
            rem = [rng.randint(1, 200) for _ in range(b)]
            held = [(-(-kv // step) + rng.randint(0, 2)) * step
                    for kv in kv0]
            n = rng.randint(1, max(rem) // tau + 2)
            finish, grows, target, draft, entries = self.naive(
                kv0, rem, tau, n, step, held)
            schedule = RoundSchedule(kv0, rem, tau)
            assert schedule.finish == finish
            assert [list(r) for r in schedule.crossings(step, n, held)] \
                == grows
            # The bucket crossings serve the stride-1 target and the
            # draft, whose KV before the round plus one is the same
            # length at stride 1.
            ends = [list(r) for r in schedule.crossings(step, n)]
            assert ends == draft
            if tau == 1:
                assert ends == target
            for s, expected in entries.items():
                live = [kv for kv, f in zip(kv0, finish) if f >= s]
                assert schedule.entries(s, live, s in finish) == expected


class TestClusterEquivalence:
    def test_stateful_policy_rejects_sharding(self):
        with pytest.raises(ServingError):
            ClusterSimulator(
                "bert-large", "a100",
                workload=ServingWorkload(rate=1.0, duration=1.0, seed=0),
                policy="least-outstanding", jobs=2,
            )

    def test_tracing_rejects_sharding(self):
        sim = ClusterSimulator(
            "bert-large", "a100",
            workload=ServingWorkload(rate=1.0, duration=1.0, seed=0),
            jobs=2,
        )
        with tracing():
            with pytest.raises(ServingError):
                sim.run()

    def test_requires_exactly_one_source(self):
        workload = ServingWorkload(rate=1.0, duration=1.0, seed=0)
        requests = [Request(request_id=0, arrival_time=0.0,
                            prompt_len=64, output_len=2)]
        with pytest.raises(ServingError):
            ClusterSimulator("bert-large", "a100")
        with pytest.raises(ServingError):
            ClusterSimulator("bert-large", "a100", requests=requests,
                             workload=workload)


class TestTracedEngineEquivalence:
    """How a traced epoch writes its steps' metrics and arguments."""

    @pytest.mark.parametrize(
        "row", TRACED_ROWS,
        ids=[row.name.removeprefix("traced-") for row in TRACED_ROWS])
    def test_bulk_metrics_match_the_step_events(self, row):
        """The lane metrics, updated once per stretch, equal what one
        update per traced step gives."""
        with tracing(Tracer()) as tracer:
            row.simulate(Cell("epoch", traced=True), **row.kwargs)
        lanes = {pid: name for name, pid in tracer.processes.items()}
        expected = MetricsRegistry()
        for event in tracer.events:
            lane = lanes.get(event.pid)
            if event.name == "engine step":
                expected.counter(f"{lane}.steps").inc()
                expected.counter(f"{lane}.decode_tokens").add(
                    event.args["decode"])
                expected.counter(f"{lane}.prefill_tokens").add(
                    event.args["prefill_tokens"])
                expected.gauge(f"{lane}.batch").set(event.args["running"])
                if "spec_emitted" in event.args:
                    expected.counter(f"{lane}.spec_emitted").add(
                        event.args["spec_emitted"])
            elif event.name == f"{lane} occupancy":
                expected.gauge(f"{lane}.kv_blocks").set(
                    event.args["kv_blocks"])
            elif event.name == "replica step":
                expected.counter(f"{lane}.comm_time_s").add(
                    event.args["comm_s"])
        snapshot = tracer.metrics.snapshot()
        wanted = expected.snapshot()
        assert wanted["counters"]
        for kind in ("counters", "gauges"):
            for key, value in wanted[kind].items():
                assert snapshot[kind][key] == value, key

    def test_step_args_are_shared_within_a_stretch(self, engines):
        """A traced epoch builds one ``args`` dict per stretch of steps
        whose counts do not change, not one per step."""
        sim = ServingSimulator(
            "gpt-neo", "a100", plan="sdf",
            workload=ServingWorkload(rate=0.5, duration=20.0, seed=7,
                                     max_prompt=256, mean_output=512))
        with tracing(Tracer()) as tracer:
            sim.run()
        (engine,) = engines
        steps = [e for e in tracer.events if e.name == "engine step"]
        samples = [e for e in tracer.events if e.ph == "C"]
        assert len(steps) == len(samples) == engine.steps
        assert engine.steps > 10 * len({id(e.args) for e in steps})
        assert engine.steps > 10 * len({id(e.args) for e in samples})


class NegativeDecode:
    """A step-cost model pricing every pure-decode step at -0.5 s; steps
    with prefill entries keep the wrapped model's price.  Counts the
    epoch path's ``decode_step_cost`` calls."""

    def __init__(self, cost):
        self.cost = cost
        self.kv_bucket = cost.kv_bucket
        self.decode_calls = 0

    def step_cost(self, prefill, decode_kv):
        if prefill:
            return self.cost.step_cost(prefill=prefill, decode_kv=decode_kv)
        return -0.5, 0.0

    def decode_step_cost(self, decode_kv):
        self.decode_calls += 1
        return -0.5, 0.0


class TestTraceOrder:
    """A traced epoch writes every event where the classic loop writes
    it: a later segment's cold ``kernel`` spans after the rounds before
    it, each ``finish`` instant after its round."""

    #: Three requests admitted together that finish at different rounds
    #: of one epoch and cross several KV buckets on the way.
    REQUESTS = [Request(request_id=i, arrival_time=0.0, prompt_len=prompt,
                        output_len=output)
                for i, (prompt, output) in enumerate(((100, 70), (140, 150),
                                                      (180, 300)))]

    @pytest.mark.parametrize("draft_len", [None, 3],
                             ids=["tau-1", "tau-4"])
    def test_epoch_writes_the_classic_trace(self, engines, draft_len):
        spec = ({} if draft_len is None
                else dict(draft_model="bert-large", draft_len=draft_len))
        runs = {}
        for engine in ("event", "epoch"):
            engines.clear()
            simcache.invalidate()
            with tracing(Tracer()) as tracer:
                ServingSimulator("bert-large", "a100", plan="sdf",
                                 engine=engine, requests=self.REQUESTS,
                                 **spec).run()
            runs[engine] = chrome_events(tracer)
        simcache.invalidate()
        assert runs["event"] == runs["epoch"]

        # The decode phase is one epoch, which really prices a segment
        # cold after its first round and finishes a request before its
        # last round.
        (engine,) = engines
        assert engine.epochs == 1
        assert engine._spec_tokens == (1 if draft_len is None else 4)
        steps = [i for i, event in enumerate(tracer.events)
                 if event.name == "engine step"]
        first, last = steps[-engine.epoch_steps], steps[-1]
        between = tracer.events[first:last]
        assert any(event.cat == "kernel" for event in between)
        assert any(event.name == "finish" for event in between)

    @pytest.mark.parametrize("engine", ["event", "epoch"])
    @pytest.mark.parametrize("lane", ["serving", "replica"])
    def test_negative_step_cost_is_rejected(self, engine, lane):
        request = Request(request_id=0, arrival_time=0.0, prompt_len=64,
                          output_len=8)
        with tracing(Tracer()) as tracer:
            if lane == "serving":
                sim = ServingSimulator("bert-large", "a100", engine=engine,
                                       requests=[request])
                sim.cost = cost = NegativeDecode(sim.cost)
                name, run = "engine step", sim.run
            else:
                replica = Replica(0, get_model("bert-large"),
                                  get_gpu("a100"), engine=engine,
                                  tracer=tracer)
                cost = NegativeDecode(replica.cost)
                replica.engine.set_cost(cost)
                replica.submit(request, 0.0)
                name = "replica step"

                def run():
                    while replica.advance():
                        pass
            with pytest.raises(TraceError, match=f"span '{name}' has "
                                                 "negative duration -0.5"):
                run()
        # Only the prefill step's span went out.
        assert [event.dur > 0 for event in tracer.events
                if event.name == name] == [True]
        assert (cost.decode_calls > 0) is (engine == "epoch")
