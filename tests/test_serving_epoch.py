"""Unit tests of the epoch-batched simulation core's parts.

Whether the epoch engine, the traced fast path and the sharded cluster
mode report what the classic one-step-at-a-time loop does is checked
scenario by scenario in ``tests/test_equivalence.py``.  This file pins
the pieces underneath: segment pricing against per-step pricing, the
round schedule against a naive round-by-round walk, the sharded mode's
input checks, the traced epoch's bulk metric updates and shared step
arguments, and the order in which a traced epoch writes its events.
"""

import json
import random

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, ShardedStepCostModel
from repro.cluster.replica import Replica
from repro.common.errors import ServingError, TraceError
from repro.gpu import simcache
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.models.generation import (
    STEP_GRAPHS,
    attended_length,
    step_shape_kind,
)
from repro.obs import Tracer, chrome_events, tracing
from repro.obs.metrics import MetricsRegistry, sequential_sum
from repro.serving import (
    ContinuousBatchingScheduler,
    EngineConfig,
    KVBlockManager,
    Request,
    RequestStatus,
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

    @staticmethod
    def batch(rng, block):
        """A running batch in every state a round can meet: decoding,
        prefilling from scratch or part way through, recomputing after
        an eviction (``generated > 0``), and one-token requests.  Each
        holds its admission blocks, a decoder sometimes a few spare."""
        running = []
        for i in range(rng.randint(1, 6)):
            prompt = rng.randint(1, 700)
            request = Request(request_id=i, arrival_time=0.0,
                              prompt_len=prompt,
                              output_len=rng.choice([1, rng.randint(1, 90)]))
            kind = rng.choice(["decode", "fresh", "partial", "recompute"])
            if kind == "recompute" and request.output_len > 1:
                request.generated = rng.randint(1, request.output_len - 1)
                request.prefill_target = prompt + request.generated
            elif kind == "decode" and request.output_len > 1:
                request.generated = rng.randint(1, request.output_len - 1)
                request.prefilled = prompt
                request.kv_tokens = prompt + request.generated - 1
                request.status = RequestStatus.DECODE
            if request.status is not RequestStatus.DECODE:
                if kind != "fresh":
                    request.prefilled = request.kv_tokens = rng.randint(
                        0, request.prefill_target - 1)
                request.status = RequestStatus.PREFILL
            running.append((request, rng.randint(0, 2) * block))
        return running

    @pytest.mark.parametrize("chunk", [64, 512])
    def test_prefill_stride_matches_schedule(self, chunk):
        """Rounds carrying prefill chunks: the closed form's entries,
        first decode rounds, grow rounds, bucket crossings and finish
        rounds against ``schedule()``/``complete_step()`` run round by
        round."""
        rng = random.Random(chunk)
        shared = recomputes = one_token = 0
        for _ in range(60):
            block = rng.choice([16, 64])
            memory = KVBlockManager(capacity_bytes=1 << 30,
                                    block_tokens=block, bytes_per_token=1)
            scheduler = ContinuousBatchingScheduler(
                memory, chunk_tokens=chunk, max_batch=8)
            for request, spare in self.batch(rng, block):
                memory.grow(request.request_id,
                            max(request.prefill_target, request.kv_tokens)
                            + spare)
                scheduler.running.append(request)
            running = list(scheduler.running)
            held = [memory.held_blocks(r.request_id) * block
                    for r in running]
            schedule = RoundSchedule.of(running, 1, chunk)
            prefilling = [r for r in running if r.prefilled < r.prefill_target]
            recomputes += sum(r.generated > 0 for r in prefilling)
            one_token += sum(r.output_len == 1 for r in prefilling)

            # The naive walk, round by round.
            index = {id(r): i for i, r in enumerate(running)}
            first_decode = [1 if r.status is RequestStatus.DECODE else None
                            for r in running]
            finish = [None] * len(running)
            grows = [[] for _ in running]
            decode_kv = [{} for _ in running]
            entries, s = {}, 0
            while scheduler.running:
                s += 1
                before = [memory.held_blocks(r.request_id) for r in running]
                step = scheduler.schedule(float(s))
                for i, r in enumerate(running):
                    grows[i] += [s] * (memory.held_blocks(r.request_id)
                                       - before[i])
                entries[s] = ([(c, kv) for _, c, kv in step.prefill],
                              [kv for _, kv in step.decode])
                for r, kv in step.decode:
                    decode_kv[index[id(r)]][s] = kv
                shared += len(step.prefill) > 1
                for r in scheduler.complete_step(step, float(s)):
                    finish[index[id(r)]] = s
                for r, _, _ in step.prefill:
                    if r.prefilled >= r.prefill_target:
                        first_decode[index[id(r)]] = s + 1
            n = rng.randint(1, s)

            assert [o + 1 for o in schedule.start] == first_decode
            assert schedule.finish == finish
            assert schedule.prefill_rounds == max(
                [r for r, (p, _) in entries.items() if p], default=0)
            for r, expected in entries.items():
                if r <= schedule.prefill_rounds:
                    assert schedule.prefill_entries(r) == expected, r
                else:
                    live = [kv - o for kv, o, f in zip(
                        schedule.kv0, schedule.start, schedule.finish)
                        if o < r <= f]
                    assert schedule.entries(r, live, r in finish) \
                        == expected, r
            assert [list(r) for r in schedule.crossings(block, n, held)] \
                == [[r for r in rounds if r <= n] for rounds in grows]

            def bucket(kv):
                return -(-kv // block)

            assert [list(r) for r in schedule.crossings(block, n)] == [
                [r for r in range(1, min(f, n))
                 if r in kvs and bucket(kvs[r]) != bucket(kvs[r + 1])]
                for kvs, f in zip(decode_kv, schedule.finish)]
        # Some rounds split their budget between several requests.
        assert shared > 10 and recomputes > 10 and one_token > 10

    @pytest.mark.parametrize("plan", ["baseline", "sdf"],
                             ids=["stride-1", "stride-t"])
    @pytest.mark.parametrize("tau", [2, 3, 4, 17, 33])
    def test_verify_ends_match_attended_shapes(self, plan, tau):
        """The rounds after which a verify row's price can change are
        those, short of the request's last, after which some layer's
        attended length moves; KVs start below GPT-Neo's window."""
        rng = random.Random(100 + tau)
        model = get_model("gpt-neo-1.3b")
        specs = [spec for _, spec, _ in model.layer_groups()]
        window = max(spec.window for spec in specs)
        for t in (32, 64):
            cost = StepCostModel(model, "a100", plan=plan, t=t)
            merged = False

            def shapes(kv):
                return [attended_length(
                    spec, STEP_GRAPHS[step_shape_kind(spec, tau)](cost.plan),
                    m_tokens=tau, kv_len=kv, t=t) for spec in specs]

            for _ in range(10):
                b = rng.randint(1, 4)
                kv0 = [rng.randint(1, window + tau) for _ in range(b)]
                rem = [rng.randint(1, 40 * tau) for _ in range(b)]
                n = rng.randint(1, max(rem) // tau + 2)
                schedule = RoundSchedule(kv0, rem, tau)
                found = schedule.verify_ends(cost.verify_grain(tau), n)
                for kv, f, ends in zip(kv0, schedule.finish, found):
                    naive = [s for s in range(1, min(f, n))
                             if shapes(kv + tau * s)
                             != shapes(kv + tau * (s + 1))]
                    assert sorted(set(ends)) == naive, (kv, f, n, t)
                    merged |= len(naive) < min(f, n) - 1
            # Beyond the window, stride t merges rounds adding fewer
            # than t tokens.
            assert merged is (plan == "sdf" and tau < t)


class TestPrefillEpochs:
    def test_prefill_heavy_stream_stays_on_the_epoch_path(self, engines):
        """A scaled-down prefill-heavy BERT-large stream: prefill rounds
        take the epoch path, so nearly every step is an epoch step, and
        the report is the classic loop's byte for byte."""
        docs = {}
        for engine in ("event", "epoch"):
            docs[engine] = ServingSimulator(
                "bert-large", "a100", plan="sdf", engine=engine,
                workload=ServingWorkload(rate=2.0, duration=400.0, seed=0),
            ).run().to_dict()
        assert json.dumps(docs["epoch"]) == json.dumps(docs["event"])
        epoch = engines[-1]
        assert epoch.epoch_steps >= 0.97 * epoch.steps
        assert epoch.epoch_prefill_steps > 0.1 * epoch.steps


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
                replica = Replica(
                    0, EngineConfig("bert-large", "a100", engine=engine),
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
