"""Every engine knob reaches every engine.

Each :class:`~repro.serving.config.EngineConfig` field is set to a
non-default value at each front-end whose signature takes it, and
every engine the run builds must carry it: the serving simulator's
engine, each cluster replica (serially and in the shards a ``jobs=2``
run ships) and every control-plane replica (initial, autoscaled and
failover).  A field a front-end does not take keeps its default.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.cluster import ClusterSimulator
from repro.cluster import sharded
from repro.common.dtypes import DType
from repro.common.errors import ConfigError, ServingError
from repro.controlplane import (
    AutoscalerConfig,
    ControlPlaneSimulator,
    FailureSchedule,
)
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import PCIE4
from repro.gpu.specs import get_gpu
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig
from repro.models.moe import MoEConfig
from repro.serving import (
    EngineConfig,
    KVBlockManager,
    ServingSimulator,
    ServingWorkload,
)


def tiny_model(name, num_layers=2, d_model=128, num_heads=4):
    return ModelConfig(
        name, num_layers=num_layers, d_model=d_model, num_heads=num_heads,
        d_ff=2 * d_model,
        attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
    )


MODEL = MoEConfig.from_dense(tiny_model("tiny-knobs"), n_experts=4, top_k=2)
GPU = get_gpu("a100")
DRAFT = tiny_model("tiny-knobs-draft", num_layers=1, d_model=64,
                   num_heads=2)

#: A non-default value for every field but the model and GPU.
KNOBS = dict(
    plan=AttentionPlan.DECOMPOSED, t=32, dtype=DType.FP32, chunk_tokens=128,
    max_batch=8, block_tokens=32, reserve_fraction=0.2, tp=2, pp=2, ep=2,
    interconnect=PCIE4, algorithm="tree", draft_model=DRAFT, draft_len=2,
    accept_rate=0.5, engine="event", max_epoch=7,
)
DEFAULTS = {f.name: f.default for f in dataclasses.fields(EngineConfig)
            if f.name in KNOBS}


def knobs(front_end):
    """``KNOBS`` restricted to the fields ``front_end`` takes."""
    taken = inspect.signature(front_end).parameters
    return {name: value for name, value in KNOBS.items() if name in taken}


def carried(engine):
    """Each field's value as ``engine`` shows it."""
    cost, spec = engine.cost, engine.spec_decode
    draft = spec.draft_cost if spec is not None else None
    return dict(
        model=cost.model, gpu=cost.gpu, plan=cost.plan, t=cost.t,
        dtype=cost.dtype, chunk_tokens=engine.scheduler.chunk_tokens,
        max_batch=engine.scheduler.max_batch,
        block_tokens=engine.memory.block_tokens,
        # The KV reserve shows in the pool's size.
        reserve_fraction=engine.memory.total_blocks,
        tp=getattr(cost, "tp", 1), pp=getattr(cost, "pp", 1),
        ep=getattr(cost, "ep", 1),
        interconnect=getattr(cost, "interconnect", DEFAULTS["interconnect"]),
        algorithm=getattr(cost, "algorithm", DEFAULTS["algorithm"]),
        draft_model=spec and spec.config.draft_model,
        draft_len=spec.draft_len if spec else DEFAULTS["draft_len"],
        accept_rate=(spec.config.accept_rate if spec
                     else DEFAULTS["accept_rate"]),
        engine="epoch" if engine.epoch else "event",
        max_epoch=engine.max_epoch,
        # The draft prices on the target's terms.
        draft_terms=draft and (draft.gpu, draft.plan, draft.t, draft.dtype,
                               draft.kv_bucket),
        kv_bucket=cost.kv_bucket,
    )


def expected(front_end):
    """What every engine of ``front_end`` run with :func:`knobs` must
    carry."""
    values = {**DEFAULTS, **knobs(front_end)}
    pool = KVBlockManager.for_model(
        MODEL, GPU, block_tokens=values["block_tokens"],
        dtype=values["dtype"],
        reserve_fraction=values["reserve_fraction"],
        n_gpus=values["tp"] * values["pp"] * values["ep"])
    draft = values["draft_model"]
    return dict(
        values, model=MODEL, gpu=GPU, reserve_fraction=pool.total_blocks,
        draft_terms=draft and (GPU, values["plan"], values["t"],
                               values["dtype"], values["block_tokens"]),
        kv_bucket=values["block_tokens"])


def workload(**kwargs):
    return ServingWorkload(seed=0, max_prompt=96, mean_output=24,
                           block_tokens=KNOBS["block_tokens"], **kwargs)


def test_every_field_has_a_non_default_knob():
    names = {f.name for f in dataclasses.fields(EngineConfig)}
    assert set(KNOBS) == names - {"model", "gpu"}
    assert all(KNOBS[name] != DEFAULTS[name] for name in KNOBS)


def test_serving_engine(engines):
    ServingSimulator(MODEL, GPU, workload=workload(rate=8.0, duration=1.0),
                     **knobs(ServingSimulator)).run()
    assert len(engines) == 1
    assert carried(engines[0]) == expected(ServingSimulator)


@pytest.mark.parametrize("jobs", (1, 2))
def test_cluster_replicas(engines, monkeypatch, jobs):
    shipped = []

    def in_process(fn, shards, jobs):
        """Run each shard here after the pickle round trip a worker
        process would see."""
        shipped.extend(shards)
        return [fn(pickle.loads(pickle.dumps(shard))) for shard in shards]

    monkeypatch.setattr(sharded, "fanout", in_process)
    ClusterSimulator(MODEL, GPU, replicas=3, jobs=jobs,
                     workload=workload(rate=8.0, duration=1.0),
                     **knobs(ClusterSimulator)).run()
    assert len(engines) == 3
    assert len(shipped) == (3 if jobs > 1 else 0)
    for engine in engines:
        assert carried(engine) == expected(ClusterSimulator)


def test_controlplane_replicas(engines):
    """Two initial replicas, autoscaled ones under a burst, and a
    failover replacement for a death that leaves the fleet below its
    floor."""
    sim = ControlPlaneSimulator(
        MODEL, GPU, replicas=2, workload=workload(rate=200.0, duration=1.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=4,
                                    high_watermark=100.0, low_watermark=10.0,
                                    control_interval=0.1),
        faults=FailureSchedule(deaths=(0.5,)),
        **knobs(ControlPlaneSimulator))
    report = sim.run()
    booted = [event.reason for event in report.timeline
              if event.action == "boot-complete"]
    assert "failover" in booted
    assert any(reason != "failover" for reason in booted)
    assert len(engines) == 2 + len(booted)
    for engine in engines:
        assert carried(engine) == expected(ControlPlaneSimulator)


def test_engine_mode_is_checked():
    """The config checks the mode before anything else is built (the
    control plane's check is in ``tests/test_controlplane.py``)."""
    for make in (EngineConfig, ServingSimulator, ClusterSimulator):
        with pytest.raises(ServingError, match="engine must be one of"):
            make(MODEL, GPU, engine="bogus")


#: A bad value per checked knob, the error it raises and its message.
BAD_KNOBS = [
    (dict(plan="flash"), ServingError, "supports plans baseline, sd, sdf"),
    (dict(t=0), ConfigError, "t must be positive, got 0"),
    (dict(chunk_tokens=0), ConfigError,
     "chunk_tokens must be positive, got 0"),
    (dict(max_batch=0), ConfigError, "max_batch must be positive, got 0"),
    (dict(reserve_fraction=1.5), ServingError,
     r"reserve_fraction must be in \[0, 1\), got 1.5"),
    (dict(max_epoch=0), ConfigError, "max_epoch must be positive, got 0"),
]


@pytest.mark.parametrize("front_end, bad, error, message", [
    pytest.param(front_end, bad, error, message,
                 id=f"{next(iter(bad))}-{front_end.__name__}")
    for bad, error, message in BAD_KNOBS
    for front_end in (ServingSimulator, ClusterSimulator,
                      ControlPlaneSimulator)
    if bad.keys() <= knobs(front_end).keys()])
def test_bad_knob_fails_at_construction(front_end, bad, error, message):
    """Each front-end that takes a knob rejects a bad value of it when
    it is built, with the error the cost model or the scheduler raises
    for it, not at ``run()`` (or in a worker process)."""
    with pytest.raises(error, match=message):
        front_end(MODEL, GPU, workload=ServingWorkload(
            seed=0, rate=1.0, duration=1.0, max_prompt=128, mean_output=24),
            **bad)
