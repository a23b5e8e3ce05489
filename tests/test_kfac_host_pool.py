"""Shard lanes and the host pool move host seconds and nothing else.

A ``kfac_train``-shaped trainer (``resnet_proxy(channels=32)`` on 16x16
images, batch 64 over four ranks: 4 096 x 28 and 1 024 x 289 statistics,
289 x 289 factors) runs once with its shards in lanes and its refreshes'
``eigh`` calls on the pool, and once in one lane with ``POOL_MIN_MADDS``
raised past every call, so nothing is pooled.  Parameters, BatchNorm
running statistics, K-FAC state, losses, wire bytes and ledger step
records must come out the same — also with an odd shard count, a restore
or an evaluation between steps, and a transformer, whose LayerNorm,
attention, GELU and embedding keep forward caches of their own — and so
must the failures of poisoned factors.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.compression import CocktailSgdCompressor
from repro.core import CompsoCompressor
from repro.data import make_image_data, make_lm_data
from repro.distributed import SimCluster
from repro.faults import FaultPlan
from repro.guard import GuardConfig
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import gpt_proxy, resnet_proxy
from repro.obsv import LedgerConfig, load_ledger
from repro.optim import FactorNumericsError, Sgd
from repro.optim import kfac as kfac_mod
from repro.runtime import ComputeModel, StreamRuntime
from repro.store import CheckpointStore
from repro.train import ClassificationTask, DistributedSgdTrainer, LmTask
from repro.train import step as step_mod
from repro.util import host

_BATCH = 64
#: Layers 1 and 2 are 289-wide convolutions, whose ``eigh`` is pooled.
_POISONED = (1, 2)


@pytest.fixture
def pool(monkeypatch):
    """A three-worker pool whatever the host's CPUs, and two CPUs unless
    a test says otherwise; the list of the functions it was handed."""
    executor = ThreadPoolExecutor(3)
    handed = []

    class Counting:
        def submit(self, fn, *args):
            handed.append(getattr(fn, "__func__", fn))
            return executor.submit(fn, *args)

    monkeypatch.setattr(host, "pool", lambda: Counting())
    monkeypatch.setattr(host, "cpus", lambda: 2)
    yield handed
    executor.shutdown()


def _lanes(handed) -> int:
    return handed.count(step_mod.StepScaffold._run_lane)


def _no_pooling(monkeypatch):
    """One lane, and every ``eigh`` inline."""
    monkeypatch.setattr(step_mod, "_lanes", lambda n_shards: 1)
    monkeypatch.setattr(kfac_mod, "POOL_MIN_MADDS", 2**62)


def _trainer(*, guard=False, ledger=None, faults=None, store=None, model="resnet"):
    if model == "gpt":
        task = LmTask(make_lm_data(256, seq=9, vocab=24, concentration=0.05, seed=5))
        net = gpt_proxy(vocab=24, dim=16, n_layers=1, max_seq=8, rng=3)
    else:
        task = ClassificationTask(make_image_data(256, n_classes=10, size=16, noise=4.0, seed=5))
        net = resnet_proxy(n_classes=10, channels=32, rng=3)
    cluster = SimCluster(1, 4, seed=2, fault_plan=faults)
    runtime = StreamRuntime(
        cluster, overlap=True, n_comm_streams=2, compute=ComputeModel(train_flops=5e7)
    )
    return DistributedKfacTrainer(
        net,
        task,
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=4),
        runtime=runtime,
        guard=GuardConfig() if guard else None,
        obsv=LedgerConfig(ledger) if ledger is not None else None,
        checkpoint_every=2 if store is not None else 0,
        checkpoint_store=store,
        reliable_channel=False,
    )


def _batches(steps):
    rng = np.random.default_rng(6)
    return [rng.integers(0, 256, _BATCH) for _ in range(steps)]


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _record(side, *, between=None, store=False, **config):
    """Four steps (two refreshes) with guard, ledger and telemetry on,
    writing under the directory ``side``; ``between(trainer, t)`` runs
    after step ``t``, ``store`` checkpoints every second step."""
    ledger = side / "run.ledger"
    side.mkdir()
    with telemetry.session():
        tr = _trainer(
            guard=True, ledger=ledger, store=CheckpointStore(side / "store") if store else None,
            **config,
        )
        for t, idx in enumerate(_batches(4)):
            tr.step(idx)
            if tr.checkpoint_every and (t + 1) % tr.checkpoint_every == 0:
                tr.save_state()
            if between is not None:
                between(tr, t)
        tr.obsv.close(final_metric=tr.history.final_metric())
    return tr, load_ledger(ledger).steps


def _assert_same_run(got, want):
    (a, a_steps), (b, b_steps) = got, want
    assert np.array_equal(_params(a.model), _params(b.model))
    for m, n in zip(a.model.modules(), b.model.modules()):
        for name in ("running_mean", "running_var"):
            if hasattr(m, name):
                assert np.array_equal(getattr(m, name), getattr(n, name))
    assert a.history.losses == b.history.losses
    assert a.bytes_on_wire == b.bytes_on_wire
    assert a_steps == b_steps
    for i, st in a.kfac.state.items():
        for name in ("A", "G", "QA", "vA", "QG", "vG", "momentum_buf"):
            assert np.array_equal(getattr(st, name), getattr(b.kfac.state[i], name))


def test_pooled_run_is_the_inline_run_bit_for_bit(tmp_path, pool, monkeypatch):
    pooled = _record(tmp_path / "pooled")
    # Two lanes a step, the second on the pool; two refreshes of five
    # layers, the small factors riding along with the 289-wide ones.
    assert _lanes(pool) == 4
    assert pool.count(np.linalg.eigh) == 2 * 5 * 2
    handed = len(pool)
    _no_pooling(monkeypatch)
    inline = _record(tmp_path / "inline")
    assert len(pool) == handed, "the inline run used the pool"
    _assert_same_run(pooled, inline)


def _lanes_against_one(tmp_path, pool, monkeypatch, **config):
    lanes = _record(tmp_path / "lanes", **config)
    assert _lanes(pool) > 0
    _no_pooling(monkeypatch)
    _assert_same_run(lanes, _record(tmp_path / "one", **config))
    return lanes[0]


def test_three_lanes_split_four_shards_in_order(tmp_path, pool, monkeypatch):
    """Lanes of one, one and two shards: lane 0 runs shard 0.  Three
    lanes on however many cores, switching threads as often as the
    interpreter allows, so a lane that wrote shared state would show."""
    monkeypatch.setattr(host, "cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lanes = _record(tmp_path / "lanes")
    finally:
        sys.setswitchinterval(interval)
    assert _lanes(pool) == 2 * 4
    _no_pooling(monkeypatch)
    _assert_same_run(lanes, _record(tmp_path / "one"))


def test_odd_shard_count_after_an_elastic_shrink(tmp_path, pool, monkeypatch):
    """Rank 3 fails at step 1: three shards of 21, in lanes of one and two."""
    trainer = _lanes_against_one(
        tmp_path, pool, monkeypatch, faults=FaultPlan(seed=1).add_failure(3, iteration=1)
    )
    assert trainer.cluster.world_size == 3


def test_restore_between_steps(tmp_path, pool, monkeypatch):
    """A restore rebinds every ``Parameter.data``: the replicas
    must read the restored arrays, not the ones they were built on."""

    def restore(trainer, t):
        if t == 2:
            assert trainer.restore_latest() is not None

    _lanes_against_one(tmp_path, pool, monkeypatch, between=restore, store=True)


def test_evaluate_between_steps(tmp_path, pool, monkeypatch):
    """An evaluation flips every module to eval mode and back, and leaves
    the master's forward caches filled."""
    _lanes_against_one(
        tmp_path, pool, monkeypatch, between=lambda tr, t: tr.task.evaluate(tr.model)
    )


def test_transformer_lanes(tmp_path, pool, monkeypatch):
    _lanes_against_one(tmp_path, pool, monkeypatch, model="gpt")


def _first_order_run():
    """The first-order trainer, compressing each shard's gradient, with
    its third step in eval mode: BatchNorm normalises by the running
    statistics there, and a replica must follow the master's mode."""
    task = ClassificationTask(make_image_data(256, n_classes=10, size=16, noise=4.0, seed=5))
    model = resnet_proxy(n_classes=10, channels=32, rng=3)
    tr = DistributedSgdTrainer(
        model,
        task,
        Sgd(model.parameters(), lr=0.05),
        SimCluster(1, 4, seed=2),
        compressor=CocktailSgdCompressor(seed=4),
    )
    for t, idx in enumerate(_batches(4)):
        if t == 2:
            model.eval()
        tr.step(idx)
        model.train()
    return tr


def test_first_order_lanes(pool, monkeypatch):
    lanes = _first_order_run()
    assert _lanes(pool) == 4
    _no_pooling(monkeypatch)
    one = _first_order_run()
    assert np.array_equal(_params(lanes.model), _params(one.model))
    for m, n in zip(lanes.model.modules(), one.model.modules()):
        for name in ("running_mean", "running_var"):
            if hasattr(m, name):
                assert np.array_equal(getattr(m, name), getattr(n, name))
    assert lanes.history.losses == one.history.losses
    assert lanes.history.compression_ratios == one.history.compression_ratios


def _poisoned_refresh(*, guard):
    """A trainer two steps in, whose layers ``_POISONED`` now hold NaN
    factors, and the third step: a refresh."""
    tr = _trainer(guard=guard)
    first, second, third = _batches(3)
    tr.step(first)
    tr.step(second)
    for i in _POISONED:
        st = tr.kfac.state[i]
        st.A = np.full_like(st.A, np.nan)
        st.G = np.full_like(st.G, np.nan)
    return tr, third


def _unguarded_failure():
    tr, batch = _poisoned_refresh(guard=False)
    with pytest.raises(FactorNumericsError) as info:
        tr.step(batch)
    return info.value


@pytest.mark.parametrize("pooled", [True, False])
def test_unguarded_refresh_fails_on_the_lower_layer(pool, monkeypatch, pooled):
    if not pooled:
        _no_pooling(monkeypatch)
    err = _unguarded_failure()
    assert (err.layer, err.reason) == (_POISONED[0], "non-finite eigenvalues")
    assert (np.linalg.eigh in pool) == pooled


def test_pooled_linalg_error_is_a_factor_numerics_error(pool, monkeypatch):
    """``eigh`` raising on a worker surfaces on the committing thread as
    the inline path's typed error, naming the lower layer."""
    eigh = np.linalg.eigh

    def refusing(mat):
        if not np.isfinite(mat).all():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", refusing)
    err = _unguarded_failure()
    assert refusing in pool
    assert err.layer == _POISONED[0]
    assert err.reason.startswith("eigh did not converge")
    assert isinstance(err.__cause__, np.linalg.LinAlgError)


def _guarded_repair():
    tr, batch = _poisoned_refresh(guard=True)
    events = []
    emit = tr.guard._emit

    def recording(verdict, detail):
        events.append((verdict, dict(detail)))
        emit(verdict, detail)

    tr.guard._emit = recording
    tr.step(batch)
    return tr, events


def test_guarded_refresh_repairs_as_inline(pool, monkeypatch):
    pooled, pooled_events = _guarded_repair()
    assert np.linalg.eigh in pool
    _no_pooling(monkeypatch)
    inline, inline_events = _guarded_repair()
    retries = [(v, d) for v, d in pooled_events if v == "eigh_retry"]
    assert retries == [("eigh_retry", {"layer": i, "attempts": 1}) for i in _POISONED]
    assert pooled_events == inline_events
    for i in _POISONED:
        for name in ("A", "G", "QA", "vA", "QG", "vG"):
            got, want = getattr(pooled.kfac.state[i], name), getattr(inline.kfac.state[i], name)
            assert np.array_equal(got, want)
    assert np.array_equal(_params(pooled.model), _params(inline.model))


def test_small_groups_stay_inline(pool):
    """``repro record --preset smoke``'s shape: an ``eigh`` of 73 at most,
    so only the shard lanes go to the pool."""
    task = ClassificationTask(make_image_data(256, n_classes=5, size=8, noise=0.5, seed=5))
    tr = DistributedKfacTrainer(
        resnet_proxy(n_classes=5, channels=8, rng=3), task, SimCluster(1, 4, seed=2)
    )
    for idx in _batches(2):
        tr.step(idx[:32])
    assert pool == [step_mod.StepScaffold._run_lane] * 2


def test_the_timing_track_runs_one_lane(pool):
    """One representative shard: no replica, nothing handed to the pool."""
    task = ClassificationTask(make_image_data(256, n_classes=5, size=8, noise=0.5, seed=5))
    tr = DistributedKfacTrainer(
        resnet_proxy(n_classes=5, channels=8, rng=3),
        task,
        SimCluster(1, 4, seed=2, track="timing"),
    )
    tr.step(_batches(1)[0][:32])
    assert pool == []
    assert len(tr._shard_lanes) == 1


@pytest.mark.parametrize("cpus, workers", [({0}, None), ({0, 1}, 2)])
def test_pool_is_sized_to_the_cpus_the_process_may_run_on(monkeypatch, cpus, workers):
    monkeypatch.setattr(host.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    pool = host.pool.__wrapped__()
    if workers is None:
        assert pool is None
    else:
        assert pool._max_workers == workers
        pool.shutdown()
