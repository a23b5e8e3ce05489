"""The K-FAC host pool moves host seconds and nothing else.

A ``kfac_train``-shaped trainer (``resnet_proxy(channels=32)`` on 16x16
images, batch 64 over four ranks: 4 096 x 28 and 1 024 x 289 statistics,
289 x 289 factors) runs once with its factor Grams and eigendecompositions
on the pool and once with ``POOL_MIN_MADDS`` raised past every call, so
nothing is pooled.  Parameters, losses, wire bytes, ledger step records
and the failures of poisoned factors must come out the same.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.guard import GuardConfig
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.obsv import LedgerConfig, load_ledger
from repro.optim import FactorNumericsError
from repro.optim import kfac as kfac_mod
from repro.runtime import ComputeModel, StreamRuntime
from repro.train import ClassificationTask

_BATCH = 64
#: Layers 1 and 2 are 289-wide convolutions, whose ``eigh`` is pooled.
_POISONED = (1, 2)


@pytest.fixture
def pool(monkeypatch):
    """A two-worker pool whatever the host's CPUs; the list of the
    functions it was handed."""
    executor = ThreadPoolExecutor(2)
    handed = []

    class Counting:
        def submit(self, fn, *args):
            handed.append(fn)
            return executor.submit(fn, *args)

    monkeypatch.setattr(kfac_mod, "_host_pool", lambda: Counting())
    yield handed
    executor.shutdown()


def _no_pooling(monkeypatch):
    monkeypatch.setattr(kfac_mod, "POOL_MIN_MADDS", 2**62)


def _trainer(*, guard=False, ledger=None):
    task = ClassificationTask(make_image_data(256, n_classes=10, size=16, noise=4.0, seed=5))
    cluster = SimCluster(1, 4, seed=2)
    runtime = StreamRuntime(
        cluster, overlap=True, n_comm_streams=2, compute=ComputeModel(train_flops=5e7)
    )
    return DistributedKfacTrainer(
        resnet_proxy(n_classes=10, channels=32, rng=3),
        task,
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=4),
        runtime=runtime,
        guard=GuardConfig() if guard else None,
        obsv=LedgerConfig(ledger) if ledger is not None else None,
        reliable_channel=False,
    )


def _batches(steps):
    rng = np.random.default_rng(6)
    return [rng.integers(0, 256, _BATCH) for _ in range(steps)]


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _record(ledger):
    """Four steps (two refreshes) with guard, ledger and telemetry on."""
    with telemetry.session():
        tr = _trainer(guard=True, ledger=ledger)
        for idx in _batches(4):
            tr.step(idx)
        tr.obsv.close(final_metric=tr.history.final_metric())
    return tr, load_ledger(ledger).steps


def test_pooled_run_is_the_inline_run_bit_for_bit(tmp_path, pool, monkeypatch):
    pooled, pooled_steps = _record(tmp_path / "pooled.ledger")
    # Four shards a step; two refreshes of five layers, the small factors
    # riding along with the 289-wide ones.
    assert pool.count(kfac_mod._products) == 4 * 4
    assert pool.count(np.linalg.eigh) == 2 * 5 * 2
    handed = len(pool)
    _no_pooling(monkeypatch)
    inline, inline_steps = _record(tmp_path / "inline.ledger")
    assert len(pool) == handed, "the inline run used the pool"
    assert np.array_equal(_params(pooled.model), _params(inline.model))
    assert pooled.history.losses == inline.history.losses
    assert pooled.bytes_on_wire == inline.bytes_on_wire
    assert pooled_steps == inline_steps
    for i, st in pooled.kfac.state.items():
        for name in ("A", "G", "QA", "vA", "QG", "vG"):
            assert np.array_equal(getattr(st, name), getattr(inline.kfac.state[i], name))


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
    """``repro record --preset smoke``'s shape: 128 x 73 Grams at most."""
    task = ClassificationTask(make_image_data(256, n_classes=5, size=8, noise=0.5, seed=5))
    tr = DistributedKfacTrainer(
        resnet_proxy(n_classes=5, channels=8, rng=3), task, SimCluster(1, 4, seed=2)
    )
    for idx in _batches(2):
        tr.step(idx[:32])
    assert pool == []


@pytest.mark.parametrize("cpus, workers", [({0}, None), ({0, 1}, 2)])
def test_pool_is_sized_to_the_cpus_the_process_may_run_on(monkeypatch, cpus, workers):
    monkeypatch.setattr(kfac_mod.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    pool = kfac_mod._host_pool.__wrapped__()
    if workers is None:
        assert pool is None
    else:
        assert pool._max_workers == workers
        pool.shutdown()
