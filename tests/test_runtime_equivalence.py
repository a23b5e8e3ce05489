"""Bit-identical equivalence: overlapped execution vs blocking execution.

The tentpole guarantee of `repro.runtime`: switching `StreamRuntime` from
blocking to overlapped mode changes *when* simulated time passes, never
*what* the data plane computes.  These tests train real models both ways
and require exact (array-equal) parameter agreement, plus the payoff —
the overlapped run finishing in strictly less simulated time at scale.
"""

import numpy as np
import pytest

from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import SLINGSHOT10, SimCluster
from repro.faults import FaultPlan
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.runtime import ComputeModel, StreamRuntime
from repro.train import ClassificationTask

ITERS = 4
#: Tiny-proxy throughput so modelled compute is on the comm scale.
FLOPS = 5e7


def _task():
    return ClassificationTask(make_image_data(200, n_classes=5, size=8, noise=0.4, seed=0))


def _params(model):
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _cluster(ranks=16, **kw):
    gpus = min(ranks, 4)
    return SimCluster(ranks // gpus, gpus, seed=0, network=SLINGSHOT10, **kw)


def run_kfac(overlap, *, runtime=True, compressor=True, ranks=16, fault_plan=None):
    cluster = _cluster(ranks, fault_plan=fault_plan)
    model = resnet_proxy(n_classes=5, channels=8, rng=3)
    rt = (
        StreamRuntime(cluster, overlap=overlap, compute=ComputeModel(train_flops=FLOPS))
        if runtime
        else None
    )
    tr = DistributedKfacTrainer(
        model,
        _task(),
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0) if compressor else None,
        runtime=rt,
    )
    tr.train(iterations=ITERS, batch_size=64)
    return tr, cluster, rt


class TestKfacEquivalence:
    def test_bit_identical_and_strictly_faster_at_16_ranks(self):
        """The ISSUE acceptance bar: exact numerics, strictly lower sim
        time at >=16 ranks on Slingshot-10, nonzero hidden comm."""
        tb, cb, _ = run_kfac(False)
        to, co, rt = run_kfac(True)
        assert np.array_equal(_params(tb.model), _params(to.model))
        assert tb.history.losses == to.history.losses
        assert co.time < cb.time
        assert rt.hidden_comm_seconds() > 0.0
        assert 0.0 < rt.hidden_fraction() <= 1.0

    def test_uncompressed_identical(self):
        tb, cb, _ = run_kfac(False, compressor=False)
        to, co, _ = run_kfac(True, compressor=False)
        assert np.array_equal(_params(tb.model), _params(to.model))
        assert co.time < cb.time

    def test_matches_seed_path(self):
        ts, _, _ = run_kfac(False, runtime=False)
        tb, _, _ = run_kfac(False)
        assert np.array_equal(_params(ts.model), _params(tb.model))

    def test_small_world_never_slower(self):
        tb, cb, _ = run_kfac(False, ranks=2)
        to, co, _ = run_kfac(True, ranks=2)
        assert np.array_equal(_params(tb.model), _params(to.model))
        assert co.time <= cb.time


class TestFaultComposition:
    def test_overlapped_run_survives_faults(self):
        """Stragglers and jitter stretch waits, corruption lands at wait
        time; the overlapped trainer still completes every iteration."""
        plan = (
            FaultPlan(seed=7)
            .add_straggler(1, start=1, slowdown=3.0)
            .add_jitter(0.3, start=0)
            .add_corruption(0.3, n_bits=2)
        )
        tr, cluster, rt = run_kfac(True, ranks=4, fault_plan=plan)
        assert len(tr.history.losses) == ITERS
        assert all(np.isfinite(loss) for loss in tr.history.losses)
        assert np.isfinite(_params(tr.model)).all()

    def test_faulted_wait_costs_more_than_clean(self):
        plan = FaultPlan(seed=7).add_straggler(1, start=0, slowdown=5.0)
        _, clean, _ = run_kfac(True, ranks=4)
        _, faulted, _ = run_kfac(True, ranks=4, fault_plan=plan)
        assert faulted.time > clean.time
