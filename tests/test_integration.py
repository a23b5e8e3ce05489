"""End-to-end integration: the paper's qualitative claims on proxy workloads.

These tests are slower than unit tests (each trains a model or several);
they pin the *directional* results the paper reports: SR beats RN at the
same bound, looser bounds raise CR but can cost accuracy, COMPSO matches
the no-compression baseline where cruder compression does not, and the
full pipeline (perf model + adaptive schedule + distributed K-FAC)
composes.
"""

import numpy as np
import pytest

from repro.compression import QsgdCompressor, SzCompressor
from repro.core import (
    AdaptiveCompso,
    CompsoCompressor,
    PerformanceModel,
    SmoothLrSchedule,
    StepLrSchedule,
)
from repro.data import make_image_data
from repro.distributed import SLINGSHOT10, SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.optim import StepLr
from repro.train import ClassificationTask


def _train_kfac(compressor, *, iterations=24, seed=0, lr_schedule=None):
    data = make_image_data(500, n_classes=5, size=8, noise=0.45, seed=0)
    task = ClassificationTask(data)
    cluster = SimCluster(1, 4, seed=seed)
    model = resnet_proxy(n_classes=5, channels=8, rng=3)
    tr = DistributedKfacTrainer(
        model,
        task,
        cluster,
        lr=0.05,
        inv_update_freq=5,
        lr_schedule=lr_schedule,
        compressor=compressor,
    )
    h = tr.train(iterations=iterations, batch_size=64, eval_every=iterations, seed=seed)
    return tr, h


class TestPaperClaims:
    def test_compso_matches_baseline_accuracy(self):
        """Fig. 6: KFAC+COMPSO tracks KFAC without compression."""
        _, base = _train_kfac(None)
        _, compso = _train_kfac(CompsoCompressor(4e-3, 4e-3))
        assert compso.final_metric() >= base.final_metric() - 5.0

    def test_very_loose_sz_hurts_accuracy_more_than_compso(self):
        """Fig. 3: SZ at 1E-1 (RN, huge bound) degrades; COMPSO holds."""
        _, base = _train_kfac(None, iterations=20)
        _, sz_loose = _train_kfac(SzCompressor(3e-1), iterations=20)
        _, compso = _train_kfac(CompsoCompressor(4e-3, 4e-3), iterations=20)
        drop_sz = base.final_metric() - sz_loose.final_metric()
        drop_compso = base.final_metric() - compso.final_metric()
        assert drop_compso <= drop_sz + 1.0

    def test_compso_cr_beats_accuracy_preserving_baselines(self, kfac_like_gradient):
        """Section 5.2: COMPSO's ratio tops cuSZ 4E-3 and QSGD 8-bit at
        matched accuracy settings."""
        x = kfac_like_gradient
        compso = CompsoCompressor(4e-3, 4e-3).ratio(x)
        sz = SzCompressor(4e-3).ratio(x)
        qsgd = QsgdCompressor(8).ratio(x)
        assert compso > sz
        assert compso > qsgd

    def test_adaptive_schedule_with_steplr_training(self):
        """Algorithm 1 end to end: aggressive before the LR drop, SR-only
        after, convergence preserved, higher average CR than SR-only."""
        sched = StepLr(0.05, [12], gamma=0.1)
        adaptive = AdaptiveCompso(StepLrSchedule(12))
        tr_a, h_a = _train_kfac(adaptive, lr_schedule=sched)
        sr_only = CompsoCompressor(0.0, 4e-3)
        tr_s, h_s = _train_kfac(sr_only, lr_schedule=sched)
        _, base = _train_kfac(None, lr_schedule=sched)
        assert h_a.final_metric() >= base.final_metric() - 6.0
        assert tr_a.mean_compression_ratio() > tr_s.mean_compression_ratio()

    def test_perf_model_on_real_training_gradients(self):
        """Offline-online mechanism on gradients from an actual run.

        The proxy's gradients are tiny (KBs), so the latency-dominated
        exchange gains nothing from compression — the performance model's
        end-to-end guarantee must *decline* to compress.  Scaled to
        catalog-size gradients, it must accept.
        """
        tr, _ = _train_kfac(None, iterations=3)
        grads = [tr.kfac.precondition(i) for i in range(len(tr.kfac.layers))]
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        tiny_stats = pm.profile(grads, c, r=0.45, aggregation=4)
        assert not pm.should_compress(tiny_stats)
        # Same value distribution, real-model payload size.
        big_grads = [np.tile(g.ravel(), 4000) for g in grads[:3]]
        big_stats = pm.profile(big_grads, c, r=0.45, aggregation=4)
        assert pm.should_compress(big_stats)
        assert pm.end_to_end_speedup(pm.comm_speedup(big_stats), 0.45) > 1.0

    def test_smooth_schedule_tightens_and_preserves_accuracy(self):
        adaptive = AdaptiveCompso(SmoothLrSchedule(24, z=4))
        _, h = _train_kfac(adaptive)
        _, base = _train_kfac(None)
        assert adaptive.bounds.eb_f == 0  # ended conservative
        assert h.final_metric() >= base.final_metric() - 6.0

    def test_deterministic_replay(self):
        """Same seeds -> bit-identical loss trajectories."""
        _, h1 = _train_kfac(CompsoCompressor(4e-3, 4e-3, seed=1), iterations=6)
        _, h2 = _train_kfac(CompsoCompressor(4e-3, 4e-3, seed=1), iterations=6)
        assert h1.losses == h2.losses
