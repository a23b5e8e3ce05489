"""Deeper integration scenarios: the residual CNN proxy under distributed K-FAC,
factor compression end to end, checkpoint/resume mid-training, and
determinism across the full pipeline."""

import numpy as np
import pytest

from repro.core import AdaptiveCompso, CompsoCompressor, FactorCompressor, StepLrSchedule
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.train import ClassificationTask
from repro.util import load_checkpoint, save_checkpoint


def _task(seed=0):
    return ClassificationTask(make_image_data(400, n_classes=5, size=8, noise=0.45, seed=seed))


class TestMiniResNetDistributed:
    def test_kfac_compso_on_residual_network(self):
        """The full pipeline on a model with a residual block and conv and
        linear layers of several sizes."""
        task = _task()
        model = resnet_proxy(5, 8, rng=3)
        tr = DistributedKfacTrainer(
            model,
            task,
            SimCluster(1, 4, seed=0),
            lr=0.05,
            inv_update_freq=5,
            compressor=AdaptiveCompso(StepLrSchedule(10)),
            factor_compressor=FactorCompressor(1e-3),
        )
        h = tr.train(iterations=20, batch_size=64, eval_every=20)
        assert h.final_metric() > 70.0
        assert tr.mean_compression_ratio() > 1.0
        assert np.mean(tr.factor_ratios) > 1.0

    def test_all_kfac_layers_owned_and_preconditioned(self):
        task = _task()
        model = resnet_proxy(5, 16, rng=3)
        tr = DistributedKfacTrainer(model, task, SimCluster(1, 4, seed=0), lr=0.05)
        tr.train(iterations=2, batch_size=32)
        assert len(tr.owners) == len(model.kfac_layers())
        for i in range(len(tr.owners)):
            assert tr.kfac.state[i].ready


class TestCheckpointResume:
    def test_resume_continues_training_seamlessly(self, tmp_path):
        """Train 10 iters, checkpoint, train 10 more; vs fresh 20 — the
        resumed model must be at least as good as the 10-iter one and the
        restored factors must let K-FAC keep converging."""
        task = _task()
        model = resnet_proxy(5, 8, rng=3)
        tr1 = DistributedKfacTrainer(model, task, SimCluster(1, 1, seed=0), inv_update_freq=5)
        h1 = tr1.train(iterations=10, batch_size=64, eval_every=10, seed=0)
        path = tmp_path / "mid.npz"
        owners = {"param": model, "kfac": tr1.kfac}
        save_checkpoint(path, owners, world_size=1, step=tr1.t, hooks=None)

        model2 = resnet_proxy(5, 8, rng=999)  # different init
        tr2 = DistributedKfacTrainer(model2, task, SimCluster(1, 1, seed=0), inv_update_freq=5)
        load_checkpoint(path, {"param": model2, "kfac": tr2.kfac})
        h2 = tr2.train(iterations=10, batch_size=64, eval_every=10, seed=1)
        assert h2.losses[0] <= h1.losses[0]  # starts from the trained state
        assert h2.final_metric() >= h1.final_metric() - 5.0


class TestDeterminism:
    def test_full_pipeline_deterministic(self):
        """Same seeds everywhere -> bit-identical losses, ratios, clocks."""

        def run():
            task = _task()
            model = resnet_proxy(5, 8, rng=3)
            cluster = SimCluster(1, 4, seed=0)
            tr = DistributedKfacTrainer(
                model, task, cluster, lr=0.05, inv_update_freq=5,
                compressor=CompsoCompressor(4e-3, 4e-3, seed=11),
            )
            h = tr.train(iterations=8, batch_size=32, seed=0)
            return h.losses, tr.bytes_on_wire, cluster.time

        a = run()
        b = run()
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == pytest.approx(b[2])

    def test_different_compressor_seed_same_convergence_class(self):
        """SR randomness changes bits but not convergence."""

        def run(seed):
            task = _task()
            model = resnet_proxy(5, 8, rng=3)
            tr = DistributedKfacTrainer(
                model, task, SimCluster(1, 2, seed=0), lr=0.05, inv_update_freq=5,
                compressor=CompsoCompressor(4e-3, 4e-3, seed=seed),
            )
            return tr.train(iterations=12, batch_size=32, eval_every=12, seed=0).final_metric()

        accs = [run(s) for s in (1, 2, 3)]
        assert max(accs) - min(accs) < 15.0
