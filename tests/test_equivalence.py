"""Equivalence: the distributed trainer must match single-worker K-FAC.

With world size 1 and no compression, `DistributedKfacTrainer` executes
exactly the single-worker algorithm (factor accumulate -> eigen ->
precondition -> apply); both paths must produce identical loss
trajectories.  This pins the data plane: any drift would mean the
collectives or the work assignment change the math.
"""

import numpy as np

from repro import nn
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.optim import Kfac
from repro.train import ClassificationTask
from tests.conftest import kfac_step


def _make(seed_model=3):
    data = make_image_data(300, n_classes=4, size=8, noise=0.4, seed=0)
    task = ClassificationTask(data)
    model = resnet_proxy(n_classes=4, channels=8, rng=seed_model)
    return task, model


def test_world1_matches_single_worker():
    task, model_a = _make()
    _, model_b = _make()

    # Single-worker path.
    kfac = Kfac(model_a, lr=0.05, inv_update_freq=3)
    losses_a = []
    rng = np.random.default_rng(7)
    batches = [rng.integers(0, task.n, 32) for _ in range(8)]
    for idx in batches:
        x, y = task.batch(idx)
        out = model_a(x)
        loss, dl = task.loss_and_grad(out, y)
        model_a.zero_grad()
        model_a.backward(dl)
        kfac_step(kfac)
        losses_a.append(loss)

    # Distributed path, world size 1, identical batches.
    trainer = DistributedKfacTrainer(
        model_b,
        task,
        SimCluster(1, 1, seed=0),
        lr=0.05,
        inv_update_freq=3,
    )
    losses_b = [trainer.step(idx) for idx in batches]

    assert np.allclose(losses_a, losses_b, rtol=1e-5), (losses_a, losses_b)


def test_world4_matches_world1_on_same_global_batch():
    """Data parallelism changes only *where* shards are evaluated, not the
    averaged gradients — identical global batches must give identical
    training trajectories regardless of world size.

    BatchNorm computes statistics per shard, so this exact equivalence is
    checked on a BN-free model (as with real sync-free BN in DDP).
    """
    data = make_image_data(300, n_classes=4, size=8, noise=0.4, seed=0)
    task = ClassificationTask(data)

    def build():
        return nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1, rng=5),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(8, 4, rng=6),
        )

    rng = np.random.default_rng(11)
    batches = [rng.integers(0, task.n, 32) for _ in range(6)]

    def run(world):
        model = build()
        tr = DistributedKfacTrainer(
            model, task, SimCluster(1, world, seed=0), lr=0.05, inv_update_freq=3
        )
        return [tr.step(idx) for idx in batches]

    l1 = run(1)
    l4 = run(4)
    # Losses are averages of per-shard losses; with deterministic data the
    # global mean is identical, and parameter updates coincide.
    assert np.allclose(l1, l4, rtol=1e-4), (l1, l4)
