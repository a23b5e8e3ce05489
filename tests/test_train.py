"""Training loops and task adapters."""

import numpy as np
import pytest

from repro.compression import CocktailSgdCompressor
from repro.data import (
    make_detection_data,
    make_image_data,
    make_lm_data,
    make_mlm_batches,
    make_squad_data,
)
from repro.distributed import SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import bert_proxy, gpt_proxy, maskrcnn_proxy, resnet_proxy
from repro.models.squad import SpanQaModel
from repro.optim import Sgd, StepLr
from repro.train import (
    ClassificationTask,
    DetectionTask,
    DistributedSgdTrainer,
    LmTask,
    MlmTask,
    SquadTask,
)


def _one_worker(model, task, opt, **train):
    """One worker: the data-parallel trainer on a one-rank cluster."""
    return DistributedSgdTrainer(model, task, opt, SimCluster(1, 1, seed=0)).train(**train)


class TestTrainSingle:
    def test_classification_learns(self):
        data = make_image_data(400, n_classes=4, size=8, noise=0.3, seed=0)
        task = ClassificationTask(data)
        model = resnet_proxy(n_classes=4, channels=8, rng=1)
        opt = Sgd(model.parameters(), lr=0.05, momentum=0.9)
        h = _one_worker(model, task, opt, iterations=40, batch_size=64, eval_every=40)
        assert h.losses[-1] < h.losses[0]
        assert h.final_metric() > 50.0

    def test_lr_schedule_applied(self):
        data = make_image_data(100, n_classes=3, size=8, seed=0)
        task = ClassificationTask(data)
        model = resnet_proxy(n_classes=3, channels=8, rng=1)
        h = DistributedKfacTrainer(
            model, task, SimCluster(1, 1, seed=0), lr=1.0, lr_schedule=StepLr(0.5, [5], gamma=0.1)
        ).train(iterations=10, batch_size=10)
        assert h.lrs[0] == 0.5
        assert h.lrs[-1] == pytest.approx(0.05)

    def test_detection_task_learns(self):
        data = make_detection_data(300, n_classes=4, n_boxes=2, noise=0.3, seed=0)
        task = DetectionTask(data)
        model = maskrcnn_proxy(n_classes=4, n_boxes=2, rng=1)
        opt = Sgd(model.parameters(), lr=0.05, momentum=0.9)
        h = _one_worker(model, task, opt, iterations=40, batch_size=32, eval_every=40)
        assert h.losses[-1] < h.losses[0]

    def test_lm_task_learns(self):
        data = make_lm_data(300, seq=9, vocab=16, concentration=0.05, seed=0)
        task = LmTask(data)
        model = gpt_proxy(vocab=16, dim=16, n_layers=1, max_seq=8, rng=1)
        opt = Sgd(model.parameters(), lr=0.3, momentum=0.9)
        h = _one_worker(model, task, opt, iterations=50, batch_size=32)
        assert h.losses[-1] < h.losses[0] * 0.9

    def test_mlm_task_learns(self):
        lm = make_lm_data(300, seq=8, vocab=16, concentration=0.05, seed=0)
        mlm = make_mlm_batches(lm, seed=1)
        task = MlmTask(mlm)
        model = bert_proxy(vocab=16, dim=16, n_layers=1, max_seq=8, rng=1)
        opt = Sgd(model.parameters(), lr=0.3, momentum=0.9)
        h = _one_worker(model, task, opt, iterations=50, batch_size=32)
        assert h.losses[-1] < h.losses[0]

    def test_squad_task_learns_spans(self):
        data = make_squad_data(400, seq=16, vocab=24, seed=0)
        task = SquadTask(data)
        model = SpanQaModel(vocab=24, dim=24, n_layers=2, max_seq=16, rng=1)
        opt = Sgd(model.parameters(), lr=0.2, momentum=0.9)
        h = _one_worker(model, task, opt, iterations=120, batch_size=64, eval_every=120)
        em, f1 = h.final_metric()
        assert f1 > 40.0  # far above the random-span baseline
        assert em <= f1


class TestDistributedSgd:
    def test_matches_gradient_averaging(self):
        """4-rank data-parallel SGD must track the global batch average."""
        data = make_image_data(200, n_classes=3, size=8, seed=0)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 4, seed=0)
        model = resnet_proxy(n_classes=3, channels=8, rng=1)
        opt = Sgd(model.parameters(), lr=0.05, momentum=0.9)
        tr = DistributedSgdTrainer(model, task, opt, cluster)
        h = tr.train(iterations=15, batch_size=32, eval_every=15)
        assert h.losses[-1] < h.losses[0]
        assert cluster.breakdown()["grad_allreduce"] > 0

    def test_with_cocktail_compressor(self):
        data = make_image_data(200, n_classes=3, size=8, seed=0)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 2, seed=0)
        model = resnet_proxy(n_classes=3, channels=8, rng=1)
        opt = Sgd(model.parameters(), lr=0.05, momentum=0.9)
        tr = DistributedSgdTrainer(
            model, task, opt, cluster, compressor=CocktailSgdCompressor(0.3, 8)
        )
        h = tr.train(iterations=15, batch_size=32)
        assert h.losses[-1] < h.losses[0]
        assert h.mean_cr() > 5.0
