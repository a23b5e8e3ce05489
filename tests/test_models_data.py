"""Model catalogs, proxies, and synthetic datasets."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data import (
    make_detection_data,
    make_image_data,
    make_lm_data,
    make_mlm_batches,
    make_squad_data,
    shard,
)
from repro.models import (
    MODEL_CATALOGS,
    bert_large_catalog,
    bert_proxy,
    gpt_neo_125m_catalog,
    gpt_proxy,
    maskrcnn_catalog,
    maskrcnn_proxy,
    resnet50_catalog,
    resnet_proxy,
)
from repro.models.squad import SpanQaModel
from repro.scenarios import MODELS, Scenario, run


def _param_count(catalog):
    return sum(layer.grad_elems for layer in catalog)


class TestCatalogs:
    def test_resnet50_param_count(self):
        # Real ResNet-50: 25.56M parameters.
        p = _param_count(resnet50_catalog())
        assert 24e6 < p < 27e6

    def test_resnet50_layer_count(self):
        assert len(resnet50_catalog()) == 54  # 53 convs + fc

    def test_bert_large_param_count(self):
        # Encoder blocks of BERT-large: ~302M of the 340M total.
        p = _param_count(bert_large_catalog())
        assert 290e6 < p < 320e6

    def test_gpt_neo_kfac_params(self):
        p = _param_count(gpt_neo_125m_catalog())
        assert 80e6 < p < 90e6

    def test_maskrcnn_param_count(self):
        p = _param_count(maskrcnn_catalog())
        assert 40e6 < p < 50e6

    def test_grad_bytes_consistent(self):
        for layers in (resnet50_catalog(), gpt_neo_125m_catalog()):
            for l in layers:
                assert l.grad_bytes == 4 * l.out_f * l.in_f
                assert l.factor_elems == l.in_f**2 + l.out_f**2

    def test_all_catalogs_positive_flops(self):
        for name, fn in MODEL_CATALOGS.items():
            assert all(l.fwd_flops > 0 for l in fn()), name

    def test_bias_column_included(self):
        fc = resnet50_catalog()[-1]
        assert fc.in_f == 2049  # 2048 + bias


class TestProxies:
    def test_resnet_proxy_forward(self, rng):
        m = resnet_proxy(n_classes=7, rng=1)
        y = m(rng.standard_normal((3, 3, 16, 16)).astype(np.float32))
        assert y.shape == (3, 7)

    def test_resnet_proxy_has_conv_and_linear_kfac_layers(self):
        m = resnet_proxy(rng=1)
        kinds = {type(l).__name__ for l in m.kfac_layers()}
        assert kinds == {"Conv2d", "Linear"}

    def test_detection_proxy_heads(self, rng):
        m = maskrcnn_proxy(n_classes=5, n_boxes=3, rng=1)
        y = m(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        assert y.shape == (2, 5 + 12)

    def test_detection_proxy_backward(self, rng):
        m = maskrcnn_proxy(rng=1)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        y = m(x)
        gx = m.backward(np.ones_like(y))
        assert gx.shape == x.shape
        assert all(np.abs(p.grad).sum() > 0 for p in m.parameters())

    @pytest.mark.parametrize("factory,causal", [(bert_proxy, False), (gpt_proxy, True)])
    def test_transformer_proxies(self, rng, factory, causal):
        m = factory(vocab=32, dim=16, n_layers=1, max_seq=8, rng=1)
        ids = rng.integers(0, 32, (2, 8))
        y = m(ids)
        assert y.shape == (2, 8, 32)
        assert m.causal is causal

    def test_transformer_backward_populates_all_grads(self, rng):
        m = gpt_proxy(vocab=16, dim=16, n_layers=1, max_seq=8, rng=1)
        ids = rng.integers(0, 16, (2, 8))
        y = m(ids)
        m.backward(np.ones_like(y))
        for name, p in m.named_parameters():
            assert np.abs(p.grad).sum() > 0, name

    def test_span_qa_model(self, rng):
        m = SpanQaModel(vocab=16, dim=16, n_layers=1, max_seq=12, rng=1)
        ids = rng.integers(0, 16, (3, 12))
        y = m(ids)
        assert y.shape == (3, 12, 2)
        m.backward(np.ones_like(y))
        assert np.abs(m.span_head.weight.grad).sum() > 0


class TestSyntheticData:
    def test_image_data_learnable_structure(self):
        ds = make_image_data(200, n_classes=4, noise=0.1, seed=0)
        # With low noise, same-class images correlate strongly.
        c0 = ds.x[ds.y == 0]
        c1 = ds.x[ds.y == 1]
        within = np.corrcoef(c0[0].ravel(), c0[1].ravel())[0, 1]
        across = np.corrcoef(c0[0].ravel(), c1[0].ravel())[0, 1]
        assert within > 0.8 > abs(across)

    def test_image_data_deterministic(self):
        a = make_image_data(10, seed=5)
        b = make_image_data(10, seed=5)
        assert np.array_equal(a.x, b.x)

    def test_detection_boxes_in_unit_range(self):
        ds = make_detection_data(100, seed=0)
        assert ds.y_box.min() > -0.3 and ds.y_box.max() < 1.3

    def test_detection_class_determines_boxes(self):
        ds = make_detection_data(300, n_classes=4, seed=0)
        same = ds.y_box[ds.y_cls == 0]
        assert same.std(axis=0).max() < 0.1  # jitter only

    def test_lm_data_markov_structure(self):
        ds = make_lm_data(500, seq=20, vocab=32, concentration=0.05, seed=0)
        assert ds.ids.min() >= 2 and ds.ids.max() < 32
        # Peaked transitions: the most frequent successor of a token
        # dominates.
        succ = {}
        for row in ds.ids:
            for a, b in zip(row[:-1], row[1:]):
                succ.setdefault(a, []).append(b)
        tok = max(succ, key=lambda k: len(succ[k]))
        counts = np.bincount(succ[tok])
        assert counts.max() / len(succ[tok]) > 0.3

    def test_lm_inputs_targets_shifted(self):
        ds = make_lm_data(5, seq=10, seed=0)
        assert np.array_equal(ds.inputs[:, 1:], ds.targets[:, :-1])

    def test_mlm_masking(self):
        ds = make_lm_data(100, seq=20, seed=0)
        mlm = make_mlm_batches(ds, seed=1)
        masked = mlm.inputs == 1
        assert masked.any(axis=1).all()  # every sequence has a mask
        assert np.array_equal(mlm.targets[masked] > 0, np.ones(masked.sum(), dtype=bool))
        assert (mlm.targets[~masked] == 0).all()

    def test_squad_answer_span_marked(self):
        ds = make_squad_data(100, seq=24, vocab=32, seed=0)
        for i in range(100):
            q = ds.ids[i, 0]
            s, e = ds.starts[i], ds.ends[i]
            assert (ds.ids[i, s : e + 1] == q).all()
            assert 1 <= s <= e < 24

    def test_squad_vocab_validation(self):
        with pytest.raises(ValueError):
            make_squad_data(10, vocab=6)


class TestSharding:
    def test_shard_partitions(self):
        idx = np.arange(12)
        shards = shard(idx, 4)
        assert len(shards) == 4
        assert np.array_equal(np.concatenate(shards), idx)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            shard(np.arange(10), 4)


class TestProxyVocabulary:
    """Every ``repro.scenarios.MODELS`` entry the benches and examples
    train, built by ``scenarios.build`` and stepped once on a 1x2 cluster."""

    _TINY = Scenario(
        name="vocabulary", nodes=1, gpus_per_node=2, iterations=1, batch_size=8, samples=16,
        evaluate=True,
    )

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_every_proxy_builds_and_steps(self, model):
        trainer, _ = run(replace(self._TINY, model=model))
        h = trainer.history
        assert len(h.losses) == 1 and np.isfinite(h.losses[0])
        assert h.metrics and h.metrics[0][0] == 1

    def test_detection_reads_the_data_fields(self):
        base = replace(self._TINY, model="mini-detection")
        task, model = MODELS["mini-detection"].make(base)
        other_task, other_model = MODELS["mini-detection"].make(replace(base, n_classes=3, noise=0.2))
        assert (task.data.n_classes, model.n_classes) == (base.n_classes, base.n_classes)
        assert (other_task.data.n_classes, other_model.n_classes) == (3, 3)
        assert task.data.x.shape[1:] == (3, 16, 16) and task.data.n_boxes == 2
        assert not np.array_equal(task.data.x, other_task.data.x)
