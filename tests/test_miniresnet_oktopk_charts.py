"""The mini-ResNet run's model, Ok-topk sparsifier, and ASCII chart helpers."""

import numpy as np
import pytest

from repro.compression import OkTopkCompressor, oktopk
from repro.core import AdaptiveCompso, StepLrSchedule
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.models import resnet_proxy
from repro.optim import Sgd
from repro.train import ClassificationTask, DistributedSgdTrainer
from repro.util import stacked_bars


class TestMiniResNet:
    """The model a ``mini-resnet`` run builds (``repro.scenarios``)."""

    def test_forward_shapes(self, rng):
        m = resnet_proxy(7, 8, rng=1)
        y = m(rng.standard_normal((3, 3, 8, 8)).astype(np.float32))
        assert y.shape == (3, 7)

    def test_layer_size_diversity(self):
        """The property that motivates COMPSO's layer aggregation."""
        m = resnet_proxy(10, 16, rng=1)
        sizes = [l.weight.size for l in m.kfac_layers()]
        assert max(sizes) / min(sizes) > 10

    def test_trains(self):
        data = make_image_data(300, n_classes=4, size=8, noise=0.4, seed=0)
        task = ClassificationTask(data)
        m = resnet_proxy(4, 8, rng=1)
        opt = Sgd(m.parameters(), lr=0.05, momentum=0.9)
        trainer = DistributedSgdTrainer(m, task, opt, SimCluster(1, 1, seed=0))
        h = trainer.train(iterations=30, batch_size=32, eval_every=30)
        assert h.final_metric() > 55.0


class TestOkTopk:
    def test_density_approximately_hit(self, rng):
        c = OkTopkCompressor(0.1, seed=0)
        x = rng.standard_normal(50_000).astype(np.float32)
        ct = c.compress(x)
        assert 0.05 < ct.meta["k"] / x.size < 0.2

    def test_threshold_reused_between_reestimates(self, rng, monkeypatch):
        monkeypatch.setattr(oktopk, "_REESTIMATE_EVERY", 10)
        c = OkTopkCompressor(0.1, seed=0)
        x = rng.standard_normal(10_000).astype(np.float32)
        c.compress(x)
        t0 = c._threshold
        c.compress(x * 1.01)
        assert c._threshold == t0  # no re-estimate yet

    def test_threshold_reestimated_on_schedule(self, rng, monkeypatch):
        monkeypatch.setattr(oktopk, "_REESTIMATE_EVERY", 2)
        c = OkTopkCompressor(0.1, seed=0)
        a = rng.standard_normal(10_000).astype(np.float32)
        b = (rng.standard_normal(10_000) * 100).astype(np.float32)
        c.compress(a)
        t0 = c._threshold
        c.compress(b)  # call 2 -> re-estimate on the new scale
        c.compress(b)
        assert c._threshold != t0

    def test_drift_correction_caps_density(self, rng, monkeypatch):
        monkeypatch.setattr(oktopk, "_REESTIMATE_EVERY", 1000)
        c = OkTopkCompressor(0.05, seed=0)
        small = (rng.standard_normal(20_000) * 0.01).astype(np.float32)
        c.compress(small)
        # Now a tensor where nearly everything exceeds the stale threshold.
        big = (rng.standard_normal(20_000) * 100).astype(np.float32)
        ct = c.compress(big)
        assert ct.meta["k"] / big.size < 0.9

    def test_empty_tensor_is_an_empty_frame(self, rng):
        """An empty tensor compresses to an empty frame and leaves the
        threshold estimate, the call count and the generator untouched."""
        c = OkTopkCompressor(0.1, seed=0)
        c.compress(rng.standard_normal(1_000).astype(np.float32))
        before = c.state_dict()
        ct = c.compress(np.zeros(0, np.float32))
        assert ct.meta["k"] == 0 and ct.shape == (0,)
        assert c.decompress(ct).shape == (0,)
        after = c.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        fresh = OkTopkCompressor(0.1, seed=0)
        fresh.compress(np.zeros((0, 3), np.float32))
        assert fresh._threshold is None

    def test_kept_values_exact(self, rng):
        c = OkTopkCompressor(0.2, seed=0)
        x = rng.standard_normal(5_000).astype(np.float32)
        out = c.roundtrip(x)
        kept = out != 0
        assert np.array_equal(out[kept], x[kept])

    def test_fixed_bound_contrast_with_compso(self, kfac_like_gradient):
        """Section 4.3: Ok-topk keeps a fixed selection rule across
        iterations; COMPSO's adaptive schedule changes its ratio when the
        LR drops, Ok-topk's stays flat."""
        x = kfac_like_gradient
        ok = OkTopkCompressor(0.1, seed=0)
        ok_ratios = [x.nbytes / ok.compress(x).nbytes for _ in range(10)]
        assert np.std(ok_ratios) < 0.05 * np.mean(ok_ratios)

        def schedule_ratios(encoder):
            ac = AdaptiveCompso(StepLrSchedule(5), encoder=encoder)
            ratios = []
            for _ in range(10):
                ratios.append(x.nbytes / ac.compress(x).nbytes)
                ac.step()
            return ratios

        # A coder that models bytes leaves most of a near-zero code's
        # entropy on the wire, so dropping the filter costs 26x -> 8x.
        byte_coded = schedule_ratios("huffman")
        assert max(byte_coded) > 1.5 * min(byte_coded)
        # The default coder, one ANS symbol per 16-bit code, takes that
        # entropy in either stage, which leaves the filter a step of
        # 31.7x -> 28.2x (EXPERIMENTS.md, "What the filter is still
        # worth"): each stage in its own band.
        ratios = schedule_ratios("ans")
        assert 30.0 < min(ratios[:5]) and max(ratios[:5]) < 34.0
        assert 26.0 < min(ratios[5:]) and max(ratios[5:]) < 30.0

    def test_reset(self, rng):
        c = OkTopkCompressor(0.1, seed=0)
        c.compress(rng.standard_normal(1000).astype(np.float32))
        c.reset()
        assert c._threshold is None

    def test_validation(self):
        with pytest.raises(ValueError):
            OkTopkCompressor(0.0)


class TestCharts:
    def test_stacked_bars_rows_full_width(self):
        out = stacked_bars(["r1"], {"x": [30.0], "y": [70.0]})
        bar_line = out.splitlines()[-1]
        inner = bar_line.split("|")[1]
        assert len(inner) == 60
        assert inner.count("#") == 18  # 30% of 60

    def test_stacked_bars_zero_row(self):
        out = stacked_bars(["r"], {"x": [0.0]})
        assert "|" + " " * 60 + "|" in out

    def test_stacked_bars_series_mismatch(self):
        with pytest.raises(ValueError):
            stacked_bars(["a", "b"], {"x": [1.0]})
