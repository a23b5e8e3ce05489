"""Extension features: autotuning, factor compression, error feedback.

These implement the paper's section 7 future-work directions and the
section 6 error-feedback comparison.
"""

import numpy as np
import pytest

from repro.compression import ErrorFeedback, QsgdCompressor, TopKCompressor
from repro.autotune import FidelityBudget, autotune_bounds, offline
from repro.core import CompsoCompressor, FactorCompressor
from repro.data import make_image_data
from repro.distributed import PLATFORM1, SimCluster
from repro.kfac_dist import (
    CompressionSpec,
    DistributedKfacTrainer,
    KfacIterationModel,
    MODEL_TIMING_PROFILES,
)
from repro.models import resnet_proxy
from repro.models.catalogs import resnet50_catalog
from repro.train import ClassificationTask


class TestAutotune:
    def test_result_meets_budget(self, kfac_like_gradient):
        budget = FidelityBudget(min_cosine=0.995, max_rel_l2=0.1)
        res = autotune_bounds([kfac_like_gradient], budget=budget)
        assert res.cosine >= budget.min_cosine
        assert res.rel_l2 <= budget.max_rel_l2
        assert res.ratio > 1.0

    def test_tighter_budget_lower_ratio(self, kfac_like_gradient):
        loose = autotune_bounds(
            [kfac_like_gradient], budget=FidelityBudget(min_cosine=0.99, max_rel_l2=0.2)
        )
        tight = autotune_bounds(
            [kfac_like_gradient], budget=FidelityBudget(min_cosine=0.9999, max_rel_l2=0.01)
        )
        assert loose.ratio >= tight.ratio

    def test_beats_default_bounds(self, kfac_like_gradient):
        """The future-work promise: tuned bounds out-compress the paper's
        empirical 4E-3 setting at comparable fidelity."""
        res = autotune_bounds(
            [kfac_like_gradient], budget=FidelityBudget(min_cosine=0.995, max_rel_l2=0.1)
        )
        default_cr = CompsoCompressor(4e-3, 4e-3).ratio(kfac_like_gradient)
        assert res.ratio > default_cr

    def test_impossible_budget_raises(self, kfac_like_gradient, monkeypatch):
        monkeypatch.setattr(offline, "_EB_F_GRID", (1e-2,))
        with pytest.raises(ValueError):
            autotune_bounds(
                [kfac_like_gradient], budget=FidelityBudget(min_cosine=1.0, max_rel_l2=0.0)
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            autotune_bounds([])

    def test_trace_records_probes(self, kfac_like_gradient):
        res = autotune_bounds([kfac_like_gradient])
        assert len(res.trace) > 5


class TestFactorCompressor:
    @pytest.fixture
    def spd_factor(self, rng):
        m = rng.standard_normal((60, 60))
        return (m @ m.T / 60).astype(np.float32)

    def test_symmetry_restored_exactly(self, spd_factor):
        fc = FactorCompressor(1e-3)
        out = fc.decompress(fc.compress(spd_factor))
        assert np.array_equal(out, out.T)

    def test_error_bounded_by_diagonal_scale(self, spd_factor):
        fc = FactorCompressor(1e-3)
        out = fc.decompress(fc.compress(spd_factor))
        bound = 1e-3 * np.abs(np.diag(spd_factor)).max()
        assert np.abs(out - spd_factor).max() <= bound * 1.0001

    def test_compresses_running_average_factors(self, rng):
        # Realistic factors: strong diagonal, small off-diagonal mass.
        d = 100
        base = np.eye(d) * 0.5 + rng.standard_normal((d, d)) * 1e-3
        factor = ((base + base.T) / 2).astype(np.float32)
        assert FactorCompressor(1e-3).ratio(factor) > 3.0

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            FactorCompressor().compress(rng.standard_normal((3, 4)).astype(np.float32))

    def test_sixteen_bit_codes_reach_ans_as_items(self, spd_factor):
        ct = FactorCompressor(1e-3).compress(spd_factor)
        frame = ct.segments["codes"]
        assert ct.meta["width"] == 16 and frame[0] == 1
        assert int.from_bytes(frame[5:7], "little") >> 12 == 1  # item size 2

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            FactorCompressor(0.0)

    def test_training_with_factor_compression_converges(self):
        data = make_image_data(300, n_classes=4, size=8, noise=0.4, seed=0)
        task = ClassificationTask(data)
        model = resnet_proxy(n_classes=4, channels=8, rng=3)
        tr = DistributedKfacTrainer(
            model,
            task,
            SimCluster(1, 2, seed=0),
            lr=0.05,
            inv_update_freq=5,
            compressor=CompsoCompressor(4e-3, 4e-3),
            factor_compressor=FactorCompressor(1e-3),
        )
        h = tr.train(iterations=15, batch_size=32, eval_every=15)
        assert h.final_metric() > 60.0
        assert len(tr.factor_ratios) > 0
        assert np.mean(tr.factor_ratios) > 1.5

    def test_timing_model_factor_ratio_helps(self):
        m = KfacIterationModel(
            resnet50_catalog(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES["resnet50"]
        )
        spec = CompressionSpec.compso(22.0)
        with_fc = m.end_to_end_speedup(spec, factor_ratio=5.0)
        without = m.end_to_end_speedup(spec)
        assert with_fc > without


class TestErrorFeedback:
    def test_repairs_topk_bias(self, rng):
        """EF makes the *time-averaged* compressed gradient unbiased even
        for Top-k, which otherwise permanently drops coordinates."""
        x = rng.standard_normal(500).astype(np.float32)
        plain = TopKCompressor(0.1)
        ef = ErrorFeedback(TopKCompressor(0.1))
        acc_plain = np.zeros(500)
        acc_ef = np.zeros(500)
        rounds = 40
        for _ in range(rounds):
            acc_plain += plain.roundtrip(x)
            acc_ef += ef.decompress(ef.compress(x))
        err_plain = np.abs(acc_plain / rounds - x).mean()
        err_ef = np.abs(acc_ef / rounds - x).mean()
        assert err_ef < err_plain / 3

    def test_memory_overhead_reported(self, rng):
        ef = ErrorFeedback(QsgdCompressor(4))
        ef.compress(rng.standard_normal(1000).astype(np.float32))
        assert sum(r.nbytes for r in ef._residuals.values()) == 4000
        ef.reset()
        assert sum(r.nbytes for r in ef._residuals.values()) == 0

    def test_separate_streams_by_key(self, rng):
        ef = ErrorFeedback(TopKCompressor(0.5))
        a = rng.standard_normal(100).astype(np.float32)
        b = rng.standard_normal(200).astype(np.float32)
        ef.compress(a, key="layer0")
        ef.compress(b, key="layer1")
        assert sum(r.nbytes for r in ef._residuals.values()) == (100 + 200) * 4

    def test_first_round_matches_inner(self, rng):
        x = rng.standard_normal(300).astype(np.float32)
        inner = QsgdCompressor(8, seed=5)
        ef = ErrorFeedback(QsgdCompressor(8, seed=5))
        assert np.array_equal(ef.decompress(ef.compress(x)), inner.roundtrip(x))
