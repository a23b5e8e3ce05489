"""Rounding-mode properties (paper section 4.2) and quantiser bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.compression.quantize import (
    BitBudgetQuantizer,
    ErrorBoundedQuantizer,
    round_nearest,
    round_p05,
    round_stochastic,
)
from tests.conftest import absolute


class TestRoundingModes:
    def test_rn_deterministic(self, rng):
        v = rng.standard_normal(1000) * 10
        assert np.array_equal(round_nearest(v), round_nearest(v))

    def test_rn_error_at_most_half(self, rng):
        v = rng.standard_normal(10_000) * 10
        assert np.abs(round_nearest(v) - v).max() <= 0.5

    def test_sr_error_below_one(self, rng):
        v = rng.standard_normal(10_000) * 10
        assert np.abs(round_stochastic(v, rng) - v).max() < 1.0

    def test_sr_unbiased(self, rng):
        v = np.full(200_000, 3.3)
        r = round_stochastic(v, rng)
        assert abs(r.mean() - 3.3) < 0.01
        assert set(np.unique(r)) <= {3.0, 4.0}

    def test_p05_splits_half_half(self, rng):
        v = np.full(100_000, 7.9)
        r = round_p05(v, rng)
        up = (r == 8.0).mean()
        assert 0.48 < up < 0.52  # P0.5: equal probability regardless of fraction

    def test_p05_keeps_exact_integers(self, rng):
        v = np.arange(100, dtype=float)
        assert np.array_equal(round_p05(v, rng), v)

    def test_sr_probability_matches_fraction(self, rng):
        v = np.full(200_000, 1.25)
        up = (round_stochastic(v, rng) == 2.0).mean()
        assert 0.24 < up < 0.26


class TestErrorDistributionShapes:
    """The section 4.2 finding: RN error is uniform, SR error triangular."""

    @staticmethod
    def _errors(mode_fn, rng, n=200_000):
        v = rng.uniform(-50, 50, n)
        return mode_fn(v, rng) - v

    def test_rn_error_uniform(self, rng):
        err = self._errors(round_nearest, rng)
        # Kolmogorov-Smirnov against U(-0.5, 0.5).
        stat, _ = sps.kstest(err, sps.uniform(loc=-0.5, scale=1.0).cdf)
        assert stat < 0.01

    def test_sr_error_triangular(self, rng):
        err = self._errors(round_stochastic, rng)
        stat_tri, _ = sps.kstest(err, sps.triang(c=0.5, loc=-1.0, scale=2.0).cdf)
        stat_uni, _ = sps.kstest(err, sps.uniform(loc=-1.0, scale=2.0).cdf)
        assert stat_tri < 0.01
        assert stat_tri < stat_uni  # much closer to triangular than uniform

    def test_p05_error_uniform_but_wide(self, rng):
        err = self._errors(round_p05, rng)
        stat, _ = sps.kstest(err, sps.uniform(loc=-1.0, scale=2.0).cdf)
        assert stat < 0.01

    def test_sr_error_zero_mean(self, rng):
        err = self._errors(round_stochastic, rng)
        assert abs(err.mean()) < 5e-3


class TestBitBudgetQuantizer:
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_levels_respect_budget(self, bits, rng):
        q = BitBudgetQuantizer(bits, "rn")
        x = rng.standard_normal(10_000).astype(np.float32)
        qt = q.quantize(x)
        assert int(qt.codes.max()) - int(qt.codes.min()) + 1 <= (1 << bits)

    def test_more_bits_less_error(self, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        e4 = np.abs(BitBudgetQuantizer(4, "rn").roundtrip(x) - x).max()
        e8 = np.abs(BitBudgetQuantizer(8, "rn").roundtrip(x) - x).max()
        assert e8 < e4

    def test_zero_tensor(self):
        q = BitBudgetQuantizer(8)
        out = q.roundtrip(np.zeros(100, dtype=np.float32))
        assert np.all(out == 0)

    def test_shape_preserved(self, rng):
        x = rng.standard_normal((4, 5, 6)).astype(np.float32)
        assert BitBudgetQuantizer(8).roundtrip(x).shape == (4, 5, 6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BitBudgetQuantizer(1)
        with pytest.raises(ValueError):
            BitBudgetQuantizer(8, "bogus")


class TestErrorBoundedQuantizer:
    @pytest.mark.parametrize("mode", ["rn", "sr", "p05"])
    def test_bound_holds_absolute(self, mode, rng):
        x = (rng.standard_normal(20_000) * 3).astype(np.float32)
        q = absolute(ErrorBoundedQuantizer)(1e-2, mode)
        err = np.abs(q.roundtrip(x) - x)
        assert err.max() <= 1e-2 * 1.0001

    @pytest.mark.parametrize("mode", ["rn", "sr"])
    def test_bound_holds_relative(self, mode, kfac_like_gradient):
        x = kfac_like_gradient
        q = ErrorBoundedQuantizer(4e-3, mode)
        err = np.abs(q.roundtrip(x) - x)
        assert err.max() <= 4e-3 * np.abs(x).max() * 1.0001

    def test_rn_uses_double_step(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        q_rn = absolute(ErrorBoundedQuantizer)(1e-2, "rn")
        q_sr = absolute(ErrorBoundedQuantizer)(1e-2, "sr")
        assert q_rn.step_for(x) == pytest.approx(2 * q_sr.step_for(x))

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            ErrorBoundedQuantizer(0.0)

    @given(st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_bound_property(self, eb):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000).astype(np.float32)
        q = absolute(ErrorBoundedQuantizer)(eb, "sr", seed=rng)
        assert np.abs(q.roundtrip(x) - x).max() <= eb * 1.0001
