"""Rounding-mode properties (paper section 4.2) and quantiser bounds.

``_Head*`` below are the quantiser classes that :func:`quant_step` and
:func:`round_codes` replaced (and the QSGD, CocktailSGD and cuSZ bodies that
used them), kept as oracles the way ``tests/test_compso_identity.py`` keeps
its own: the two functions must give the same steps, the same codes and
leave the generator in the same state.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.compression import CocktailSgdCompressor, QsgdCompressor, SzCompressor
from repro.compression.base import CompressedTensor
from repro.compression.quantize import (
    ROUNDING_MODES,
    quant_step,
    round_codes,
    round_nearest,
    round_p05,
    round_stochastic,
)
from repro.compression.topk import topk_mask
from repro.core import CompsoCompressor, FactorCompressor
from repro.encoders.ans import RansEncoder
from repro.encoders.elias import elias_gamma_encode
from repro.util.bitpack import pack_bitmap
from repro.util.seeding import spawn_rng
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


def _roundtrip(x, step, mode, rng):
    """``x`` quantised at ``step`` and dequantised, as every compressor does."""
    flat = np.asarray(x, dtype=np.float32).ravel()
    codes = round_codes(flat, step, mode, rng).astype(np.int32)
    return (codes.astype(np.float32) * np.float32(step)).reshape(np.shape(x))


def _vmax(x):
    return float(np.abs(x).max()) if x.size else 0.0


def _bit_roundtrip(x, bits, mode, rng=None):
    return _roundtrip(x, quant_step(_vmax(x), mode, bits=bits), mode, spawn_rng(rng))


def _bound_roundtrip(x, eb, mode, *, relative=True, rng=0):
    step = quant_step(_vmax(x) if relative else 0.0, mode, eb=eb)
    return _roundtrip(x, step, mode, spawn_rng(rng))


class TestBitBudgetQuantizer:
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_levels_respect_budget(self, bits, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        codes = round_codes(x, quant_step(_vmax(x), "rn", bits=bits), "rn", None)
        assert int(codes.max()) - int(codes.min()) + 1 <= (1 << bits)

    def test_more_bits_less_error(self, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        e4 = np.abs(_bit_roundtrip(x, 4, "rn") - x).max()
        e8 = np.abs(_bit_roundtrip(x, 8, "rn") - x).max()
        assert e8 < e4

    def test_zero_tensor(self):
        out = _bit_roundtrip(np.zeros(100, dtype=np.float32), 8, "sr")
        assert np.all(out == 0)
        assert np.all(QsgdCompressor(8).roundtrip(np.zeros(100, dtype=np.float32)) == 0)

    def test_shape_preserved(self, rng):
        x = rng.standard_normal((4, 5, 6)).astype(np.float32)
        assert round_codes(x, 0.1, "sr", rng).shape == (4, 5, 6)
        assert round_codes(x, 0.0, "sr", rng).shape == (4, 5, 6)
        assert QsgdCompressor(8).roundtrip(x).shape == (4, 5, 6)
        assert CocktailSgdCompressor(0.5, 8).roundtrip(x).shape == (4, 5, 6)

    def test_invalid_params(self):
        for bits in (1, 17):
            with pytest.raises(ValueError, match="bits must be in"):
                QsgdCompressor(bits)
            with pytest.raises(ValueError, match="bits must be in"):
                CocktailSgdCompressor(0.2, bits)
        with pytest.raises(ValueError, match="rounding must be one of"):
            CompsoCompressor(4e-3, 4e-3, rounding="bogus")


class TestErrorBoundedQuantizer:
    @pytest.mark.parametrize("mode", ["rn", "sr", "p05"])
    def test_bound_holds_absolute(self, mode, rng):
        x = (rng.standard_normal(20_000) * 3).astype(np.float32)
        err = np.abs(_bound_roundtrip(x, 1e-2, mode, relative=False) - x)
        assert err.max() <= 1e-2 * 1.0001

    @pytest.mark.parametrize("mode", ["rn", "sr"])
    def test_bound_holds_relative(self, mode, kfac_like_gradient):
        x = kfac_like_gradient
        err = np.abs(_bound_roundtrip(x, 4e-3, mode) - x)
        assert err.max() <= 4e-3 * np.abs(x).max() * 1.0001

    def test_rn_uses_double_step(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        for magnitude in (0.0, _vmax(x)):
            rn = quant_step(magnitude, "rn", eb=1e-2)
            assert rn == pytest.approx(2 * quant_step(magnitude, "sr", eb=1e-2))
            assert quant_step(magnitude, "p05", eb=1e-2) == quant_step(magnitude, "sr", eb=1e-2)
        # cuSZ rounds to nearest, at twice the bound.
        assert SzCompressor(1e-2)._step(x) == pytest.approx(2e-2 * _vmax(x))

    def test_invalid_bound(self):
        for build in (
            lambda: SzCompressor(0.0),
            lambda: CompsoCompressor(4e-3, 0.0),
            lambda: FactorCompressor(0.0),
        ):
            with pytest.raises(ValueError):
                build()

    @given(st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_bound_property(self, eb):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000).astype(np.float32)
        out = _bound_roundtrip(x, eb, "sr", relative=False, rng=rng)
        assert np.abs(out - x).max() <= eb * 1.0001


# -- the quantiser classes the two functions replaced -------------------------


@dataclass
class _HeadQuantizedTensor:
    codes: np.ndarray
    scale: float
    shape: tuple


class _HeadBitBudgetQuantizer:
    def __init__(self, bits, mode="sr", *, seed=0):
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        if mode not in ROUNDING_MODES:
            raise ValueError(f"mode must be one of {sorted(ROUNDING_MODES)}, got {mode!r}")
        self.bits = bits
        self.mode = mode
        self._rng = spawn_rng(seed)

    def quantize(self, x):
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        vmax = float(np.abs(flat).max()) if flat.size else 0.0
        levels = (1 << (self.bits - 1)) - 1
        if vmax == 0.0:
            return _HeadQuantizedTensor(np.zeros(flat.size, dtype=np.int32), 0.0, x.shape)
        scale = vmax / levels
        codes = ROUNDING_MODES[self.mode](flat / scale, self._rng).astype(np.int32)
        return _HeadQuantizedTensor(codes, scale, x.shape)


class _HeadErrorBoundedQuantizer:
    relative = True

    def __init__(self, eb, mode="sr", *, seed=0):
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        if mode not in ROUNDING_MODES:
            raise ValueError(f"mode must be one of {sorted(ROUNDING_MODES)}, got {mode!r}")
        self.eb = float(eb)
        self.mode = mode
        self._rng = spawn_rng(seed)

    def step_for(self, x):
        eb = self.eb
        if self.relative:
            vmax = float(np.abs(x).max()) if x.size else 0.0
            eb = self.eb * vmax if vmax > 0 else self.eb
        return 2.0 * eb if self.mode == "rn" else eb

    def quantize(self, x):
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        step = self.step_for(flat)
        if flat.size == 0 or step == 0.0:
            return _HeadQuantizedTensor(np.zeros(flat.size, dtype=np.int32), 0.0, x.shape)
        codes = ROUNDING_MODES[self.mode](flat / step, self._rng).astype(np.int32)
        return _HeadQuantizedTensor(codes, step, x.shape)


class _HeadQsgd(QsgdCompressor):
    def __init__(self, bits=8, *, seed=0):
        self.bits = bits
        self.name = f"qsgd-{bits}bit"
        self._quantizer = _HeadBitBudgetQuantizer(bits, "sr", seed=spawn_rng(seed))
        self._rng = self._quantizer._rng  # what the inherited state_dict saves

    def compress(self, x):
        x = np.asarray(x, dtype=np.float32)
        qt = self._quantizer.quantize(x)
        signs = qt.codes < 0
        mags = np.abs(qt.codes).astype(np.uint64)
        segments = {"signs": pack_bitmap(signs), "mags": elias_gamma_encode(mags + 1)}
        return CompressedTensor(segments, x.shape, meta={"scale": qt.scale})


class _HeadCocktail(CocktailSgdCompressor):
    def __init__(self, density=0.2, bits=8, *, seed=0):
        self.density = density
        self.bits = bits
        self.name = f"cocktail-{int(density * 100)}pct-{bits}bit"
        self._rng = spawn_rng(seed)
        self._quantizer = _HeadBitBudgetQuantizer(bits, "sr", seed=spawn_rng(seed, 1))
        self._quant_rng = self._quantizer._rng  # what the inherited state_dict saves
        self._encoder = RansEncoder()

    def compress(self, x):
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        n = flat.size
        k = max(1, int(round(self.density * n))) if n else 0
        pool = min(n, int(round(2.0 * k)))
        if pool < n:
            candidates = self._rng.choice(n, size=pool, replace=False)
            sub_mask = topk_mask(flat[candidates], k)
            mask = np.zeros(n, dtype=bool)
            mask[candidates[sub_mask]] = True
        else:
            mask = topk_mask(flat, k)
        qt = self._quantizer.quantize(flat[mask])
        byte_codes = (qt.codes + (1 << (self.bits - 1))).astype(np.uint8)
        bitmap, codes = self._encoder.encode_many([(pack_bitmap(mask), 1), (byte_codes, 1)])
        segments = {"bitmap": bitmap, "codes": codes}
        return CompressedTensor(segments, x.shape, meta={"scale": qt.scale, "k": int(mask.sum())})


class _HeadSz(SzCompressor):
    def _step(self, x):
        eb = self.eb
        if self.relative:
            vmax = float(np.abs(x).max()) if x.size else 0.0
            eb = self.eb * vmax if vmax > 0 else self.eb
        return 2.0 * eb


def _state(rng):
    return rng.bit_generator.state


def _tensors(rng):
    """A gradient-like tensor, a 2-D one, an all-zero one and an empty one."""
    mixed = (rng.standard_normal(3001) * np.exp(rng.standard_normal(3001))).astype(np.float32)
    return {
        "mixed": mixed,
        "matrix": mixed[:3000].reshape(60, 50),
        "zero": np.zeros(257, dtype=np.float32),
        "empty": np.zeros(0, dtype=np.float32),
    }


class TestOneQuantiser:
    """``quant_step`` + ``round_codes`` against the classes they replaced."""

    @pytest.mark.parametrize("relative", [True, False])
    @pytest.mark.parametrize("mode", sorted(ROUNDING_MODES))
    @pytest.mark.parametrize("eb", [4e-3, 2e-2, 0.3])
    def test_error_bounded(self, rng, mode, relative, eb):
        head_cls = _HeadErrorBoundedQuantizer if relative else absolute(_HeadErrorBoundedQuantizer)
        for name, x in _tensors(rng).items():
            for seed in (0, 7):
                head = head_cls(eb, mode, seed=seed)
                new_rng = spawn_rng(seed)
                flat = x.ravel()
                step = quant_step(_vmax(flat) if relative else 0.0, mode, eb=eb)
                assert step == head.step_for(flat), name
                want = head.quantize(x)
                got = round_codes(flat, step, mode, new_rng).astype(np.int32)
                assert got.tobytes() == want.codes.tobytes(), name
                assert _state(new_rng) == _state(head._rng), name
                if flat.size:
                    assert step == want.scale, name

    @pytest.mark.parametrize("mode", sorted(ROUNDING_MODES))
    @pytest.mark.parametrize("bits", range(2, 17))
    def test_bit_budget(self, rng, mode, bits):
        for name, x in _tensors(rng).items():
            head = _HeadBitBudgetQuantizer(bits, mode, seed=3)
            new_rng = spawn_rng(3)
            flat = x.ravel()
            step = quant_step(_vmax(flat), mode, bits=bits)
            want = head.quantize(x)
            assert step == want.scale and type(step) is type(want.scale), name
            got = round_codes(flat, step, mode, new_rng).astype(np.int32)
            assert got.tobytes() == want.codes.tobytes(), name
            assert _state(new_rng) == _state(head._rng), name

    def test_a_zero_step_takes_no_draw(self):
        for mode in ROUNDING_MODES:
            r = spawn_rng(0)
            before = _state(r)
            codes = round_codes(np.ones(9, dtype=np.float32), 0.0, mode, r)
            assert not codes.any() and codes.dtype == np.float32
            assert _state(r) == before

    @pytest.mark.parametrize(
        "new, head",
        [
            (lambda: QsgdCompressor(6, seed=1), lambda: _HeadQsgd(6, seed=1)),
            (lambda: QsgdCompressor(2, seed=4), lambda: _HeadQsgd(2, seed=4)),
            (lambda: CocktailSgdCompressor(0.1, seed=1), lambda: _HeadCocktail(0.1, seed=1)),
            (lambda: CocktailSgdCompressor(1.0, 4, seed=2), lambda: _HeadCocktail(1.0, 4, seed=2)),
            (
                lambda: QsgdCompressor(8, seed=np.random.default_rng(5)),
                lambda: _HeadQsgd(8, seed=np.random.default_rng(5)),
            ),
            (
                lambda: CocktailSgdCompressor(0.3, seed=np.random.default_rng(5)),
                lambda: _HeadCocktail(0.3, seed=np.random.default_rng(5)),
            ),
            (lambda: SzCompressor(4e-3), lambda: _HeadSz(4e-3)),
            (lambda: absolute(SzCompressor)(1e-2), lambda: absolute(_HeadSz)(1e-2)),
        ],
        ids=[
            "qsgd6", "qsgd2", "cocktail10", "cocktail100-4bit", "qsgd8-generator",
            "cocktail30-generator", "sz", "sz-absolute",
        ],
    )
    def test_the_baselines(self, rng, new, head):
        a, b = new(), head()
        for name, x in _tensors(rng).items():
            for _ in range(2):
                got, want = a.compress(x), b.compress(x)
                assert got.segments == want.segments, name
                assert got.meta == want.meta, name
                assert {k: type(v) for k, v in got.meta.items()} == {
                    k: type(v) for k, v in want.meta.items()
                }, name
                assert a.state_dict().keys() == b.state_dict().keys()
                for key, value in a.state_dict().items():
                    assert str(value) == str(b.state_dict()[key]), (name, key)
