"""Baseline compressors: QSGD, cuSZ-style, CocktailSGD, Top-k."""

import numpy as np
import pytest

from repro.compression import (
    CocktailSgdCompressor,
    QsgdCompressor,
    SzCompressor,
    TopKCompressor,
    cocktail,
    topk_mask,
)

ALL_COMPRESSORS = [
    QsgdCompressor(8),
    QsgdCompressor(4),
    SzCompressor(4e-3),
    SzCompressor(1e-1),
    CocktailSgdCompressor(0.2, 8),
    TopKCompressor(0.1),
]


@pytest.mark.parametrize("comp", ALL_COMPRESSORS, ids=lambda c: c.name)
def test_shape_and_dtype_preserved(comp, rng):
    x = rng.standard_normal((37, 53)).astype(np.float32)
    out = comp.roundtrip(x)
    assert out.shape == x.shape
    assert out.dtype == np.float32


@pytest.mark.parametrize("comp", ALL_COMPRESSORS, ids=lambda c: c.name)
def test_zero_tensor_roundtrip(comp):
    x = np.zeros(500, dtype=np.float32)
    assert np.allclose(comp.roundtrip(x), 0.0)


class TestQsgd:
    def test_8bit_relative_error_small(self, kfac_like_gradient):
        x = kfac_like_gradient
        err = np.abs(QsgdCompressor(8).roundtrip(x) - x).max()
        assert err <= np.abs(x).max() / 127 * 1.01

    def test_4bit_compresses_more_than_8bit(self, kfac_like_gradient):
        assert QsgdCompressor(4).ratio(kfac_like_gradient) > QsgdCompressor(8).ratio(
            kfac_like_gradient
        )

    def test_4bit_has_larger_error(self, kfac_like_gradient):
        x = kfac_like_gradient
        e4 = np.abs(QsgdCompressor(4).roundtrip(x) - x).max()
        e8 = np.abs(QsgdCompressor(8).roundtrip(x) - x).max()
        assert e4 > e8

    def test_signs_preserved_for_large_values(self, rng):
        x = rng.choice([-1.0, 1.0], 1000).astype(np.float32)
        out = QsgdCompressor(8).roundtrip(x)
        assert np.array_equal(np.sign(out), np.sign(x))


class TestSz:
    def test_error_bound_honoured(self, kfac_like_gradient):
        x = kfac_like_gradient
        for eb in (1e-1, 4e-3, 1e-3):
            err = np.abs(SzCompressor(eb).roundtrip(x) - x).max()
            assert err <= eb * np.abs(x).max() * 1.0001, eb

    def test_looser_bound_higher_ratio(self, kfac_like_gradient):
        x = kfac_like_gradient
        assert SzCompressor(1e-1).ratio(x) > SzCompressor(4e-3).ratio(x)

    def test_smooth_data_compresses_well(self):
        # Lorenzo prediction shines on smooth signals.
        x = np.sin(np.linspace(0, 20, 50_000)).astype(np.float32)
        assert SzCompressor(1e-3).ratio(x) > 8

    def test_outlier_escape_path(self, rng):
        # Wild jumps force deltas beyond the 1-byte radius.
        x = (rng.standard_normal(5000) * rng.choice([1, 1000], 5000)).astype(np.float32)
        c = SzCompressor(1e-4)
        out = c.roundtrip(x)
        assert np.abs(out - x).max() <= 1e-4 * np.abs(x).max() * 1.0001

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            SzCompressor(-1.0)


class TestTopK:
    def test_mask_selects_largest(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        mask = topk_mask(x, 100)
        assert mask.sum() == 100
        kept_min = np.abs(x[mask]).min()
        dropped_max = np.abs(x[~mask]).max()
        assert kept_min >= dropped_max - 1e-12

    def test_k_edge_cases(self, rng):
        x = rng.standard_normal(10)
        assert topk_mask(x, 0).sum() == 0
        assert topk_mask(x, 10).sum() == 10
        assert topk_mask(x, 99).sum() == 10

    def test_density_respected(self, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        ct = TopKCompressor(0.05).compress(x)
        assert ct.meta["k"] == 500

    def test_dropped_entries_zero(self, rng):
        x = rng.standard_normal(1000).astype(np.float32) + 10  # all nonzero
        out = TopKCompressor(0.1).roundtrip(x)
        assert (out == 0).sum() == 900

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            TopKCompressor(0.0)


class TestCocktail:
    def test_density_approximate(self, rng):
        x = rng.standard_normal(20_000).astype(np.float32)
        ct = CocktailSgdCompressor(0.2, 8).compress(x)
        assert abs(ct.meta["k"] - 4000) < 50

    def test_ratio_near_paper_constant(self, kfac_like_gradient):
        """Paper: CocktailSGD holds a roughly constant ~20x ratio."""
        r = CocktailSgdCompressor(0.2, 8).ratio(kfac_like_gradient)
        assert 10 < r < 30

    def test_kept_values_approximately_preserved(self, rng, monkeypatch):
        monkeypatch.setattr(cocktail, "_CANDIDATE_FACTOR", 10)
        x = rng.standard_normal(5000).astype(np.float32)
        out = CocktailSgdCompressor(0.5, 8).roundtrip(x)
        kept = out != 0
        err = np.abs(out[kept] - x[kept]).max()
        assert err <= np.abs(x).max() / 127 * 1.1

    @pytest.mark.parametrize("bits", [1, 9, 12, 16])
    def test_bits_beyond_a_byte_are_refused(self, bits):
        """Codes travel one byte each: 12 bits used to wrap silently and
        err by up to 6.8 on N(0, 1) values."""
        with pytest.raises(ValueError, match=r"\[2, 8\].*one byte"):
            CocktailSgdCompressor(0.5, bits)

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal(5000).astype(np.float32)
        a = CocktailSgdCompressor(0.2, 8, seed=9).roundtrip(x)
        b = CocktailSgdCompressor(0.2, 8, seed=9).roundtrip(x)
        assert np.array_equal(a, b)


class TestCompressedTensorAccounting:
    def test_nbytes_counts_all_segments(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        ct = QsgdCompressor(8).compress(x)
        assert ct.nbytes == sum(len(s) for s in ct.segments.values()) + 16

    def test_ratio_uses_wire_bytes(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        wire = QsgdCompressor(8, seed=1).compress(x).nbytes
        assert QsgdCompressor(8, seed=1).ratio(x) == pytest.approx(4000 / wire)
