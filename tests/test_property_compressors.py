"""Property-based tests and failure injection across all compressors.

Invariants every compressor must satisfy on arbitrary float32 input:
shape preservation, finite output, idempotent decompression, and (for
error-bounded compressors) the advertised bound.  Failure injection
verifies corrupt wire data cannot silently round-trip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    CocktailSgdCompressor,
    CompressedTensor,
    QsgdCompressor,
    SzCompressor,
    TopKCompressor,
)
from repro.core import CompsoCompressor, FactorCompressor
from repro.encoders import EncodeError, get_encoder

COMPRESSOR_FACTORIES = [
    lambda: CompsoCompressor(4e-3, 4e-3, seed=0),
    lambda: CompsoCompressor(0.0, 1e-3, seed=0),
    lambda: QsgdCompressor(8, seed=0),
    lambda: QsgdCompressor(4, seed=0),
    lambda: SzCompressor(4e-3),
    lambda: CocktailSgdCompressor(0.3, 8, seed=0),
    lambda: TopKCompressor(0.2),
]


def _finite_floats(n):
    rng = np.random.default_rng(n)
    kind = n % 4
    if kind == 0:
        return (rng.standard_normal(n or 1) * 10.0 ** float(rng.integers(-6, 3))).astype(
            np.float32
        )
    if kind == 1:
        return np.full(n or 1, float(rng.standard_normal()), dtype=np.float32)
    if kind == 2:
        return np.zeros(n or 1, dtype=np.float32)
    x = rng.standard_normal(n or 1).astype(np.float32)
    x[:: max(n // 7, 1)] *= 1e6  # spiky outliers
    return x


@pytest.mark.parametrize("factory", COMPRESSOR_FACTORIES, ids=lambda f: f().name)
@given(n=st.integers(min_value=1, max_value=5000))
@settings(max_examples=15, deadline=None)
def test_roundtrip_invariants(factory, n):
    comp = factory()
    x = _finite_floats(n)
    ct = comp.compress(x)
    out = comp.decompress(ct)
    assert out.shape == x.shape
    assert out.dtype == np.float32
    assert np.all(np.isfinite(out))
    # Decompression is pure: same compressed tensor, same output.
    assert np.array_equal(comp.decompress(ct), out)


@given(n=st.integers(min_value=1, max_value=5000))
@settings(max_examples=15, deadline=None)
def test_compso_bound_property(n):
    comp = CompsoCompressor(4e-3, 4e-3, seed=0)
    x = _finite_floats(n)
    out = comp.roundtrip(x)
    vmax = float(np.abs(x).max())
    assert np.abs(out - x).max() <= 4e-3 * max(vmax, 1e-30) * 1.001


@given(n=st.integers(min_value=2, max_value=80))
@settings(max_examples=15, deadline=None)
def test_factor_compressor_symmetry_property(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    factor = ((m @ m.T) / n).astype(np.float32)
    fc = FactorCompressor(1e-3)
    out = fc.decompress(fc.compress(factor))
    assert np.array_equal(out, out.T)
    assert np.abs(out - factor).max() <= 1e-3 * np.abs(np.diag(factor)).max() * 1.001


class TestFailureInjection:
    def test_truncated_encoder_blob_raises(self, rng):
        comp = CompsoCompressor(4e-3, 4e-3)
        ct = comp.compress(rng.standard_normal(2000).astype(np.float32))
        broken = CompressedTensor(
            {**ct.segments, "codes": ct.segments["codes"][:3]}, ct.shape, ct.meta
        )
        with pytest.raises(EncodeError):
            comp.decompress(broken)

    def test_corrupt_frame_kind_raises(self, rng):
        enc = get_encoder("ans")
        blob = enc.encode(rng.integers(0, 256, 1000, dtype=np.uint8).tobytes())
        corrupt = bytes([0x7F]) + blob[1:]
        with pytest.raises(EncodeError):
            enc.decode(corrupt)

    def test_wrong_declared_length_raises(self, rng):
        enc = get_encoder("deflate")
        data = rng.integers(0, 4, 1000, dtype=np.uint8).tobytes()
        blob = bytearray(enc.encode(data))
        blob[1] ^= 0xFF  # mangle the length field
        with pytest.raises(EncodeError):
            enc.decode(bytes(blob))

    @pytest.mark.parametrize("segment", ["bitmap", "codes"])
    def test_swapped_segments_do_not_roundtrip_silently(self, rng, segment):
        comp = CompsoCompressor(4e-3, 4e-3, seed=0)
        x = rng.standard_normal(3000).astype(np.float32)
        ct = comp.compress(x)
        other = comp.compress(rng.standard_normal(3000).astype(np.float32) * 7)
        tampered = CompressedTensor(
            {**ct.segments, segment: other.segments[segment]}, ct.shape, ct.meta
        )
        try:
            out = comp.decompress(tampered)
        except (EncodeError, ValueError, IndexError):
            return  # detected corruption: fine
        # If it decodes structurally, the data must not silently match.
        assert not np.allclose(out, comp.decompress(ct))
