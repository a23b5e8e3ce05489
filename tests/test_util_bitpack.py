"""Bit-packing round trips and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitpack import (
    pack_bitmap,
    pack_uints,
    required_width,
    unpack_bitmap,
    unpack_uints,
)


class TestRequiredWidth:
    def test_zero_needs_one_bit(self):
        assert required_width(0) == 1

    @pytest.mark.parametrize("value,width", [(1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (2**31 - 1, 31)])
    def test_known_widths(self, value, width):
        assert required_width(value) == width

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            required_width(-1)


class TestPackUints:
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 11, 16, 32])
    def test_roundtrip_random(self, rng, width):
        values = rng.integers(0, 1 << width, 1000).astype(np.uint64)
        blob = pack_uints(values, width)
        out = unpack_uints(blob, width, 1000)
        assert np.array_equal(out, values.astype(np.uint32))

    def test_packed_size_is_minimal(self, rng):
        values = rng.integers(0, 8, 1000).astype(np.uint64)  # 3 bits each
        blob = pack_uints(values, 3)
        assert len(blob) == (1000 * 3 + 7) // 8

    @pytest.mark.parametrize("width", [8, 16, 24, 32])
    def test_whole_byte_widths_match_the_bit_matrix_layout(self, rng, width):
        """The byte-view path must write what the general MSB-first path writes."""
        values = rng.integers(0, 1 << width, 777).astype(np.uint64)
        values[:2] = 0, (1 << width) - 1
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        assert pack_uints(values, width) == np.packbits(bits.ravel()).tobytes()

    @pytest.mark.parametrize("width", [3, 8, 16, 24])
    def test_short_blob_rejected(self, width):
        blob = pack_uints(np.arange(5, dtype=np.uint64), width)
        with pytest.raises(ValueError, match="cannot hold"):
            unpack_uints(blob[:-1], width, 5)

    def test_empty(self):
        assert pack_uints(np.empty(0, dtype=np.uint64), 5) == b""
        assert unpack_uints(b"", 5, 0).size == 0

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_uints(np.array([8], dtype=np.uint64), 3)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            pack_uints(np.array([1], dtype=np.uint64), 0)
        with pytest.raises(ValueError):
            pack_uints(np.array([1], dtype=np.uint64), 33)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**16 - 1), max_size=300),
        st.integers(min_value=16, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values, width):
        arr = np.array(values, dtype=np.uint64)
        out = unpack_uints(pack_uints(arr, width), width, len(values))
        assert np.array_equal(out, arr.astype(np.uint32))


class TestBitmap:
    def test_roundtrip(self, rng):
        mask = rng.random(777) < 0.3
        assert np.array_equal(unpack_bitmap(pack_bitmap(mask), 777), mask)

    def test_density_preserved(self, rng):
        mask = rng.random(10_000) < 0.15
        out = unpack_bitmap(pack_bitmap(mask), 10_000)
        assert out.sum() == mask.sum()

    def test_empty(self):
        assert unpack_bitmap(b"", 0).size == 0

    @given(st.lists(st.booleans(), max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, bits):
        mask = np.array(bits, dtype=bool)
        assert np.array_equal(unpack_bitmap(pack_bitmap(mask), len(bits)), mask)
