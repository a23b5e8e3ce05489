"""COMPSO compressor: filter semantics, error bounds, aggregation, encoders."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compso import CompsoCompressor, pack_codes
from repro.encoders.base import EncodeError
from repro.encoders.registry import NVCOMP_CANDIDATES, get_encoder
from repro.util.bitpack import unpack_uints


class TestFilter:
    def test_small_values_zeroed(self, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        c = CompsoCompressor(eb_f=0.1, eb_q=0.01)
        out = c.roundtrip(x)
        vmax = np.abs(x).max()
        small = np.abs(x) < 0.1 * vmax
        assert np.all(out[small] == 0.0)

    def test_large_values_survive(self, rng):
        x = rng.standard_normal(10_000).astype(np.float32)
        c = CompsoCompressor(eb_f=0.1, eb_q=0.01)
        out = c.roundtrip(x)
        vmax = np.abs(x).max()
        large = np.abs(x) >= 0.1 * vmax
        assert np.all(out[large] != 0.0)

    def test_zero_eb_f_disables_filter(self, rng):
        x = (rng.standard_normal(10_000) * 0.01).astype(np.float32)
        c = CompsoCompressor(eb_f=0.0, eb_q=1e-3)
        ct = c.compress(x)
        assert ct.meta["n_kept"] == x.size

    def test_overall_error_bounded(self, kfac_like_gradient):
        """Both branches respect the bound: filtered values were < eb_f*max,
        kept values are SR-quantised to eb_q*max."""
        x = kfac_like_gradient
        c = CompsoCompressor(eb_f=4e-3, eb_q=4e-3)
        err = np.abs(c.roundtrip(x) - x)
        assert err.max() <= 4e-3 * np.abs(x).max() * 1.0001


class TestCompressionRatio:
    def test_aggressive_beats_sr_only(self, kfac_like_gradient):
        x = kfac_like_gradient
        aggressive = CompsoCompressor(4e-3, 4e-3).ratio(x)
        sr_only = CompsoCompressor(0.0, 4e-3).ratio(x)
        assert aggressive > sr_only

    def test_beats_qsgd8_on_kfac_gradients(self, kfac_like_gradient):
        from repro.compression import QsgdCompressor

        x = kfac_like_gradient
        assert CompsoCompressor(4e-3, 4e-3).ratio(x) > QsgdCompressor(8).ratio(x)

    def test_width_tracks_error_bound(self, rng):
        """Fine-grained bounds drive the code width (byte-aligned for the
        entropy coder); looser bounds never need more bytes per code."""
        x = rng.uniform(-1, 1, 50_000).astype(np.float32)
        tight = CompsoCompressor(0.0, 1e-4).compress(x)  # ~20k bins
        loose = CompsoCompressor(0.0, 1e-2).compress(x)  # ~200 bins
        assert tight.meta["width"] == 16
        assert loose.meta["width"] == 8
        assert loose.nbytes < tight.nbytes

    def test_loose_bound_fits_one_byte_per_code(self, rng):
        x = rng.uniform(-1, 1, 50_000).astype(np.float32)
        ct = CompsoCompressor(0.0, 0.2).compress(x)  # ~10 bins
        assert ct.meta["width"] == 8


class TestRoundtripFidelity:
    @pytest.mark.parametrize("encoder", NVCOMP_CANDIDATES)
    def test_all_encoders_lossless_on_codes(self, encoder, kfac_like_gradient):
        x = kfac_like_gradient[:5000]
        c_ans = CompsoCompressor(4e-3, 4e-3, encoder="ans", seed=7)
        c_other = CompsoCompressor(4e-3, 4e-3, encoder=encoder, seed=7)
        # Same seed -> same SR decisions -> identical reconstruction.
        assert np.array_equal(c_ans.roundtrip(x), c_other.roundtrip(x))

    def test_shape_preserved(self, rng):
        x = rng.standard_normal((13, 17, 3)).astype(np.float32)
        assert CompsoCompressor().roundtrip(x).shape == (13, 17, 3)

    def test_zero_tensor(self):
        out = CompsoCompressor().roundtrip(np.zeros(1000, dtype=np.float32))
        assert np.all(out == 0)

    def test_constant_tensor(self):
        x = np.full(1000, 0.5, dtype=np.float32)
        out = CompsoCompressor(4e-3, 4e-3).roundtrip(x)
        assert np.abs(out - x).max() <= 4e-3 * 0.5 * 1.001

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_sizes(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n).astype(np.float32)
        c = CompsoCompressor(4e-3, 4e-3, seed=0)
        err = np.abs(c.roundtrip(x) - x)
        assert err.max() <= 4e-3 * np.abs(x).max() * 1.0001


class TestAggregatedPath:
    def test_per_layer_scales_not_mixed(self, rng):
        """Section 4.5: a huge layer must not destroy a tiny layer's accuracy."""
        big = (rng.standard_normal(5000) * 100).astype(np.float32)
        small = (rng.standard_normal(5000) * 1e-4).astype(np.float32)
        c = CompsoCompressor(0.0, 4e-3)
        outs = c.decompress_many(c.compress_many([big, small]))
        assert np.abs(outs[1] - small).max() <= 4e-3 * np.abs(small).max() * 1.0001

    def test_matches_individual_bounds(self, rng):
        tensors = [rng.standard_normal(s).astype(np.float32) for s in (100, 2000, 7)]
        c = CompsoCompressor(4e-3, 4e-3)
        outs = c.decompress_many(c.compress_many(tensors))
        for t, o in zip(tensors, outs):
            assert o.shape == (t.size,)
            assert np.abs(o - t.ravel()).max() <= 4e-3 * np.abs(t).max() * 1.0001

    def test_aggregation_reduces_total_bytes(self, rng):
        """One encoder invocation over the aggregate beats many small ones."""
        tensors = [rng.standard_normal(300).astype(np.float32) * 1e-3 for _ in range(32)]
        c = CompsoCompressor(4e-3, 4e-3)
        separate = sum(c.compress(t).nbytes for t in tensors)
        together = c.compress_many(tensors).nbytes
        assert together < separate

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            CompsoCompressor().compress_many([])


class TestCodedSegments:
    """The bitmap and code frames are coded in one encoder call and decoded in one."""

    @pytest.fixture(params=["single", "aggregated"])
    def path(self, request, rng):
        c = CompsoCompressor(1e-2, 4e-3, encoder="ans", seed=3)
        tensors = [rng.standard_normal(n).astype(np.float32) for n in (60_000, 30_000)]
        if request.param == "single":
            return c.compress(tensors[0]), c.decompress
        return c.compress_many(tensors), c.decompress_many

    def test_frames_are_what_each_codes_to_alone(self, path):
        """Each frame decodes alone, and the two are what one ``encode_many`` call
        writes for their streams — which, since that call pools its lanes, need
        not be what ``encode`` writes for each stream alone."""
        ct, _ = path
        enc = get_encoder("ans")
        frames = [ct.segments[name] for name in ("bitmap", "codes")]
        assert all(frame[0] == 1 for frame in frames)  # coded, not stored raw
        streams = [(enc.decode(frame), _ans_item_size(frame)) for frame in frames]
        assert enc.encode_many(streams) == frames

    @pytest.mark.parametrize("segment", ["bitmap", "codes"])
    def test_a_damaged_frame_is_named(self, path, segment):
        ct, decompress = path
        frame = ct.segments[segment]
        ct.segments[segment] = frame[:-2]
        with pytest.raises(EncodeError) as caught:
            decompress(ct)
        with pytest.raises(EncodeError) as alone:
            get_encoder("ans").decode(frame[:-2])
        assert caught.value.segment == segment and f"segment: {segment}" in caught.value.__notes__
        assert str(caught.value) == str(alone.value)  # what a guard verdict records


class TestPackCodes:
    @pytest.mark.parametrize(
        "lo,hi,width", [(-3, 3, 8), (-100, 155, 8), (-100, 156, 16), (0, 65_535, 16), (5, 65_541, 24)]
    )
    def test_width_is_the_span_rounded_up_to_bytes(self, rng, lo, hi, width):
        codes = rng.integers(lo, hi + 1, 500)
        codes[:2] = lo, hi
        packed, cmin, got = pack_codes(codes)
        assert (cmin, got) == (lo, width)
        assert np.array_equal(unpack_uints(packed, width, 500).astype(np.int64) + cmin, codes)

    def test_width_is_capped_at_32_bits(self):
        packed, cmin, width = pack_codes(np.array([-(2**31), 2**31 - 1], dtype=np.int64))
        assert (cmin, width, len(packed)) == (-(2**31), 32, 8)

    def test_no_codes(self):
        assert pack_codes(np.zeros(0, dtype=np.int64)) == (b"", 0, 8)


def _ans_item_size(frame: bytes) -> int:
    """Item size a coded ANS frame declares (top bits of its lane-count field)."""
    assert frame[0] == 1
    return (int.from_bytes(frame[5:7], "little") >> 12) + 1


class TestCodeSymbols:
    """The code stream reaches ANS with its field size; bitmaps stay byte streams."""

    @staticmethod
    def _layers(rng):
        two_sided = rng.standard_normal(5000).astype(np.float32)  # span 2 / eb_q = 500: 16 bit
        one_sided = np.abs(rng.standard_normal(3000)).astype(np.float32)  # span 250: 8 bit
        return two_sided, one_sided, (rng.standard_normal(700) * 3).astype(np.float32)

    def test_sixteen_bit_codes_are_one_symbol_each(self, rng):
        c = CompsoCompressor(2e-3, 4e-3, seed=5)
        x = np.random.default_rng(78).standard_normal((300, 40)).astype(np.float32)
        ct = c.compress(x)
        assert ct.meta["width"] == 16
        assert _ans_item_size(ct.segments["codes"]) == 2
        assert _ans_item_size(ct.segments["bitmap"]) == 1
        # The lossless stage moved, nothing else: decoded tensor as at b5a6b53.
        assert hashlib.sha256(c.decompress(ct).tobytes()).hexdigest() == (
            "6415c487696197cbef305a03ea3fa7c610b556aecad26d3d677c2008997e9d30"
        )

    def test_eight_bit_codes_stay_bytes(self, rng):
        c = CompsoCompressor(0.0, 4e-3)
        ct = c.compress(np.abs(rng.standard_normal(30_000)).astype(np.float32))
        assert ct.meta["width"] == 8 and _ans_item_size(ct.segments["codes"]) == 1

    def test_group_of_one_width_is_coded_as_items(self, rng):
        two_sided, _, scaled = self._layers(rng)
        c = CompsoCompressor(0.0, 4e-3)
        empty = np.zeros(0, dtype=np.float32)  # packs nothing, so it decides nothing
        ct = c.compress_many([two_sided, empty, scaled])
        assert _ans_item_size(ct.segments["codes"]) == 2
        outs = c.decompress_many(ct)
        assert [o.size for o in outs] == [5000, 0, 700]

    def test_mixed_width_group_is_coded_as_bytes(self):
        layers = self._layers(np.random.default_rng(77))
        c = CompsoCompressor(0.0, 4e-3, seed=5)
        ct = c.compress_many(list(layers))
        header = ct.segments["headers"]
        widths = [struct.unpack_from("<IIfiBI", header, 4 + 21 * i)[4] for i in range(3)]
        assert widths == [16, 8, 16]
        assert _ans_item_size(ct.segments["codes"]) == 1
        digest = hashlib.sha256()
        for out in c.decompress_many(ct):
            digest.update(out.tobytes())
        # Decoded layers as at b5a6b53.
        assert digest.hexdigest() == (
            "1b28b0ffd21e7ce581f2b3eaaf0fe3d47e60f6a15ccc91b615c0818a2b7c605e"
        )

    def test_item_symbols_shrink_the_code_frame(self, rng):
        x = rng.standard_normal(200_000).astype(np.float32)
        c = CompsoCompressor(0.0, 4e-3)
        codes = c.compress(x).segments["codes"]
        as_bytes = c._encoder.encode(c._encoder.decode(codes))
        assert len(codes) < 0.8 * len(as_bytes)


class TestConfiguration:
    def test_set_bounds(self):
        c = CompsoCompressor(4e-3, 4e-3)
        c.set_bounds(0.0, 2e-3)
        assert c.eb_f == 0.0 and c.eb_q == 2e-3

    def test_set_bounds_validation(self):
        c = CompsoCompressor()
        with pytest.raises(ValueError):
            c.set_bounds(-1.0, 1e-3)
        with pytest.raises(ValueError):
            c.set_bounds(0.0, 0.0)

    def test_set_encoder(self, rng):
        c = CompsoCompressor()
        c.set_encoder("bitcomp")
        assert c.encoder_name == "bitcomp"
        x = rng.standard_normal(1000).astype(np.float32)
        assert c.roundtrip(x).shape == x.shape

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CompsoCompressor(eb_f=-1.0)
        with pytest.raises(ValueError):
            CompsoCompressor(eb_q=0.0)
        with pytest.raises(ValueError):
            CompsoCompressor(rounding="nope")

    def test_rn_mode_also_bounded(self, kfac_like_gradient):
        x = kfac_like_gradient
        c = CompsoCompressor(0.0, 4e-3, rounding="rn")
        assert np.abs(c.roundtrip(x) - x).max() <= 4e-3 * np.abs(x).max() * 1.0001
