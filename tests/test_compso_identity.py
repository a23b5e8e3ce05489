"""COMPSO's own stages against the bodies they replaced (PR 23).

``_Head*`` below are the filter / quantise / pack / scatter bodies of
commit 3628c68, kept as oracles the way ``tests/test_nn_layers.py`` keeps
PR 16's: the rewritten stages must produce the same frames, the same
``meta``, the same decoded tensors and leave the generator in the same
state.  The rest of the file is what the rewrite added on purpose: header
checks on decode and the refusal of non-finite inputs.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import quantize
from repro.compression.base import CompressedTensor
from repro.compression.quantize import ROUNDING_MODES, round_nearest, round_p05, round_stochastic
from repro.core import compso
from repro.core.compso import CompsoCompressor, pack_codes
from repro.core.factor_compression import FactorCompressor
from repro.encoders.base import EncodeError
from repro.encoders.registry import get_encoder
from repro.util import bitpack
from repro.util.bitpack import (
    clear_bit_index,
    pack_bitmap,
    pack_uints,
    required_width,
    unpack_bitmap,
    unpack_uints,
)
from repro.util.seeding import spawn_rng
from repro.util.triangle import mirror_upper, pack_upper, triangle_size
from tests.conftest import absolute

# -- the parent's bodies ------------------------------------------------------


def _head_pack_uints(values, width):
    if not 1 <= width <= 32:
        raise ValueError(f"width must be in [1, 32], got {width}")
    v = np.ascontiguousarray(values, dtype=np.uint64).ravel()
    if v.size == 0:
        return b""
    if v.max() >= (1 << width):
        raise ValueError(f"value {v.max()} does not fit in {width} bits")
    if width % 8 == 0:
        be = v.astype(">u4").view(np.uint8).reshape(-1, 4)
        return be[:, 4 - width // 8 :].tobytes()
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def _head_unpack_uints(blob, width, count):
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    if len(blob) * 8 < count * width:
        raise ValueError(f"{len(blob)} bytes cannot hold {count} fields of {width} bits")
    if width % 8 == 0:
        nbytes = width // 8
        be = np.zeros((count, 4), dtype=np.uint8)
        be[:, 4 - nbytes :] = np.frombuffer(blob, dtype=np.uint8, count=count * nbytes).reshape(
            count, nbytes
        )
        return be.view(">u4").ravel().astype(np.uint32)
    bits = np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count * width)
    bits = bits.reshape(count, width).astype(np.uint64)
    weights = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits @ weights).astype(np.uint32)


def _head_pack_bitmap(mask):
    return np.packbits(np.ascontiguousarray(mask, dtype=np.uint8).ravel()).tobytes()


def _head_unpack_bitmap(blob, count):
    if count == 0:
        return np.empty(0, dtype=bool)
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count).astype(bool)


def _head_round_stochastic(v, rng=None):
    rng = spawn_rng(rng)
    floor = np.floor(v)
    frac = v - floor
    return floor + (rng.random(v.shape) < frac)


_HEAD_ROUNDING = {"rn": round_nearest, "sr": _head_round_stochastic, "p05": round_p05}


def _head_pack_codes(codes):
    if codes.size == 0:
        return b"", 0, 8
    cmin = int(codes.min())
    span = int(codes.max()) - cmin
    width = min(-(-required_width(span) // 8) * 8, 32)
    return _head_pack_uints((codes - cmin).astype(np.uint64), width), cmin, width


class _HeadCompso(CompsoCompressor):
    """The parent's four entry points over the parent's helpers."""

    def _bounds_for(self, flat):
        if self.relative:
            vmax = float(np.abs(flat).max()) if flat.size else 0.0
            scale = vmax if vmax > 0 else 1.0
        else:
            scale = 1.0
        threshold = self.eb_f * scale
        step = self.eb_q * scale
        if self.rounding == "rn":
            step *= 2.0
        return threshold, step

    def _quantize(self, kept, step):
        if step == 0.0:
            return np.zeros(kept.size, dtype=np.int64)
        return _HEAD_ROUNDING[self.rounding](kept / step, self._rng).astype(np.int64)

    def compress(self, x):
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        threshold, step = self._bounds_for(flat)
        filtered = np.abs(flat) < threshold if threshold > 0 else np.zeros(flat.size, dtype=bool)
        kept = flat[~filtered]
        codes = self._quantize(kept, step)
        packed, cmin, width = _head_pack_codes(codes)
        # Coded as the compressor codes them, in one call: the encoder is not under test here.
        blobs = self._encoder.encode_many([(_head_pack_bitmap(filtered), 1), (packed, width // 8)])
        segments = dict(zip(("bitmap", "codes"), blobs))
        meta = {"step": step, "code_min": cmin, "width": width, "n_kept": int(kept.size)}
        return CompressedTensor(segments, x.shape, meta=meta)

    def decompress(self, ct):
        n = ct.n_elements
        filtered = _head_unpack_bitmap(self._encoder.decode(ct.segments["bitmap"]), n)
        n_kept = int(ct.meta["n_kept"])
        width = int(ct.meta["width"])
        packed = self._encoder.decode(ct.segments["codes"])
        codes = _head_unpack_uints(packed, width, n_kept).astype(np.int64) + int(
            ct.meta["code_min"]
        )
        out = np.zeros(n, dtype=np.float32)
        out[~filtered] = codes.astype(np.float32) * np.float32(ct.meta["step"])
        return out.reshape(ct.shape)

    def compress_many(self, tensors):
        bitmap_parts, code_parts, headers = [], [], []
        item_sizes = set()
        for t in tensors:
            flat = np.asarray(t, dtype=np.float32).ravel()
            threshold, step = self._bounds_for(flat)
            filtered = (
                np.abs(flat) < threshold if threshold > 0 else np.zeros(flat.size, dtype=bool)
            )
            kept = flat[~filtered]
            codes = self._quantize(kept, step)
            packed, cmin, width = _head_pack_codes(codes)
            bitmap_parts.append(_head_pack_bitmap(filtered))
            code_parts.append(packed)
            if packed:
                item_sizes.add(width // 8)
            headers.append(
                struct.pack("<IIfiBI", flat.size, kept.size, step, cmin, width, len(packed))
            )
        blobs = self._encoder.encode_many(
            [
                (b"".join(bitmap_parts), 1),
                (b"".join(code_parts), item_sizes.pop() if len(item_sizes) == 1 else 1),
            ]
        )
        segments = {
            "headers": struct.pack("<I", len(tensors)) + b"".join(headers),
            **dict(zip(("bitmap", "codes"), blobs)),
        }
        total = sum(np.asarray(t).size for t in tensors)
        return CompressedTensor(segments, (total,), meta={"aggregated": len(tensors)})

    def decompress_many(self, ct):
        blob = ct.segments["headers"]
        (count,) = struct.unpack_from("<I", blob, 0)
        rec_size = struct.calcsize("<IIfiBI")
        bitmaps = self._encoder.decode(ct.segments["bitmap"])
        codestream = self._encoder.decode(ct.segments["codes"])
        outputs = []
        bit_pos = code_pos = 0
        offset = 4
        for _ in range(count):
            n, n_kept, step, cmin, width, packed_len = struct.unpack_from("<IIfiBI", blob, offset)
            offset += rec_size
            bitmap_bytes = (n + 7) // 8
            filtered = _head_unpack_bitmap(bitmaps[bit_pos : bit_pos + bitmap_bytes], n)
            bit_pos += bitmap_bytes
            codes = (
                _head_unpack_uints(
                    codestream[code_pos : code_pos + packed_len], width, n_kept
                ).astype(np.int64)
                + cmin
            )
            code_pos += packed_len
            out = np.zeros(n, dtype=np.float32)
            out[~filtered] = codes.astype(np.float32) * np.float32(step)
            outputs.append(out)
        return outputs


def _bounds(cls, relative):
    """``cls`` with relative error bounds, as every run's, or absolute ones."""
    return cls if relative else absolute(cls)


def _rounding(cls, mode):
    """``cls`` rounding by ``mode``; every run's factors round by SR."""
    return type(f"{mode}{cls.__name__}", (cls,), {"rounding": mode})


class _HeadFactor(FactorCompressor):
    def compress(self, x):
        x = np.asarray(x, dtype=np.float32)
        d = x.shape[0]
        tri = pack_upper(x)
        scale = float(np.abs(np.diag(x)).max())
        step = self.eb * scale if scale > 0 else self.eb
        if self.rounding == "rn":
            step *= 2.0
        if step == 0.0 or tri.size == 0:
            codes = np.zeros(tri.size, dtype=np.int64)
        else:
            codes = _HEAD_ROUNDING[self.rounding](tri / step, self._rng).astype(np.int64)
        packed, cmin, width = _head_pack_codes(codes)
        return CompressedTensor(
            {"codes": self._encoder.encode(packed, width // 8)},
            x.shape,
            meta={"step": step, "code_min": cmin, "width": width, "dim": d},
        )

    def decompress(self, ct):
        d = int(ct.meta["dim"])
        packed = self._encoder.decode(ct.segments["codes"])
        codes = _head_unpack_uints(packed, int(ct.meta["width"]), triangle_size(d)).astype(
            np.int64
        )
        codes += int(ct.meta["code_min"])
        tri = codes.astype(np.float32) * np.float32(ct.meta["step"])
        return mirror_upper(tri, d)


# -- helpers ------------------------------------------------------------------


def _same_array(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _same_frame(got: CompressedTensor, want: CompressedTensor, what=""):
    assert got.segments == want.segments, what
    assert got.shape == want.shape, what
    assert got.meta == want.meta, what
    assert {k: type(v) for k, v in got.meta.items()} == {
        k: type(v) for k, v in want.meta.items()
    }, what


def _same_generator(a, b, what=""):
    assert a._rng.bit_generator.state == b._rng.bit_generator.state, what


def _split(rng, n: int, n_kept: int) -> np.ndarray:
    """``n`` values of which exactly ``n_kept`` survive any ``eb_f`` in [4e-3, 0.5)."""
    x = rng.uniform(0.0, 1e-3, n)
    where = rng.permutation(n)[:n_kept]
    x[where] = rng.uniform(0.5, 1.0, n_kept)
    x[where[:1]] = 1.0
    return (x * rng.choice([-1.0, 1.0], n)).astype(np.float32)


_CUT = int(compso._INDEX_MAX_KEPT * compso._INDEX_MIN_SIZE)


def _tensors(rng) -> list[np.ndarray]:
    """Sizes 0, 1, 7, 8, 9 and 4 096, then both sides of the density cut-off,
    one tensor exactly on it, and both sides of the size floor."""
    floor = compso._INDEX_MIN_SIZE
    plain = [
        np.clip(rng.standard_normal(n), -3.5, 3.5).astype(np.float32) for n in (0, 1, 7, 8, 9)
    ]
    heavy = rng.standard_normal((64, 64)) * np.exp(2.0 * rng.standard_normal((64, 64)))
    return [
        *plain,
        np.clip(heavy, -3.5, 3.5).astype(np.float32),
        _split(rng, floor, _CUT - 1),
        _split(rng, floor, _CUT),
        _split(rng, floor, _CUT + 1),
        _split(rng, floor - 1, floor // 20),
        _split(rng, floor, floor // 20),
    ]


#: eb_q per target code width, relative to the tensor maximum (an absolute
#: bound is four times it: the data stay below 3.5 in magnitude); 1e-9 and
#: 5e-10 are both 32 bits, on either side of the int32 cast.
_EB_Q = (1e-2, 2e-3, 1e-5, 1e-9, 5e-10)
_EB_F = (0.0, 4e-3, 1e-2, 0.5, 4.0)  # 4.0 filters everything


# -- bit identity -------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("relative", [True, False])
    @pytest.mark.parametrize("rounding", ["sr", "rn", "p05"])
    def test_frames_decoded_tensors_and_draws(self, rng, rounding, relative):
        tensors = _tensors(rng)
        widths = set()
        for eb_f, eb_q in itertools.product(_EB_F, _EB_Q):
            eb_q *= 1 if relative else 4
            what = f"{rounding} relative={relative} eb_f={eb_f} eb_q={eb_q}"
            new = _bounds(CompsoCompressor, relative)(eb_f, eb_q, rounding=rounding, seed=7)
            old = _bounds(_HeadCompso, relative)(eb_f, eb_q, rounding=rounding, seed=7)
            for x in tensors:
                where = f"{what} n={x.size}"
                got, want = new.compress(x), old.compress(x)
                _same_frame(got, want, where)
                _same_generator(new, old, where)
                _same_array(new.decompress(got), old.decompress(want), where)
                widths.add(want.meta["width"])
            got, want = new.compress_many(tensors), old.compress_many(tensors)
            _same_frame(got, want, what)
            _same_generator(new, old, what)
            for a, b in zip(new.decompress_many(got), old.decompress_many(want), strict=True):
                _same_array(a, b, what)
        assert widths == {8, 16, 24, 32}

    def test_the_grid_takes_both_paths_on_both_sides_of_each_cut(self, rng, monkeypatch):
        """Index path at and below the cut-off from the size floor up, mask elsewhere."""
        taken = []
        real = compso.clear_bit_index
        monkeypatch.setattr(
            compso, "clear_bit_index", lambda blob, n: taken.append(n) or real(blob, n)
        )
        c = CompsoCompressor(1e-2, 4e-3)
        floor = compso._INDEX_MIN_SIZE
        for x in _tensors(rng):
            before = len(taken)
            ct = c.compress(x)
            c.decompress(ct)
            kept = ct.meta["n_kept"]
            by_index = x.size >= floor and 0 < kept <= _CUT * x.size // floor
            assert len(taken) - before == (2 if by_index else 0), (x.size, kept)
        assert taken == [floor] * 6

    @pytest.mark.parametrize("rounding", ["sr", "rn", "p05"])
    def test_factor_compressor(self, rng, rounding):
        new = _rounding(FactorCompressor, rounding)(1e-3)
        old = _rounding(_HeadFactor, rounding)(1e-3)
        for d in (1, 2, 17, 64):
            a = rng.standard_normal((4 * d, d)).astype(np.float32)
            x = a.T @ a / np.float32(4 * d)
            got, want = new.compress(x), old.compress(x)
            _same_frame(got, want, f"d={d}")
            _same_generator(new, old)
            _same_array(new.decompress(got), old.decompress(want), f"d={d}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_stochastic(self, rng, dtype):
        for shape in ((0,), (1,), (1000,), (7, 9)):
            v = (rng.standard_normal(shape) * 50).astype(dtype)
            v.ravel()[::5] = np.floor(v.ravel()[::5])
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            keep = v.copy()
            _same_array(round_stochastic(v, a), _head_round_stochastic(v, b))
            assert a.bit_generator.state == b.bit_generator.state
            _same_array(v, keep)  # the argument is not the buffer it rounds in

    @pytest.mark.parametrize("width", range(1, 33))
    def test_pack_and_unpack_uints(self, rng, width):
        for n in (0, 1, 777):
            values = rng.integers(0, 1 << width, n, dtype=np.uint64)
            values[:2] = (0, (1 << width) - 1)[:n]
            want = _head_pack_uints(values, width)
            for dtype in (np.uint8, np.uint16, np.uint32, np.uint64, np.int64):
                if np.dtype(dtype).itemsize * 8 >= width + (dtype is np.int64):
                    assert pack_uints(values.astype(dtype), width) == want, (n, dtype)
            _same_array(unpack_uints(want, width, n), _head_unpack_uints(want, width, n))

    def test_pack_uints_still_refuses_what_does_not_fit(self):
        for dtype in (np.uint16, np.uint32, np.uint64, np.int64):
            with pytest.raises(ValueError, match="does not fit in 8 bits"):
                pack_uints(np.array([3, 256], dtype=dtype), 8)
        with pytest.raises(ValueError, match="does not fit"):
            pack_uints(np.array([-1]), 32)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (-100, 100),
            (0, 0),
            (-30_000, 30_000),
            (-(2**23), 2**23),
            (2**30 - 5, 2**30 + 5),
            (-(2**30) - 5, -(2**30) + 5),
            (-(2**30) + 1, 2**30 - 1),
            (-(2**31), 2**31 - 1),
            (2**40, 2**40 + 70_000),
        ],
    )
    def test_pack_codes(self, rng, lo, hi):
        codes = rng.integers(lo, hi + 1, 500)
        codes[:2] = lo, hi
        want = _head_pack_codes(codes)
        assert pack_codes(codes) == want
        as_float = codes.astype(np.float32)
        if np.array_equal(as_float.astype(np.int64), codes):  # integer-valued float32 codes
            assert pack_codes(as_float) == want
        assert pack_codes(codes.astype(np.float64)) == want

    def test_other_callers_of_pack_uints(self, rng, monkeypatch, byte_payloads):
        frames = {}
        for side in ("new", "head"):
            if side == "head":
                for module in ("repro.encoders.bitcomp", "repro.encoders.cascaded"):
                    monkeypatch.setattr(f"{module}.pack_uints", _head_pack_uints)
                    monkeypatch.setattr(f"{module}.unpack_uints", _head_unpack_uints)
            for name in ("bitcomp", "cascaded"):
                enc = get_encoder(name)
                for label, data in byte_payloads.items():
                    frames[side, name, label] = blob = enc.encode(data)
                    assert enc.decode(blob) == data
        for (side, name, label), blob in frames.items():
            assert blob == frames["new", name, label], (name, label)

    def test_other_callers_of_pack_bitmap_and_the_rounding_table(self, rng, monkeypatch):
        from repro.compression import (
            CocktailSgdCompressor,
            OkTopkCompressor,
            QsgdCompressor,
            TopKCompressor,
        )

        x = (rng.standard_normal(5001) * np.exp(rng.standard_normal(5001))).astype(np.float32)
        make = {
            "topk": lambda: TopKCompressor(0.05),
            "oktopk": lambda: OkTopkCompressor(0.05, seed=1),
            "qsgd": lambda: QsgdCompressor(6, seed=1),
            "cocktail": lambda: CocktailSgdCompressor(0.1, seed=1),
        }
        results = {}
        for side in ("new", "head"):
            if side == "head":
                for name in make:
                    module = f"repro.compression.{name}"
                    monkeypatch.setattr(f"{module}.pack_bitmap", _head_pack_bitmap)
                    if name != "oktopk":  # decodes with TopKCompressor.decompress
                        monkeypatch.setattr(f"{module}.unpack_bitmap", _head_unpack_bitmap)
                monkeypatch.setitem(quantize.ROUNDING_MODES, "sr", _head_round_stochastic)
            for name, build in make.items():
                c = build()
                ct = c.compress(x)
                results[side, name] = ct, c.decompress(ct)
        for name in make:
            (got, got_x), (want, want_x) = results["new", name], results["head", name]
            _same_frame(got, want, name)
            _same_array(got_x, want_x, name)


# -- clear_bit_index ----------------------------------------------------------


def _reference_index(blob: bytes, count: int) -> np.ndarray:
    return np.flatnonzero(~unpack_bitmap(blob, count))


class TestClearBitIndex:
    @given(st.lists(st.booleans(), max_size=203), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_expanded_bitmap(self, bits, extra):
        mask = np.array(bits + [True] * extra, dtype=bool)
        blob = pack_bitmap(mask)
        for count in {mask.size, len(bits)}:
            got = clear_bit_index(blob[: (count + 7) // 8], count)
            assert got.dtype == np.intp
            assert np.array_equal(got, _reference_index(blob, count))

    @pytest.mark.parametrize("count", range(0, 26))
    def test_all_set_all_clear_and_the_padding(self, count):
        nbytes = (count + 7) // 8
        assert clear_bit_index(b"\xff" * nbytes, count).size == 0
        # All clear, the padding bits of the last byte included: they are not elements.
        assert np.array_equal(clear_bit_index(bytes(nbytes), count), np.arange(count))
        if count % 8:
            ones = pack_bitmap(np.ones(count, dtype=bool))  # padding clear, every element set
            assert ones[-1] != 0xFF
            assert clear_bit_index(ones, count).size == 0

    def test_reads_only_the_bytes_that_hold_count_bits(self):
        assert np.array_equal(clear_bit_index(b"\x7f\x00\x00", 8), [0])


# -- headers that lie ---------------------------------------------------------

_RECORD = struct.Struct("<IIfiBI")
_FIELDS = ("n", "n_kept", "step", "code_min", "width", "packed_len")


def _edit_layer(ct: CompressedTensor, layer: int, **changes) -> CompressedTensor:
    blob = bytearray(ct.segments["headers"])
    record = dict(zip(_FIELDS, _RECORD.unpack_from(blob, 4 + layer * _RECORD.size)))
    record.update(changes)
    _RECORD.pack_into(blob, 4 + layer * _RECORD.size, *record.values())
    return CompressedTensor({**ct.segments, "headers": bytes(blob)}, ct.shape, meta=ct.meta)


def _sparse_and_dense(rng):
    """A tensor decoded by index and one decoded through the mask, both 16-bit."""
    sparse = _split(rng, 2 * compso._INDEX_MIN_SIZE, 1000)
    dense = np.clip(rng.standard_normal(3000), -3.5, 3.5).astype(np.float32)
    return {"sparse": sparse, "dense": dense}


class TestLyingHeaders:
    @pytest.fixture
    def compressor(self):
        return CompsoCompressor(1e-2, 4e-3)

    @pytest.mark.parametrize("which", ["sparse", "dense"])
    @pytest.mark.parametrize(
        "field, change, named",
        [
            ("width", lambda v: 8, "width 8"),
            ("width", lambda v: 32, "width 32"),
            ("width", lambda v: 12, "width 12"),
            ("width", lambda v: 0, "width 0"),
            ("n_kept", lambda v: v + 1, "n_kept"),
            ("n_kept", lambda v: v - 1, "n_kept"),
            ("n_kept", lambda v: 0, "n_kept"),
        ],
    )
    def test_single_frame_meta(self, rng, compressor, which, field, change, named):
        x = _sparse_and_dense(rng)[which]
        ct = compressor.compress(x)
        assert ct.meta["width"] == 16
        ct.meta[field] = change(ct.meta[field])
        with pytest.raises(EncodeError, match=f"compso: .*{named}"):
            compressor.decompress(ct)

    @pytest.mark.parametrize("which", ["sparse", "dense"])
    def test_single_frame_bitmap_and_codes_disagree(self, rng, compressor, which):
        """The codes are ``n_kept`` fields, but the bitmap keeps one element more or fewer."""
        x = _sparse_and_dense(rng)[which]
        ct = compressor.compress(x)
        enc = get_encoder("ans")
        bitmap = bytearray(enc.decode(ct.segments["bitmap"]))
        mask = unpack_bitmap(bytes(bitmap), x.size)
        for flip in (np.flatnonzero(mask)[0], np.flatnonzero(~mask)[0]):
            lying = bytearray(bitmap)
            lying[flip // 8] ^= 0x80 >> (flip % 8)
            bad = CompressedTensor(
                {**ct.segments, "bitmap": enc.encode(bytes(lying))}, ct.shape, meta=ct.meta
            )
            with pytest.raises(EncodeError, match="compso: n_kept .* bitmap keeps"):
                compressor.decompress(bad)

    def test_single_frame_shape_and_bitmap_disagree(self, rng, compressor):
        ct = compressor.compress(_sparse_and_dense(rng)["dense"])
        ct.shape = (ct.shape[0] + 8,)
        with pytest.raises(EncodeError, match="compso: bitmap of 375 bytes for 3008 elements"):
            compressor.decompress(ct)

    def test_all_kept_frame_with_a_set_bit(self, rng):
        c = CompsoCompressor(0.0, 4e-3)
        ct = c.compress(rng.standard_normal(64).astype(np.float32))
        enc = get_encoder("ans")
        assert enc.decode(ct.segments["bitmap"]) == bytes(8)
        ct.segments["bitmap"] = enc.encode(b"\x00\x10" + bytes(6))
        with pytest.raises(EncodeError, match="compso: n_kept 64 but the bitmap keeps 63 of 64"):
            c.decompress(ct)

    @pytest.fixture
    def group(self, rng, compressor):
        sparse, dense = _sparse_and_dense(rng).values()
        tensors = [sparse, dense, sparse[:9000].copy()]
        ct = compressor.compress_many(tensors)
        for a, b in zip(compressor.decompress_many(ct), tensors, strict=True):
            assert a.shape == b.shape
        return ct

    def test_group_count(self, compressor, group):
        headers = group.segments["headers"]
        for count in (0, 1, 2, 4):
            bad = CompressedTensor(
                {**group.segments, "headers": struct.pack("<I", count) + headers[4:]},
                group.shape,
                meta=group.meta,
            )
            with pytest.raises(EncodeError, match=f"compso: header count {count} "):
                compressor.decompress_many(bad)
        for blob in (b"", headers[:3], headers[:-1], headers + b"\x00"):
            bad = CompressedTensor({**group.segments, "headers": blob}, group.shape, meta={})
            with pytest.raises(EncodeError, match="compso: header count"):
                compressor.decompress_many(bad)

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize(
        "field, change, named",
        [
            ("width", lambda v: 8, "width 8"),
            ("width", lambda v: 24, "width 24"),
            ("width", lambda v: 7, "width 7"),
            ("packed_len", lambda v: v + 1, "packed_len|code bytes"),
            ("packed_len", lambda v: v - 2, "packed_len"),
            ("n_kept", lambda v: v + 1, "n_kept"),
            ("n_kept", lambda v: v - 1, "n_kept"),
            ("n", lambda v: v + 8, "bitmap"),
            ("n", lambda v: v - 8, "bitmap"),
            ("n", lambda v: v - 1, "bitmap|n_kept|layer sizes n"),
        ],
    )
    def test_group_layer_fields(self, compressor, group, layer, field, change, named):
        record = dict(
            zip(_FIELDS, _RECORD.unpack_from(group.segments["headers"], 4 + layer * _RECORD.size))
        )
        bad = _edit_layer(group, layer, **{field: change(record[field])})
        with pytest.raises(EncodeError, match=f"compso: .*({named})"):
            compressor.decompress_many(bad)

    def test_group_width_and_length_lie_together(self, compressor, group):
        """A consistent pair of lies passes the layer and is caught by the stream's end."""
        last = _RECORD.unpack_from(group.segments["headers"], 4 + 2 * _RECORD.size)
        record = dict(zip(_FIELDS, last))
        bad = _edit_layer(group, 2, width=8, packed_len=record["packed_len"] // 2)
        with pytest.raises(EncodeError, match="compso: layers consume .* code bytes"):
            compressor.decompress_many(bad)

    @pytest.mark.parametrize("stream", ["bitmap", "codes"])
    def test_group_streams_are_consumed_exactly(self, compressor, group, stream):
        enc = get_encoder("ans")
        raw = enc.decode(group.segments[stream])
        item = 2 if stream == "codes" else 1
        longer = CompressedTensor(
            {**group.segments, stream: enc.encode(raw + bytes(item), item)}, group.shape, meta={}
        )
        with pytest.raises(EncodeError, match="compso: layers consume"):
            compressor.decompress_many(longer)
        shorter = CompressedTensor(
            {**group.segments, stream: enc.encode(raw[:-item], item)}, group.shape, meta={}
        )
        with pytest.raises(EncodeError, match="compso: (bitmap|packed_len)"):
            compressor.decompress_many(shorter)

    def test_factor_frame(self, rng):
        c = FactorCompressor(1e-3)
        a = rng.standard_normal((40, 10)).astype(np.float32)
        ct = c.compress(a.T @ a)
        ct.meta["width"] = 8 if ct.meta["width"] != 8 else 16
        with pytest.raises(EncodeError, match="compso: packed_len .* width"):
            c.decompress(ct)
        ct.meta["width"] = 5
        with pytest.raises(EncodeError, match="compso: width 5"):
            c.decompress(ct)


# -- non-finite inputs --------------------------------------------------------

_BAD = (np.nan, np.inf, -np.inf)


def _next_draw_is_a_fresh_twins(compressor, twin):
    assert compressor._rng.random() == twin._rng.random()


class TestNonFinite:
    @pytest.mark.parametrize("n", [9, 20_000])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("value", _BAD)
    @pytest.mark.parametrize("eb_f, relative", [(1e-2, True), (0.0, True), (0.0, False)])
    def test_compress(self, rng, value, where, n, eb_f, relative):
        x = rng.standard_normal(n).astype(np.float32)
        x[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = value
        c = _bounds(CompsoCompressor, relative)(eb_f, 4e-3, seed=5)
        with pytest.raises(ValueError, match=f"compso-ans: non-finite .* {n} elements"):
            c.compress(x)
        _next_draw_is_a_fresh_twins(c, CompsoCompressor(eb_f, 4e-3, seed=5))

    @pytest.mark.parametrize("layer", [0, 1, 2])
    @pytest.mark.parametrize("value", _BAD)
    def test_inside_an_aggregated_group(self, rng, value, layer):
        group = [rng.standard_normal(n).astype(np.float32) for n in (300, 77, 1200)]
        group[layer][group[layer].size // 3] = value
        c = CompsoCompressor(4e-3, 4e-3, seed=5)
        n = group[layer].size
        with pytest.raises(ValueError, match=f"compso-ans: non-finite .* {n} elements"):
            c.compress_many(group)
        _next_draw_is_a_fresh_twins(c, CompsoCompressor(4e-3, 4e-3, seed=5))

    @pytest.mark.parametrize("position", [(0, 0), (1, 3), (4, 4)])
    @pytest.mark.parametrize("value", _BAD)
    def test_factor(self, rng, value, position):
        a = rng.standard_normal((20, 5)).astype(np.float32)
        x = a.T @ a
        x[position] = x[position[::-1]] = value
        c = FactorCompressor(1e-3)
        with pytest.raises(ValueError, match="factor-ans: non-finite .* 5 x 5 factor"):
            c.compress(x)
        _next_draw_is_a_fresh_twins(c, FactorCompressor(1e-3))

    def test_the_largest_finite_values_still_compress(self):
        big = np.finfo(np.float32).max
        x = np.array([big, -big, 0.0, 1.0], dtype=np.float32)
        out = CompsoCompressor(4e-3, 4e-3).roundtrip(x)
        assert np.all(np.abs(out - x) <= 8e-3 * big)


def test_the_oracles_are_not_the_code_under_test():
    assert ROUNDING_MODES["sr"] is round_stochastic is not _head_round_stochastic
    assert compso.pack_uints is bitpack.pack_uints
    for name in ("compress", "decompress", "compress_many", "decompress_many", "_quantize"):
        assert getattr(_HeadCompso, name) is not getattr(CompsoCompressor, name)
