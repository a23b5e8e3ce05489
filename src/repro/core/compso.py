"""The COMPSO compressor (paper Algorithm 1 and Figure 4a).

Pipeline per tensor:

1. **Filter (lossy)** — gradients with ``|g| < eb_f`` (relative to the
   tensor's max magnitude) are zeroed; their positions are recorded in a
   bitmap (step 2-2).
2. **SR quantisation (lossy)** — survivors are quantised with stochastic
   rounding under error bound ``eb_q`` (step 2-1), preserving the
   triangular error distribution that section 4.2 ties to accuracy.
3. **Variable-width packing** — quantised codes are packed at
   ``ceil(log2(#bins))`` bits rather than a fixed 8/4-bit rate; this is
   the fine-grained-rate mechanism that buys ~14% extra ratio over QSGD
   (section 4.3).
4. **Lossless encoding (steps 3-1/3-2)** — both the bitmap and the packed
   codes go through the selected lossless encoder (default ANS, the
   paper's Table 2 winner).

Setting ``eb_f = 0`` disables the filter: that is the *conservative*
(SR-only) mode used in late training stages.  ``compress_many`` supports
the layer-aggregation mechanism (section 4.4): per-layer quantisation
scales (ranges must not mix, section 4.5) with a single encoder
invocation over the aggregated code stream.

A stage reads the gradient once and everything after the filter costs
what survived it (DESIGN.md decision 20): ``_filter`` forms ``|x|`` once
for the range and the comparison and hands on the *packed* bitmap and the
survivors; the codes stay the rounding mode's integer-valued floats until
``pack_codes`` casts them once; decode is ``_dequantize`` then
``_scatter``, which between them check every header field against the
streams and raise :class:`~repro.encoders.base.EncodeError` on a lie.
A non-finite input is refused with ``ValueError`` before any rounding
draw.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compression.base import Bounds, CompressedTensor, GradientCompressor
from repro.compression.quantize import ROUNDING_MODES, quant_step, round_codes
from repro.encoders.base import EncodeError
from repro.encoders.registry import get_encoder
from repro.telemetry import get_metrics, get_tracer
from repro.util.bitpack import (
    clear_bit_index,
    pack_bitmap,
    pack_uints,
    required_width,
    unpack_bitmap,
    unpack_uints,
)
from repro.util.seeding import restore_rng_state, rng_state_array, spawn_rng

__all__ = ["CompsoCompressor", "pack_codes"]

_LAYER_HEADER = struct.Struct("<IIfiBI")  # n, n_kept, step, code_min, width, packed_len
_SEGMENTS = ("bitmap", "codes")  # the coded frames of a compressed tensor, in encoder-call order

#: Survivors are gathered and scattered through ``clear_bit_index`` when
#: at most this share of a tensor survives the filter, and through the
#: boolean mask above it.  The index costs per survivor; the mask costs per
#: element and per mispredicted branch, so it is dearest near one half and
#: cheap again when nearly everything survives.  Gather + scatter of one
#: float32 tensor in microseconds, index | mask, a fresh random mask on every
#: call (DESIGN.md decision 20 has every size):
#:
#:     kept      16 384 elements    2 359 808 elements
#:      5 %          47 | 62          4 027 |  8 740
#:     50 %         119 | 238        16 221 | 31 569
#:     75 %         152 | 178        20 486 | 23 931
#:     80 %         162 | 154        20 858 | 21 383
#:     90 %         166 | 96         23 425 | 13 166
#:     99 %         181 | 38         25 909 |  5 160
#:
#: The two cross between 75 % and 80 % at every size from 8 192 up.
_INDEX_MAX_KEPT = 0.75

#: Below this many elements the mask is used whatever survives: the index
#: path is a dozen NumPy calls where the mask is five, about 9 us more per
#: use, which under 8 192 elements is more than it saves (4 096 elements at
#: 5 % kept: 27 | 19 us; 88 elements: 20 | 4).
_INDEX_MIN_SIZE = 8192


def _by_index(n_kept: int, n: int) -> bool:
    """Whether ``n_kept`` survivors of ``n`` elements are moved by index."""
    return n >= _INDEX_MIN_SIZE and n_kept <= _INDEX_MAX_KEPT * n


def pack_codes(codes: np.ndarray) -> tuple[bytes, int, int]:
    """Pack signed quantisation codes; returns ``(packed, code_min, width)``.

    ``codes`` hold integers in any real dtype (the rounding modes return
    integer-valued floats); they are cast to integers once, here.  The
    codes are shifted to start at zero and packed at the minimal
    ``ceil(log2(bins))`` width rounded up to a byte multiple: whole-byte
    fields keep every code one symbol for the lossless encoder (which is
    told the field size and recovers the sub-byte entropy, and more) —
    strictly smaller coded output than either misaligned minimal-width
    packing or a fixed 8-bit format (see
    benchmarks/bench_ablation_packing.py).
    """
    if codes.size == 0:
        return b"", 0, 8
    cmin = int(codes.min())
    span = int(codes.max()) - cmin
    width = min(-(-required_width(span) // 8) * 8, 32)
    # Below 2**30 in magnitude the shift cannot leave int32.
    wide = np.int32 if max(-cmin, cmin + span) < 1 << 30 else np.int64
    shifted = codes.astype(wide)
    shifted -= cmin
    return pack_uints(shifted.view(f"u{shifted.itemsize}"), width), cmin, width


def _dequantize(packed: bytes, width: int, count: int, cmin: int, step: float) -> np.ndarray:
    """``count`` packed codes back to float32 values, ``(code + cmin) * step``.

    Raises :class:`EncodeError` when ``width`` is not one :func:`pack_codes`
    writes or ``packed`` is not exactly ``count`` fields of it.
    """
    if width not in (8, 16, 24, 32):
        raise EncodeError(f"compso: width {width} is not a whole-byte code width")
    if len(packed) != count * (width // 8):
        raise EncodeError(
            f"compso: packed_len {len(packed)} is not n_kept {count} x width {width} / 8"
        )
    codes = unpack_uints(packed, width, count)
    if max(-cmin, cmin + (1 << width)) < 1 << 31:
        signed = codes.view(np.int32)
        signed += cmin
    else:
        signed = codes.astype(np.int64) + cmin
    values = signed.astype(np.float32)
    values *= np.float32(step)
    return values


def _scatter(values: np.ndarray, bitmap: bytes, n: int) -> np.ndarray:
    """Put the survivors back among ``n`` elements; filtered positions are zero.

    Raises :class:`EncodeError` when ``bitmap`` is not ``ceil(n / 8)`` bytes
    or does not leave exactly ``values.size`` of its first ``n`` bits clear.
    """
    n_kept = values.size
    if len(bitmap) != (n + 7) // 8:
        raise EncodeError(f"compso: bitmap of {len(bitmap)} bytes for {n} elements")
    if _by_index(n_kept, n):
        where = clear_bit_index(bitmap, n)
        clear = where.size
    else:
        where = unpack_bitmap(bitmap, n)
        np.logical_not(where, out=where)
        clear = np.count_nonzero(where)
    if clear != n_kept:
        raise EncodeError(f"compso: n_kept {n_kept} but the bitmap keeps {clear} of {n}")
    if n_kept == n:
        return values
    out = np.zeros(n, dtype=np.float32)
    out[where] = values
    return out


class CompsoCompressor(GradientCompressor):
    """Filter + bitmap + stochastic rounding + lossless encoder."""

    #: Every run bounds relative to the tensor's max magnitude; ``False``
    #: makes ``eb_f`` / ``eb_q`` absolute.
    relative = True

    def __init__(
        self,
        eb_f: float = 4e-3,
        eb_q: float = 4e-3,
        *,
        encoder: str = "ans",
        rounding: str = "sr",
        seed: int | np.random.Generator | None = 0,
    ):
        if eb_f < 0:
            raise ValueError(f"filter bound must be >= 0, got {eb_f}")
        if eb_q <= 0:
            raise ValueError(f"quantisation bound must be > 0, got {eb_q}")
        if rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {sorted(ROUNDING_MODES)}")
        self.eb_f = float(eb_f)
        self.eb_q = float(eb_q)
        self.rounding = rounding
        self.encoder_name = encoder
        self._encoder = get_encoder(encoder)
        self._rng = spawn_rng(seed)
        self.name = f"compso-{encoder}"

    # -- the compressor contract: bounds, encoder, resumable state ----------

    @property
    def bounds(self) -> Bounds:
        return Bounds(self.eb_f, self.eb_q)

    def set_bounds(self, eb_f: float, eb_q: float) -> Bounds:
        """Update error bounds (iteration-wise adaptive mechanism)."""
        if eb_f < 0 or eb_q <= 0:
            raise ValueError(f"invalid bounds eb_f={eb_f}, eb_q={eb_q}")
        self.eb_f = float(eb_f)
        self.eb_q = float(eb_q)
        return self.bounds

    def set_encoder(self, name: str) -> str:
        """Swap the lossless encoder (online encoder selection)."""
        self._encoder = get_encoder(name)
        self.encoder_name = name
        self.name = f"compso-{name}"
        return name

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            "eb_f": np.array(self.eb_f),
            "eb_q": np.array(self.eb_q),
            "rng": rng_state_array(self._rng),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "eb_f" in state:
            self.set_bounds(float(state["eb_f"]), float(state["eb_q"]))
        if "rng" in state:
            restore_rng_state(self._rng, state["rng"])

    def group_nbytes(self, tensors: list[np.ndarray]) -> int:
        if len(tensors) > 1:
            return self.compress_many(tensors).nbytes
        return super().group_nbytes(tensors)

    # -- the lossy stages, one tensor ---------------------------------------

    def _filter(self, flat: np.ndarray) -> tuple[bytes, np.ndarray, float]:
        """One pass over ``|flat|``: returns ``(bitmap, survivors, quant_step)``.

        The magnitudes serve the range and the comparison; a non-finite
        range is a non-finite input and is refused here, before any
        rounding draw.  ``survivors`` is ``flat`` itself when nothing was
        filtered.
        """
        n = flat.size
        mag = np.abs(flat)
        vmax = float(mag.max()) if n else 0.0
        if not math.isfinite(vmax):
            raise ValueError(f"{self.name}: non-finite value in a tensor of {n} elements")
        scale = vmax if self.relative and vmax > 0 else 1.0
        threshold = self.eb_f * scale
        step = quant_step(scale, self.rounding, eb=self.eb_q)
        if not threshold > 0:
            return bytes((n + 7) // 8), flat, step
        filtered = mag < threshold
        bitmap = pack_bitmap(filtered)
        n_kept = n - np.count_nonzero(filtered)
        if n_kept == n:
            return bitmap, flat, step
        if _by_index(n_kept, n):
            return bitmap, flat.take(clear_bit_index(bitmap, n)), step
        return bitmap, flat[np.logical_not(filtered, out=filtered)], step

    def _quantize(self, kept: np.ndarray, step: float) -> np.ndarray:
        """Integer-valued float codes of the survivors (:func:`pack_codes` casts them)."""
        return round_codes(kept, step, self.rounding, self._rng)

    # -- the coded segments -------------------------------------------------

    def _encode_segments(self, bitmap: tuple[bytes, int], codes: tuple[bytes, int]) -> dict[str, bytes]:
        """The bitmap and code frames, coded in one encoder call."""
        return dict(zip(_SEGMENTS, self._encoder.encode_many([bitmap, codes])))

    def _decode_segments(self, ct: CompressedTensor) -> list[bytes]:
        """The decoded bitmap and code streams; an :class:`EncodeError` names its segment."""
        try:
            return self._encoder.decode_many([ct.segments[name] for name in _SEGMENTS])
        except EncodeError as exc:
            raise exc.at(segment=None if exc.frame is None else _SEGMENTS[exc.frame])

    # -- single-tensor path -------------------------------------------------

    def _stages(self, x: np.ndarray) -> tuple[dict, list[tuple[bytes, int]]]:
        """The lossy stages of one tensor: its meta and its two frames to code."""
        tracer = get_tracer()
        with tracer.span("filter", "compress.filter"):
            bitmap, kept, step = self._filter(x.ravel())
        with tracer.span("quantise", "compress.quantise"):
            codes = self._quantize(kept, step)
        with tracer.span("pack", "compress.pack"):
            packed, cmin, width = pack_codes(codes)
        meta = {"step": step, "code_min": cmin, "width": width, "n_kept": int(kept.size)}
        return meta, [(bitmap, 1), (packed, width // 8)]

    def _finish(self, x: np.ndarray, meta: dict, blobs: list[bytes]) -> CompressedTensor:
        """The compressed tensor of ``x`` from its coded frames, booked."""
        segments = dict(zip(_SEGMENTS, blobs))
        ct = CompressedTensor(segments, x.shape, meta=meta)
        m = get_metrics()
        if m.enabled and x.size:
            m.histogram("compso.filter_hit_rate").observe(1.0 - meta["n_kept"] / x.size)
            m.counter("compso.encoded_bytes", segment="bitmap").inc(len(segments["bitmap"]))
            m.counter("compso.encoded_bytes", segment="codes").inc(len(segments["codes"]))
            self._record_compression(x.nbytes, ct)
        return ct

    def _restore(self, ct: CompressedTensor, bitmap: bytes, codestream: bytes) -> np.ndarray:
        """The tensor of ``ct`` from its decoded bitmap and code streams."""
        meta = ct.meta
        values = _dequantize(
            codestream, int(meta["width"]), int(meta["n_kept"]), int(meta["code_min"]), meta["step"]
        )
        return _scatter(values, bitmap, ct.n_elements).reshape(ct.shape)

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        tracer = get_tracer()
        with tracer.span("compress", "compress", compressor=self.name, nbytes=x.nbytes):
            meta, frames = self._stages(x)
            with tracer.span("encode", "compress.encode", encoder=self.encoder_name):
                blobs = self._encoder.encode_many(frames)
        return self._finish(x, meta, blobs)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        with get_tracer().span("decompress", "decompress", compressor=self.name):
            return self._restore(ct, *self._decode_segments(ct))

    # -- several tensors, one encoder call ------------------------------------

    def compress_each(self, tensors: list[np.ndarray]) -> list[CompressedTensor]:
        """``compress`` of each tensor, with every tensor's frames in one encoder call.

        The lossy stages run tensor by tensor in order, so the draws and
        every frame are those of the per-tensor loop; the encoder codes
        each tensor's two frames as ``compress`` would (DESIGN.md decision
        33).  One tensor is ``compress``.
        """
        if len(tensors) == 1:
            return [self.compress(tensors[0])]
        xs = [np.asarray(x, dtype=np.float32) for x in tensors]
        tracer = get_tracer()
        nbytes = sum(x.nbytes for x in xs)
        with tracer.span(
            "compress", "compress", compressor=self.name, nbytes=nbytes, n_tensors=len(xs)
        ):
            staged = [self._stages(x) for x in xs]
            with tracer.span("encode", "compress.encode", encoder=self.encoder_name):
                coded = self._encoder.encode_calls([frames for _, frames in staged])
        return [self._finish(x, meta, blobs) for x, (meta, _), blobs in zip(xs, staged, coded)]

    def decompress_each(self, cts: list[CompressedTensor]) -> list[np.ndarray]:
        """``decompress`` of each frame, every frame decoded in one encoder call.

        A shared decode that fails is redone frame by frame, so the error
        raised is the one the first failing ``decompress`` raises.  One
        frame is ``decompress``.
        """
        if len(cts) == 1:
            return [self.decompress(cts[0])]
        try:
            with get_tracer().span(
                "decompress", "decompress", compressor=self.name, n_tensors=len(cts)
            ):
                blobs = [ct.segments[name] for ct in cts for name in _SEGMENTS]
                streams = self._encoder.decode_many(blobs)
                return [self._restore(ct, *streams[2 * k : 2 * k + 2]) for k, ct in enumerate(cts)]
        except Exception:  # noqa: BLE001 — located and raised by the per-frame loop
            return super().decompress_each(cts)

    # -- aggregated (multi-layer) path ---------------------------------------

    def compress_many(self, tensors: list[np.ndarray]) -> CompressedTensor:
        """Compress an aggregate of layers with per-layer scales.

        Filtering and quantisation happen per layer (a layer's range must
        not leak into its neighbours, section 4.5); the bitmaps and packed
        code streams are concatenated and encoded once, which is the
        GPU-efficiency win the layer aggregation mechanism targets.  Every
        layer is filtered before any is quantised, so a group with a
        non-finite layer is refused with the generator untouched.
        """
        if not tensors:
            raise ValueError("compress_many requires at least one tensor")
        tracer = get_tracer()
        code_parts: list[bytes] = []
        item_sizes: set[int] = set()
        headers: list[bytes] = []
        with tracer.span(
            "compress_many", "compress", compressor=self.name, n_layers=len(tensors)
        ):
            with tracer.span("filter+quantise+pack", "compress.quantise"):
                flats = [np.asarray(t, dtype=np.float32).ravel() for t in tensors]
                layers = [self._filter(flat) for flat in flats]
                for flat, (_, kept, step) in zip(flats, layers):
                    packed, cmin, width = pack_codes(self._quantize(kept, step))
                    code_parts.append(packed)
                    if packed:
                        item_sizes.add(width // 8)
                    headers.append(
                        _LAYER_HEADER.pack(flat.size, kept.size, step, cmin, width, len(packed))
                    )
            header_blob = struct.pack("<I", len(tensors)) + b"".join(headers)
            with tracer.span("encode", "compress.encode", encoder=self.encoder_name):
                segments = {
                    "headers": header_blob,
                    **self._encode_segments(
                        (b"".join(bitmap for bitmap, _, _ in layers), 1),
                        # One symbol per code only when every layer packed at one width.
                        (b"".join(code_parts), item_sizes.pop() if len(item_sizes) == 1 else 1),
                    ),
                }
        total = sum(flat.size for flat in flats)
        ct = CompressedTensor(segments, (total,), meta={"aggregated": len(tensors)})
        self._record_compression(sum(flat.nbytes for flat in flats), ct)
        return ct

    def decompress_many(self, ct: CompressedTensor) -> list[np.ndarray]:
        """Inverse of :func:`compress_many`; returns flat per-layer arrays.

        Raises :class:`EncodeError` when the header blob, the bitmap stream
        or the code stream is not consumed exactly by the layers the
        headers describe, or their sizes do not add up to the frame's.
        """
        blob = ct.segments["headers"]
        count = struct.unpack_from("<I", blob)[0] if len(blob) >= 4 else None
        if count is None or len(blob) != 4 + count * _LAYER_HEADER.size:
            raise EncodeError(f"compso: header count {count} does not match {len(blob)} bytes")
        bitmaps, codestream = self._decode_segments(ct)
        outputs: list[np.ndarray] = []
        bit_pos = 0
        code_pos = 0
        for n, n_kept, step, cmin, width, packed_len in _LAYER_HEADER.iter_unpack(blob[4:]):
            values = _dequantize(
                codestream[code_pos : code_pos + packed_len], width, n_kept, cmin, step
            )
            code_pos += packed_len
            bitmap_bytes = (n + 7) // 8
            outputs.append(_scatter(values, bitmaps[bit_pos : bit_pos + bitmap_bytes], n))
            bit_pos += bitmap_bytes
        if bit_pos != len(bitmaps) or code_pos != len(codestream):
            raise EncodeError(
                f"compso: layers consume {bit_pos} of {len(bitmaps)} bitmap bytes "
                f"and {code_pos} of {len(codestream)} code bytes"
            )
        total = sum(out.size for out in outputs)
        if total != ct.n_elements:
            raise EncodeError(
                f"compso: layer sizes n add up to {total}, the frame holds {ct.n_elements}"
            )
        return outputs
