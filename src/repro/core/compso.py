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
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.quantize import ROUNDING_MODES
from repro.encoders.registry import get_encoder
from repro.telemetry import get_metrics, get_tracer
from repro.util.bitpack import (
    pack_bitmap,
    pack_uints,
    required_width,
    unpack_bitmap,
    unpack_uints,
)
from repro.util.seeding import spawn_rng

__all__ = ["CompsoCompressor", "pack_codes"]


def pack_codes(codes: np.ndarray) -> tuple[bytes, int, int]:
    """Pack signed quantisation codes; returns ``(packed, code_min, width)``.

    The codes are shifted to start at zero and packed at the minimal
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
    return pack_uints((codes - cmin).astype(np.uint64), width), cmin, width


class CompsoCompressor(GradientCompressor):
    """Filter + bitmap + stochastic rounding + lossless encoder."""

    def __init__(
        self,
        eb_f: float = 4e-3,
        eb_q: float = 4e-3,
        *,
        encoder: str = "ans",
        relative: bool = True,
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
        self.relative = relative
        self.rounding = rounding
        self.encoder_name = encoder
        self._encoder = get_encoder(encoder)
        self._rng = spawn_rng(seed)
        self.name = f"compso-{encoder}"

    # -- configuration hooks used by the adaptive schedule -----------------

    def set_bounds(self, eb_f: float, eb_q: float) -> None:
        """Update error bounds (iteration-wise adaptive mechanism)."""
        if eb_f < 0 or eb_q <= 0:
            raise ValueError(f"invalid bounds eb_f={eb_f}, eb_q={eb_q}")
        self.eb_f = float(eb_f)
        self.eb_q = float(eb_q)

    def set_encoder(self, name: str) -> None:
        """Swap the lossless encoder (online encoder selection)."""
        self._encoder = get_encoder(name)
        self.encoder_name = name
        self.name = f"compso-{name}"

    # -- single-tensor path -------------------------------------------------

    def _bounds_for(self, flat: np.ndarray) -> tuple[float, float]:
        """Absolute (filter_threshold, quant_step) for this tensor."""
        if self.relative:
            vmax = float(np.abs(flat).max()) if flat.size else 0.0
            scale = vmax if vmax > 0 else 1.0
        else:
            scale = 1.0
        threshold = self.eb_f * scale
        step = self.eb_q * scale
        if self.rounding == "rn":
            step *= 2.0  # RN has half-step worst case; keep |err| <= eb_q
        return threshold, step

    def _quantize(self, kept: np.ndarray, step: float) -> np.ndarray:
        if step == 0.0:
            return np.zeros(kept.size, dtype=np.int64)
        return ROUNDING_MODES[self.rounding](kept / step, self._rng).astype(np.int64)

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        tracer = get_tracer()
        with tracer.span("compress", "compress", compressor=self.name, nbytes=x.nbytes):
            with tracer.span("filter", "compress.filter"):
                threshold, step = self._bounds_for(flat)
                filtered = (
                    np.abs(flat) < threshold if threshold > 0 else np.zeros(flat.size, dtype=bool)
                )
                kept = flat[~filtered]
            with tracer.span("quantise", "compress.quantise"):
                codes = self._quantize(kept, step)
            with tracer.span("pack", "compress.pack"):
                packed, cmin, width = pack_codes(codes)
            with tracer.span("encode", "compress.encode", encoder=self.encoder_name):
                segments = {
                    "bitmap": self._encoder.encode(pack_bitmap(filtered)),
                    "codes": self._encoder.encode(packed, width // 8),
                }
        meta = {
            "step": step,
            "code_min": cmin,
            "width": width,
            "n_kept": int(kept.size),
        }
        ct = CompressedTensor(segments, x.shape, meta=meta)
        m = get_metrics()
        if m.enabled and flat.size:
            m.histogram("compso.filter_hit_rate").observe(1.0 - kept.size / flat.size)
            m.counter("compso.encoded_bytes", segment="bitmap").inc(len(segments["bitmap"]))
            m.counter("compso.encoded_bytes", segment="codes").inc(len(segments["codes"]))
            self._record_compression(x.nbytes, ct)
        return ct

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        with get_tracer().span("decompress", "decompress", compressor=self.name):
            return self._decompress(ct)

    def _decompress(self, ct: CompressedTensor) -> np.ndarray:
        n = ct.n_elements
        filtered = unpack_bitmap(self._encoder.decode(ct.segments["bitmap"]), n)
        n_kept = int(ct.meta["n_kept"])
        width = int(ct.meta["width"])
        packed = self._encoder.decode(ct.segments["codes"])
        codes = unpack_uints(packed, width, n_kept).astype(np.int64) + int(ct.meta["code_min"])
        out = np.zeros(n, dtype=np.float32)
        out[~filtered] = codes.astype(np.float32) * np.float32(ct.meta["step"])
        return out.reshape(ct.shape)

    # -- aggregated (multi-layer) path ---------------------------------------

    def compress_many(self, tensors: list[np.ndarray]) -> CompressedTensor:
        """Compress an aggregate of layers with per-layer scales.

        Filtering and quantisation happen per layer (a layer's range must
        not leak into its neighbours, section 4.5); the bitmaps and packed
        code streams are concatenated and encoded once, which is the
        GPU-efficiency win the layer aggregation mechanism targets.
        """
        if not tensors:
            raise ValueError("compress_many requires at least one tensor")
        tracer = get_tracer()
        bitmap_parts: list[bytes] = []
        code_parts: list[bytes] = []
        item_sizes: set[int] = set()
        headers: list[bytes] = []
        raw_nbytes = 0
        with tracer.span(
            "compress_many", "compress", compressor=self.name, n_layers=len(tensors)
        ):
            with tracer.span("filter+quantise+pack", "compress.quantise"):
                for t in tensors:
                    flat = np.asarray(t, dtype=np.float32).ravel()
                    raw_nbytes += flat.nbytes
                    threshold, step = self._bounds_for(flat)
                    filtered = (
                        np.abs(flat) < threshold
                        if threshold > 0
                        else np.zeros(flat.size, dtype=bool)
                    )
                    kept = flat[~filtered]
                    codes = self._quantize(kept, step)
                    packed, cmin, width = pack_codes(codes)
                    bitmap_parts.append(pack_bitmap(filtered))
                    code_parts.append(packed)
                    if packed:
                        item_sizes.add(width // 8)
                    headers.append(
                        struct.pack(
                            "<IIfiBI", flat.size, kept.size, step, cmin, width, len(packed)
                        )
                    )
            header_blob = struct.pack("<I", len(tensors)) + b"".join(headers)
            with tracer.span("encode", "compress.encode", encoder=self.encoder_name):
                segments = {
                    "headers": header_blob,
                    "bitmap": self._encoder.encode(b"".join(bitmap_parts)),
                    # One symbol per code only when every layer packed at one width.
                    "codes": self._encoder.encode(
                        b"".join(code_parts), item_sizes.pop() if len(item_sizes) == 1 else 1
                    ),
                }
        total = sum(np.asarray(t).size for t in tensors)
        ct = CompressedTensor(segments, (total,), meta={"aggregated": len(tensors)})
        self._record_compression(raw_nbytes, ct)
        return ct

    def decompress_many(self, ct: CompressedTensor) -> list[np.ndarray]:
        """Inverse of :func:`compress_many`; returns flat per-layer arrays."""
        blob = ct.segments["headers"]
        (count,) = struct.unpack_from("<I", blob, 0)
        rec_size = struct.calcsize("<IIfiBI")
        bitmaps = self._encoder.decode(ct.segments["bitmap"])
        codestream = self._encoder.decode(ct.segments["codes"])
        outputs: list[np.ndarray] = []
        bit_pos = 0
        code_pos = 0
        offset = 4
        for _ in range(count):
            n, n_kept, step, cmin, width, packed_len = struct.unpack_from(
                "<IIfiBI", blob, offset
            )
            offset += rec_size
            bitmap_bytes = (n + 7) // 8
            filtered = unpack_bitmap(bitmaps[bit_pos : bit_pos + bitmap_bytes], n)
            bit_pos += bitmap_bytes
            codes = (
                unpack_uints(codestream[code_pos : code_pos + packed_len], width, n_kept).astype(
                    np.int64
                )
                + cmin
            )
            code_pos += packed_len
            out = np.zeros(n, dtype=np.float32)
            out[~filtered] = codes.astype(np.float32) * np.float32(step)
            outputs.append(out)
        return outputs
