"""cuSZ-style error-bounded lossy compressor.

Faithful to cuSZ's *dual-quantisation* design (Tian et al., PACT'20):

1. **Prequantisation** — round-to-nearest of ``x / step`` with
   ``step = 2 * eb * range`` (relative error bound; |err| <= eb*range).
2. **Lorenzo (delta) prediction** — first-order differences of the
   prequantised integers; fully vectorised and exactly reversible.
3. **Encoding** — deltas within ±127 become one byte each; larger deltas
   emit an escape byte plus a raw int32 outlier.  The byte stream is then
   Huffman-coded (SZ's lossless backend).

This is the paper's "cuSZ" baseline: RN-based quantisation, so it shows
the uniform-error accuracy penalty of section 4.2.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.quantize import quant_step, round_codes
from repro.encoders.huffman import HuffmanEncoder
from repro.telemetry import get_tracer

__all__ = ["SzCompressor"]

_RADIUS = 127
_ESCAPE = 255


class SzCompressor(GradientCompressor):
    """cuSZ stand-in: RN prequantisation + Lorenzo deltas + Huffman."""

    #: Every run bounds relative to the value range; ``False`` is absolute.
    relative = True

    def __init__(self, eb: float = 4e-3):
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        self.eb = float(eb)
        self.name = f"sz-{eb:g}"
        self._encoder = HuffmanEncoder()

    def _step(self, x: np.ndarray) -> float:
        vmax = float(np.abs(x).max()) if self.relative and x.size else 0.0
        return quant_step(vmax, "rn", eb=self.eb)

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        step = self._step(flat)
        if flat.size == 0 or step == 0.0:
            return CompressedTensor({"codes": b"", "outliers": b""}, x.shape, meta={"step": 0.0})
        tracer = get_tracer()
        with tracer.span("compress", "compress", compressor=self.name, nbytes=x.nbytes):
            with tracer.span("prequantise", "compress.quantise"):
                q = round_codes(flat, step, "rn", None).astype(np.int64)
            with tracer.span("lorenzo", "compress.pack"):
                deltas = np.diff(q, prepend=0)
                small = np.abs(deltas) <= _RADIUS
                codes = np.where(small, deltas + _RADIUS, _ESCAPE).astype(np.uint8)
                outliers = deltas[~small].astype(np.int32)
            with tracer.span("encode", "compress.encode", encoder="huffman"):
                segments = {
                    "codes": self._encoder.encode(codes),
                    "outliers": outliers.tobytes(),
                }
        ct = CompressedTensor(segments, x.shape, meta={"step": step})
        return self._record_compression(x.nbytes, ct)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        n = ct.n_elements
        step = float(ct.meta["step"])
        if step == 0.0:
            return np.zeros(ct.shape, dtype=np.float32)
        codes = np.frombuffer(self._encoder.decode(ct.segments["codes"]), dtype=np.uint8)
        deltas = codes.astype(np.int64) - _RADIUS
        escapes = codes == _ESCAPE
        outliers = np.frombuffer(ct.segments["outliers"], dtype=np.int32)
        deltas[escapes] = outliers
        q = np.cumsum(deltas)
        return (q.astype(np.float32) * np.float32(step)).reshape(ct.shape)
