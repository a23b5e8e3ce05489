"""QSGD (Alistarh et al., NeurIPS'17): SR quantisation + Elias coding.

The classic first-order gradient compressor used as a baseline throughout
the paper.  An n-bit budget normalises the tensor to its max magnitude
(Eq. 3), stochastically rounds (Eq. 4), then codes sign bits as a bitmap
and magnitudes with Elias gamma.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.quantize import quant_step, round_codes
from repro.encoders.elias import elias_gamma_decode, elias_gamma_encode
from repro.telemetry import get_tracer
from repro.util.bitpack import pack_bitmap, unpack_bitmap
from repro.util.seeding import restore_rng_state, rng_state_array, spawn_rng

__all__ = ["QsgdCompressor"]


class QsgdCompressor(GradientCompressor):
    """n-bit QSGD with stochastic rounding and Elias-gamma magnitude coding."""

    def __init__(self, bits: int = 8, *, seed: int | np.random.Generator | None = 0):
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        self.bits = bits
        self.name = f"qsgd-{bits}bit"
        self._rng = spawn_rng(seed)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"rng": rng_state_array(self._rng)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "rng" in state:
            restore_rng_state(self._rng, state["rng"])

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        tracer = get_tracer()
        with tracer.span("compress", "compress", compressor=self.name, nbytes=x.nbytes):
            with tracer.span("quantise", "compress.quantise"):
                flat = x.ravel()
                vmax = float(np.abs(flat).max()) if flat.size else 0.0
                scale = quant_step(vmax, "sr", bits=self.bits)
                codes = round_codes(flat, scale, "sr", self._rng).astype(np.int32)
                signs = codes < 0
                mags = np.abs(codes).astype(np.uint64)
            with tracer.span("encode", "compress.encode", encoder="elias-gamma"):
                segments = {
                    "signs": pack_bitmap(signs),
                    # Elias gamma requires values >= 1; shift zero up by one.
                    "mags": elias_gamma_encode(mags + 1),
                }
        ct = CompressedTensor(segments, x.shape, meta={"scale": scale})
        return self._record_compression(x.nbytes, ct)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        n = ct.n_elements
        mags = elias_gamma_decode(ct.segments["mags"], n).astype(np.int64) - 1
        signs = unpack_bitmap(ct.segments["signs"], n)
        codes = np.where(signs, -mags, mags).astype(np.float32)
        scale = np.float32(ct.meta["scale"])
        return (codes * scale).reshape(ct.shape)
