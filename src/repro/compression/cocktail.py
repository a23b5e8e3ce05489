"""CocktailSGD (Wang et al., ICML'23): random sampling + Top-k + quantisation.

The strongest first-order baseline in the paper.  The pipeline keeps a
fixed *density* of entries (paper: 20%), found by top-k over a randomly
sampled candidate pool (random sampling makes GPU top-k cheap at the cost
of selection quality), then quantises survivors to ``bits`` bits with
stochastic rounding.  Positions travel as a packed bitmap and both bitmap
and value codes are entropy-coded with rANS, which is how the paper's
"constant ~20x" ratio arises from 20% density + 8-bit values.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.quantize import quant_step, round_codes
from repro.compression.topk import topk_mask
from repro.encoders.ans import RansEncoder
from repro.telemetry import get_tracer
from repro.util.bitpack import pack_bitmap, unpack_bitmap
from repro.util.seeding import restore_rng_state, rng_state_array, spawn_rng

__all__ = ["CocktailSgdCompressor"]

#: Top-k is taken over a random pool of this many times ``k`` candidates.
_CANDIDATE_FACTOR = 2.0


class CocktailSgdCompressor(GradientCompressor):
    """Random-sample top-k sparsification + SR quantisation + rANS."""

    def __init__(
        self,
        density: float = 0.2,
        bits: int = 8,
        *,
        seed: int | np.random.Generator | None = 0,
    ):
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if not 2 <= bits <= 8:
            raise ValueError(
                f"bits must be in [2, 8]: codes are stored one byte each, got {bits}"
            )
        self.density = density
        self.bits = bits
        self.name = f"cocktail-{int(density * 100)}pct-{bits}bit"
        self._rng = spawn_rng(seed)
        self._quant_rng = spawn_rng(seed, 1)
        self._encoder = RansEncoder()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            "rng": rng_state_array(self._rng),
            "quantizer_rng": rng_state_array(self._quant_rng),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "rng" in state:
            restore_rng_state(self._rng, state["rng"])
        if "quantizer_rng" in state:
            restore_rng_state(self._quant_rng, state["quantizer_rng"])

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        n = flat.size
        tracer = get_tracer()
        with tracer.span("compress", "compress", compressor=self.name, nbytes=x.nbytes):
            with tracer.span("select", "compress.filter"):
                k = max(1, int(round(self.density * n))) if n else 0
                pool = min(n, int(round(_CANDIDATE_FACTOR * k)))
                if pool < n:
                    candidates = self._rng.choice(n, size=pool, replace=False)
                    sub_mask = topk_mask(flat[candidates], k)
                    mask = np.zeros(n, dtype=bool)
                    mask[candidates[sub_mask]] = True
                else:
                    mask = topk_mask(flat, k)
                kept = flat[mask]
            with tracer.span("quantise", "compress.quantise"):
                vmax = float(np.abs(kept).max()) if kept.size else 0.0
                scale = quant_step(vmax, "sr", bits=self.bits)
                codes = round_codes(kept, scale, "sr", self._quant_rng).astype(np.int32)
                # Signed codes -> unsigned bytes around the midpoint.
                offset = 1 << (self.bits - 1)
                byte_codes = (codes + offset).astype(np.uint8)
            with tracer.span("encode", "compress.encode", encoder="ans"):
                bitmap, codes = self._encoder.encode_many([(pack_bitmap(mask), 1), (byte_codes, 1)])
                segments = {"bitmap": bitmap, "codes": codes}
        ct = CompressedTensor(segments, x.shape, meta={"scale": scale, "k": int(mask.sum())})
        return self._record_compression(x.nbytes, ct)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        n = ct.n_elements
        bitmap, codes = self._encoder.decode_many([ct.segments["bitmap"], ct.segments["codes"]])
        mask = unpack_bitmap(bitmap, n)
        byte_codes = np.frombuffer(codes, dtype=np.uint8)
        offset = 1 << (self.bits - 1)
        codes = byte_codes.astype(np.int32) - offset
        out = np.zeros(n, dtype=np.float32)
        out[mask] = codes.astype(np.float32) * np.float32(ct.meta["scale"])
        return out.reshape(ct.shape)
