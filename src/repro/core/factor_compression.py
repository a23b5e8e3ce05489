"""Kronecker-factor (A, G) compression (paper section 7, future work 2).

Fig. 1 shows the factor allreduce is the second-largest communication
term (~10-13%).  The factors are symmetric positive semi-definite
running averages, so they tolerate more error than the preconditioned
gradients (they are damped by gamma before inversion and averaged over
iterations).  This module compresses a factor for the allreduce path:

1. extract the upper triangle (the symmetric half never travels);
2. error-bounded SR quantisation relative to the *diagonal scale* (the
   damping floor makes absolute errors below ~eb*max(diag) harmless);
3. lossless encoding, as in the main pipeline.

Because allreduce sums contributions, per-rank lossy compression errors
average out (SR is unbiased), unlike ring-allreduce error *propagation*
on gradients — factors are recomputed as running averages every
iteration, so no feedback accumulation occurs.

``FactorCompressor`` round-trips a symmetric matrix; symmetry is restored
exactly on decompression.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.quantize import quant_step, round_codes
from repro.core.compso import _dequantize, pack_codes
from repro.encoders.registry import get_encoder
from repro.util.seeding import restore_rng_state, rng_state_array, spawn_rng
from repro.util.triangle import mirror_upper, pack_upper, triangle_size

__all__ = ["FactorCompressor"]


class FactorCompressor(GradientCompressor):
    """Error-bounded symmetric-matrix compressor for K-FAC factors."""

    #: Every run rounds stochastically; tests pin the other modes too.
    rounding = "sr"

    def __init__(self, eb: float = 1e-3):
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        self.eb = float(eb)
        self._encoder = get_encoder("ans")
        self._rng = spawn_rng(0)
        self.name = "factor-ans"

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"rng": rng_state_array(self._rng)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "rng" in state:
            restore_rng_state(self._rng, state["rng"])

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"factors are square matrices, got shape {x.shape}")
        d = x.shape[0]
        tri = pack_upper(x)
        if not (math.isfinite(tri.min()) and math.isfinite(tri.max())):
            raise ValueError(f"{self.name}: non-finite value in a {d} x {d} factor")
        # Scale to the diagonal magnitude: the damping gamma added before
        # inversion makes errors below eb*max(diag) immaterial.
        step = quant_step(float(np.abs(np.diag(x)).max()), self.rounding, eb=self.eb)
        packed, cmin, width = pack_codes(round_codes(tri, step, self.rounding, self._rng))
        return CompressedTensor(
            {"codes": self._encoder.encode(packed, width // 8)},
            x.shape,
            meta={"step": step, "code_min": cmin, "width": width, "dim": d},
        )

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        d = int(ct.meta["dim"])
        tri = _dequantize(
            self._encoder.decode(ct.segments["codes"]),
            int(ct.meta["width"]),
            triangle_size(d),
            int(ct.meta["code_min"]),
            ct.meta["step"],
        )
        return mirror_upper(tri, d)
