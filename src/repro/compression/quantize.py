"""Rounding and quantisation primitives (paper sections 2.3 and 4.2).

Three rounding modes are studied by the paper:

* **RN** — round to nearest: deterministic, uniform error distribution.
* **SR** — stochastic rounding (Eq. 4): rounds up with probability equal
  to the fractional part; unbiased, *triangular* aggregate error
  distribution, which section 4.2 identifies as the accuracy-preserving
  property.
* **P0.5** — "mode-2" stochastic rounding (Croci et al. 2022): rounds
  up/down with equal probability; non-deterministic but *uniform* error —
  the control experiment showing non-determinism alone does not preserve
  accuracy.

On top of these, two quantiser families:

* :class:`BitBudgetQuantizer` — QSGD-style n-bit quantisation of values
  normalised to the tensor range (Eq. 3).
* :class:`ErrorBoundedQuantizer` — SZ/COMPSO-style quantisation with a
  guaranteed pointwise bound ``|dequant(x) - x| <= eb`` (absolute, or
  relative to the tensor's max magnitude).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.seeding import spawn_rng

__all__ = [
    "round_nearest",
    "round_stochastic",
    "round_p05",
    "ROUNDING_MODES",
    "BitBudgetQuantizer",
    "ErrorBoundedQuantizer",
    "QuantizedTensor",
]


def round_nearest(v: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Round to nearest integer (ties to even, as numpy's rint)."""
    return np.rint(v)


def round_stochastic(v: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Stochastic rounding, Eq. 4: E[round(v)] == v."""
    rng = spawn_rng(rng)
    out = np.floor(v)
    out += rng.random(v.shape) < v - out
    return out


def round_p05(v: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Mode-2 stochastic rounding: up/down with probability 0.5 each.

    Exact integers are left unchanged (there is nothing to round), which
    also keeps the scheme idempotent.
    """
    rng = spawn_rng(rng)
    floor = np.floor(v)
    frac = v - floor
    up = rng.random(v.shape) < 0.5
    rounded = floor + up
    return np.where(frac == 0.0, floor, rounded)


ROUNDING_MODES = {
    "rn": round_nearest,
    "sr": round_stochastic,
    "p05": round_p05,
}


@dataclass
class QuantizedTensor:
    """Integer codes plus the metadata needed to dequantise them."""

    codes: np.ndarray  # int32 codes
    scale: float  # value represented by one code step
    shape: tuple[int, ...]

    def dequantize(self) -> np.ndarray:
        return (self.codes.astype(np.float32) * np.float32(self.scale)).reshape(self.shape)


class BitBudgetQuantizer:
    """QSGD-style n-bit quantisation (Eq. 3 normalisation + rounding).

    Values are scaled so the tensor's max magnitude maps to
    ``2**(bits-1) - 1`` and rounded with the chosen mode; codes are signed
    integers in ``[-(2**(bits-1)-1)-1, 2**(bits-1)-1 + 1]`` (SR may round
    the extreme value outward by one step).
    """

    def __init__(self, bits: int, mode: str = "sr", *, seed: int | np.random.Generator | None = 0):
        if not 2 <= bits <= 16:
            raise ValueError(f"bits must be in [2, 16], got {bits}")
        if mode not in ROUNDING_MODES:
            raise ValueError(f"mode must be one of {sorted(ROUNDING_MODES)}, got {mode!r}")
        self.bits = bits
        self.mode = mode
        self._rng = spawn_rng(seed)

    def quantize(self, x: np.ndarray) -> QuantizedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        vmax = float(np.abs(flat).max()) if flat.size else 0.0
        levels = (1 << (self.bits - 1)) - 1
        if vmax == 0.0:
            return QuantizedTensor(np.zeros(flat.size, dtype=np.int32), 0.0, x.shape)
        scale = vmax / levels
        codes = ROUNDING_MODES[self.mode](flat / scale, self._rng).astype(np.int32)
        return QuantizedTensor(codes, scale, x.shape)

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        """Quantise then dequantise (the lossy channel seen by training)."""
        return self.quantize(x).dequantize()


class ErrorBoundedQuantizer:
    """Uniform quantiser with a guaranteed pointwise error bound.

    The step is chosen per rounding mode so that ``|err| <= eb`` always
    holds: RN has half-step worst case (step = 2*eb) while SR/P0.5 have
    full-step worst case (step = eb).  With :attr:`relative` ``eb`` is
    scaled by the tensor's max magnitude (cuSZ's "relative to value range"
    mode).
    """

    #: Every run bounds relative to the value range; ``False`` is absolute.
    relative = True

    def __init__(
        self,
        eb: float,
        mode: str = "sr",
        *,
        seed: int | np.random.Generator | None = 0,
    ):
        if eb <= 0:
            raise ValueError(f"error bound must be positive, got {eb}")
        if mode not in ROUNDING_MODES:
            raise ValueError(f"mode must be one of {sorted(ROUNDING_MODES)}, got {mode!r}")
        self.eb = float(eb)
        self.mode = mode
        self._rng = spawn_rng(seed)

    def step_for(self, x: np.ndarray) -> float:
        """Quantisation step honouring the bound for this tensor."""
        eb = self.eb
        if self.relative:
            vmax = float(np.abs(x).max()) if x.size else 0.0
            eb = self.eb * vmax if vmax > 0 else self.eb
        return 2.0 * eb if self.mode == "rn" else eb

    def quantize(self, x: np.ndarray) -> QuantizedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        step = self.step_for(flat)
        if flat.size == 0 or step == 0.0:
            return QuantizedTensor(np.zeros(flat.size, dtype=np.int32), 0.0, x.shape)
        codes = ROUNDING_MODES[self.mode](flat / step, self._rng).astype(np.int32)
        return QuantizedTensor(codes, step, x.shape)

    def roundtrip(self, x: np.ndarray) -> np.ndarray:
        return self.quantize(x).dequantize()
