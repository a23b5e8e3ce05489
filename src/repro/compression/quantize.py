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

Every compressor the paper compares quantises by one rule: a step, then
``values / step`` rounded to integer codes (dequantised as
``code * step``).  Two functions hold it, and every compressor calls them:

* :func:`quant_step` — the step, from an error bound and the tensor's max
  magnitude (COMPSO, cuSZ, the factor compressor: ``|dequant(x) - x| <=
  eb``, absolute or relative to the magnitude) or from a bit budget (QSGD
  and CocktailSGD: the magnitude maps to ``2**(bits-1) - 1``, Eq. 3).
* :func:`round_codes` — ``values / step`` rounded through
  :data:`ROUNDING_MODES`; a zero step gives zero codes and draws nothing.
"""

from __future__ import annotations

import numpy as np

from repro.util.seeding import spawn_rng

__all__ = [
    "round_nearest",
    "round_stochastic",
    "round_p05",
    "ROUNDING_MODES",
    "quant_step",
    "round_codes",
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


def quant_step(
    magnitude: float, mode: str, *, eb: float | None = None, bits: int | None = None
) -> float:
    """The quantisation step for a tensor whose max magnitude is ``magnitude``.

    With ``bits`` the magnitude maps to the top level ``2**(bits-1) - 1``
    whatever the mode; SR may round the extreme value one step outward.
    With ``eb`` the bound is scaled by ``magnitude`` (absolute when it is
    zero) and the step honours it for ``mode``: SR and P0.5 err by up to a
    full step (step = eb), RN by half of one (step = 2 * eb).
    """
    if bits is not None:
        return magnitude / ((1 << (bits - 1)) - 1)
    step = eb * magnitude if magnitude > 0 else eb
    return step * 2.0 if mode == "rn" else step


def round_codes(
    values: np.ndarray, step: float, mode: str, rng: np.random.Generator | None
) -> np.ndarray:
    """``values / step`` rounded by ``mode``: integer-valued floats, which
    the caller casts.  A zero step gives zeros and takes no draw."""
    if step == 0.0:
        return np.zeros(values.shape, dtype=np.float32)
    return ROUNDING_MODES[mode](values / step, rng)
