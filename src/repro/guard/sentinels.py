"""Cheap numerical-health invariant checkers (the guard's tripwires).

Every sentinel is a pure observation plus, at most, an explicitly
scoped repair (scrubbing poisoned entries, jittering a factor before an
eigendecomposition retry).  On healthy inputs each sentinel is
side-effect free and consumes no randomness, which is what lets a
guarded fault-free run stay bit-identical to an unguarded one:

* :func:`scan_tensor` — NaN/Inf and absurd-magnitude scan over a
  gradient / parameter / decompressed payload, zeroing offenders;
* :func:`contract_error` — per-iteration verification that the
  compression channel actually honoured its error-bound contract
  ``|x - decompress(compress(x))| <= (eb_f + eb_q) * max|x|``;
* :func:`factor_health` — symmetry/finiteness precheck on a K-FAC
  Kronecker factor before it reaches ``np.linalg.eigh``;
* :func:`safe_eigen` — eigendecomposition with
  :class:`~repro.optim.kfac.FactorNumericsError` caught and retried
  under escalating diagonal damping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.optim.kfac import FactorNumericsError, Kfac

__all__ = [
    "ScanResult",
    "scan_tensor",
    "contract_error",
    "factor_health",
    "safe_eigen",
]


@dataclass
class ScanResult:
    """Outcome of one :func:`scan_tensor` pass."""

    values: np.ndarray
    n_nonfinite: int = 0
    n_oversized: int = 0
    max_abs: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.n_nonfinite == 0 and self.n_oversized == 0


#: Magnitude beyond which :func:`scan_tensor` treats a finite entry as corrupt.
_ABS_LIMIT = 1e6


def scan_tensor(x: np.ndarray) -> ScanResult:
    """Scan ``x`` for NaN/Inf and entries beyond :data:`_ABS_LIMIT`; scrub both.

    A single bit flip in a float32 exponent turns an O(1) gradient into
    an O(1e30) one — finite, so ``np.nan_to_num`` never sees it, but
    instantly fatal to the parameters.  Offending entries are zeroed (a
    dropped contribution, the bounded-error failure mode) on a *copy*;
    clean tensors are returned untouched, unscanned memory included, so
    the healthy path allocates nothing.
    """
    finite = np.isfinite(x)
    n_nonfinite = int(x.size - int(finite.sum()))
    with np.errstate(invalid="ignore"):
        oversized = finite & (np.abs(x) > _ABS_LIMIT)
    n_oversized = int(oversized.sum())
    if n_nonfinite == 0 and n_oversized == 0:
        max_abs = float(np.abs(x).max()) if x.size else 0.0
        return ScanResult(x, 0, 0, max_abs)
    scrubbed = np.where(finite & ~oversized, x, 0.0).astype(x.dtype)
    max_abs = float(np.abs(scrubbed).max()) if scrubbed.size else 0.0
    return ScanResult(scrubbed, n_nonfinite, n_oversized, max_abs)


#: Headroom over the ``(eb_f + eb_q) * max|x|`` contract before a
#: reconstruction error counts as a violation.
_CONTRACT_SLACK = 1.25

#: :func:`safe_eigen`'s repair schedule: attempts, first diagonal jitter,
#: and the factor each further attempt multiplies it by.
_EIGEN_RETRIES = 3
_EIGEN_JITTER = 1e-6
_EIGEN_ESCALATION = 100.0


def contract_error(original: np.ndarray, decoded: np.ndarray, compressor) -> float | None:
    """How badly the compression channel violated its error bound.

    Returns ``observed_error / allowed_error`` when the maximum absolute
    reconstruction error exceeds ``_CONTRACT_SLACK`` times the contract
    ``(eb_f + eb_q) * max|original|`` (relative bounds, the COMPSO
    convention), or None when the contract held / is unknowable.  A
    violation means either the compressor is broken or the payload was
    corrupted in flight — either way the bytes being applied to the
    model are not the bytes the error analysis licensed.
    """
    bounds = compressor.bounds
    if bounds is None or original.size == 0:
        return None
    vmax = float(np.abs(original).max())
    if vmax == 0.0:
        return None
    allowed = (bounds.eb_f + bounds.eb_q) * vmax * _CONTRACT_SLACK
    if allowed <= 0.0:
        return None
    err = float(np.abs(decoded.reshape(original.shape) - original).max())
    if err <= allowed:
        return None
    return err / allowed


def factor_health(mat: np.ndarray) -> str | None:
    """None when ``mat`` is eigh-safe (finite, symmetric to 1e-6 of its
    scale); otherwise a short failure reason.

    Two passes on a healthy factor: the largest magnitude, which is
    non-finite exactly when an entry is (``max`` propagates NaN), and an
    exact comparison with the transpose, which a running average of
    mirrored statistics passes; only a factor that fails it pays for the
    asymmetry arithmetic.
    """
    scale = float(np.abs(mat).max())
    if not math.isfinite(scale):
        return "non-finite entries"
    if np.array_equal(mat, mat.T):
        return None
    asym = float(np.abs(mat - mat.T).max())
    if asym > 1e-6 * scale:
        return f"asymmetry {asym:.3e} (scale {scale:.3e})"
    return None


def _repair_factor(mat: np.ndarray, jitter: float) -> np.ndarray:
    """Symmetrise, zero non-finite entries, and add ``jitter * I``."""
    clean = np.nan_to_num(mat, nan=0.0, posinf=0.0, neginf=0.0)
    sym = 0.5 * (clean + clean.T)
    return sym + jitter * np.eye(sym.shape[0], dtype=sym.dtype)


def safe_eigen(kfac: Kfac, idx: int) -> int:
    """Eigendecompose layer ``idx`` with escalating-damping retries.

    Healthy factors take the exact same single
    :meth:`~repro.optim.kfac.Kfac.compute_eigen` call an unguarded run
    makes (bit-identical).  On a precheck failure or
    :class:`FactorNumericsError`, both factors are repaired —
    symmetrised, definitised with ``_EIGEN_JITTER * _EIGEN_ESCALATION**attempt``
    on the diagonal — and the decomposition retried; the final attempt's error
    propagates if nothing converges.  Returns the number of repair
    attempts spent (0 == healthy path).
    """
    st = kfac.state[idx]
    sick = factor_health(st.A) or factor_health(st.G)
    if sick is None:
        try:
            kfac.compute_eigen(idx)
            return 0
        except FactorNumericsError:
            pass
    for attempt in range(_EIGEN_RETRIES):
        eps = _EIGEN_JITTER * (_EIGEN_ESCALATION**attempt)
        st.A = _repair_factor(st.A, eps)
        st.G = _repair_factor(st.G, eps)
        try:
            kfac.compute_eigen(idx)
            return attempt + 1
        except FactorNumericsError:
            if attempt == _EIGEN_RETRIES - 1:
                raise
    raise FactorNumericsError(idx, "unreachable")  # pragma: no cover
