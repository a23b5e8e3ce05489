"""Error-bound auto-tuning (paper section 7, future work item 1).

The paper sets ``eb_f``/``eb_q`` empirically (4E-3 aggressive, 2E-3
conservative).  This module implements the "precisely optimizing filter
thresholds and quantization error bounds" direction: given sample K-FAC
gradients, search the bound space for the configuration that maximises
compression ratio subject to a *gradient-fidelity constraint*.

Fidelity metric: the preconditioned gradient steers the optimizer, so we
bound the distortion of the update *direction* — cosine similarity
between the original and decompressed gradient — and the relative L2
error.  Both are cheap, model-free, and correlate with the convergence
impact the paper measures (loose bounds that broke accuracy in Fig. 3
fail these constraints on the same data).

The search is a coordinate descent over a log-spaced grid: for each
filter bound, binary-search the largest quantisation bound that still
meets the constraints, then keep the (eb_f, eb_q) pair with the best
ratio.  Deterministic given the compressor seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compso import CompsoCompressor

__all__ = ["FidelityBudget", "TuneResult", "autotune_bounds"]

#: The filter bounds tried, and the quantisation bounds each one's
#: geometric bisection of ``_REFINE_STEPS`` probes searches between.
_EB_F_GRID = (0.0, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2)
_EB_Q_RANGE = (1e-4, 1e-1)
_REFINE_STEPS = 8


@dataclass(frozen=True)
class FidelityBudget:
    """Constraints the tuned bounds must satisfy on every sample tensor."""

    #: Minimum cosine similarity between original and decompressed gradient.
    min_cosine: float = 0.999
    #: Maximum relative L2 error of the decompressed gradient.
    max_rel_l2: float = 0.05

    def __post_init__(self):
        if not 0 < self.min_cosine <= 1:
            raise ValueError(
                f"min_cosine must be in (0, 1], got {self.min_cosine!r} "
                "(1.0 demands a lossless roundtrip; values <= 0 accept "
                "anti-aligned gradients)"
            )
        if not self.max_rel_l2 > 0:
            raise ValueError(
                f"max_rel_l2 must be > 0, got {self.max_rel_l2!r} "
                "(0 or less is unsatisfiable for any lossy compressor)"
            )

    def admits(self, cosine: float, rel_l2: float) -> bool:
        return cosine >= self.min_cosine and rel_l2 <= self.max_rel_l2


@dataclass
class TuneResult:
    """Outcome of an auto-tuning run."""

    eb_f: float
    eb_q: float
    ratio: float
    cosine: float
    rel_l2: float
    #: Every (eb_f, eb_q, ratio, feasible) probe, for inspection.
    trace: list[tuple[float, float, float, bool]]


def _fidelity(grads: list[np.ndarray], comp: CompsoCompressor) -> tuple[float, float]:
    """Worst-case (cosine, rel_l2) across the sample tensors."""
    worst_cos = 1.0
    worst_l2 = 0.0
    for g in grads:
        restored = comp.roundtrip(g)
        x = g.ravel().astype(np.float64)
        y = restored.ravel().astype(np.float64)
        nx = np.linalg.norm(x)
        if nx == 0:
            continue
        ny = np.linalg.norm(y)
        worst_cos = min(worst_cos, float(x @ y / (nx * ny)) if ny > 0 else 0.0)
        worst_l2 = max(worst_l2, float(np.linalg.norm(y - x) / nx))
    return worst_cos, worst_l2


def _ratio(grads: list[np.ndarray], comp: CompsoCompressor) -> float:
    total = sum(g.nbytes for g in grads)
    wire = sum(comp.compress(g).nbytes for g in grads)
    return total / wire


def autotune_bounds(
    grads: list[np.ndarray],
    *,
    budget: FidelityBudget | None = None,
    encoder: str = "ans",
    seed: int = 0,
) -> TuneResult:
    """Search (eb_f, eb_q) maximising CR under the fidelity budget.

    For each candidate filter bound, binary-search the largest feasible
    quantisation bound in ``_EB_Q_RANGE`` (feasibility is monotone in
    eb_q for fixed eb_f) and record the achieved ratio; return the best
    feasible pair.  Raises ``ValueError`` if even the tightest probe is
    infeasible — the budget is unachievable on this data.
    """
    if not grads:
        raise ValueError("autotune_bounds needs at least one sample gradient")
    budget = budget if budget is not None else FidelityBudget()
    lo_q, hi_q = _EB_Q_RANGE
    trace: list[tuple[float, float, float, bool]] = []
    best: TuneResult | None = None
    for eb_f in _EB_F_GRID:
        # Feasibility at the tight end: if the tightest eb_q already
        # violates the budget, this filter bound is too aggressive.
        comp = CompsoCompressor(eb_f, lo_q, encoder=encoder, seed=seed)
        if not budget.admits(*_fidelity(grads, comp)):
            trace.append((eb_f, lo_q, 0.0, False))
            continue
        lo, hi = lo_q, hi_q
        best_q = lo_q
        for _ in range(_REFINE_STEPS):
            mid = float(np.sqrt(lo * hi))  # geometric bisection
            comp = CompsoCompressor(eb_f, mid, encoder=encoder, seed=seed)
            ok = budget.admits(*_fidelity(grads, comp))
            trace.append((eb_f, mid, 0.0, ok))
            if ok:
                best_q = mid
                lo = mid
            else:
                hi = mid
        comp = CompsoCompressor(eb_f, best_q, encoder=encoder, seed=seed)
        ratio = _ratio(grads, comp)
        cos, l2 = _fidelity(grads, comp)
        trace.append((eb_f, best_q, ratio, True))
        if best is None or ratio > best.ratio:
            best = TuneResult(eb_f, best_q, ratio, cos, l2, trace)
    if best is None:
        raise ValueError(
            "fidelity budget unachievable even at the tightest bounds; "
            f"min_cosine={budget.min_cosine}, max_rel_l2={budget.max_rel_l2}"
        )
    best.trace = trace
    return best
