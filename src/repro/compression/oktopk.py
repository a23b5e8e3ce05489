"""Ok-topk-style threshold sparsification (Li & Hoefler, PPoPP'22).

The related-work sparsifier the paper contrasts COMPSO with: Ok-topk
keeps a near-optimal sparse allreduce by estimating the global top-k
*threshold* once and re-estimating it only periodically, instead of
selecting exact top-k every iteration.  Between re-estimations the
threshold is fixed — which is precisely the "fixed error bound across
all iterations" behaviour section 4.3 contrasts with COMPSO's
LR-adaptive bounds.

This implementation keeps the per-tensor semantics: a magnitude
threshold is fitted to hit the target density from a value sample, then
reused for ``_REESTIMATE_EVERY`` calls with a multiplicative correction
when the realised density drifts.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor
from repro.compression.topk import TopKCompressor
from repro.util.bitpack import pack_bitmap
from repro.util.seeding import restore_rng_state, rng_state_array, spawn_rng

__all__ = ["OkTopkCompressor"]

#: Calls between two threshold estimates.
_REESTIMATE_EVERY = 32
#: Magnitudes sampled per estimate.
_SAMPLE_SIZE = 4096


class OkTopkCompressor(GradientCompressor):
    """Threshold sparsifier with periodic threshold re-estimation."""

    def __init__(
        self,
        density: float = 0.05,
        *,
        seed: int | np.random.Generator | None = 0,
    ):
        if not 0 < density <= 1:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = density
        self.name = f"oktopk-{density:g}"
        self._rng = spawn_rng(seed)
        self._threshold: float | None = None
        self._calls = 0

    def _estimate_threshold(self, mags: np.ndarray) -> float:
        n = mags.size
        sample = mags if n <= _SAMPLE_SIZE else self._rng.choice(mags, _SAMPLE_SIZE)
        return float(np.quantile(sample, 1.0 - self.density))

    def compress(self, x: np.ndarray) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        flat = x.ravel()
        mags = np.abs(flat)
        if not flat.size:
            # Nothing to sample: the threshold, the call count and the
            # generator stay as they are.
            return CompressedTensor({"bitmap": pack_bitmap(mags > 0), "values": b""},
                                    x.shape, meta={"k": 0})
        if self._threshold is None or self._calls % _REESTIMATE_EVERY == 0:
            self._threshold = self._estimate_threshold(mags)
        self._calls += 1
        mask = mags >= self._threshold
        realised = mask.mean()
        # Drift detection: when the stale threshold badly misses the
        # target density (value scale shifted), re-estimate immediately —
        # the same trigger-based refresh Ok-topk uses.
        if realised > 2 * self.density and self._threshold >= 0:
            self._threshold = self._estimate_threshold(mags)
            mask = mags >= self._threshold
        return CompressedTensor(
            {"bitmap": pack_bitmap(mask), "values": flat[mask].tobytes()},
            x.shape,
            meta={"k": int(mask.sum()), "threshold": float(self._threshold)},
        )

    #: Same wire layout as exact top-k: a bitmap and the surviving values.
    decompress = TopKCompressor.decompress

    def state_dict(self) -> dict[str, np.ndarray]:
        # An empty threshold array is "not estimated yet".
        threshold = [] if self._threshold is None else [self._threshold]
        return {
            "threshold": np.array(threshold, dtype=np.float64),
            "calls": np.array(self._calls),
            "rng": rng_state_array(self._rng),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "threshold" in state:
            threshold = state["threshold"]
            self._threshold = float(threshold[0]) if threshold.size else None
            self._calls = int(state["calls"])
        if "rng" in state:
            restore_rng_state(self._rng, state["rng"])

    def reset(self) -> None:
        """Forget the threshold estimate.  There is no error-compensation
        state to drop, so this is also the contract's neutral answer."""
        self._threshold = None
        self._calls = 0
