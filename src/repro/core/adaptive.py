"""Iteration-wise adaptive compression (paper Algorithm 1, lines 5-24).

The schedule moves from *aggressive* (filter + SR, loose bounds) early in
training — when the running-average K-FAC factors are still noisy and the
effective learning rate makes iterations error-tolerant — to
*conservative* (SR-only and/or tighter bounds) as training approaches
convergence.  Two variants mirror the two LR-scheduler families:

* **StepLR** — loose bounds until the first LR drop, tight after
  (ResNet-50 / Mask R-CNN configuration in section 5.1).
* **SmoothLR** — training is cut into ``z`` equal stages; stage 0 uses
  the loose bounds, each later stage multiplies both bounds by the decay
  factor ``alpha`` (BERT / GPT cosine-LR configuration).

`AdaptiveCompso` composes a schedule with a :class:`CompsoCompressor`,
updating bounds at each ``step()``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.compression.base import Bounds, CompressedTensor, GradientCompressor
from repro.core.compso import CompsoCompressor

__all__ = ["Bounds", "StepLrSchedule", "SmoothLrSchedule", "AdaptiveCompso"]

#: The aggressive stage's bounds (filter + SR at 4E-3), both schedules' first.
_LOOSE = Bounds(4e-3, 4e-3)
#: StepLR's conservative stage: SR only.
_TIGHT = Bounds(0.0, 4e-3)
#: SmoothLR never decays the SR bound below this.
_MIN_EB = 1e-5
#: :meth:`AdaptiveCompso.degrade`'s near-lossless mode: filter off, tight SR.
_FALLBACK = Bounds(0.0, 1e-4)


class StepLrSchedule:
    """Aggressive until the first LR drop, conservative afterwards."""

    def __init__(self, first_lr_drop: int):
        if first_lr_drop < 0:
            raise ValueError("first_lr_drop must be >= 0")
        self.first_lr_drop = first_lr_drop

    def bounds_at(self, iteration: int) -> Bounds:
        return _LOOSE if iteration < self.first_lr_drop else _TIGHT


class SmoothLrSchedule:
    """``z`` equal stages; bounds decay by ``alpha`` per stage after stage 0."""

    def __init__(self, total_iterations: int, z: int = 4, *, alpha: float = 0.5):
        if total_iterations <= 0:
            raise ValueError("total_iterations must be positive")
        if z <= 0:
            raise ValueError("z must be positive")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.total_iterations = total_iterations
        self.z = z
        self.alpha = alpha
        self.stage_length = math.ceil(total_iterations / z)

    def stage_at(self, iteration: int) -> int:
        return min(iteration // self.stage_length, self.z - 1)

    def bounds_at(self, iteration: int) -> Bounds:
        stage = self.stage_at(iteration)
        decay = self.alpha**stage
        # The filter is only active in the aggressive (first) stage; later
        # stages tighten the SR bound, matching the paper's 4E-3 -> 2E-3
        # staged refinement on BERT-large.
        eb_q = max(_LOOSE.eb_q * decay, _MIN_EB)
        eb_f = _LOOSE.eb_f if stage == 0 else 0.0
        return Bounds(eb_f, eb_q)


class AdaptiveCompso(GradientCompressor):
    """COMPSO with the iteration-wise adaptive bound schedule attached.

    Also the home of COMPSO's *graceful degradation* path: when the
    fault-tolerance layer detects payload corruption, or an error-
    feedback residual norm explodes, :meth:`degrade` drops to a
    conservative near-lossless mode (filter off, tight SR bound) for a
    few iterations, then the adaptive schedule re-tightens control.
    """

    def __init__(
        self,
        schedule: StepLrSchedule | SmoothLrSchedule,
        *,
        encoder: str = "ans",
        seed: int | np.random.Generator | None = 0,
    ):
        self.schedule = schedule
        self.inner = CompsoCompressor(encoder=encoder, seed=seed)
        self.iteration = 0
        self._degraded_until = 0
        self.name = f"compso-adaptive-{encoder}"
        self._apply(0)

    def _apply(self, iteration: int) -> Bounds:
        if iteration < self._degraded_until:
            scheduled = self.schedule.bounds_at(iteration)
            b = Bounds(_FALLBACK.eb_f, min(_FALLBACK.eb_q, scheduled.eb_q))
        else:
            b = self.schedule.bounds_at(iteration)
        # eb_f == 0 disables filtering inside CompsoCompressor.
        self.inner.set_bounds(b.eb_f, b.eb_q)
        return b

    def step(self) -> Bounds:
        """Advance to the next iteration; returns the new bounds."""
        self.iteration += 1
        return self._apply(self.iteration)

    def degrade(self, iterations: int = 2) -> Bounds:
        """Fall back to the conservative bounds for the next ``iterations``.

        Called by the fault-tolerance layer on detected corruption or an
        exploding error-feedback residual.  Takes effect immediately and
        lapses on its own: once the window passes, ``step()`` re-applies
        the scheduled (adaptive) bounds.
        """
        if iterations < 1:
            raise ValueError("degrade window must be >= 1 iteration")
        self._degraded_until = max(self._degraded_until, self.iteration + iterations)
        return self._apply(self.iteration)

    @property
    def degraded(self) -> bool:
        return self.iteration < self._degraded_until

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            "iteration": np.array(self.iteration),
            "degraded_until": np.array(self._degraded_until),
            **self.inner.state_dict(),
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        # Schedule position first, bounds re-derived from it, and only then
        # the inner's saved bounds (an autotuned override) and generator.
        if "iteration" in state:
            self.iteration = int(state["iteration"])
            if "degraded_until" in state:
                self._degraded_until = int(state["degraded_until"])
            self._apply(self.iteration)
        self.inner.load_state_dict(state)

    def compress(self, x: np.ndarray) -> CompressedTensor:
        return self.inner.compress(x)

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        return self.inner.decompress(ct)

    def compress_each(self, tensors: list[np.ndarray]) -> list[CompressedTensor]:
        return self.inner.compress_each(tensors)

    def decompress_each(self, cts: list[CompressedTensor]) -> list[np.ndarray]:
        return self.inner.decompress_each(cts)

    def compress_many(self, tensors: list[np.ndarray]) -> CompressedTensor:
        return self.inner.compress_many(tensors)

    def decompress_many(self, ct: CompressedTensor) -> list[np.ndarray]:
        return self.inner.decompress_many(ct)

    def group_nbytes(self, tensors: list[np.ndarray]) -> int:
        return self.inner.group_nbytes(tensors)
