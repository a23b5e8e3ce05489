"""Learning-rate schedules.

The paper's adaptive compression keys off the LR schedule family; a
**StepLR** schedule (ResNet-50 / Mask R-CNN) decays at fixed milestones,
and ``lr_at(iteration)`` lets the compression schedule and the optimizer
share one source of truth.  The **SmoothLR** family needs no LR object:
``repro.core.adaptive.SmoothLrSchedule`` stages its bounds by iteration.
"""

from __future__ import annotations

__all__ = ["StepLr"]


class StepLr:
    """Multiply the base LR by ``gamma`` at each milestone iteration."""

    def __init__(self, base_lr: float, milestones: list[int], gamma: float = 0.1):
        if sorted(milestones) != list(milestones):
            raise ValueError("milestones must be increasing")
        self.base_lr = base_lr
        self.milestones = list(milestones)
        self.gamma = gamma

    def lr_at(self, iteration: int) -> float:
        drops = sum(1 for m in self.milestones if iteration >= m)
        return self.base_lr * self.gamma**drops
