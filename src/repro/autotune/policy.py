"""Hysteresis policy: when the controller is *allowed* to move.

Separated from the controller so the thrash-prevention rules are one
small, testable object: a warmup before the first decision (the cost
model needs observations), a minimum dwell between moves (a retune
invalidates the very signals that justified it — give the new config
time to show up in the clock), and a relative-improvement threshold
(predictions are estimates; only act on margins that survive noise).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HysteresisPolicy"]


@dataclass(frozen=True)
class HysteresisPolicy:
    """Bounded-hysteresis gate for retune decisions."""

    #: Steps before the first decision may fire.
    warmup: int = 2
    #: Minimum steps between configuration changes.
    min_dwell: int = 3
    #: Required relative predicted improvement, 0.1 = 10% (a class
    #: constant, not a field: no run chooses it).
    min_improvement = 0.1

    def __post_init__(self):
        if self.warmup < 0 or self.min_dwell < 1:
            raise ValueError(
                f"warmup must be >= 0 and min_dwell >= 1, got "
                f"warmup={self.warmup}, min_dwell={self.min_dwell}"
            )

    def ready(self, step: int, last_change: int) -> bool:
        """May a decision fire at ``step``? ``last_change`` < 0 = never moved."""
        if step < self.warmup:
            return False
        return last_change < 0 or step - last_change >= self.min_dwell

    def should_switch(self, t_active: float, t_best: float) -> bool:
        """Is the best candidate's predicted win past the hysteresis band?"""
        return t_best < t_active * (1.0 - self.min_improvement)
