"""Training-health detector: rolling-window loss/grad-norm verdicts.

The detector watches the two scalars every training loop already has —
per-iteration loss and global gradient norm — and turns them into
discrete verdicts the policy engine can act on:

* ``loss_nan`` — the loss itself went non-finite (the run is actively
  corrupting state; every iteration applied from here is wasted);
* ``loss_spike`` — loss jumped far above its recent median, the classic
  signature of a poisoned update or an error bound that became unsafe
  as training tightened (the paper's Alg. 1 rationale);
* ``grad_spike`` — gradient norm exploded relative to its window.

Pure observation: ``observe`` never mutates training state and consumes
no randomness, so an always-healthy guarded run is bit-identical to an
unguarded one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

__all__ = ["HealthReport", "DivergenceDetector"]


@dataclass
class HealthReport:
    """Per-iteration health verdicts for one training step."""

    iteration: int
    loss: float
    grad_norm: float
    verdicts: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.verdicts


#: Steps in each rolling baseline window.
_WINDOW = 8
#: Finite observations folded in before a spike verdict may fire.
_WARMUP = 3
#: A loss above this multiple of its window's median is a ``loss_spike``.
_SPIKE_FACTOR = 3.0
#: A gradient norm above this multiple of its window's median is a ``grad_spike``.
_GRAD_SPIKE_FACTOR = 10.0


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


class DivergenceDetector:
    """Rolling windows over loss and gradient norm with spike verdicts."""

    def __init__(self):
        self._losses: deque[float] = deque(maxlen=_WINDOW)
        self._grads: deque[float] = deque(maxlen=_WINDOW)

    def observe(self, iteration: int, loss: float, grad_norm: float) -> HealthReport:
        """Fold one step's scalars in; return the verdicts they trigger.

        Non-finite observations are *not* folded into the windows — a
        single NaN would otherwise poison the median and mute every
        later spike verdict.
        """
        report = HealthReport(int(iteration), float(loss), float(grad_norm))
        if not math.isfinite(report.loss):
            report.verdicts.append("loss_nan")
        if not math.isfinite(report.grad_norm):
            report.verdicts.append("grad_spike")
            report.detail["grad_norm"] = report.grad_norm
        if report.verdicts:
            return report

        if len(self._losses) >= _WARMUP:
            med = _median(list(self._losses))
            if med > 0 and report.loss > _SPIKE_FACTOR * med:
                report.verdicts.append("loss_spike")
                report.detail["loss_over_median"] = report.loss / med
            gmed = _median(list(self._grads))
            if gmed > 0 and report.grad_norm > _GRAD_SPIKE_FACTOR * gmed:
                report.verdicts.append("grad_spike")
                report.detail["grad_over_median"] = report.grad_norm / gmed

        # Spiky steps stay out of the baseline windows too: a divergence
        # burst must not ratchet the median up and normalise itself.
        if "loss_spike" not in report.verdicts:
            self._losses.append(report.loss)
        if "grad_spike" not in report.verdicts:
            self._grads.append(report.grad_norm)
        return report
