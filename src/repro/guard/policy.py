"""Self-healing policy engine: verdicts -> ordered remediations.

The policy layer is declarative: a rule table maps each verdict kind
(emitted by the sentinels and the divergence detector) to an *ordered*
list of remediations, mildest first.  When a verdict fires, the engine
walks the list and applies the first remediation that is applicable and
not cooling down; a verdict that keeps recurring escalates down its
list (tighten bounds, then trip the breaker, then roll back).

Remediations, in escalation order of severity:

* ``tighten_bounds`` — drop the adaptive compressor to its conservative
  near-lossless bounds for a few iterations
  (:meth:`~repro.core.adaptive.AdaptiveCompso.degrade`);
* ``reset_ef`` — clear an error-feedback wrapper's residual state;
* ``trip_breaker`` — open the compression :class:`CircuitBreaker`:
  payloads travel lossless/uncompressed until a cool-down passes, then a
  half-open probe re-enables compression after consecutive clean
  iterations;
* ``escalate_damping`` — multiply K-FAC damping (capped), stabilising
  the preconditioner against noisy factors;
* ``rollback`` — ``trainer.restore_latest()``, the last resort once
  parameters are already poisoned: it walks the trainer's
  :class:`repro.store.CheckpointStore` generation lineage (newest
  *verified* generation wins; corrupt ones are quarantined) and is
  skipped when there is no generation to restore.  The action's detail
  names the generation and its step, never a file path, so a rollback
  reads the same on every run.

Every applied action is appended to the engine's ``timeline``, counted
as ``guard.remediations`` on the metrics registry, and recorded as a
zero-duration ``guard_event`` span on the simulated timeline so the
remediation history is reconcilable in the Chrome-trace export.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "GuardContext",
    "GuardAction",
    "PolicyEngine",
    "DEFAULT_RULES",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Compression circuit breaker: closed -> open -> half-open -> closed.

    * **closed** — compression enabled (normal operation);
    * **open** — compression bypassed (lossless payloads) for
      ``cooldown`` iterations after a trip;
    * **half-open** — compression re-enabled on probation; ``reclose_after``
      consecutive clean iterations close the breaker, any dirty
      iteration re-opens it immediately.

    State advances at iteration boundaries via :meth:`end_iteration`;
    every transition is recorded in :attr:`transitions`.
    """

    #: Iterations the breaker stays open after a trip.
    cooldown = 3
    #: Consecutive clean half-open iterations that close it again.
    reclose_after = 2

    def __init__(self):
        self.state = BREAKER_CLOSED
        self.trips = 0
        #: (iteration, from_state, to_state) history.
        self.transitions: list[tuple[int, str, str]] = []
        self._open_remaining = 0
        self._good_streak = 0

    @property
    def allows_compression(self) -> bool:
        return self.state != BREAKER_OPEN

    def _move(self, iteration: int, to_state: str) -> None:
        if to_state != self.state:
            self.transitions.append((int(iteration), self.state, to_state))
            self.state = to_state

    def trip(self, iteration: int) -> bool:
        """Open the breaker; returns False if it was already open."""
        if self.state == BREAKER_OPEN:
            self._open_remaining = self.cooldown  # re-arm the cool-down
            return False
        self.trips += 1
        self._open_remaining = self.cooldown
        self._good_streak = 0
        self._move(iteration, BREAKER_OPEN)
        return True

    def end_iteration(self, iteration: int, *, clean: bool) -> None:
        """Advance breaker state at an iteration boundary."""
        if self.state == BREAKER_OPEN:
            self._open_remaining -= 1
            if self._open_remaining <= 0:
                self._good_streak = 0
                self._move(iteration, BREAKER_HALF_OPEN)
        elif self.state == BREAKER_HALF_OPEN:
            if not clean:
                self.trips += 1
                self._open_remaining = self.cooldown
                self._good_streak = 0
                self._move(iteration, BREAKER_OPEN)
            else:
                self._good_streak += 1
                if self._good_streak >= self.reclose_after:
                    self._move(iteration, BREAKER_CLOSED)


@dataclass
class GuardContext:
    """Handles the remediations act on; unavailable ones are skipped."""

    compressor: object | None = None
    kfac: object | None = None
    trainer: object | None = None


@dataclass
class GuardAction:
    """One applied remediation in the timeline."""

    iteration: int
    verdict: str
    action: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "verdict": self.verdict,
            "action": self.action,
            "detail": dict(self.detail),
        }


#: Iterations a ``tighten_bounds`` remediation holds the conservative bounds.
_DEGRADE_ITERATIONS = 3
#: ``escalate_damping`` multiplies K-FAC's damping by this, up to the cap
#: factor times the damping it first saw.
_DAMPING_FACTOR = 10.0
_DAMPING_CAP_FACTOR = 1e4
#: Iterations before the same (verdict, action) may fire again.
_ACTION_COOLDOWN = 2

#: Verdict kind -> ordered remediations (mildest first).
DEFAULT_RULES: dict[str, tuple[str, ...]] = {
    "nonfinite_payload": ("tighten_bounds", "trip_breaker"),
    "decode_failure": ("trip_breaker", "rollback"),
    "contract_violation": ("tighten_bounds", "trip_breaker"),
    "ef_residual": ("reset_ef", "tighten_bounds"),
    "eigh_retry": ("escalate_damping",),
    "loss_spike": ("tighten_bounds", "escalate_damping", "rollback"),
    "grad_spike": ("tighten_bounds", "trip_breaker", "rollback"),
    "loss_nan": ("rollback", "trip_breaker"),
}


class PolicyEngine:
    """Applies the rule table; owns the breaker and the action timeline."""

    def __init__(self, breaker: CircuitBreaker):
        self.breaker = breaker
        self.timeline: list[GuardAction] = []
        #: (verdict, action) -> iteration it last fired, for cool-downs.
        self._last_fired: dict[tuple[str, str], int] = {}
        self._initial_damping: float | None = None

    # -- remediation implementations ----------------------------------------

    def _apply_tighten_bounds(self, ctx: GuardContext) -> dict | None:
        if ctx.compressor is None:
            return None
        bounds = ctx.compressor.degrade(_DEGRADE_ITERATIONS)
        if bounds is None:
            return None
        return {"iterations": _DEGRADE_ITERATIONS, "eb_f": bounds.eb_f, "eb_q": bounds.eb_q}

    def _apply_reset_ef(self, ctx: GuardContext) -> dict | None:
        if ctx.compressor is None or ctx.compressor.reset() is None:
            return None
        return {}

    def _apply_trip_breaker(self, ctx: GuardContext, iteration: int) -> dict | None:
        if ctx.compressor is None:
            return None
        if not self.breaker.trip(iteration):
            return None
        return {"cooldown": self.breaker.cooldown}

    def _apply_escalate_damping(self, ctx: GuardContext) -> dict | None:
        kfac = ctx.kfac
        if kfac is None:
            return None
        if self._initial_damping is None:
            self._initial_damping = float(kfac.damping)
        cap = self._initial_damping * _DAMPING_CAP_FACTOR
        if kfac.damping >= cap:
            return None
        before = float(kfac.damping)
        kfac.damping = min(before * _DAMPING_FACTOR, cap)
        return {"from": before, "to": float(kfac.damping)}

    def _apply_rollback(self, ctx: GuardContext) -> dict | None:
        # A corrupt newest generation falls back to the newest *verified*
        # one instead of failing the remediation (the store quarantines
        # the damage and records store events).
        gen = None if ctx.trainer is None else ctx.trainer.restore_latest()
        if gen is None:
            return None
        return {"generation": gen.gen, "step": gen.step}

    # -- the dispatch loop ----------------------------------------------------

    def handle(
        self, verdict: str, detail: dict, ctx: GuardContext, iteration: int
    ) -> GuardAction | None:
        """Walk ``verdict``'s remediation list; apply the first that takes.

        A remediation is skipped when its handle is unavailable in
        ``ctx`` (no compressor to degrade, no checkpoint to roll back
        to) or when it already fired for this verdict within
        ``_ACTION_COOLDOWN`` iterations — recurrence then escalates to
        the next entry instead of re-spamming the same fix.
        """
        for action in DEFAULT_RULES.get(verdict, ()):
            last = self._last_fired.get((verdict, action))
            if last is not None and iteration - last < _ACTION_COOLDOWN:
                continue
            if action == "tighten_bounds":
                applied = self._apply_tighten_bounds(ctx)
            elif action == "reset_ef":
                applied = self._apply_reset_ef(ctx)
            elif action == "trip_breaker":
                applied = self._apply_trip_breaker(ctx, iteration)
            elif action == "escalate_damping":
                applied = self._apply_escalate_damping(ctx)
            elif action == "rollback":
                applied = self._apply_rollback(ctx)
            else:
                raise ValueError(f"unknown remediation {action!r} for verdict {verdict!r}")
            if applied is None:
                continue
            self._last_fired[(verdict, action)] = iteration
            record = GuardAction(int(iteration), verdict, action, {**detail, **applied})
            self.timeline.append(record)
            return record
        return None
