"""The guard facade: sentinels + detector + policy behind one object.

:class:`GuardConfig` is the single user-facing knob surface; trainers
accept ``guard=GuardConfig(...)`` (or a prebuilt :class:`Guard`) and
call into the facade at the few points where numerical health can go
wrong: payload arrival, decompression, the error-bound contract, the
eigendecomposition, and the end-of-step loss/grad-norm observation.

Everything the guard does is observable: each verdict increments
``guard.verdicts`` (labelled by kind), each remediation increments
``guard.remediations`` (labelled by action), and both are stamped onto
the simulated timeline as zero-duration ``guard_event`` spans, so the
full remediation history reconciles against the Chrome-trace export.

The disabled/healthy paths are bit-identical to an unguarded run: no
sentinel consumes randomness, the contract check compares tensors the
step already produced (it never re-compresses), and the breaker only
changes the data path after a verdict has fired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.guard.health import DivergenceDetector, HealthReport
from repro.guard.policy import BREAKER_CLOSED, CircuitBreaker, GuardContext, PolicyEngine
from repro.guard.sentinels import contract_error, scan_tensor
from repro.guard.sentinels import safe_eigen as _safe_eigen
from repro.guard.watchdog import CollectiveWatchdog
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer

__all__ = ["GuardConfig", "Guard", "as_guard"]


@dataclass
class GuardConfig:
    """Declarative guard configuration (every sentinel can be tuned off).

    The defaults arm the numerical sentinels and the divergence detector
    with conservative thresholds; the watchdog stays off unless a
    deadline is given (it needs a :class:`StreamRuntime` to attach to).
    """

    # scan_tensor sentinel on arriving payloads
    scan_payloads: bool = True
    abs_limit: float = 1e6
    # error-bound contract verification (0 disables; N = check every Nth
    # iteration — it is a full-tensor comparison, so sampling keeps the
    # guard overhead sub-linear)
    contract_check_every: int = 1
    contract_slack: float = 1.25
    # error-feedback residual guard (None disables)
    ef_residual_limit: float | None = None
    # divergence detector
    window: int = 8
    warmup: int = 3
    spike_factor: float = 3.0
    grad_spike_factor: float = 10.0
    plateau_window: int = 0
    plateau_tol: float = 1e-3
    # circuit breaker
    breaker_cooldown: int = 3
    breaker_reclose_after: int = 2
    # K-FAC eigendecomposition retries
    eigen_max_retries: int = 3
    eigen_jitter: float = 1e-6
    # collective watchdog (None disables)
    watchdog_deadline: float | None = None
    watchdog_max_retries: int = 2
    # policy engine
    rules: dict[str, tuple[str, ...]] | None = None
    action_cooldown: int = 2
    degrade_iterations: int = 3
    damping_factor: float = 10.0

    def build(self) -> "Guard":
        return Guard(self)


class Guard:
    """Runtime guard instance: owns the detector, breaker, and policy."""

    def __init__(self, config: GuardConfig | None = None):
        self.config = config if config is not None else GuardConfig()
        c = self.config
        self.detector = DivergenceDetector(
            window=c.window,
            warmup=c.warmup,
            spike_factor=c.spike_factor,
            grad_spike_factor=c.grad_spike_factor,
            plateau_window=c.plateau_window,
            plateau_tol=c.plateau_tol,
        )
        self.breaker = CircuitBreaker(
            cooldown=c.breaker_cooldown, reclose_after=c.breaker_reclose_after
        )
        self.policy = PolicyEngine(
            self.breaker,
            rules=c.rules,
            degrade_iterations=c.degrade_iterations,
            damping_factor=c.damping_factor,
            action_cooldown=c.action_cooldown,
        )
        self.ctx = GuardContext()
        self.watchdog: CollectiveWatchdog | None = None
        self.verdict_counts: dict[str, int] = {}
        self.reports: list[HealthReport] = []
        self._iteration = 0
        self._step_dirty = False

    # -- wiring ----------------------------------------------------------------

    def bind(self, *, compressor=None, kfac=None, trainer=None, cluster=None) -> "Guard":
        """Attach the handles remediations act on (None leaves as-is)."""
        if compressor is not None:
            self.ctx.compressor = compressor
        if kfac is not None:
            self.ctx.kfac = kfac
        if trainer is not None:
            self.ctx.trainer = trainer
        if cluster is not None:
            self.ctx.cluster = cluster
        return self

    def attach_runtime(self, runtime) -> None:
        """Install the collective watchdog on a StreamRuntime, if armed."""
        if runtime is None or self.config.watchdog_deadline is None:
            return
        if self.watchdog is None:
            self.watchdog = CollectiveWatchdog(
                deadline_seconds=self.config.watchdog_deadline,
                max_retries=self.config.watchdog_max_retries,
            )
        runtime.watchdog = self.watchdog

    # -- verdict plumbing ------------------------------------------------------

    def _now(self) -> float:
        cluster = self.ctx.cluster
        return float(cluster.time) if cluster is not None else 0.0

    def _emit(self, verdict: str, detail: dict) -> None:
        """Record a verdict and hand it to the policy engine."""
        self._step_dirty = True
        self.verdict_counts[verdict] = self.verdict_counts.get(verdict, 0) + 1
        m = get_metrics()
        if m.enabled:
            m.counter("guard.verdicts", kind=verdict).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                f"verdict:{verdict}",
                "guard_event",
                0.0,
                start=self._now(),
                track=SIM_TRACK,
                iteration=self._iteration,
                **{k: v for k, v in detail.items() if isinstance(v, (int, float, str))},
            )
        action = self.policy.handle(verdict, detail, self.ctx, self._iteration)
        if action is None:
            return
        if m.enabled:
            m.counter("guard.remediations", action=action.action).inc()
        if tracer.enabled:
            tracer.add_span(
                f"remediate:{action.action}",
                "guard_event",
                0.0,
                start=self._now(),
                track=SIM_TRACK,
                iteration=self._iteration,
                verdict=verdict,
            )

    # -- per-step hooks --------------------------------------------------------

    def begin_step(self, iteration: int) -> None:
        self._iteration = int(iteration)
        self._step_dirty = False

    def active(self, compressor):
        """The compressor the step should use: None while the breaker is open."""
        if compressor is None or self.breaker.allows_compression:
            return compressor
        m = get_metrics()
        if m.enabled:
            m.counter("guard.bypass").inc()
        return None

    def autotune_veto(self) -> bool:
        """Breaker-based veto for the online autotuner (repro.autotune).

        While the circuit breaker is anywhere but fully closed —
        including the half-open probation window — the autotuner must
        not retune: the breaker owns the data path until the stack has
        proven clean again, and a controller chasing throughput mid-
        remediation would fight it.  Closed-loop decisions live outside
        the policy engine but defer to it through this one predicate
        (DESIGN.md decision 10).
        """
        return self.breaker.state != BREAKER_CLOSED

    def scan(self, flat: np.ndarray, *, what: str = "gradient") -> np.ndarray:
        """NaN/Inf + magnitude sentinel; returns the (possibly scrubbed) tensor."""
        if not self.config.scan_payloads:
            return flat
        result = scan_tensor(flat, abs_limit=self.config.abs_limit)
        if not result.clean:
            self._emit(
                "nonfinite_payload",
                {
                    "what": what,
                    "n_nonfinite": result.n_nonfinite,
                    "n_oversized": result.n_oversized,
                },
            )
        return result.values

    def safe_decompress(self, compressor, ct, *, layer: int):
        """Decompress; a decode blow-up becomes a verdict, not a crash.

        Returns None when decoding failed — the caller drops that
        payload (a zero update for the layer) and the policy engine has
        already reacted (typically by tripping the breaker).
        """
        try:
            return compressor.decompress(ct)
        except Exception as exc:  # noqa: BLE001 — any decode failure is the verdict
            self._emit(
                "decode_failure", {"layer": layer, "error": f"{type(exc).__name__}: {exc}"}
            )
            return None

    def check_contract(self, original: np.ndarray, decoded, compressor, *, layer: int) -> None:
        """Verify the error-bound contract on an (original, decoded) pair."""
        every = self.config.contract_check_every
        if not every or decoded is None or self._iteration % every:
            return
        ratio = contract_error(
            original, decoded, compressor, slack=self.config.contract_slack
        )
        if ratio is not None:
            self._emit("contract_violation", {"layer": layer, "error_over_bound": ratio})

    def check_ef(self, compressor) -> None:
        """Error-feedback residual-norm sentinel."""
        limit = self.config.ef_residual_limit
        if limit is None:
            return
        value = None if compressor is None else compressor.residual_norm()
        if value is not None and value > limit:
            self._emit("ef_residual", {"residual_norm": value, "limit": limit})

    def safe_eigen(self, kfac, idx: int) -> None:
        """Guarded eigendecomposition with escalating-damping retries."""
        attempts = _safe_eigen(
            kfac,
            idx,
            max_retries=self.config.eigen_max_retries,
            jitter=self.config.eigen_jitter,
        )
        if attempts:
            self._emit("eigh_retry", {"layer": idx, "attempts": attempts})

    def end_step(self, *, loss: float, grad_norm: float) -> HealthReport:
        """Close the iteration: divergence verdicts, breaker state advance."""
        report = self.detector.observe(self._iteration, loss, grad_norm)
        self.reports.append(report)
        for verdict in report.verdicts:
            self._emit(verdict, dict(report.detail))
        before = self.breaker.state
        self.breaker.end_iteration(self._iteration, clean=not self._step_dirty)
        if self.breaker.state != before:
            m = get_metrics()
            if m.enabled:
                m.counter(
                    "guard.breaker_transitions",
                    frm=before,
                    to=self.breaker.state,
                ).inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    f"breaker:{before}->{self.breaker.state}",
                    "guard_event",
                    0.0,
                    start=self._now(),
                    track=SIM_TRACK,
                    iteration=self._iteration,
                )
        return report

    # -- reporting -------------------------------------------------------------

    @property
    def timeline(self):
        return self.policy.timeline

    def report(self) -> dict:
        """JSON-friendly summary of everything the guard saw and did."""
        out = {
            "verdicts": dict(self.verdict_counts),
            "remediations": [a.to_dict() for a in self.timeline],
            "breaker": {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
                "transitions": [list(tr) for tr in self.breaker.transitions],
            },
        }
        if self.watchdog is not None:
            out["watchdog"] = {
                "retries": self.watchdog.retries,
                "timeouts": self.watchdog.timeouts,
                "events": list(self.watchdog.events),
            }
        return out


def as_guard(guard: "GuardConfig | Guard | None") -> Guard | None:
    """Normalise a trainer's ``guard=`` argument to a Guard instance."""
    if guard is None:
        return None
    if isinstance(guard, GuardConfig):
        return guard.build()
    return guard
