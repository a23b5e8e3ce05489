"""The guard facade: sentinels + detector + policy behind one object.

:class:`GuardConfig` is the single user-facing knob surface; trainers
accept ``guard=GuardConfig(...)`` and call into the facade at the few
points where numerical health can go wrong: payload arrival,
decompression, the error-bound contract, the eigendecomposition, and
the end-of-step loss/grad-norm observation.

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

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.guard.health import DivergenceDetector, HealthReport
from repro.guard.policy import BREAKER_CLOSED, CircuitBreaker, GuardContext, PolicyEngine
from repro.guard.sentinels import contract_error, scan_tensor
from repro.guard.sentinels import safe_eigen as _safe_eigen
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer

__all__ = ["GuardConfig", "Guard"]


@dataclass
class GuardConfig:
    """Turns the guard on.  No run chooses a threshold, so it has no
    fields: each one is a constant of the class that uses it
    (:class:`DivergenceDetector`, :class:`CircuitBreaker`,
    :class:`PolicyEngine`, :func:`scan_tensor`, :func:`safe_eigen`,
    :func:`contract_error`)."""

    def build(self, trainer) -> "Guard":
        return Guard(trainer)


class Guard:
    """Runtime guard of one trainer: owns the detector, breaker, and
    policy; its remediations act on the trainer's compressor, K-FAC
    state and checkpoints."""

    def __init__(self, trainer):
        self.detector = DivergenceDetector()
        self.breaker = CircuitBreaker()
        self.policy = PolicyEngine(self.breaker)
        self.ctx = GuardContext(compressor=trainer.compressor, kfac=trainer.kfac, trainer=trainer)
        self.verdict_counts: dict[str, int] = {}
        self.reports: list[HealthReport] = []
        self._cluster = trainer.cluster
        #: Sim time the verdicts emitted now are stamped at (:meth:`at`).
        self._stamp: float | None = None
        self._iteration = 0
        self._step_dirty = False
        self._event_cursor = 0

    # -- verdict plumbing ------------------------------------------------------

    def _now(self) -> float:
        return float(self._cluster.time) if self._stamp is None else self._stamp

    @contextmanager
    def at(self, time: float):
        """Stamp what is emitted inside at sim ``time``: a payload's checks
        run after later payloads arrived, and still stamp its own arrival."""
        self._stamp = float(time)
        try:
            yield
        finally:
            self._stamp = None

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
        result = scan_tensor(flat)
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

    def safe_decompress_each(self, compressor, cts: list, *, layers: list[int]):
        """Yield each payload of ``cts`` decoded, in order, ``None`` where
        decoding failed.

        The payloads are decoded in one ``decompress_each`` call.  If it
        raises, each is instead decoded by :meth:`safe_decompress` when it
        is taken, so the verdicts come out where the per-layer loop emits
        them, between the caller's checks of the layers before and after.
        """
        try:
            decoded = compressor.decompress_each(cts)
        except Exception:  # noqa: BLE001 — each layer gets its own verdict below
            for ct, layer in zip(cts, layers):
                yield self.safe_decompress(compressor, ct, layer=layer)
            return
        yield from decoded

    def check_contract(self, original: np.ndarray, decoded, compressor, *, layer: int) -> None:
        """Verify the error-bound contract on an (original, decoded) pair."""
        if decoded is None:
            return
        ratio = contract_error(original, decoded, compressor)
        if ratio is not None:
            self._emit("contract_violation", {"layer": layer, "error_over_bound": ratio})

    def check_ef(self, compressor) -> None:
        """Error-feedback residual sentinel: a non-finite residual norm
        means the carried error is already poisoned."""
        value = None if compressor is None else compressor.residual_norm()
        if value is not None and not math.isfinite(value):
            self._emit("ef_residual", {"residual_norm": value})

    def safe_eigen(self, kfac, idx: int) -> None:
        """Guarded eigendecomposition with escalating-damping retries."""
        attempts = _safe_eigen(kfac, idx)
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

    def describe(self) -> dict:
        """The ledger manifest's ``guard`` section: no run chooses a setting."""
        return {"enabled": True}

    def take_step_record(self) -> list | None:
        """The remediations applied since the last call, each stamped with
        the breaker state now (``None`` if there were none)."""
        fresh = [a.to_dict() for a in self.timeline[self._event_cursor :]]
        self._event_cursor = len(self.timeline)
        for event in fresh:
            event["breaker_state"] = self.breaker.state
        return fresh or None

    def report(self) -> dict:
        """JSON-friendly summary of everything the guard saw and did."""
        return {
            "verdicts": dict(self.verdict_counts),
            "remediations": [a.to_dict() for a in self.timeline],
            "breaker": {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
                "transitions": [list(tr) for tr in self.breaker.transitions],
            },
        }
