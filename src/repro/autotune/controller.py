"""The closed-loop autotune controller and its trainer-facing config.

:class:`AutotuneConfig` is the single knob surface; trainers accept
``autotune=AutotuneConfig(...)`` and call :meth:`AutotuneController.end_step`
once per iteration, *before* the obsv ledger folds the step — so every
decision lands in the step record that produced it.  ``autotune=None``
(the default) is bit-identical to a build without this subsystem: the
controller only ever reads trainer state, owns its own seeded probe
compressors, and mutates the training compressor exclusively through
``set_bounds``/``set_encoder`` when a decision actually fires.

Decision loop, per step:

1. observe what the clock charged its collective category
   (``SimCluster.breakdown()`` delta) and fold it into the alpha-beta
   fit, normalising out the fabric's current degradation factors;
2. if the guard's circuit breaker has left the closed state, *veto*:
   pin the safe candidate and record a ``veto`` decision — the breaker
   owns the data path until it has proven clean again
   (:meth:`repro.guard.Guard.autotune_veto`, DESIGN.md decision 10);
3. otherwise predict every feasible menu candidate's modelled step time
   under the current fabric factors and, if the best beats the active
   config past the hysteresis band, apply it and record a ``retune``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autotune.cost_model import (
    AlphaBetaEstimator,
    CostModel,
    modelled_extra_seconds,
)
from repro.autotune.policy import HysteresisPolicy
from repro.autotune.types import DEFAULT_MENU, CandidateConfig, Decision, round6
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer

__all__ = ["AutotuneConfig", "AutotuneController"]

#: Candidate pinned while the guard's breaker vetoes the controller.
_SAFE = "identity"
#: The fidelity gate: a candidate whose worst-case relative point error
#: (``eb_f + eb_q``) exceeds it is never chosen.
_MAX_ERROR = 0.05
#: The collective category whose clock charges feed the alpha-beta fit:
#: the K-FAC trainer's preconditioned-gradient broadcast.
_CATEGORY = "kfac_allgather"


@dataclass
class AutotuneConfig:
    """Declarative configuration for the online autotuner over
    :data:`~repro.autotune.types.DEFAULT_MENU`.

    ``initial`` names the menu entry that *describes the compressor the
    trainer was constructed with* — the controller never mutates
    anything until a decision fires, which is what keeps a
    never-firing controller bit-identical to the plain run.
    """

    initial: str = "default"
    warmup: int = 2
    min_dwell: int = 3
    seed: int = 0

    def build(self, trainer) -> "AutotuneController":
        return AutotuneController(self, trainer)


class AutotuneController:
    """Online cost-model controller over one trainer's compression stack:
    it reads the trainer's cluster clock and guard and retunes its
    compressor."""

    def __init__(self, config: AutotuneConfig, trainer):
        self.config = c = config
        by_name = {cand.name: cand for cand in DEFAULT_MENU}
        if c.initial not in by_name:
            raise ValueError(f"initial {c.initial!r} is not in the menu {list(by_name)}")
        self._by_name = by_name
        self.active: CandidateConfig = by_name[c.initial]
        self.policy = HysteresisPolicy(warmup=c.warmup, min_dwell=c.min_dwell)
        self.model = CostModel(AlphaBetaEstimator())
        #: Append-only decision timeline.
        self.decisions: list[Decision] = []
        #: Modelled codec-minus-aggregation seconds accumulated so far —
        #: the clock-uncharged half of the end-to-end metric.
        self.modelled_extra_seconds = 0.0
        self._probed = False
        self._last_change = -1
        self._veto_active = False
        self._cluster = trainer.cluster
        self._last_breakdown = dict(self._cluster.breakdown())
        self._guard = trainer.guard
        self._compressor = trainer.compressor
        self._decision_cursor = 0

    # -- data-path hooks ---------------------------------------------------------

    @property
    def wants_sample(self) -> bool:
        """True until the one-shot CR probe has run (trainers pass a live
        gradient slice to :meth:`end_step` while this is set)."""
        return not self._probed

    def active_compressor(self, compressor):
        """The step's compressor under the active candidate (None = dense)."""
        if compressor is None or self.active.is_identity:
            return None if self.active.is_identity else compressor
        return compressor

    # -- signals ---------------------------------------------------------------

    def _now(self) -> float:
        return float(self._cluster.time)

    def _observed_comm(self) -> float:
        """Seconds its collective category charged since the last step."""
        bd = dict(self._cluster.breakdown())
        delta = bd.get(_CATEGORY, 0.0) - self._last_breakdown.get(_CATEGORY, 0.0)
        self._last_breakdown = bd
        return max(delta, 0.0)

    def _network_factors(self) -> tuple[float, float]:
        """(latency, bandwidth) cost multipliers of the fault plane now."""
        faults = self._cluster.faults
        if faults is not None:
            return faults.network_factors()
        return 1.0, 1.0

    # -- decision loop ---------------------------------------------------------

    def end_step(
        self,
        *,
        step: int,
        wire_bytes: float,
        dense_bytes: float,
        n_messages: int,
        sample=None,
    ) -> None:
        """Observe one finished iteration and possibly retune.

        Called by the trainer after the update is applied and before the
        obsv ledger records the step.  ``n_messages`` is the number of
        collective launches the step's payload travelled in (the layer
        count of K-FAC's per-layer broadcast).
        """
        step = int(step)
        n_layers = max(int(n_messages), 1)
        comm = self._observed_comm()
        lat, bw = self._network_factors()
        travelled = wire_bytes if wire_bytes > 0 else dense_bytes
        if travelled > 0 and comm > 0:
            # Normalise the fabric factors out so the fit stays a
            # clean-fabric property; predictions scale them back in.
            self.model.estimator.observe(n_layers * lat, travelled * bw, comm)
        if sample is not None and not self._probed:
            self.model.probe(sample, DEFAULT_MENU, seed=self.config.seed)
            self._probed = True
        if not self.active.is_identity and wire_bytes > 0 and dense_bytes > 0:
            self.model.update_cr(self.active.name, dense_bytes / wire_bytes)
        self.modelled_extra_seconds += modelled_extra_seconds(
            self.active,
            dense_bytes=dense_bytes,
            wire_bytes=wire_bytes if wire_bytes > 0 else dense_bytes,
            n_layers=n_layers,
            alpha=self.model.estimator.alpha0,
        )

        # Breaker veto: the guard owns the data path until it recloses.
        guard = self._guard
        if guard is not None and guard.autotune_veto():
            if not self._veto_active:
                self._veto_active = True
                safe = self._by_name[_SAFE]
                frm = self.active.name
                self._apply(safe, step)
                self._record(
                    Decision(
                        step=step,
                        kind="veto",
                        from_config=frm,
                        to_config=safe.name,
                        reason="breaker_not_closed",
                        signals={"lat_factor": round6(lat), "bw_factor": round6(bw)},
                    )
                )
            return
        self._veto_active = False

        if not self._probed or not self.policy.ready(step, self._last_change):
            return
        dense = dense_bytes if dense_bytes > 0 else travelled
        if dense <= 0:
            return
        predictions = {
            cand.name: self.model.predict(
                cand,
                dense_bytes=dense,
                n_layers=n_layers,
                lat_factor=lat,
                bw_factor=bw,
            )
            for cand in DEFAULT_MENU
            if cand.error_bound <= _MAX_ERROR
        }
        t_active = predictions.get(self.active.name)
        if t_active is None:
            return
        # Deterministic argmin: predicted time, then name.
        best_name = min(predictions, key=lambda n: (predictions[n], n))
        if best_name == self.active.name:
            return
        t_best = predictions[best_name]
        if not self.policy.should_switch(t_active, t_best):
            return
        frm = self.active.name
        self._apply(self._by_name[best_name], step)
        signals = {
            "lat_factor": round6(lat),
            "bw_factor": round6(bw),
            **{f"pred_{name}": round6(t) for name, t in predictions.items()},
        }
        alpha, beta = self.model.estimator.fit()
        signals["alpha"] = round6(alpha)
        signals["beta"] = round6(beta)
        if guard is not None:
            signals["guard_events"] = len(guard.timeline)
        self._record(
            Decision(
                step=step,
                kind="retune",
                from_config=frm,
                to_config=best_name,
                reason="predicted_improvement",
                signals=signals,
            )
        )

    def _apply(self, candidate: CandidateConfig, step: int) -> None:
        """Realise a candidate on the trainer's compressor stack."""
        self.active = candidate
        self._last_change = step
        if candidate.is_identity:
            # Realised by active_compressor() returning None — the
            # trainer's lossless broadcast path.
            return
        if self._compressor is not None:
            self._compressor.set_bounds(candidate.eb_f, candidate.eb_q)
            self._compressor.set_encoder(candidate.encoder)

    def _record(self, decision: Decision) -> None:
        self.decisions.append(decision)
        m = get_metrics()
        if m.enabled:
            m.counter("autotune.decisions", kind=decision.kind).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                f"autotune:{decision.kind}:{decision.to_config}",
                "autotune_event",
                0.0,
                start=self._now(),
                track=SIM_TRACK,
                iteration=decision.step,
            )

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe config description for the ledger manifest."""
        c = self.config
        return {
            "initial": c.initial,
            "warmup": c.warmup,
            "min_dwell": c.min_dwell,
            "seed": c.seed,
            "category": _CATEGORY,
        }

    def take_step_record(self) -> list | None:
        """The decisions made since the last call (``None`` if none)."""
        fresh = [d.to_dict() for d in self.decisions[self._decision_cursor :]]
        self._decision_cursor = len(self.decisions)
        return fresh or None

    def report(self) -> dict:
        """End-of-run summary folded into the ledger's final record."""
        kinds: dict[str, int] = {}
        for d in self.decisions:
            kinds[d.kind] = kinds.get(d.kind, 0) + 1
        return {
            "active": self.active.name,
            "retunes": kinds.get("retune", 0),
            "vetoes": kinds.get("veto", 0),
            "decisions": [d.to_dict() for d in self.decisions],
            "modelled_extra_seconds": round6(self.modelled_extra_seconds),
            "model": self.model.snapshot(),
        }
