"""Closed-loop cost-model autotuning for the compression stack.

COMPSO picks its aggregation factor and encoder from an *offline*
performance model, and :func:`repro.autotune.offline.autotune_bounds`
searches error bounds on sample gradients *before* training starts.
This subsystem closes the loop: an :class:`AutotuneController` observes
live signals each step — per-layer wire/dense bytes, what the simulated
clock charged each collective category, fabric health from the fault
plane's link-degradation windows, and the guard's verdicts — fits an
online alpha-beta cost model, and re-picks ``{compressor, encoder,
aggregation factor, (eb_f, eb_q)}`` on the fly with bounded hysteresis.

Trainers take ``autotune=AutotuneConfig(...)``; ``autotune=None`` (the
default) is bit-identical to a build without this subsystem.  The
guard's circuit breaker is the safety net: while it is not closed the
controller is vetoed and pins the safe candidate (DESIGN.md decision
10).  Every decision is a typed event in the obsv run ledger and
rendered by ``repro report``; ``repro autotune`` runs the static /
autotuned / autotuned-degraded presets.

The *offline* bound tuner (:func:`autotune_bounds`,
:class:`FidelityBudget`) lives beside it in :mod:`repro.autotune.offline`.
"""

from repro.autotune.controller import AutotuneConfig, AutotuneController
from repro.autotune.cost_model import (
    AlphaBetaEstimator,
    CostModel,
    aggregation_credit,
    codec_seconds,
    modelled_extra_seconds,
    replay_extra_seconds,
)
from repro.autotune.offline import FidelityBudget, TuneResult, autotune_bounds
from repro.autotune.policy import HysteresisPolicy
from repro.autotune.types import DEFAULT_MENU, CandidateConfig, Decision

__all__ = [
    "DEFAULT_MENU",
    "AlphaBetaEstimator",
    "AutotuneConfig",
    "AutotuneController",
    "CandidateConfig",
    "CostModel",
    "Decision",
    "FidelityBudget",
    "HysteresisPolicy",
    "TuneResult",
    "aggregation_credit",
    "autotune_bounds",
    "codec_seconds",
    "modelled_extra_seconds",
    "replay_extra_seconds",
]
