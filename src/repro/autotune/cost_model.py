"""Online alpha-beta cost model for the closed-loop autotuner.

The controller's objective is COMPSO's Eq. 5 made *live*: one step's
communication cost is ``alpha * messages + beta * bytes`` (latency and
inverse-bandwidth terms), plus the modelled GPU codec time of the
active encoder, minus the modelled credit of message aggregation.  The
(alpha, beta) pair is fitted online from what the simulated clock
actually charged (``SimCluster.breakdown()`` deltas per step), with
fabric degradation factors normalised *out* of the observations so the
fit stays a clean-fabric property and the current factors scale the
prediction back in.

Everything here is plain deterministic arithmetic: no RNG, no wall
clock — decisions derived from this model are a pure function of
``(seed, config)``.
"""

from __future__ import annotations

import numpy as np

from repro.autotune.types import CandidateConfig, round6
from repro.core.layer_aggregation import LayerAggregator
from repro.gpusim.encoder_perf import ENCODER_INPUT_FRACTION, ENCODER_PERF

__all__ = [
    "AlphaBetaEstimator",
    "CostModel",
    "aggregation_credit",
    "codec_seconds",
    "modelled_extra_seconds",
    "replay_extra_seconds",
]

#: Elements of the live gradient the one-shot CR probe compresses.
_PROBE_ELEMENTS = 65536
#: EWMA weight of a newly observed compression ratio.
_CR_SMOOTHING = 0.5


class AlphaBetaEstimator:
    """Ridge least-squares fit of ``seconds ~ alpha*messages + beta*bytes``.

    The priors act as two pseudo-observations — one pure-latency
    message and one pure-bandwidth megabyte — so the fit is well-posed
    from the first step and degrades gracefully when the run only ever
    shows one (messages, bytes) operating point (the usual case: layer
    count is constant and payload sizes move slowly).
    """

    #: The priors: seconds per message and per byte.
    alpha0 = 5e-5
    beta0 = 1e-9

    def __init__(self):
        # Normal-equation sums, seeded with the two prior points
        # (m=1, B=0, t=alpha0) and (m=0, B=1e6, t=beta0*1e6).
        self._s_mm = 1.0
        self._s_mb = 0.0
        self._s_bb = 1e12
        self._s_mt = self.alpha0
        self._s_bt = self.beta0 * 1e12
        self.n_observations = 0

    def observe(self, messages: float, nbytes: float, seconds: float) -> None:
        m = float(messages)
        b = float(nbytes)
        t = float(seconds)
        if m <= 0 and b <= 0:
            return
        self._s_mm += m * m
        self._s_mb += m * b
        self._s_bb += b * b
        self._s_mt += m * t
        self._s_bt += b * t
        self.n_observations += 1

    def fit(self) -> tuple[float, float]:
        """Current (alpha, beta); clamped non-negative."""
        det = self._s_mm * self._s_bb - self._s_mb * self._s_mb
        if det <= 0:
            return self.alpha0, self.beta0
        alpha = (self._s_bb * self._s_mt - self._s_mb * self._s_bt) / det
        beta = (self._s_mm * self._s_bt - self._s_mb * self._s_mt) / det
        return max(alpha, 0.0), max(beta, 0.0)


def _invocations(candidate: CandidateConfig, n_layers: int) -> int:
    """Encoder invocations (and eager messages) per step: one per
    aggregation group of ``n_layers`` (the controller passes at least 1)."""
    return len(LayerAggregator(candidate.aggregation).groups(n_layers))


def codec_seconds(
    candidate: CandidateConfig,
    *,
    dense_bytes: float,
    wire_bytes: float,
    n_layers: int,
) -> float:
    """Modelled GPU compress+decompress seconds for one step.

    Aggregation batches ``n_layers`` payloads into one encoder
    invocation per aggregation group, amortising the
    per-invocation overhead that dominates at K-FAC layer sizes
    (paper Table 2 calibration via :data:`ENCODER_PERF`).
    """
    if candidate.is_identity or dense_bytes <= 0:
        return 0.0
    perf = ENCODER_PERF[candidate.encoder]
    invocations = _invocations(candidate, n_layers)
    enc_in = dense_bytes * ENCODER_INPUT_FRACTION / invocations
    dec_in = max(wire_bytes, 0.0) / invocations
    return invocations * (perf.compress_time(enc_in) + perf.decompress_time(dec_in))


def aggregation_credit(
    candidate: CandidateConfig, *, n_layers: int, alpha: float, lat_factor: float = 1.0
) -> float:
    """Seconds of per-message launch latency modelled aggregation saves."""
    invocations = _invocations(candidate, n_layers)
    return max(n_layers - invocations, 0) * alpha * lat_factor


def modelled_extra_seconds(
    candidate: CandidateConfig,
    *,
    dense_bytes: float,
    wire_bytes: float,
    n_layers: int,
    alpha: float,
    lat_factor: float = 1.0,
) -> float:
    """Codec cost minus aggregation credit — the modelled step-time
    delta the simulated clock does not charge.  The benchmark adds this
    to ``SimCluster.time`` to score runs on modelled end-to-end time,
    and the controller accumulates the same quantity."""
    return codec_seconds(
        candidate, dense_bytes=dense_bytes, wire_bytes=wire_bytes, n_layers=n_layers
    ) - aggregation_credit(candidate, n_layers=n_layers, alpha=alpha, lat_factor=lat_factor)


def replay_extra_seconds(steps, candidate: CandidateConfig, *, alpha: float) -> float:
    """Modelled extra seconds for a recorded run that held ``candidate``
    every step — the static counterpart of the controller's live
    ``modelled_extra_seconds`` accumulator.  ``steps`` are ledger step
    records (``wire_bytes``/``dense_bytes``/``layers``)."""
    total = 0.0
    for r in steps:
        dense = r.get("dense_bytes", 0.0)
        if dense <= 0:
            continue
        wire = r.get("wire_bytes", 0.0) or dense
        n_layers = len(r.get("layers", [])) or 1
        total += modelled_extra_seconds(
            candidate, dense_bytes=dense, wire_bytes=wire, n_layers=n_layers, alpha=alpha
        )
    return total


class CostModel:
    """Alpha-beta comm fit plus per-candidate compression-ratio estimates.

    CR estimates start from a one-shot deterministic *probe*: each
    COMPSO candidate compresses a capped slice of a live gradient with
    a controller-owned seeded compressor (trainer RNG untouched), then
    the active candidate's estimate tracks the observed per-step ratio
    with an EWMA.
    """

    def __init__(self, estimator: AlphaBetaEstimator):
        self.estimator = estimator
        self.cr: dict[str, float] = {}

    # -- compression-ratio estimation ---------------------------------------

    def probe(
        self,
        sample: np.ndarray,
        candidates: tuple[CandidateConfig, ...],
        *,
        seed: int,
    ) -> None:
        """Fill CR estimates by compressing ``sample`` under each candidate.

        Telemetry is silenced for the duration: probe work is controller
        bookkeeping, not training traffic, and must not perturb the
        ledger's metrics/span record.
        """
        from repro.core.compso import CompsoCompressor
        from repro.telemetry import (
            NULL_METRICS,
            NULL_TRACER,
            get_metrics,
            get_tracer,
            set_metrics,
            set_tracer,
        )

        chunk = np.asarray(sample, dtype=np.float32).ravel()[:_PROBE_ELEMENTS]
        prev_metrics, prev_tracer = get_metrics(), get_tracer()
        set_metrics(NULL_METRICS)
        set_tracer(NULL_TRACER)
        try:
            for cand in candidates:
                if cand.is_identity:
                    self.cr[cand.name] = 1.0
                    continue
                comp = CompsoCompressor(
                    cand.eb_f, cand.eb_q, encoder=cand.encoder, seed=seed
                )
                ct = comp.compress(chunk)
                self.cr[cand.name] = chunk.nbytes / max(float(ct.nbytes), 1.0)
        finally:
            set_metrics(prev_metrics)
            set_tracer(prev_tracer)

    def update_cr(self, name: str, observed: float) -> None:
        """EWMA-fold an observed live ratio into a candidate's estimate."""
        if observed <= 0:
            return
        prev = self.cr.get(name)
        if prev is None:
            self.cr[name] = float(observed)
        else:
            s = _CR_SMOOTHING
            self.cr[name] = (1.0 - s) * prev + s * float(observed)

    # -- prediction ---------------------------------------------------------

    def predict(
        self,
        candidate: CandidateConfig,
        *,
        dense_bytes: float,
        n_layers: int,
        lat_factor: float = 1.0,
        bw_factor: float = 1.0,
    ) -> float:
        """Predicted modelled step seconds under ``candidate`` now.

        ``lat_factor``/``bw_factor`` are the fabric's current health
        multipliers (>= 1 under link degradation), applied on top of the
        clean-fabric (alpha, beta) fit.
        """
        alpha, beta = self.estimator.fit()
        cr = self.cr.get(candidate.name, 1.0)
        wire = dense_bytes / max(cr, 1e-9)
        invocations = _invocations(candidate, n_layers)
        comm = alpha * invocations * lat_factor + beta * wire * bw_factor
        return comm + codec_seconds(
            candidate, dense_bytes=dense_bytes, wire_bytes=wire, n_layers=n_layers
        )

    def snapshot(self) -> dict:
        """JSON-safe model state for ledger decisions and reports."""
        alpha, beta = self.estimator.fit()
        return {
            "alpha": round6(alpha),
            "beta": round6(beta),
            "observations": self.estimator.n_observations,
            "cr": {name: round6(v) for name, v in sorted(self.cr.items())},
        }
