"""The data-parallel SGD training loop.

The distributed K-FAC (KAISA) trainer lives in :mod:`repro.kfac_dist`;
here is the first-order data-parallel baseline (SGD + optional gradient
compression, i.e. the paper's "SGD+CocktailSGD" configuration); what the
two data-parallel trainers share is in :mod:`repro.train.step`.  A single
worker is either trainer on a one-rank ``SimCluster``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import GradientCompressor
from repro.distributed.cluster import SimCluster
from repro.runtime.engine import StreamRuntime
from repro.telemetry import get_metrics
from repro.train.step import Schedule, StepScaffold

__all__ = ["TrainHistory", "DistributedSgdTrainer"]


@dataclass
class TrainHistory:
    """Per-iteration training record."""

    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    metrics: list[tuple[int, object]] = field(default_factory=list)
    compression_ratios: list[float] = field(default_factory=list)

    def final_metric(self) -> object:
        return self.metrics[-1][1] if self.metrics else None

    def mean_cr(self) -> float:
        return float(np.mean(self.compression_ratios)) if self.compression_ratios else 1.0


class DistributedSgdTrainer(StepScaffold):
    """Data-parallel first-order training on the simulated cluster.

    The shards run in lanes (:mod:`repro.train.step`; identical math to
    one model running every shard); per-rank gradients are optionally
    compressed, in rank order, before the (simulated) allreduce,
    reproducing the SGD+CocktailSGD baseline.  The gradient travels as
    one whole-gradient barrier allreduce per step; the trainer has none
    of the K-FAC trainer's collaborators (runtime, guard, ledger,
    autotune, xray).
    """

    def __init__(
        self,
        model,
        task,
        optimizer,
        cluster: SimCluster,
        *,
        compressor: GradientCompressor | None = None,
    ):
        self.model = model
        self.task = task
        self.optimizer = optimizer
        self.cluster = cluster
        self.compressor = compressor
        self.t = 0
        self.history = TrainHistory()
        self._schedule = Schedule(StreamRuntime(cluster, overlap=False), None)

    def _shard_outputs(self, lane) -> np.ndarray:
        """The shard's flat gradient."""
        return np.concatenate([lane.twin(p).grad.ravel() for p in self.model.parameters()])

    def _local_grads(
        self, shards: list[np.ndarray], tracer
    ) -> tuple[list[float], list[np.ndarray]]:
        """Per-shard forward/backward; returns (losses, per-rank grads)."""
        per_rank_grads: list[np.ndarray] = []
        losses: list[float] = []
        compressor = self.compressor
        for loss, g, _ in self._backward_per_shard(shards, tracer):
            if compressor is not None:
                ct = compressor.compress(g)
                self.history.compression_ratios.append(g.nbytes / ct.nbytes)
                g = compressor.decompress(ct).ravel()
            per_rank_grads.append(g)
            losses.append(loss)
        if self.cluster.is_timing:
            # Timing track: the single representative shard stands in for
            # every rank; the gradient is replicated per the payload mode.
            return losses, self.cluster.replicate(per_rank_grads[0])
        return losses, per_rank_grads

    def _step(self, global_idx: np.ndarray, tracer) -> float:
        failures = self.cluster.begin_iteration(self.t)
        if failures:
            m = get_metrics()
            if m.enabled:
                m.counter("faults.recovered", kind="rank_failure").inc(len(failures))
        shards = self._trimmed_shards(global_idx)
        losses, per_rank_grads = self._local_grads(shards, tracer)
        handles, _ = self._issue_grad_allreduce(per_rank_grads, len(shards[0]), tracer)
        with tracer.span("grad_wait", "comm"):
            reduced0, _ = self._reduced_gradient(handles)
        self._schedule.rt.assert_quiesced()
        self._scatter_grads(self.model.parameters(), reduced0)
        with tracer.span("apply_update", "update"):
            self.optimizer.step()
        mean_loss = float(np.mean(losses))
        self.history.losses.append(mean_loss)
        self.history.lrs.append(self.optimizer.lr)
        self._observe_step(mean_loss, self.optimizer.lr)
        self.t += 1
        return mean_loss
