"""Single-worker and data-parallel SGD training loops.

The distributed K-FAC (KAISA) trainer lives in :mod:`repro.kfac_dist`;
here are the task-agnostic single-worker loop and the first-order
data-parallel baseline (SGD/LAMB + optional gradient compression, i.e.
the paper's "SGD+CocktailSGD" configuration); what the two
data-parallel trainers share is in :mod:`repro.train.step`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.base import GradientCompressor
from repro.data.loaders import batch_indices
from repro.distributed.cluster import SimCluster
from repro.telemetry import get_metrics, get_tracer
from repro.train.step import StepScaffold

__all__ = ["TrainHistory", "train_single", "DistributedSgdTrainer"]


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


def train_single(
    model,
    task,
    optimizer,
    *,
    iterations: int,
    batch_size: int,
    lr_schedule=None,
    eval_every: int = 0,
    seed: int = 0,
) -> TrainHistory:
    """Train on one worker; returns the loss/metric history."""
    history = TrainHistory()
    tracer = get_tracer()
    for t, idx in enumerate(batch_indices(task.n, batch_size, iterations=iterations, seed=seed)):
        if lr_schedule is not None:
            optimizer.lr = lr_schedule.lr_at(t)
        x, y = task.batch(idx)
        with tracer.span("step", "step", step=t):
            with tracer.span("forward", "forward"):
                out = model(x)
                loss, dl = task.loss_and_grad(out, y)
            optimizer.zero_grad()
            with tracer.span("backward", "backward"):
                model.backward(dl)
            with tracer.span("apply_update", "update"):
                optimizer.step()
        history.losses.append(loss)
        history.lrs.append(optimizer.lr)
        if eval_every and (t + 1) % eval_every == 0:
            history.metrics.append((t + 1, task.evaluate(model)))
    return history


class DistributedSgdTrainer(StepScaffold):
    """Data-parallel first-order training on the simulated cluster.

    One shared model evaluates every rank's shard (identical math to
    per-rank replicas); per-rank gradients are optionally compressed
    before the (simulated) allreduce, reproducing the SGD+CocktailSGD
    baseline.  The one allreduce path issues DDP-style byte buckets
    during (modelled) backward under a ``StreamRuntime`` and a single
    whole-gradient barrier for ``runtime=None``.  An exploding
    error-feedback residual is the guard's to catch
    (``GuardConfig.ef_residual_limit``).  ``runtime``, ``guard``,
    ``obsv`` and ``autotune`` are documented at
    :meth:`StepScaffold._bind_collaborators`.
    """

    def __init__(
        self,
        model,
        task,
        optimizer,
        cluster: SimCluster,
        *,
        compressor: GradientCompressor | None = None,
        runtime=None,
        guard=None,
        obsv=None,
        autotune=None,
    ):
        self.model = model
        self.task = task
        self.optimizer = optimizer
        self.cluster = cluster
        self.compressor = compressor
        self.t = 0
        self.history = TrainHistory()
        self._bind_collaborators(
            kind="sgd",
            category="grad_allreduce",
            runtime=runtime,
            guard=guard,
            obsv=obsv,
            autotune=autotune,
        )

    def _flat_grad(self) -> np.ndarray:
        return np.concatenate([p.grad.ravel() for p in self.model.parameters()])

    def _local_grads(
        self, shards: list[np.ndarray], tracer
    ) -> tuple[list[float], list[np.ndarray], float, float]:
        """Per-shard forward/backward; returns (losses, per-rank grads,
        wire bytes, dense bytes)."""
        per_rank_grads: list[np.ndarray] = []
        losses: list[float] = []
        wire = 0.0
        dense = 0.0
        guard = self.guard
        compressor = self.compressor if guard is None else guard.active(self.compressor)
        if self.autotune is not None:
            compressor = self.autotune.active_compressor(compressor)
        for r, loss in self._backward_per_shard(shards, tracer):
            g = self._flat_grad()
            if compressor is not None:
                ct = compressor.compress(g)
                self.history.compression_ratios.append(g.nbytes / ct.nbytes)
                wire += ct.nbytes
                dense += g.nbytes
                decoded = compressor.decompress(ct).ravel()
                if guard is not None and r == 0:
                    # One shard per step is enough to catch a broken
                    # channel; the contract never consumes randomness.
                    guard.check_contract(g, decoded, compressor, layer=r)
                g = decoded
            per_rank_grads.append(g)
            losses.append(loss)
        if self.cluster.is_timing:
            # Timing track: the single representative shard stands in for
            # every rank, so wire/dense accounting scales back to world
            # totals and the gradient is replicated per the payload mode.
            world = self.cluster.world_size
            return (
                losses,
                self.cluster.replicate(per_rank_grads[0]),
                wire * world,
                dense * world,
            )
        return losses, per_rank_grads, wire, dense

    def _step(self, global_idx: np.ndarray, tracer) -> float:
        failures = self.cluster.begin_iteration(self.t)
        if failures:
            m = get_metrics()
            if m.enabled:
                m.counter("faults.recovered", kind="rank_failure").inc(len(failures))
        guard = self.guard
        if guard is not None:
            guard.begin_step(self.t)
        shards = self._trimmed_shards(global_idx)
        losses, per_rank_grads, wire, dense = self._local_grads(shards, tracer)
        handles, _ = self._issue_grad_allreduce(per_rank_grads, len(shards[0]), tracer)
        with tracer.span("grad_wait", "comm"):
            reduced0, grad_norm = self._reduced_gradient(handles)
        self._schedule.rt.assert_quiesced()
        self._scatter_grads(self.model.parameters(), reduced0)
        if guard is not None:
            guard.check_ef(self.compressor)
        with tracer.span("apply_update", "update"):
            self.optimizer.step()
        mean_loss = float(np.mean(losses))
        self.history.losses.append(mean_loss)
        self.history.lrs.append(self.optimizer.lr)
        self._observe_step(
            mean_loss,
            self.optimizer.lr,
            wire=wire,
            dense=dense,
            # The whole gradient travels in one logical message per rank.
            n_messages=1,
            sample=reduced0,
            # 0.0 means the step travelled uncompressed (no compressor,
            # or circuit breaker open) — record no wire accounting.
            wire_bytes=wire or None,
            dense_bytes=dense or None,
        )
        self.t += 1
        if guard is not None:
            guard.end_step(loss=mean_loss, grad_norm=grad_norm)
        return mean_loss
