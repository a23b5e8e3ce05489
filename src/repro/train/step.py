"""What both data-parallel trainers' training step shares.

A trainer writes its step body once, against collective *handles*
(:class:`repro.runtime.CollectiveHandle`).  A :class:`Schedule` decides
only when a handle completes and how messages are grouped, never what is
computed: every schedule of one trainer yields the same parameters and
differs in simulated time alone, and ``runtime=None`` is the blocking
schedule of that same body, not a second path (DESIGN.md decision 13).

:class:`StepScaffold` is what the first-order and the K-FAC trainer had
verbatim in common: sharding, the bucketed gradient allreduce, the
end-of-step observer order and the ``train`` loop.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.data.loaders import batch_indices, shard
from repro.distributed.plane import map_payloads
from repro.runtime.bucketing import split_bounds
from repro.runtime.engine import CollectiveHandle, StreamRuntime
from repro.telemetry import get_metrics, get_tracer

__all__ = ["Schedule", "StepScaffold"]


class Schedule(NamedTuple):
    """When collectives complete and how their messages are grouped."""

    #: Issues every collective.  With ``overlap=False`` a handle is
    #: complete when issued; ``compute=None`` charges no modelled compute.
    rt: StreamRuntime
    #: Size of a gradient bucket and of a coalesced factor message, with
    #: every layer's broadcast sent before the first is received.
    #: ``None`` groups nothing and leaves nothing in flight: a parameter
    #: group travels whole, each layer's factors alone, and a layer's
    #: broadcast is received (decoded, checked) before the next layer is
    #: compressed — a guard remediation it triggers already applies there.
    bucket_bytes: int | None


class StepScaffold:
    """Base of the data-parallel trainers: everything around the step body.

    A subclass sets ``model``, ``task``, ``cluster``, ``compressor``,
    ``t``, ``history`` and ``_schedule``, binds whichever collaborators it
    has, and implements ``_step(global_idx, tracer)``.
    """

    #: Periodic checkpointing belongs to trainers that define
    #: ``save_state``; ``checkpoint_every = 0`` never saves.
    checkpoint_every = 0
    checkpoint_store = None
    #: The collaborators only the K-FAC trainer binds
    #: (:meth:`~repro.kfac_dist.DistributedKfacTrainer._bind_collaborators`);
    #: ``None`` is a trainer that never had one.
    runtime = guard = autotune = xray = obsv = None

    def restore_latest(self):
        """Restore the newest durable checkpoint and return its
        generation; a trainer with nothing durable has none (``None``)."""
        return None

    # -- one training iteration ------------------------------------------------

    def step(self, global_idx: np.ndarray) -> float:
        tracer = get_tracer()
        with tracer.span("step", "step", step=self.t):
            return self._step(global_idx, tracer)

    def _backward_per_shard(self, shards: list[np.ndarray], tracer):
        """Forward/backward each rank's shard in turn on the one shared
        model; yields ``(rank, loss)`` while that shard's gradients are
        the ones the parameters hold."""
        for r, idx in enumerate(shards):
            self.model.zero_grad()
            x, y = self.task.batch(idx)
            with tracer.span("forward", "forward", shard=r):
                out = self.model(x)
                loss, dl = self.task.loss_and_grad(out, y)
            with tracer.span("backward", "backward", shard=r):
                self.model.backward(dl)
            yield r, loss

    @staticmethod
    def _scatter_grads(params, flat: np.ndarray) -> None:
        """Write a flat reduced gradient back into ``params``' ``.grad``."""
        pos = 0
        for p in params:
            p.grad = flat[pos : pos + p.size].reshape(p.shape).astype(np.float32)
            pos += p.size

    def _trimmed_shards(self, global_idx: np.ndarray) -> list[np.ndarray]:
        world = self.cluster.world_size
        rem = len(global_idx) % world
        if self.cluster.faults is not None and rem and rem < len(global_idx):
            # Elastic continuation: after a world shrink the global batch
            # may not divide evenly; trim the remainder so shards stay
            # consistent (averaging rescales automatically to the new world).
            # When the batch is smaller than the world the remainder is the
            # whole batch — keep it, the representative shard below still
            # needs at least one sample.
            global_idx = global_idx[: len(global_idx) - rem]
        if self.cluster.is_timing:
            # Representative rank: run one shard of the per-rank size so
            # compute timing matches what every rank would do.
            return [global_idx[: max(1, len(global_idx) // world)]]
        return shard(global_idx, world)

    def _sanitize(self, flat: np.ndarray) -> np.ndarray:
        """Replace non-finite gradient entries after data-plane faults.

        Silent corruption of a raw allreduce payload can surface as
        NaN/Inf; zeroing the poisoned entries keeps the update bounded
        (graceful degradation) instead of destroying the parameters.
        Fault-free runs never pay for the scan.
        """
        if self.cluster.faults is None or np.isfinite(flat).all():
            return flat
        m = get_metrics()
        if m.enabled:
            m.counter("faults.recovered", kind="sanitized_gradient").inc()
        return np.nan_to_num(flat, nan=0.0, posinf=0.0, neginf=0.0)

    def _issue_grad_allreduce(
        self, per_rank_grads: list[np.ndarray], samples_per_rank: int, tracer, *, whole=None
    ) -> tuple[list[CollectiveHandle], CollectiveHandle | None]:
        """Issue the gradient allreduce in byte buckets during backward.

        Bucket ``b`` goes on the wire while buckets ``b+1..`` are still
        (in modelled time) being produced by the backward pass — DDP's
        overlap pattern.  Per-bucket reduction math is element-wise
        identical to the one whole-tensor allreduce an unbucketed
        schedule issues.  ``whole`` is a second parameter group, never
        bucketed and skipped when empty.  Returns the bucket handles in
        order and ``whole``'s handle.
        """
        rt, bucket_bytes = self._schedule
        cm = rt.compute
        bwd = 0.0
        if cm is not None:
            n_params = sum(p.size for p in self.model.parameters())
            self.cluster.advance_all(cm.forward_seconds(n_params, samples_per_rank), "forward")
            bwd = cm.backward_seconds(n_params, samples_per_rank)
        if bucket_bytes is None:
            bounds = [(0, per_rank_grads[0].size)]
        else:
            bounds = split_bounds(per_rank_grads[0], bucket_bytes)
        handles = []
        whole_handle = None
        with tracer.span("grad_allreduce", "comm", n_buckets=len(bounds)):
            for lo, hi in bounds:
                if bwd:
                    self.cluster.advance_all(bwd / len(bounds), "backward")
                handles.append(
                    rt.iallreduce(
                        map_payloads(per_rank_grads, lambda g: g[lo:hi]),
                        average=True,
                        category="grad_allreduce",
                    )
                )
            if whole is not None and whole[0].size:
                whole_handle = rt.iallreduce(whole, average=True, category="grad_allreduce")
        return handles, whole_handle

    def _reduced_gradient(self, handles: list[CollectiveHandle]) -> tuple[np.ndarray, float]:
        """Wait the gradient buckets; returns the sanitised, guard-scanned
        flat gradient and its norm (NaN when no guard asks for it)."""
        reduced = self._sanitize(np.concatenate([h.wait()[0] for h in handles]))
        if self.guard is None:
            return reduced, float("nan")
        reduced = self.guard.scan(reduced, what="grad_allreduce")
        return reduced, float(np.linalg.norm(reduced))

    def _observe_step(self, loss: float, lr: float, **ledger_step) -> None:
        """The end-of-step observer order: metrics, xray, ledger.

        ``ledger_step`` is what the ledger records beyond loss and
        learning rate.
        """
        m = get_metrics()
        if m.enabled:
            m.gauge("train.loss").set(loss)
            m.counter("train.steps").inc()
            m.record_step(self.t, sim_time=self.cluster.time)
        if self.xray is not None:
            # Analyse the step's span window before the ledger folds the
            # step, so the attribution record lands where it belongs.
            self.xray.end_step(self.t)
        if self.obsv is not None:
            self.obsv.record_step(self.t, loss=loss, lr=lr, **ledger_step)

    # -- the run ---------------------------------------------------------------

    def train(self, *, iterations: int, batch_size: int, eval_every: int = 0, seed: int = 0):
        if self.obsv is not None:
            self.obsv.update_manifest(seed=seed, iterations=iterations, batch_size=batch_size)
        for t, idx in enumerate(
            batch_indices(self.task.n, batch_size, iterations=iterations, seed=seed)
        ):
            self.step(idx)
            if eval_every and (t + 1) % eval_every == 0:
                self.history.metrics.append((t + 1, self.task.evaluate(self.model)))
            if self.checkpoint_every and (t + 1) % self.checkpoint_every == 0:
                self.save_state()
        if self.obsv is not None:
            store = self.checkpoint_store
            if store is not None and store.abnormal_events():
                # Only damage perturbs the artifact: a healthy store's
                # ledger stays byte-identical to a store-less run.
                self.obsv.update_manifest(store=store.summary())
            self.obsv.close(final_metric=self.history.final_metric())
        return self.history
