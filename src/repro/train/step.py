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

Shard lanes (DESIGN.md decision 28).  In Fig. 2 step 1 every rank runs
its shard's forward and backward at the same time; here the shards run
in *lanes*, one per CPU this process may run on and at most one per
shard, each lane a contiguous block of shards in shard order.  Lane 0 is
the calling thread on the trainer's model.  Every other lane runs on the
host pool (:func:`repro.util.host.pool`) on a replica of the model,
deep-copied once, whose parameters alias the master's arrays and whose
mode follows the master's from the start of every step.  A lane reduces
each shard to what the step needs (:meth:`StepScaffold._shard_outputs`)
right after its backward, and every layer releases the forward cache its
backward consumed, so a lane holds one shard's buffers at a time.  The
calling thread then takes the shards in shard order: it folds the
replicas' BatchNorm batch statistics into the master's running ones and
records the replicas' host spans, whose nesting the tracer keeps per
thread.  So a run in lanes is bit-identical to a run in one lane, which
is what the timing track's one shard and a one-CPU host run.
"""

from __future__ import annotations

import copy
from concurrent.futures import wait
from contextlib import contextmanager
from typing import Any, NamedTuple

import numpy as np

from repro.data.loaders import batch_indices, shard
from repro.distributed.plane import map_payloads
from repro.nn.module import Module
from repro.nn.norm import BatchNorm2d
from repro.runtime.bucketing import split_bounds
from repro.runtime.engine import CollectiveHandle, StreamRuntime
from repro.telemetry import get_metrics, get_tracer
from repro.util import host

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


def _lanes(n_shards: int) -> int:
    """How many lanes a pass over ``n_shards`` shards runs in."""
    return min(n_shards, host.cpus())


class _Shard(NamedTuple):
    """What the step keeps of one shard's forward and backward."""

    loss: float
    #: What :meth:`StepScaffold._shard_outputs` read off the lane's layers.
    outputs: Any
    #: Each BatchNorm layer's ``batch_stats``, in the master's module order.
    norm_stats: list


class _Lane:
    """The model one lane computes on: the master itself, or a replica
    whose objects ``twins`` maps the master's to (by ``id``)."""

    def __init__(self, master: Module, model: Module, twins: dict | None):
        self.master = master
        self.model = model
        self._twins = twins
        self.norms = [m for m in master.modules() if isinstance(m, BatchNorm2d)]

    @classmethod
    def replicate(cls, master: Module) -> "_Lane":
        # The parameter arrays are aliased at every sync: copy none of them.
        model = copy.deepcopy(master, {id(p.data): p.data for p in master.parameters()})
        twins = {id(a): b for a, b in zip(master.modules(), model.modules())}
        twins.update((id(p), q) for p, q in zip(master.parameters(), model.parameters()))
        return cls(master, model, twins)

    def twin(self, obj):
        """This lane's counterpart of a module or parameter of the master."""
        return obj if self._twins is None else self._twins[id(obj)]

    def sync(self) -> None:
        """Alias the master's parameter arrays and running statistics and
        take its modes: a restore (``Module.load_state_dict``) rebinds
        ``Parameter.data``, ``task.evaluate`` flips ``training``."""
        for p in self.master.parameters():
            self.twin(p).data = p.data
        for m in self.master.modules():
            self.twin(m).training = m.training
        for bn in self.norms:
            twin = self.twin(bn)
            twin.running_mean, twin.running_var = bn.running_mean, bn.running_var


class _SpanLog:
    """Host spans a lane off the calling thread measured, kept for the
    calling thread to record: the tracer nests spans per thread."""

    def __init__(self, tracer):
        self._now = tracer.host_now
        self._spans: list[tuple] = []

    @contextmanager
    def span(self, name: str, category: str, **attrs):
        start = self._now()
        yield
        self._spans.append((name, category, start, self._now(), attrs))

    def replay(self, tracer) -> None:
        for name, category, start, end, attrs in self._spans:
            # The span's clock reads back the two times the lane measured.
            with tracer.span(name, category, clock=iter((start, end)).__next__, **attrs):
                pass


class StepScaffold:
    """Base of the data-parallel trainers: everything around the step body.

    A subclass sets ``model``, ``task``, ``cluster``, ``compressor``,
    ``t``, ``history`` and ``_schedule``, builds whichever collaborators it
    has, and implements ``_step(global_idx, tracer)``.
    """

    #: Periodic checkpointing belongs to trainers that define
    #: ``save_state``; ``checkpoint_every = 0`` never saves.
    checkpoint_every = 0
    checkpoint_store = None
    #: The collaborators only the K-FAC trainer builds
    #: (:class:`~repro.kfac_dist.DistributedKfacTrainer`); ``None`` is a
    #: trainer that never had one.
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

    #: Lane 0 (the master model) and the replicas built so far.
    _shard_lanes: list[_Lane] | None = None

    def _shard_outputs(self, lane: _Lane):
        """What the step needs of one shard, read off ``lane``'s layers
        right after the shard's backward (on the lane's thread)."""
        raise NotImplementedError

    def _backward_per_shard(self, shards: list[np.ndarray], tracer) -> list[_Shard]:
        """Forward/backward every rank's shard, in lanes; returns the
        shards in shard order."""
        n_lanes = _lanes(len(shards))
        if self._shard_lanes is None:
            self._shard_lanes = [_Lane(self.model, self.model, None)]
        while len(self._shard_lanes) < n_lanes:
            self._shard_lanes.append(_Lane.replicate(self.model))
        lanes = self._shard_lanes[:n_lanes]
        numbered = list(enumerate(shards))
        blocks = [
            numbered[k * len(shards) // n_lanes : (k + 1) * len(shards) // n_lanes]
            for k in range(n_lanes)
        ]
        logs = [_SpanLog(tracer) for _ in lanes[1:]]
        futures = []
        for lane, block, log in zip(lanes[1:], blocks[1:], logs):
            lane.sync()
            futures.append(host.pool().submit(self._run_lane, lane, block, log))
        try:
            done = self._run_lane(lanes[0], blocks[0], tracer)
        finally:
            wait(futures)
        # In lane order, so the lowest failing lane raises, as its first
        # failing shard would have in one lane.
        for lane, future, log in zip(lanes[1:], futures, logs):
            for s in future.result():
                for bn, stats in zip(lane.norms, s.norm_stats):
                    if stats is not None:
                        bn.fold_batch_stats(*stats)
                done.append(s)
            log.replay(tracer)
        return done

    def _run_lane(self, lane: _Lane, block: list[tuple[int, np.ndarray]], spans) -> list[_Shard]:
        """One lane's shards, in order; ``spans`` opens its host spans."""
        model, task = lane.model, self.task
        done = []
        for r, idx in block:
            model.zero_grad()
            x, y = task.batch(idx)
            with spans.span("forward", "forward", shard=r):
                out = model(x)
                loss, dl = task.loss_and_grad(out, y)
            with spans.span("backward", "backward", shard=r):
                model.backward(dl)
            stats = [lane.twin(bn).batch_stats for bn in lane.norms]
            done.append(_Shard(loss, self._shard_outputs(lane), stats))
        return done

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
            self.close_ledger()
        return self.history

    def close_ledger(self) -> None:
        """Write the run ledger.  Only damage perturbs the artifact: the
        store's summary goes in when it saw abnormal events, so a healthy
        store's ledger stays byte-identical to a store-less run."""
        store = self.checkpoint_store
        if store is not None and store.abnormal_events():
            self.obsv.update_manifest(store=store.summary())
        self.obsv.close(final_metric=self.history.final_metric())
