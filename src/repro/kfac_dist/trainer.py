"""KAISA-style distributed K-FAC trainer with pluggable compression.

Implements the five-step workflow of paper Fig. 2 on the simulated
cluster, with KAISA's refinements (section 2.2):

1. per-rank covariance computation from local shards (float32, the
   width of the captured activations), each shard's Grams formed in the
   shard lane that ran it, right after its backward;
2. factor **allreduce** (category ``kfac_allreduce``): a factor is
   symmetric, so each rank's message is the float32 upper triangle
   (diagonal included) of ``A`` and ``G`` — the bytes the analytic
   ``KfacIterationModel`` prices — reduced, then mirrored once per layer
   and folded into the float64 running averages;
3. **eigendecomposition** of each layer by its assigned owner rank only
   (greedy LPT assignment, category ``kfac_compute``), the owners' calls
   side by side on the host pool;
4. preconditioned-gradient computation on the owner;
5. eager per-layer **allgather** of preconditioned gradients (category
   ``kfac_allgather``), optionally *compressed* — this is the payload
   COMPSO targets.  Where the schedule leaves every layer's broadcast in
   flight, the layers are compressed, and decoded, in one coder call a
   side, each still its own frames.

The shards run in lanes side by side on the host's CPUs, lane 0 on the
trainer's model and the others on replicas that alias its parameters
(:mod:`repro.train.step`), which is numerically identical to one model
running every shard in turn; compression is applied
exactly once per layer by its owner, and every rank applies the same
decompressed update, matching the paper's observation that K-FAC's
allgather pattern avoids ring-allreduce error propagation.

Steps 2-5 are written once, against collective handles; the trainer's
:class:`~repro.train.step.Schedule` (the caller's ``StreamRuntime``, or
the blocking one for ``runtime=None``) decides only when a handle
completes and how messages are grouped.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import GradientCompressor
from repro.distributed.cluster import SimCluster
from repro.faults.plan import FailureEvent
from repro.faults.recovery import ReliableChannel
from repro.kfac_dist.assignment import assign_layers, eig_cost
from repro.optim.kfac import Kfac
from repro.runtime.bucketing import Bucketer
from repro.runtime.engine import StreamRuntime
from repro.telemetry import get_metrics
from repro.train.step import Schedule, StepScaffold
from repro.train.trainer import TrainHistory
from repro.util.triangle import mirror_upper, pack_upper, triangle_size
from repro.xray import XrayAnalyzer

__all__ = ["DistributedKfacTrainer"]


class DistributedKfacTrainer(StepScaffold):
    """Data-parallel K-FAC training with compressed gradient allgather.

    Its optional collaborators are each built once, from the trainer
    (DESIGN.md decision 32).  They read trainer state and never consume
    the training RNG, so ``None`` (``False`` for ``xray``) for any of them
    is bit-identical to a trainer that never had it:

    * ``runtime`` — :class:`repro.runtime.StreamRuntime` scheduling the
      step's collectives; ``None`` is the blocking schedule.
    * ``guard`` — :class:`repro.guard.GuardConfig`: payload sentinels,
      divergence detection, self-healing remediation and the compression
      circuit breaker.
    * ``autotune`` — :class:`repro.autotune.AutotuneConfig`: closed-loop
      retuning of the compression stack on the ``kfac_allgather``
      broadcast; owns its own probe RNG.
    * ``xray`` — per-step critical-path attribution over the spans.
    * ``obsv`` — :class:`repro.obsv.LedgerConfig`: the run ledger folding
      metrics, span digests, overlap accounting and the above into one
      artifact.
    """

    def __init__(
        self,
        model,
        task,
        cluster: SimCluster,
        *,
        lr: float = 0.05,
        lr_schedule=None,
        inv_update_freq: int = 10,
        compressor: GradientCompressor | None = None,
        factor_compressor: GradientCompressor | None = None,
        checkpoint_every: int = 0,
        checkpoint_store=None,
        runtime=None,
        guard=None,
        reliable_channel: bool = True,
        obsv=None,
        autotune=None,
        xray: bool = False,
    ):
        if checkpoint_every > 0 and checkpoint_store is None:
            raise ValueError(
                f"checkpoint_every={checkpoint_every} needs a checkpoint_store to save into"
            )
        self.model = model
        self.task = task
        self.cluster = cluster
        self.lr_schedule = lr_schedule
        self.compressor = compressor
        #: Optional compressor for the factor allreduce payload (paper
        #: section 7 future work; see repro.core.factor_compression).
        self.factor_compressor = factor_compressor
        #: Per step with a factor compressor: dense triangle bytes / wire bytes.
        self.factor_ratios: list[float] = []
        self.kfac = Kfac(model, lr=lr, inv_update_freq=inv_update_freq)
        self._assign_owners()
        self.t = 0
        self.history = TrainHistory()
        #: Wire bytes actually allgathered (compressed) per iteration.
        self.bytes_on_wire: list[float] = []
        self.bytes_original: list[float] = []
        # Fault tolerance: checksummed transfers when faults are in play,
        # periodic checkpoints for hard-failure recovery.  The checksum
        # channel can be declined (``reliable_channel=False``) to model
        # deployments whose collectives don't verify payloads — the
        # regime the guard subsystem is designed to survive.
        # The timing track admits no data-plane faults (TRACK_PLANES), so
        # a checksum channel there would only verify its own clean seal
        # world_size times per broadcast — skip it.
        self._channel = (
            ReliableChannel(cluster)
            if cluster.faults is not None and reliable_channel and not cluster.is_timing
            else None
        )
        self.checkpoint_every = checkpoint_every
        #: The :class:`repro.store.CheckpointStore` every checkpoint is a
        #: sealed, versioned generation of; every restore verifies both
        #: seals, falling back to the newest verified generation on
        #: damage.  ``None`` keeps nothing durable.
        self.checkpoint_store = checkpoint_store
        self.runtime = runtime
        self._schedule = (
            Schedule(StreamRuntime(cluster, overlap=False), None)
            if runtime is None
            else Schedule(runtime, runtime.bucket_bytes)
        )
        # Each collaborator reads what it needs off the trainer when it is
        # built, so it comes after everything it reads.
        self.guard = None if guard is None else guard.build(self)
        self.autotune = None if autotune is None else autotune.build(self)
        self.xray = XrayAnalyzer(cluster) if xray else None
        self.obsv = None if obsv is None else obsv.build(self)

    def _assign_owners(self) -> None:
        """Greedy LPT assignment of layers to the current world's ranks."""
        costs = [eig_cost(*self.kfac.layer_dims(i)) for i in range(len(self.kfac.layers))]
        self.owners = assign_layers(costs, self.cluster.world_size)

    # -- gradient helpers -------------------------------------------------------

    def _shard_outputs(self, lane) -> tuple[np.ndarray, np.ndarray, list]:
        """The shard's flat K-FAC-layer gradients, its flat other
        gradients and its factor Grams (which release the statistics)."""
        kfac = self.kfac
        layers = [lane.twin(layer) for layer in kfac.layers]
        other = [lane.twin(p).grad.ravel() for p in kfac.other_params]
        return (
            np.concatenate([layer.kfac_weight_grad().ravel() for layer in layers]),
            np.concatenate(other) if other else np.zeros(0, dtype=np.float32),
            kfac.local_factors(layers),
        )

    def _set_kfac_flat_grads(self, flat: np.ndarray) -> None:
        pos = 0
        for i in range(len(self.kfac.layers)):
            in_f, out_f = self.kfac.layer_dims(i)
            size = in_f * out_f
            self.kfac.layers[i].set_kfac_weight_grad(
                flat[pos : pos + size].reshape(out_f, in_f).astype(np.float32)
            )
            pos += size

    # -- one training iteration ---------------------------------------------------

    def step(self, global_idx: np.ndarray) -> float:
        # Defined here and not only inherited: perfbench's tracer patches
        # the method it finds in this class's own ``__dict__``.
        return super().step(global_idx)

    def _local_shard_pass(self, shards: list[np.ndarray], tracer):
        """Per-shard forward/backward, in lanes; collect losses, grads
        and K-FAC factors in shard order."""
        done = self._backward_per_shard(shards, tracer)
        losses = [s.loss for s in done]
        per_rank_grads, per_rank_other, per_rank_factors = (
            [s.outputs[k] for s in done] for k in range(3)
        )
        if self.cluster.is_timing:
            # Timing track: the single representative shard stands in for
            # every rank (factors are shared read-only; copy=False).
            cl = self.cluster
            return (
                losses,
                cl.replicate(per_rank_grads[0]),
                cl.replicate(per_rank_other[0]),
                cl.replicate(per_rank_factors[0], copy=False),
            )
        return losses, per_rank_grads, per_rank_other, per_rank_factors

    def _step(self, global_idx: np.ndarray, tracer) -> float:
        failures = self.cluster.begin_iteration(self.t)
        if failures:
            self._recover_from_failures(failures, tracer)
        guard = self.guard
        if guard is not None:
            guard.begin_step(self.t)
        shards = self._trimmed_shards(global_idx)
        losses, per_rank_grads, per_rank_other, per_rank_factors = self._local_shard_pass(
            shards, tracer
        )
        rt, bucket_bytes = self._schedule
        cm = rt.compute
        n_layers = len(self.kfac.layers)

        # SGD-gradient allreduce (counted under "others" in Fig. 1), issued
        # first so it travels under the factor exchange.
        grad_handles, other_handle = self._issue_grad_allreduce(
            per_rank_grads, len(shards[0]), tracer, whole=per_rank_other
        )

        # Step 2 of Fig. 2: factor allreduce, then running-average fold.
        # Per-layer payloads are coalesced into byte-threshold buckets, all
        # buckets in flight concurrently.
        with tracer.span("factor_allreduce", "factor", n_layers=n_layers):
            bucketer = Bucketer(
                rt,
                threshold_bytes=bucket_bytes or 1,  # 1: every layer flushes alone
                category="kfac_allreduce",
                average=True,
            )
            for i in range(n_layers):
                a_flat, wire_bytes = self._factor_payload(i, per_rank_factors)
                bucketer.add(i, a_flat, wire_nbytes=wire_bytes)
            reduced_factors = bucketer.wait()
        if self.factor_compressor is not None:
            self.factor_ratios.append(
                sum(r.nbytes for r in reduced_factors.values()) / bucketer.wire_bytes
            )

        with tracer.span("grad_wait", "comm"):
            reduced, grad_norm = self._reduced_gradient(grad_handles)
            self._set_kfac_flat_grads(reduced)
            if other_handle is not None:
                self._scatter_grads(
                    self.kfac.other_params, self._sanitize(other_handle.wait()[0])
                )
        for i in range(n_layers):
            in_f, out_f = self.kfac.layer_dims(i)
            cut = triangle_size(in_f)
            red = reduced_factors[i]
            self.kfac.accumulate_factors(
                i, mirror_upper(red[:cut], in_f), mirror_upper(red[cut:], out_f)
            )

        # Step 3: owner-rank eigendecomposition on the refresh schedule.
        # Every due layer's eigh begins at once; the loop commits them in
        # layer order, so failures and guard events come out as inline.
        refresh = self.t % self.kfac.inv_update_freq == 0
        due = [i for i in range(n_layers) if refresh or not self.kfac.state[i].ready]
        with tracer.span("eigendecomposition", "inverse", refresh=refresh):
            with self.kfac.eigen_batch(due):
                for i in due:
                    if guard is not None:
                        guard.safe_eigen(self.kfac, i)
                    else:
                        self.kfac.compute_eigen(i)
                    if cm is not None:
                        in_f, out_f = self.kfac.layer_dims(i)
                        self.cluster.advance_rank(
                            self.owners[i],
                            cm.eig_seconds(in_f) + cm.eig_seconds(out_f),
                            "kfac_compute",
                        )

        # Steps 4-5: owners precondition, compress, and eagerly distribute
        # each layer's result (per-layer broadcast from the owner — the
        # KAISA communication pattern); layer i's broadcast is in flight
        # while the owner of layer i+1 preconditions.  The guard's circuit
        # breaker can force the lossless path for the whole step.
        compressor = self.compressor if guard is None else guard.active(self.compressor)
        if self.autotune is not None:
            compressor = self.autotune.active_compressor(compressor)
        # A schedule that receives each broadcast before the next layer is
        # compressed (and the checksum channel, which settles each transfer
        # before the next) takes the layers one at a time; otherwise the
        # step's layers share their coder calls (DESIGN.md decision 33).
        batched = bucket_bytes is not None and self._channel is None
        groups = [range(n_layers)] if batched else [[i] for i in range(n_layers)]
        wire = 0.0
        original = 0.0
        layer_wire: list[tuple[int, float, float]] = []
        precond: dict[int, np.ndarray] = {}
        in_flight: list[tuple[int, object, np.ndarray]] = []
        for group in groups:
            pgs = []
            for i in group:
                with tracer.span("precondition", "precondition", layer=i):
                    pgs.append(self.kfac.precondition(i))
            payloads = pgs
            if compressor is not None and self._channel is None:
                payloads = compressor.compress_each(pgs)
            for i, pg, payload in zip(group, pgs, payloads):
                if cm is not None:
                    self.cluster.advance_rank(
                        self.owners[i],
                        cm.precondition_seconds(*self.kfac.layer_dims(i)),
                        "kfac_compute",
                    )
                original += pg.nbytes
                if compressor is not None and self._channel is not None:
                    # The checksum/retry protocol is barrier-synchronous on
                    # every schedule: retries must settle before the next
                    # transfer can be priced, so this transfer never overlaps.
                    precond[i], payload_bytes = self._reliable_allgather(pg, i, tracer)
                else:
                    payload_bytes = payload.nbytes
                    with tracer.span("allgather", "comm", layer=i, nbytes=payload_bytes):
                        handle = rt.ibroadcast(
                            payload,
                            root=self.owners[i],
                            nbytes=payload_bytes,
                            category="kfac_allgather",
                        )
                    if bucket_bytes is None:
                        precond.update(self._receive([(i, handle, pg)], compressor))
                    else:
                        in_flight.append((i, handle, pg))
                wire += payload_bytes
                layer_wire.append((i, payload_bytes, pg.nbytes))
        with tracer.span("allgather_wait", "comm"):
            precond.update(self._receive(in_flight, compressor))
        rt.assert_quiesced()
        return self._apply_and_record(
            losses, precond, wire, original, tracer, layer_wire, grad_norm
        )

    def _receive(self, in_flight: list[tuple[int, object, np.ndarray]], compressor) -> dict:
        """Wait for each ``(layer, handle, owner's tensor)`` in order, then
        decode the payloads under the guard's sentinels.

        Without a guard this is a plain ``decompress_each`` (nothing at all
        for dense payloads).  With one, a decode blow-up becomes a
        ``decode_failure`` verdict and the layer's update is dropped
        (zeros); each received tensor is scanned and checked against the
        active error-bound contract using the owner's original — no
        re-compression, so no RNG is consumed — before the next layer's
        verdicts, which are stamped at their own payload's arrival.
        """
        guard = self.guard
        payloads, arrived = [], []
        for _, handle, _ in in_flight:
            payloads.append(handle.wait()[0])
            arrived.append(self.cluster.time)
        layers = [i for i, _, _ in in_flight]
        if compressor is not None:
            if guard is None:
                return dict(zip(layers, compressor.decompress_each(payloads)))
            payloads = guard.safe_decompress_each(compressor, payloads, layers=layers)
        elif guard is None:
            return dict(zip(layers, payloads))
        payloads = iter(payloads)
        out = {}
        for (i, _, owner_pg), time in zip(in_flight, arrived):
            with guard.at(time):
                decoded = next(payloads)
                if decoded is None:
                    out[i] = np.zeros_like(owner_pg)
                    continue
                decoded = guard.scan(decoded, what="kfac_allgather")
                if compressor is not None:
                    guard.check_contract(owner_pg, decoded, compressor, layer=i)
            out[i] = decoded.reshape(owner_pg.shape)
        return out

    def _apply_and_record(
        self,
        losses: list[float],
        precond: dict[int, np.ndarray],
        wire: float,
        original: float,
        tracer,
        layer_wire: list[tuple[int, float, float]],
        grad_norm: float,
    ) -> float:
        """Step tail: apply the update, record history and metrics."""
        self.bytes_on_wire.append(wire)
        self.bytes_original.append(original)
        if original > 0:
            self.history.compression_ratios.append(original / max(wire, 1.0))

        # Update step (identical on every rank).
        if self.lr_schedule is not None:
            self.kfac.lr = self.lr_schedule.lr_at(self.t)
        with tracer.span("apply_update", "update"):
            self.kfac.apply(precond)
        if self.compressor is not None:
            self.compressor.step()
        mean_loss = float(np.mean(losses))
        self.history.losses.append(mean_loss)
        self.history.lrs.append(self.kfac.lr)
        m = get_metrics()
        if m.enabled:
            m.gauge("train.lr").set(self.kfac.lr)
            if original > 0:
                m.histogram("train.step_compression_ratio").observe(original / max(wire, 1.0))
        if self.autotune is not None:
            # Decide *before* the ledger folds the step so the decision
            # lands in the step record that produced it; a retune takes
            # effect from the next iteration's compression.
            self.autotune.end_step(
                step=self.t,
                wire_bytes=wire,
                dense_bytes=original,
                n_messages=len(layer_wire),
                sample=precond[min(precond)] if precond and self.autotune.wants_sample else None,
            )
        self._observe_step(
            mean_loss, self.kfac.lr, wire_bytes=wire, dense_bytes=original, layers=layer_wire
        )
        self.t += 1
        self.kfac.t = self.t
        if self.guard is not None:
            # Close the guarded iteration *after* the step counter moved:
            # a rollback remediation restores the checkpoint's counter, so
            # the next iteration resumes the rolled-back trajectory.
            self.guard.check_ef(self.compressor)
            self.guard.end_step(loss=mean_loss, grad_norm=grad_norm)
        return mean_loss

    def _factor_payload(
        self, i: int, per_rank_factors: list[list[tuple[np.ndarray, np.ndarray]]]
    ) -> tuple[list[np.ndarray], float | None]:
        """Per-rank factor message for layer ``i`` and its wire bytes.

        A rank's message is the float32 upper triangles (diagonal
        included) of its ``A`` and ``G``, back to back: the statistic is
        symmetric bit for bit, so reducing the triangles and mirroring
        afterwards equals reducing the squares.

        With a factor compressor, each rank's local contribution travels
        compressed; SR's unbiasedness makes per-rank errors average out
        in the sum (no feedback: factors are re-derived every iteration).
        ``wire_bytes`` is the mean compressed bytes per rank, ``None``
        for dense payloads.
        """
        timing = self.cluster.is_timing
        # Timing track: every rank's contribution is the representative
        # one, so it is compressed once.
        pairs = [per_rank_factors[0][i]] if timing else [f[i] for f in per_rank_factors]
        wire_bytes: float | None = None
        fc = self.factor_compressor
        if fc is not None:
            wire = 0
            decoded = []
            for pair in pairs:
                received = []
                for mat in pair:
                    ct = fc.compress(mat)
                    wire += ct.nbytes
                    received.append(fc.decompress(ct))
                decoded.append(received)
            wire_bytes = float(wire) / len(pairs)
            pairs = decoded
        flats = [
            np.concatenate([pack_upper(a), pack_upper(g)], dtype=np.float32) for a, g in pairs
        ]
        if timing:
            return self.cluster.replicate(flats[0], copy=False), wire_bytes
        return flats, wire_bytes

    # -- fault tolerance -------------------------------------------------------

    def _reliable_allgather(self, pg: np.ndarray, layer: int, tracer) -> tuple[np.ndarray, float]:
        """Checksummed compressed broadcast with retransmit + degradation.

        Returns the decoded gradient and the wire bytes actually spent
        (every retransmission and the checksum overhead included).  An
        unrecoverable transfer falls back to resending the raw tensor —
        the lossless path — and degrades the compressor for the next few
        iterations.
        """
        ct = self.compressor.compress(pg)
        with tracer.span("allgather", "comm", layer=layer, nbytes=ct.nbytes, reliable=True):
            sealed, report = self._channel.broadcast(
                ct, root=self.owners[layer], category="kfac_allgather"
            )
        wire = float(sealed.nbytes) * report.wire_bytes_factor
        if report.unrecoverable:
            root = self.owners[layer]
            with tracer.span("lossless_fallback", "comm", layer=layer, nbytes=pg.nbytes):
                # Take the root's own copy: the raw resend is the last line
                # of defence, and the owner's buffer is by construction
                # uncorrupted (faults hit receivers, never the sender).
                pg = self.cluster.broadcast(
                    pg, root=root, nbytes=pg.nbytes, category="kfac_allgather"
                )[root]
            wire += pg.nbytes
            m = get_metrics()
            if m.enabled:
                m.counter("faults.recovered", kind="lossless_fallback").inc()
            self._degrade_compressor()
            return pg, wire
        if report.detected:
            self._degrade_compressor()
        return self.compressor.decompress(sealed), wire

    def _degrade_compressor(self) -> None:
        if self.compressor.degrade() is None:
            return
        m = get_metrics()
        if m.enabled:
            m.counter("faults.recovered", kind="degrade").inc()

    def _recover_from_failures(self, failures: list[FailureEvent], tracer) -> None:
        """Elastic continuation after permanent rank loss.

        The world has already shrunk (``cluster.begin_iteration``); here
        the trainer repairs position-indexed state: restore from the
        latest checkpoint if the failure was unrecoverable, otherwise
        invalidate the dead ranks' eigendecompositions so the new owners
        rebuild them, then reassign layer ownership over the survivors.
        """
        m = get_metrics()
        with tracer.span("recover", "fault", n_failures=len(failures)):
            hard = [f for f in failures if not f.recoverable]
            if hard and self.restore_latest() is not None:
                if m.enabled:
                    m.counter("faults.recovered", kind="checkpoint_restore").inc()
            else:
                dead_positions = {f.index for f in failures}
                for i, owner in enumerate(self.owners):
                    if owner in dead_positions:
                        st = self.kfac.state[i]
                        st.QA = st.vA = st.QG = st.vG = None
                        if m.enabled:
                            m.counter("faults.recovered", kind="eigen_rebuild").inc()
            self._assign_owners()
            if m.enabled:
                m.counter("faults.recovered", kind="rank_failure").inc(len(failures))

    # -- checkpointing ---------------------------------------------------------

    def _durable_owners(self) -> dict:
        """The owners of this trainer's durable state, by archive section."""
        return {"param": self.model, "kfac": self.kfac, "compressor": self.compressor}

    def save_state(self):
        """Commit an atomic full-state checkpoint (model, K-FAC,
        compressor) as a new :attr:`checkpoint_store` generation."""
        if self.checkpoint_store is None:
            raise ValueError("save_state() needs a checkpoint_store")
        return self.checkpoint_store.save(
            self._durable_owners(), world_size=self.cluster.world_size, step=self.t
        )

    def restore_latest(self):
        """Restore the newest *verified* store generation (with fallback)
        and resume its exact trajectory (momentum, eigen state, adaptive
        bounds, SR RNG).

        Returns the restored :class:`~repro.store.Generation` — its
        ``step`` is where training resumes — or ``None`` without a store
        or with an empty one.  A corrupt newest generation is quarantined
        and the next-older verified one restored instead
        (:meth:`CheckpointStore.load_latest`); only a store with *no*
        verified generation raises.
        """
        if self.checkpoint_store is None:
            return None
        gen = self.checkpoint_store.load_latest(self._durable_owners())
        if gen is not None:
            self.t = self.kfac.t
        return gen

    def mean_compression_ratio(self) -> float:
        return self.history.mean_cr()
