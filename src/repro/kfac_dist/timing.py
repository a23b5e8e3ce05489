"""Analytic iteration-time model for distributed K-FAC at real scale.

Fig. 1 (time breakdown), Fig. 7 (communication speedup) and Fig. 9
(end-to-end gain) evaluate the paper's real models on 64-256 GPUs; this
module models one KAISA training iteration from a layer-shape catalog,
the platform's network, and the A100 device model:

* **Forward+Backward** — 3x forward FLOPs at an effective training rate
  (mixed-precision A100, ~32 TFLOP/s);
* **KFAC Allreduce** — factor allreduce (symmetric, so half the factor
  elements travel), amortised over the factor-update interval;
* **KFAC Computations** — local factor statistics, the owner's
  eigendecompositions (amortised over the inverse-update interval) and
  preconditioning matmuls;
* **KFAC Allgather** — the preconditioned-gradient exchange: the payload
  COMPSO compresses.  With compression, the payload shrinks by the
  measured ratio and per-rank (de)compression overhead from the gpusim
  kernel pipeline is added;
* **Others** — the non-overlapped residue of the DDP gradient allreduce
  (bucketed allreduce overlaps with backward) plus fixed per-iteration
  overhead (data loading, optimizer step).

The communication terms price one step plan (:meth:`KfacIterationModel.plan`,
message counts from ``LayerAggregator``) through ``COLLECTIVE_COSTS``, the
table ``SimCluster`` prices the executed trainer with;
``tests/test_step_plan.py`` holds the two together and names where they
differ by design (DESIGN.md decision 29).

Constants are calibrated so the no-compression breakdown reproduces
Fig. 1's 16-node columns; everything else (scaling with nodes, platforms,
compression) follows from the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.layer_aggregation import LayerAggregator
from repro.distributed.collectives import COLLECTIVE_COSTS
from repro.distributed.network import Platform
from repro.gpusim.device import A100, DeviceModel
from repro.gpusim.kernels import PIPELINES, KernelPipeline
from repro.kfac_dist.assignment import assign_layers, eig_cost
from repro.models.catalogs import LayerShape

__all__ = ["CompressionSpec", "IterationBreakdown", "KfacIterationModel", "MODEL_TIMING_PROFILES"]


@dataclass(frozen=True)
class CompressionSpec:
    """What the timing model needs to know about a compressor."""

    #: Achieved compression ratio on the allgather payload.
    ratio: float
    #: gpusim kernel pipeline used for overhead modelling.
    pipeline: KernelPipeline
    #: Layer-aggregation factor (COMPSO's m).
    aggregation: int = 1

    @staticmethod
    def compso(ratio: float, aggregation: int = 4) -> "CompressionSpec":
        return CompressionSpec(ratio, PIPELINES["compso-cuda"], aggregation)


class Exchange(NamedTuple):
    """One collective of a step's plan: the trainer's ``SimCluster``
    category for it, its ``COLLECTIVE_COSTS`` op and that op's size
    argument (bytes per rank for an allgather), the eager messages that
    each pay ``message_overhead``, and the iterations between two."""

    category: str
    op: str
    nbytes: float
    messages: int
    every: int


@dataclass
class IterationBreakdown:
    """Per-iteration seconds by Fig. 1 category."""

    fwd_bwd: float
    kfac_compute: float
    kfac_allreduce: float
    kfac_allgather: float
    others: float
    #: (De)compression overhead, kept separate so Fig. 7's "communication
    #: time excludes compression overhead" comparison is possible.
    compression: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.fwd_bwd
            + self.kfac_compute
            + self.kfac_allreduce
            + self.kfac_allgather
            + self.others
            + self.compression
        )

    def fractions(self) -> dict[str, float]:
        t = self.total
        return {
            "kfac_allgather": self.kfac_allgather / t,
            "kfac_allreduce": self.kfac_allreduce / t,
            "kfac_compute": self.kfac_compute / t,
            "fwd_bwd": self.fwd_bwd / t,
            "others": (self.others + self.compression) / t,
        }

    def overlapped_total(self, *, assumed_overlap: float) -> float:
        """Iteration time when part of the K-FAC communication hides under
        computation (KAISA's cross-layer overlap, section 2.2): up to
        ``assumed_overlap * (fwd_bwd + kfac_compute)`` of the comm time
        disappears behind compute.  The executed alternative is a
        :class:`~repro.runtime.StreamRuntime`, whose
        :meth:`~repro.runtime.StreamRuntime.hidden_fraction` measures it.
        """
        if not 0.0 <= assumed_overlap <= 1.0:
            raise ValueError(f"assumed_overlap must be in [0, 1], got {assumed_overlap}")
        comm = self.kfac_allgather + self.kfac_allreduce
        hideable = assumed_overlap * (self.fwd_bwd + self.kfac_compute)
        exposed_comm = max(comm - hideable, 0.0)
        return self.fwd_bwd + self.kfac_compute + exposed_comm + self.others + self.compression


@dataclass
class TimingProfile:
    """Per-model calibration constants."""

    per_gpu_batch: int
    #: Effective training throughput per GPU (FLOP/s, mixed precision).
    train_flops: float = 32e12
    #: Factor allreduce interval (iterations).
    factor_update_freq: int = 10
    #: Eigendecomposition interval (iterations).
    inv_update_freq: int = 100
    #: *Assumed* fraction of the DDP gradient allreduce hidden under
    #: backward.  A :class:`repro.runtime.StreamRuntime` run measures this
    #: instead (``StreamRuntime.hidden_fraction``).
    grad_overlap: float = 0.8
    #: Fixed per-iteration overhead as a fraction of fwd+bwd time.
    fixed_overhead_frac: float = 0.15
    #: Samples per factor-statistics matmul (K-FAC implementations cap this).
    stat_samples: int = 256
    #: Factors larger than this use KAISA's implicit inversion instead of
    #: eigendecomposition (memory/time optimisation, paper section 2.2).
    eig_dim_cap: int = 8192
    #: Per-message software overhead of the eager per-layer exchange
    #: (collective launch, size negotiation, stream sync).  This is the
    #: term layer aggregation amortises: the baseline pays it per layer,
    #: COMPSO per aggregate of m layers.
    message_overhead: float = 120e-6


#: Calibrated against Fig. 1's 16-node (64 GPU) columns: grid-searched so
#: the modelled no-compression breakdown matches the paper's fractions to
#: within a few percent per category.
MODEL_TIMING_PROFILES: dict[str, TimingProfile] = {
    "resnet50": TimingProfile(
        per_gpu_batch=48,
        train_flops=40e12,
        factor_update_freq=15,
        inv_update_freq=50,
        stat_samples=512,
        fixed_overhead_frac=0.30,
        grad_overlap=0.9,
    ),
    "maskrcnn": TimingProfile(
        per_gpu_batch=3,
        train_flops=20e12,
        factor_update_freq=30,
        inv_update_freq=60,
        stat_samples=256,
        fixed_overhead_frac=0.20,
        grad_overlap=0.85,
    ),
    "bert-large": TimingProfile(
        per_gpu_batch=16,
        train_flops=56e12,
        factor_update_freq=10,
        inv_update_freq=10,
        stat_samples=2048,
        fixed_overhead_frac=0.12,
        grad_overlap=0.85,
    ),
    "gpt-neo-125m": TimingProfile(
        per_gpu_batch=2,
        train_flops=35e12,
        factor_update_freq=12,
        inv_update_freq=10,
        stat_samples=2048,
        fixed_overhead_frac=0.15,
        grad_overlap=0.9,
    ),
}


class KfacIterationModel:
    """Models one distributed K-FAC iteration over a layer catalog."""

    def __init__(
        self,
        catalog: list[LayerShape],
        platform: Platform,
        n_nodes: int,
        *,
        profile: TimingProfile,
        device: DeviceModel = A100,
    ):
        self.catalog = catalog
        self.platform = platform
        self.n_nodes = n_nodes
        self.profile = profile
        self.device = device
        self.world = platform.world_size(n_nodes)
        self.owners = assign_layers(
            [eig_cost(l.in_f, l.out_f) for l in catalog], self.world
        )
        self.grad_bytes = float(sum(l.grad_bytes for l in catalog))
        self.factor_bytes = float(sum(l.factor_bytes for l in catalog))

    # -- component models ---------------------------------------------------------

    def fwd_bwd_time(self) -> float:
        flops = 3.0 * sum(l.fwd_flops for l in self.catalog) * self.profile.per_gpu_batch
        return flops / self.profile.train_flops

    def kfac_compute_time(self) -> float:
        p = self.profile
        dev = self.device
        # Local factor statistics: every rank, every layer, capped samples.
        stats = sum(
            2.0 * (l.in_f**2 + l.out_f**2) * p.stat_samples / (0.6 * dev.tensor_flops)
            for l in self.catalog
        )
        # Owner work, balanced by LPT: take the most loaded rank.
        per_rank_eig = np.zeros(self.world)
        per_rank_pre = np.zeros(self.world)

        def solve_time(dim: int) -> float:
            if dim > p.eig_dim_cap:
                return dev.inverse_time(dim)
            return dev.eig_time(dim)

        for l, owner in zip(self.catalog, self.owners):
            per_rank_eig[owner] += solve_time(l.in_f) + solve_time(l.out_f)
            per_rank_pre[owner] += 2.0 * (
                l.in_f**2 * l.out_f + l.out_f**2 * l.in_f
            ) / (0.6 * dev.tensor_flops)
        eig = float(per_rank_eig.max()) / p.inv_update_freq
        pre = float(per_rank_pre.max())
        return stats + eig + pre

    def others_time(self, grad_allreduce: float) -> float:
        """The priced DDP gradient allreduce's residue under the profile's
        assumed ``grad_overlap``, plus fixed overhead."""
        residue = (1.0 - self.profile.grad_overlap) * grad_allreduce
        return residue + self.profile.fixed_overhead_frac * self.fwd_bwd_time()

    # -- the step plan -------------------------------------------------------------

    def plan(self, compression: CompressionSpec | None, factor_ratio: float) -> list[Exchange]:
        """One iteration's collectives in the trainer's order.  The factor
        triangle is priced as ``factor_bytes / 2`` over ``factor_ratio``
        (factor compression, paper section 7); the preconditioned gradients
        go as one eager message per aggregation group."""
        payload = self.grad_bytes
        aggregation = 1
        if compression is not None:
            payload = self.grad_bytes / compression.ratio
            aggregation = compression.aggregation
        messages = len(LayerAggregator(aggregation).groups(len(self.catalog)))
        freq = self.profile.factor_update_freq
        return [
            Exchange("grad_allreduce", "allreduce", self.grad_bytes, 0, 1),
            Exchange("kfac_allreduce", "allreduce", self.factor_bytes / 2 / factor_ratio, 0, freq),
            Exchange("kfac_allgather", "allgather", payload / self.world, messages, 1),
        ]

    def _prices(self, plan: list[Exchange]) -> dict[str, float]:
        """Seconds per iteration by category: the collective, amortised over
        its interval, plus every eager message's software overhead."""
        net, gpn = self.platform.network, self.platform.gpus_per_node
        return {
            e.category: COLLECTIVE_COSTS[e.op](net, self.world, e.nbytes, gpn) / e.every
            + e.messages * self.profile.message_overhead
            for e in plan
        }

    def _codec_seconds(self, spec: CompressionSpec, factor_ratio: float) -> float:
        """The most loaded rank's compress-own-share time (as
        :meth:`kfac_compute_time` takes the most loaded rank's solves) +
        decompress-everything time, plus the factor payload's when it
        travels compressed (amortised like its allreduce)."""
        agg = LayerAggregator(spec.aggregation)
        own_sizes: list[list[int]] = [[] for _ in range(self.world)]
        for l, owner in zip(self.catalog, self.owners):
            own_sizes[owner].append(l.grad_elems)
        comp = max(
            sum(spec.pipeline.compress_time(b, self.device) for b in agg.group_bytes(sizes))
            for sizes in own_sizes
        )
        all_sizes = [l.grad_elems for l in self.catalog]
        decomp = sum(
            spec.pipeline.decompress_time(b, self.device) for b in agg.group_bytes(all_sizes)
        )
        seconds = comp + decomp
        if factor_ratio > 1.0:
            seconds += (
                spec.pipeline.compress_time(self.factor_bytes / 2 / self.world, self.device)
                + spec.pipeline.decompress_time(self.factor_bytes / 2, self.device)
            ) / self.profile.factor_update_freq
        return seconds

    # -- composed ------------------------------------------------------------------

    def breakdown(
        self,
        compression: CompressionSpec | None = None,
        *,
        factor_ratio: float = 1.0,
    ) -> IterationBreakdown:
        seconds = self._prices(self.plan(compression, factor_ratio))
        return IterationBreakdown(
            fwd_bwd=self.fwd_bwd_time(),
            kfac_compute=self.kfac_compute_time(),
            kfac_allreduce=seconds["kfac_allreduce"],
            kfac_allgather=seconds["kfac_allgather"],
            others=self.others_time(seconds["grad_allreduce"]),
            compression=(
                0.0 if compression is None else self._codec_seconds(compression, factor_ratio)
            ),
        )

    def record_trace(self, tracer) -> IterationBreakdown:
        """Compute the uncompressed :meth:`breakdown` and emit it as
        sim-track spans.

        One span per Fig. 1 category, laid out sequentially on rank 0's
        timeline starting at the tracer's cursor.  Downstream consumers
        (the Fig. 1 bench, `repro trace` summaries) read the numbers back
        from the tracer, so the figure and the trace share one source.
        """
        from repro.telemetry import SIM_TRACK

        bd = self.breakdown()
        start = tracer.cursor(SIM_TRACK, 0)
        parts = [
            ("fwd_bwd", bd.fwd_bwd),
            ("kfac_compute", bd.kfac_compute),
            ("kfac_allreduce", bd.kfac_allreduce),
            ("kfac_allgather", bd.kfac_allgather),
            ("others", bd.others),
        ]
        for category, seconds in parts:
            tracer.add_span(
                category,
                category,
                seconds,
                start=start,
                track=SIM_TRACK,
                rank=0,
                nodes=self.n_nodes,
                world=self.world,
            )
            start += seconds
        return bd

    def comm_speedup(self, compression: CompressionSpec) -> float:
        """Allgather speedup from compression, (de)compression excluded as in
        Fig. 7."""
        base = self._prices(self.plan(None, 1.0))["kfac_allgather"]
        return base / self._prices(self.plan(compression, 1.0))["kfac_allgather"]

    def end_to_end_speedup(
        self, compression: CompressionSpec, *, factor_ratio: float = 1.0
    ) -> float:
        """Iteration-time ratio: no compression vs compressed (Fig. 9)."""
        return (
            self.breakdown(None).total
            / self.breakdown(compression, factor_ratio=factor_ratio).total
        )
