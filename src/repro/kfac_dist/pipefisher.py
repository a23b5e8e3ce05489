"""PipeFisher-style pipeline-parallel K-FAC model (paper section 6).

PipeFisher (Osawa et al., MLSys'23) splits the model into pipeline
stages and fills the 1F1B pipeline *bubbles* with K-FAC work, targeting
memory-limited GPUs (16 GB P100/V100) that cannot hold a full replica.
The paper argues this is obsolete on 40-80 GB GPUs: data parallelism
fits, avoids pipeline bubbles and stage-boundary activation traffic, and
composes with COMPSO.

This module models one PipeFisher training iteration so the argument is
quantitative:

* stage compute: the global batch is split into ``microbatches``; a 1F1B
  schedule has bubble fraction ``(S-1)/(M+S-1)``;
* K-FAC work (factor statistics, eigendecompositions, preconditioning)
  runs inside the bubbles; only the overflow beyond bubble capacity adds
  to the critical path;
* stage-boundary traffic: activations and their gradients cross each
  stage cut twice per microbatch.

Compare against :class:`KfacIterationModel` (data-parallel KAISA) at the
same GPU count, and against :mod:`repro.kfac_dist.memory` for the per-GPU
footprint (a pipeline stage holds ~1/S of the model and activations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.network import Platform
from repro.gpusim.device import A100
from repro.kfac_dist.timing import TimingProfile
from repro.models.catalogs import LayerShape

__all__ = ["PipeFisherModel", "PipelineBreakdown"]


@dataclass
class PipelineBreakdown:
    """One pipeline-parallel iteration, seconds by component."""

    stage_compute: float  # useful fwd+bwd work on the critical stage
    bubble: float  # pipeline fill/drain idle on the critical path
    kfac_exposed: float  # K-FAC work that did not fit in the bubbles
    kfac_hidden: float  # K-FAC work absorbed by bubbles (informational)
    p2p: float  # stage-boundary activation traffic

    @property
    def total(self) -> float:
        return self.stage_compute + self.bubble + self.kfac_exposed + self.p2p


class PipeFisherModel:
    """Analytic 1F1B pipeline with bubble-filled K-FAC."""

    def __init__(
        self,
        catalog: list[LayerShape],
        platform: Platform,
        *,
        stages: int = 4,
        microbatches: int = 8,
        profile: TimingProfile,
    ):
        if stages < 2:
            raise ValueError("a pipeline needs at least 2 stages")
        if microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        self.catalog = catalog
        self.platform = platform
        self.stages = stages
        self.microbatches = microbatches
        self.profile = profile
        # Split layers into contiguous stages balanced by forward FLOPs.
        self.stage_layers = self._split_by_flops()

    def _split_by_flops(self) -> list[list[LayerShape]]:
        total = sum(l.fwd_flops for l in self.catalog)
        target = total / self.stages
        out: list[list[LayerShape]] = [[] for _ in range(self.stages)]
        acc = 0.0
        si = 0
        for l in self.catalog:
            if acc >= target * (si + 1) and si < self.stages - 1:
                si += 1
            out[si].append(l)
            acc += l.fwd_flops
        return out

    # -- components --------------------------------------------------------------

    def _stage_fwd_bwd(self, layers: list[LayerShape]) -> float:
        """Fwd+bwd seconds for one stage over the replica's batch.

        For an equal-GPU comparison with data parallelism, the S-stage
        pipeline must process S times the per-GPU batch (the samples the
        S data-parallel replicas would have shared).
        """
        batch = self.profile.per_gpu_batch * self.stages
        flops = 3.0 * sum(l.fwd_flops for l in layers) * batch
        return flops / self.profile.train_flops

    def _stage_kfac_work(self, layers: list[LayerShape]) -> float:
        """Per-iteration K-FAC seconds a stage must fit into its bubbles."""
        dev = A100
        p = self.profile
        stats = sum(
            2.0 * (l.in_f**2 + l.out_f**2) * p.stat_samples / (0.6 * dev.tensor_flops)
            for l in layers
        )
        eig = sum(dev.eig_time(min(l.in_f, p.eig_dim_cap)) + dev.eig_time(min(l.out_f, p.eig_dim_cap)) for l in layers)
        pre = sum(
            2.0 * (l.in_f**2 * l.out_f + l.out_f**2 * l.in_f) / (0.6 * dev.tensor_flops)
            for l in layers
        )
        return stats + eig / p.inv_update_freq + pre

    def _boundary_bytes(self) -> float:
        """Activation bytes crossing one stage cut, per microbatch."""
        # Use the last layer of each stage's output size as the cut width.
        sizes = []
        for layers in self.stage_layers[:-1]:
            last = layers[-1]
            out_elems = last.fwd_flops / (2.0 * max(last.in_f - 1, 1))
            sizes.append(out_elems * 4.0)
        replica_batch = self.profile.per_gpu_batch * self.stages
        micro = max(replica_batch // self.microbatches, 1)
        return float(np.mean(sizes)) * micro if sizes else 0.0

    # -- composed -------------------------------------------------------------------

    def breakdown(self) -> PipelineBreakdown:
        s, m = self.stages, self.microbatches
        critical = max(self._stage_fwd_bwd(layers) for layers in self.stage_layers)
        bubble_fraction = (s - 1) / (m + s - 1)
        # 1F1B wall-clock = useful work / (1 - bubble fraction).
        pipeline_time = critical / (1.0 - bubble_fraction)
        bubble = pipeline_time - critical
        kfac = max(self._stage_kfac_work(layers) for layers in self.stage_layers)
        hidden = min(kfac, bubble)
        exposed = kfac - hidden
        # Stage-boundary traffic: fwd activation + bwd gradient per
        # microbatch per cut, over NVLink (stages co-located per node).
        net = self.platform.network
        per_cut = self._boundary_bytes()
        p2p = 2.0 * per_cut * m / net.intra_bw + 2.0 * m * net.intra_lat
        return PipelineBreakdown(
            stage_compute=critical,
            bubble=bubble,
            kfac_exposed=exposed,
            kfac_hidden=hidden,
            p2p=p2p,
        )

    def per_stage_memory_fraction(self) -> float:
        """Rough share of a full replica's weights held per stage."""
        params = [sum(l.grad_elems for l in layers) for layers in self.stage_layers]
        return max(params) / max(sum(params), 1)
