"""The COMPSO performance model (paper section 4.4, Eq. 5).

The model guarantees end-to-end gain by estimating, *before* committing
to a configuration, the communication speedup

    s = ( sum_i L_o / C_o ) / ( L_c / C_c  +  sum_i L_o / T_comp  +  L_c / T_decomp )

and the end-to-end speedup  ((1 - r) + r / s)^-1,  where:

* ``L_o`` / ``L_c`` — original / compressed gradient bytes (measured on
  real data online);
* ``C_o`` / ``C_c`` — communication throughput at those sizes, read from
  a **lookup table built offline** by sweeping synthetic message sizes and
  GPU counts on each system;
* ``T_comp`` / ``T_decomp`` — compressor throughputs averaged over the
  first ``k`` warmup iterations;
* ``r`` — the communication share of iteration time without compression.

Two decisions are driven by the model: the **layer-aggregation factor m**
(bigger aggregates amortise kernel/encoder overhead but delay the eager
per-layer pipeline) and the **lossless encoder** (smallest L_c at
acceptable throughput).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.layer_aggregation import LayerAggregator
from repro.distributed.collectives import allgather_time
from repro.distributed.network import NetworkSpec
from repro.encoders.registry import NVCOMP_CANDIDATES
from repro.gpusim.device import A100
from repro.gpusim.encoder_perf import ENCODER_INPUT_FRACTION, ENCODER_PERF
from repro.gpusim.kernels import PIPELINES

__all__ = ["CommLookupTable", "ProfiledStats", "PerformanceModel"]

#: The offline sweep: message sizes 1 KB .. 1 GB, and GPU counts, on 4-GPU nodes.
_SIZES = np.logspace(3, 9, 25)
_GPU_COUNTS = (4, 8, 16, 32, 64, 128, 256)
_GPUS_PER_NODE = 4


class CommLookupTable:
    """Offline message-size x GPU-count -> throughput table (section 4.4).

    Built once per system from synthetic-payload sweeps (our sweeps
    evaluate the simulator's collective cost model, playing the role of
    the paper's offline microbenchmarks) and queried online with
    log-space interpolation.
    """

    def __init__(self, network: NetworkSpec):
        self.network = network
        self.table: dict[int, np.ndarray] = {}
        for p in _GPU_COUNTS:
            tput = np.array(
                [s / max(allgather_time(network, p, s / p, _GPUS_PER_NODE), 1e-12) for s in _SIZES]
            )
            self.table[p] = tput

    def throughput(self, p: int, nbytes: float) -> float:
        """Interpolated aggregate throughput (bytes/s) for total payload."""
        if p <= 1:
            return float("inf")
        counts = np.array(_GPU_COUNTS)
        p_key = int(counts[np.argmin(np.abs(counts - p))])
        tput = self.table[p_key]
        log_n = np.log10(max(nbytes, _SIZES[0]))
        return float(np.interp(log_n, np.log10(_SIZES), tput))

    def time(self, p: int, nbytes: float) -> float:
        if nbytes <= 0 or p <= 1:
            return 0.0
        return nbytes / self.throughput(p, nbytes)


@dataclass
class ProfiledStats:
    """Online measurements from the first k warmup iterations."""

    L_o: float  # original bytes per iteration
    L_c: float  # compressed bytes per iteration
    T_comp: float  # compression throughput, bytes/s
    T_decomp: float  # decompression throughput, bytes/s
    r: float  # communication fraction of iteration time, in [0, 1]

    @property
    def ratio(self) -> float:
        return self.L_o / self.L_c if self.L_c > 0 else 1.0


class PerformanceModel:
    """Eq. 5 with the offline-online mechanism and its two decisions."""

    def __init__(self, network: NetworkSpec, world_size: int):
        self.network = network
        self.world_size = world_size
        self.lookup = CommLookupTable(network)

    # -- Eq. 5 ------------------------------------------------------------------

    def comm_speedup(self, stats: ProfiledStats) -> float:
        """Communication speedup including (de)compression overhead."""
        t_orig = self.lookup.time(self.world_size, stats.L_o)
        t_comp_payload = self.lookup.time(self.world_size, stats.L_c)
        overhead = stats.L_o / stats.T_comp + stats.L_c / stats.T_decomp
        denom = t_comp_payload + overhead
        if denom <= 0:
            return 1.0
        return t_orig / denom

    @staticmethod
    def end_to_end_speedup(s: float, r: float) -> float:
        """((1 - r) + r/s)^-1 — Amdahl over the communication share."""
        if s <= 0:
            return 1.0
        return 1.0 / ((1.0 - r) + r / s)

    def should_compress(self, stats: ProfiledStats) -> bool:
        """The model's end-to-end guarantee: compress only when predicted
        to win.  Latency-dominated payloads (tiny models, few ranks) are
        correctly left uncompressed."""
        return self.comm_speedup(stats) > 1.0

    # -- online profiling ----------------------------------------------------------

    def profile(
        self,
        grads: list[np.ndarray],
        compressor,
        *,
        r: float,
        aggregation: int = 1,
        k: int = 3,
    ) -> ProfiledStats:
        """Measure L_o/L_c on real gradients; model throughputs via gpusim.

        ``grads`` are one iteration's per-layer gradients; the compressor
        is invoked ``k`` times (warmup iterations) and sizes averaged —
        stochastic rounding makes compressed sizes iteration-dependent.
        """
        agg = LayerAggregator(aggregation)
        L_o = float(sum(g.nbytes for g in grads))
        sizes = []
        for _ in range(k):
            sizes.append(sum(compressor.group_nbytes(g) for g in agg.aggregate(list(grads))))
        L_c = float(np.mean(sizes))
        pipeline = PIPELINES["compso-cuda"]
        group_bytes = agg.group_bytes([g.size for g in grads])
        t_comp = sum(pipeline.compress_time(b, A100) for b in group_bytes)
        t_decomp = sum(pipeline.decompress_time(b, A100) for b in group_bytes)
        return ProfiledStats(
            L_o=L_o,
            L_c=L_c,
            T_comp=L_o / max(t_comp, 1e-12),
            T_decomp=L_o / max(t_decomp, 1e-12),
            r=r,
        )

    # -- decisions --------------------------------------------------------------------

    def choose_aggregation(
        self,
        grads: list[np.ndarray],
        compressor,
        *,
        r: float,
        candidates: tuple[int, ...] = (1, 2, 4, 8, 16),
    ) -> tuple[int, dict[int, float]]:
        """Pick the aggregation factor maximising end-to-end speedup."""
        scores: dict[int, float] = {}
        for m in candidates:
            stats = self.profile(grads, compressor, r=r, aggregation=m, k=1)
            scores[m] = self.end_to_end_speedup(self.comm_speedup(stats), r)
        best = max(scores, key=scores.get)
        return best, scores

    def choose_encoder(
        self,
        grads: list[np.ndarray],
        compso,
        *,
        aggregation: int = 4,
    ) -> tuple[str, dict[str, tuple[float, float]]]:
        """Pick the encoder with the best (size, modelled-throughput) trade.

        Score = estimated time to compress + communicate + decompress one
        iteration's gradients; returns the winner and per-candidate
        (compressed_bytes, est_time) for inspection.  ``compso`` is left on
        the encoder it came with, also when a probe raises.
        """
        agg = LayerAggregator(aggregation)
        results: dict[str, tuple[float, float]] = {}
        original_encoder = compso.encoder_name
        inputs = [b * ENCODER_INPUT_FRACTION for b in agg.group_bytes([g.size for g in grads])]
        try:
            for name in NVCOMP_CANDIDATES:
                compso.set_encoder(name)
                L_c = sum(compso.group_nbytes(g) for g in agg.aggregate(list(grads)))
                perf = ENCODER_PERF[name]
                t = sum(perf.compress_time(b) + perf.decompress_time(b) for b in inputs)
                t += self.lookup.time(self.world_size, L_c)
                results[name] = (float(L_c), float(t))
        finally:
            compso.set_encoder(original_encoder)
        best = min(results, key=lambda n: results[n][1])
        return best, results
