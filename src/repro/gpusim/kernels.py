"""Structural cost models of the (de)compression kernel pipelines (Fig. 8).

A pipeline is described by what a profiler would see: kernel launches
(fixed plus per-megabyte for framework-dispatched implementations),
passes over the payload in HBM, ALU work per byte, an extrema-reduction
stage, and an entropy-encoder stage applied to the already-reduced
payload.  The section 4.5 GPU optimizations map directly onto these
knobs:

* **kernel fusion** — fused CUDA pipelines have a handful of launches and
  ~2 HBM passes; PyTorch-style implementations dispatch one kernel per
  tensor op, modelled as launches growing with payload size and extra
  passes for the intermediate tensors they materialise;
* **block reduction + warp shuffle** — finding per-layer extrema costs a
  fraction of a pass; without warp shuffles the block-level combine goes
  through shared memory, an order of magnitude slower per exchange
  (``DeviceModel.smem_latency_factor``), modelled as a multiplier on the
  reduction term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.gpusim.device import A100, DeviceModel
from repro.gpusim.encoder_perf import ENCODER_PERF
from repro.telemetry import DEVICE_TRACK, get_tracer

__all__ = ["KernelPipeline", "PIPELINES"]


def _trace_kernels(op: str, pipeline: str, nbytes: float, stages: list[tuple[str, float]]) -> None:
    """Emit one parent span plus per-stage child spans on the device track.

    Spans stack sequentially at the device-track cursor, building the
    timeline a profiler would show for the modelled kernel pipeline.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return
    total = sum(dur for _, dur in stages)
    start = tracer.cursor(DEVICE_TRACK, 0)
    tracer.add_span(
        f"{pipeline}.{op}",
        "kernel",
        total,
        start=start,
        track=DEVICE_TRACK,
        pipeline=pipeline,
        nbytes=nbytes,
    )
    cursor = start
    for stage, dur in stages:
        tracer.add_span(
            stage, f"kernel.{stage}", dur, start=cursor, track=DEVICE_TRACK, depth=1
        )
        cursor += dur


@dataclass(frozen=True)
class KernelPipeline:
    """Profiler-level description of one compressor implementation."""

    name: str
    #: Fixed kernel launches per invocation.
    launches: int
    #: Extra launches per MB of payload (framework op dispatch).
    launches_per_mb: float
    #: Full passes over the payload through HBM.
    mem_passes: float
    #: ALU operations per input byte (normalisation, RNG for SR, packing).
    ops_per_byte: float
    #: Entropy encoder applied after the lossy stages (None = none).
    encoder: str | None
    #: Fraction of the payload reaching the encoder (post filter/pack).
    encoded_fraction: float
    #: Extrema reduction: fraction of a pass spent reducing.
    reduction_passes: float = 0.15
    #: True when block reduction finishes with warp shuffles (section 4.5).
    warp_shuffle: bool = True

    def compress_time(self, nbytes: float, device: DeviceModel = A100) -> float:
        """Modelled seconds to compress ``nbytes`` on ``device``."""
        if nbytes <= 0:
            return 0.0
        launches = self.launches + self.launches_per_mb * nbytes / 1e6
        red = device.mem_time(nbytes, self.reduction_passes)
        if not self.warp_shuffle:
            red *= device.smem_latency_factor
        stages = [
            ("launch", launches * device.launch_overhead),
            ("hbm", device.mem_time(nbytes, self.mem_passes)),
            ("alu", device.compute_time(nbytes, self.ops_per_byte)),
            ("reduce", red),
        ]
        if self.encoder is not None:
            stages.append(
                ("encode", ENCODER_PERF[self.encoder].compress_time(nbytes * self.encoded_fraction))
            )
        _trace_kernels("compress", self.name, nbytes, stages)
        return sum(dur for _, dur in stages)

    def decompress_time(self, nbytes: float, device: DeviceModel = A100) -> float:
        """Modelled seconds to decompress back to ``nbytes`` of output."""
        if nbytes <= 0:
            return 0.0
        launches = self.launches + self.launches_per_mb * nbytes / 1e6
        stages = [
            ("launch", launches * device.launch_overhead),
            # Decompression skips the reduction and roughly one pass.
            ("hbm", device.mem_time(nbytes, max(self.mem_passes - 0.5, 1.0))),
            ("alu", device.compute_time(nbytes, self.ops_per_byte * 0.5)),
        ]
        if self.encoder is not None:
            stages.append(
                (
                    "decode",
                    ENCODER_PERF[self.encoder].decompress_time(nbytes * self.encoded_fraction),
                )
            )
        _trace_kernels("decompress", self.name, nbytes, stages)
        return sum(dur for _, dur in stages)

    def throughput(self, nbytes: float, device: DeviceModel = A100) -> float:
        """Compression throughput in GB/s at payload size ``nbytes``."""
        return nbytes / self.compress_time(nbytes, device) / 1e9

    def without_fusion(self) -> "KernelPipeline":
        """Ablation: split the fused kernel into per-stage launches."""
        return replace(
            self,
            name=self.name + "-nofusion",
            launches=self.launches * 4,
            launches_per_mb=self.launches_per_mb + 0.4,
            mem_passes=self.mem_passes + 2.0,
        )

    def without_warp_shuffle(self) -> "KernelPipeline":
        """Ablation: extrema reduction through shared memory only."""
        return replace(self, name=self.name + "-noshuffle", warp_shuffle=False)


#: The five Fig. 8 series.  Constants are chosen so the curves reproduce
#: the figure's ordering and scale: fused CUDA pipelines saturate near
#: 100 GB/s, PyTorch implementations are launch-bound, COMPSO is ~1.7x
#: CocktailSGD, and QSGD (CUDA) edges out COMPSO by skipping the filter.
PIPELINES: dict[str, KernelPipeline] = {
    "compso-cuda": KernelPipeline(
        "compso-cuda",
        launches=3,
        launches_per_mb=0.0,
        mem_passes=2.5,
        ops_per_byte=30.0,  # normalise + filter + SR (Philox RNG) + pack
        encoder="ans",
        encoded_fraction=0.30,
    ),
    "qsgd-cuda": KernelPipeline(
        "qsgd-cuda",
        launches=2,
        launches_per_mb=0.0,
        mem_passes=2.0,
        ops_per_byte=24.0,  # no filter stage
        encoder="ans",
        encoded_fraction=0.28,
    ),
    "sz-cuda": KernelPipeline(
        "sz-cuda",
        launches=4,
        launches_per_mb=0.0,
        mem_passes=3.5,
        ops_per_byte=35.0,  # dual-quant + Lorenzo + outlier gather
        encoder="huffman",
        encoded_fraction=0.30,
    ),
    "qsgd-pytorch": KernelPipeline(
        "qsgd-pytorch",
        launches=14,
        launches_per_mb=1.2,
        mem_passes=9.0,  # materialised intermediates per tensor op
        ops_per_byte=24.0,
        encoder="ans",
        encoded_fraction=0.28,
    ),
    "cocktail-pytorch": KernelPipeline(
        "cocktail-pytorch",
        launches=22,
        launches_per_mb=0.8,
        mem_passes=10.0,  # random sampling + top-k sort + quantise
        ops_per_byte=40.0,
        encoder="ans",
        encoded_fraction=0.22,
    ),
}
