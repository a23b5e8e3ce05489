"""Analytical GPU execution model (A100) for compression pipelines.

Stands in for the paper's CUDA kernels: compressed *sizes* come from the
real compressors in :mod:`repro.compression`/:mod:`repro.core`; kernel
*times* come from these models (memory passes, launches, reductions,
encoder saturation bandwidths calibrated against Table 2).
"""

from repro.gpusim.device import A100, H100, DeviceModel
from repro.gpusim.encoder_perf import ENCODER_PERF, EncoderPerf, TABLE2_CALIBRATION
from repro.gpusim.kernels import PIPELINES, KernelPipeline

__all__ = [
    "A100",
    "H100",
    "DeviceModel",
    "EncoderPerf",
    "ENCODER_PERF",
    "TABLE2_CALIBRATION",
    "KernelPipeline",
    "PIPELINES",
]
