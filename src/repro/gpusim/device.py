"""GPU device model.

Compression is memory-bound with O(1) arithmetic intensity (paper
section 4.5), so a device is characterised by its HBM bandwidth, kernel
launch overhead, and FP32 throughput.  Shared-memory and register-file
latencies parameterise the reduction ablation (block reduction +
warp-level shuffle vs. naive shared-memory reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceModel", "A100"]


@dataclass(frozen=True)
class DeviceModel:
    name: str
    #: HBM bandwidth, bytes/s.
    mem_bw: float
    #: Kernel launch + dispatch overhead, seconds.
    launch_overhead: float
    #: FP32 ALU throughput, ops/s.
    fp32_flops: float
    #: Tensor-core matmul throughput (TF32), ops/s.
    tensor_flops: float = 156e12
    #: Effective cost multiplier for a shared-memory round trip relative
    #: to a warp-shuffle exchange (the paper cites one order of magnitude).
    smem_latency_factor: float = 10.0

    def mem_time(self, nbytes: float, passes: float = 1.0) -> float:
        """Seconds to stream ``nbytes`` through HBM ``passes`` times."""
        return passes * nbytes / self.mem_bw

    def compute_time(self, nbytes: float, ops_per_byte: float) -> float:
        return ops_per_byte * nbytes / self.fp32_flops

    def eig_time(self, dim: int) -> float:
        """Seconds for an eigendecomposition of a dim x dim matrix.

        ~26 flops/element (tridiagonalisation + divide & conquer + back
        transform) at 20% of FP32 peak matches measured cuSOLVER syevd
        times within a factor of ~2 across 512-8k dims (e.g. ~0.7 s at
        dim 4608 on A100).
        """
        flops = 26.0 * dim**3
        return flops / (0.2 * self.fp32_flops) + 20 * self.launch_overhead

    def inverse_time(self, dim: int) -> float:
        """Seconds for an implicit factor inversion (KAISA's alternative
        for very large factors): LU + triangular solves, ~2n^3 flops."""
        flops = 2.0 * dim**3
        return flops / (0.2 * self.fp32_flops) + 20 * self.launch_overhead


#: NVIDIA A100-40GB (the paper's GPU): 1.555 TB/s HBM2e, 19.5 TF FP32.
A100 = DeviceModel("a100", mem_bw=1.555e12, launch_overhead=4e-6, fp32_flops=19.5e12)

#: NVIDIA H100-SXM: 3.35 TB/s HBM3, 67 TF FP32, ~990 TF TF32 tensor.
#: Used for forward-looking sensitivity analysis (the performance model's
#: "various systems" use case, paper section 4.1).
H100 = DeviceModel(
    "h100",
    mem_bw=3.35e12,
    launch_overhead=3e-6,
    fp32_flops=67e12,
    tensor_flops=495e12,
)
