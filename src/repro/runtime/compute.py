"""Modelled per-rank compute costs placed on the simulated clocks.

The seed trainers advance simulated time only inside collectives, so
there was nothing to hide communication *under*.  A :class:`ComputeModel`
prices the local work (forward, backward, eigendecomposition,
preconditioning) from parameter counts and the gpusim device model, and
the trainers charge those seconds to the per-rank ``SimClock``s — in
both the blocking and the overlapped execution mode, so the two differ
only in how communication time lands.

``train_flops`` is the effective sustained throughput.  The default is
mixed-precision-A100-like; the tiny proxy models used in tests and the
``repro overlap`` CLI pass a much smaller value so their modelled compute
is on the same scale as their modelled communication (as it is for the
paper's real models).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.device import A100

__all__ = ["ComputeModel"]


@dataclass(frozen=True)
class ComputeModel:
    """Analytic per-rank compute-time model for the trainers (an A100)."""

    #: Effective training throughput, FLOP/s.  ``None`` uses half the
    #: A100's tensor-core peak.
    train_flops: float | None = None
    #: Backward costs this multiple of forward (the usual 2x; a class
    #: constant, not a field).
    backward_factor = 2.0

    def __post_init__(self) -> None:
        if self.train_flops is not None and self.train_flops <= 0:
            raise ValueError(f"train_flops must be positive, got {self.train_flops}")

    @property
    def throughput(self) -> float:
        return self.train_flops if self.train_flops is not None else 0.5 * A100.tensor_flops

    def forward_seconds(self, n_params: int, samples: int) -> float:
        """One forward pass: ~2 FLOPs per parameter per sample."""
        return 2.0 * n_params * samples / self.throughput

    def backward_seconds(self, n_params: int, samples: int) -> float:
        return self.backward_factor * self.forward_seconds(n_params, samples)

    def eig_seconds(self, dim: int) -> float:
        """Owner-rank eigendecomposition of one ``dim x dim`` factor."""
        return A100.eig_time(dim)

    def precondition_seconds(self, in_f: int, out_f: int) -> float:
        """Owner-rank preconditioning matmuls for one layer."""
        return 2.0 * (in_f * in_f * out_f + out_f * out_f * in_f) / self.throughput
