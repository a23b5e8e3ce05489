"""GPU memory model for distributed K-FAC training (paper sections 2.2, 6).

The paper's argument against pipeline parallelism (PipeFisher) rests on
memory: K-FAC's factor/eigenvector state plus training state fits on
modern 40-80 GB GPUs for the models it accelerates, so plain data
parallelism suffices.  This module estimates the per-GPU footprint:

* model weights + gradients + momentum (fp32 or mixed precision);
* activations for the backward pass (batch and resolution dependent);
* K-FAC state: running factors A/G, their eigenvectors, and eigenvalues
  — roughly ``2 x factor_bytes`` beyond the factors themselves;
* workspace for the largest eigendecomposition.

Estimates land within the right few-GB bracket — enough to reproduce the
paper's qualitative claim (BERT-large K-FAC fits a 40 GB A100 but not a
16 GB P100/V100) and to drive placement decisions, not to replace a real
allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.catalogs import LayerShape

__all__ = ["MemoryEstimate", "estimate_kfac_memory", "fits_on"]

#: Extra per-layer tensors kept for backward besides the layer outputs
#: (normalisation statistics, activation-function inputs), as a multiple of
#: them; 2.0 reproduces measured fp32 footprints within ~2x for both CNNs
#: and transformers.
_ACTIVATION_MULTIPLIER = 2.0
#: Share of a GPU's memory kept for the CUDA context, fragmentation and
#: comm buffers.
_RESERVE_FRACTION = 0.1

#: Common GPU memory capacities, bytes.
GPU_MEMORY = {
    "p100-16gb": 16e9,
    "v100-16gb": 16e9,
    "v100-32gb": 32e9,
    "a100-40gb": 40e9,
    "a100-80gb": 80e9,
    "h200-141gb": 141e9,
}


@dataclass
class MemoryEstimate:
    """Per-GPU memory footprint, bytes by component."""

    weights: float
    gradients: float
    optimizer_state: float
    activations: float
    kfac_factors: float
    kfac_eigen: float
    workspace: float

    @property
    def total(self) -> float:
        return (
            self.weights
            + self.gradients
            + self.optimizer_state
            + self.activations
            + self.kfac_factors
            + self.kfac_eigen
            + self.workspace
        )


def _output_elements(layer: LayerShape) -> float:
    """Per-sample output activation count, derived from the FLOP count.

    Exact for both layer kinds: conv FLOPs are ``2*cout*cin*k^2*oh*ow``
    and the output is ``cout*oh*ow``; FC FLOPs are ``2*in*out*seq`` and
    the output is ``out*seq`` — either way output = flops / (2 * fan_in).
    """
    fan_in = max(layer.in_f - 1, 1)  # strip the bias column
    return layer.fwd_flops / (2.0 * fan_in)


def estimate_kfac_memory(catalog: list[LayerShape], *, per_gpu_batch: int) -> MemoryEstimate:
    """Estimate one worker's memory for fp32 K-FAC training of ``catalog``,
    with a momentum buffer."""
    params = sum(l.grad_elems for l in catalog)
    weights = params * 4.0
    gradients = params * 4.0
    optimizer_state = params * 4.0
    act_elems = sum(_output_elements(l) for l in catalog) * per_gpu_batch
    activations = act_elems * 4.0 * _ACTIVATION_MULTIPLIER
    factor_elems = sum(l.factor_elems for l in catalog)
    kfac_factors = factor_elems * 4.0
    kfac_eigen = factor_elems * 4.0 + sum((l.in_f + l.out_f) * 4.0 for l in catalog)
    largest = max(max(l.in_f, l.out_f) for l in catalog)
    workspace = 3.0 * largest * largest * 4.0
    return MemoryEstimate(
        weights, gradients, optimizer_state, activations, kfac_factors, kfac_eigen, workspace
    )


def fits_on(estimate: MemoryEstimate, gpu: str) -> bool:
    """Whether the footprint fits the named GPU, keeping a reserve for
    CUDA context, fragmentation and comm buffers."""
    try:
        capacity = GPU_MEMORY[gpu]
    except KeyError:
        raise KeyError(f"unknown GPU {gpu!r}; known: {sorted(GPU_MEMORY)}") from None
    return estimate.total <= capacity * (1.0 - _RESERVE_FRACTION)
