"""Token embedding (first-order updated; K-FAC skips embeddings, as in
kfac-pytorch, because the one-hot activation factor is vocabulary-sized)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.util.seeding import spawn_rng

__all__ = ["Embedding"]


class Embedding(Module):
    """Integer token ids (N, T) -> vectors (N, T, dim)."""

    def __init__(self, vocab: int, dim: int, *, rng: np.random.Generator | int | None = 0):
        super().__init__()
        rng = spawn_rng(rng)
        self.weight = Parameter(rng.normal(0.0, 0.02, (vocab, dim)))
        self.vocab = vocab
        self.dim = dim

    def forward(self, ids: np.ndarray) -> np.ndarray:
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got {ids.dtype}")
        self._ids = ids
        return self.weight.data[ids]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ids, self._ids = self._ids, None
        flat_ids = ids.ravel()
        flat_grad = grad_out.reshape(-1, self.dim)
        np.add.at(self.weight.grad, flat_ids, flat_grad)
        # Token ids have no gradient.
        return np.zeros_like(ids, dtype=np.float32)
