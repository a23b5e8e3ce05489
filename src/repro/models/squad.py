"""Extractive-QA span-prediction model (SQuAD-style fine-tuning proxy).

A BERT-style encoder with per-position start/end heads, as in the
original BERT SQuAD recipe.  Used for Table 1: fine-tune under different
gradient compressors and compare span F1 / exact match against the
no-compression target.
"""

from __future__ import annotations

import numpy as np

from repro.models.transformer import TransformerBlock
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.norm import LayerNorm
from repro.util.seeding import spawn_rng

__all__ = ["SpanQaModel"]

#: Attention heads per block.
_HEADS = 4


class SpanQaModel(Module):
    """(N, T) token ids -> (N, T, 2) start/end span logits."""

    def __init__(
        self,
        vocab: int = 32,
        dim: int = 32,
        n_layers: int = 2,
        max_seq: int = 32,
        *,
        rng=0,
    ):
        super().__init__()
        rng = spawn_rng(rng)
        self.embed = Embedding(vocab, dim, rng=spawn_rng(rng, 0))
        self.pos = Parameter(spawn_rng(rng, 1).normal(0.0, 0.02, (max_seq, dim)))
        self.blocks = [
            TransformerBlock(dim, _HEADS, 4 * dim, causal=False, rng=spawn_rng(rng, 2 + i))
            for i in range(n_layers)
        ]
        self.ln_f = LayerNorm(dim)
        self.span_head = Linear(dim, 2, rng=spawn_rng(rng, 50))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        n, t = ids.shape
        h = self.embed(ids) + self.pos.data[:t]
        for blk in self.blocks:
            h = blk(h)
        self._t = t
        return self.span_head(self.ln_f(h))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.ln_f.backward(self.span_head.backward(grad_out))
        for blk in reversed(self.blocks):
            g = blk.backward(g)
        self.pos.grad[: self._t] += g.sum(axis=0)
        return self.embed.backward(g)
