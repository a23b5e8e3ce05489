"""Small transformer language models (BERT-style encoder / GPT-style decoder).

Pre-LN blocks with K-FAC-preconditioned Linear projections everywhere.
Sized to train in seconds on CPU while exposing the same per-layer K-FAC
gradient structure as the paper's BERT-large / GPT-neo-125M workloads.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import GELU
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter
from repro.nn.norm import LayerNorm
from repro.util.seeding import spawn_rng

__all__ = ["TransformerBlock", "TransformerLM"]


class TransformerBlock(Module):
    """Pre-LN block: x + attn(ln1(x)), then h + mlp(ln2(h))."""

    def __init__(self, dim: int, heads: int, ffn: int, *, causal: bool, rng=0):
        super().__init__()
        rng = spawn_rng(rng)
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, heads, causal=causal, rng=spawn_rng(rng, 0))
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, ffn, rng=spawn_rng(rng, 1))
        self.act = GELU()
        self.fc2 = Linear(ffn, dim, rng=spawn_rng(rng, 2))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x + self.attn(self.ln1(x))
        y = h + self.fc2(self.act(self.fc1(self.ln2(h))))
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g_mlp = self.ln2.backward(
            self.fc1.backward(self.act.backward(self.fc2.backward(grad_out)))
        )
        g_h = grad_out + g_mlp
        g_attn = self.ln1.backward(self.attn.backward(g_h))
        return g_h + g_attn


class TransformerLM(Module):
    """Token + learned positional embeddings, N blocks, final LN, LM head."""

    def __init__(
        self,
        vocab: int,
        dim: int = 32,
        heads: int = 4,
        n_layers: int = 2,
        max_seq: int = 64,
        *,
        causal: bool = True,
        rng=0,
    ):
        super().__init__()
        rng = spawn_rng(rng)
        self.embed = Embedding(vocab, dim, rng=spawn_rng(rng, 0))
        self.pos = Parameter(spawn_rng(rng, 1).normal(0.0, 0.02, (max_seq, dim)))
        self.blocks = [
            TransformerBlock(dim, heads, 4 * dim, causal=causal, rng=spawn_rng(rng, 2 + i))
            for i in range(n_layers)
        ]
        self.ln_f = LayerNorm(dim)
        self.head = Linear(dim, vocab, rng=spawn_rng(rng, 100))
        self.causal = causal
        self.vocab = vocab
        self.dim = dim

    def forward(self, ids: np.ndarray) -> np.ndarray:
        n, t = ids.shape
        h = self.embed(ids) + self.pos.data[:t]
        for blk in self.blocks:
            h = blk(h)
        self._t = t
        return self.head(self.ln_f(h))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.ln_f.backward(self.head.backward(grad_out))
        for blk in reversed(self.blocks):
            g = blk.backward(g)
        self.pos.grad[: self._t] += g.sum(axis=0)
        return self.embed.backward(g)
