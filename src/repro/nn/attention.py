"""Multi-head self-attention built from Linear projections.

The QKV/output projections are :class:`repro.nn.Linear` modules, so they
are K-FAC-preconditioned like every other dense layer (this is what makes
the transformer proxies exercise the same per-layer K-FAC gradient sizes
and sensitivities as BERT/GPT).  The softmax-attention core has a
hand-written backward.
"""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.util.seeding import spawn_rng

__all__ = ["MultiHeadSelfAttention"]


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class MultiHeadSelfAttention(Module):
    """(N, T, D) -> (N, T, D) with ``heads`` attention heads."""

    def __init__(
        self,
        dim: int,
        heads: int,
        *,
        causal: bool = False,
        rng: np.random.Generator | int | None = 0,
    ):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        rng = spawn_rng(rng)
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.causal = causal
        self.wq = Linear(dim, dim, rng=spawn_rng(rng, 0))
        self.wk = Linear(dim, dim, rng=spawn_rng(rng, 1))
        self.wv = Linear(dim, dim, rng=spawn_rng(rng, 2))
        self.wo = Linear(dim, dim, rng=spawn_rng(rng, 3))

    def _split(self, x: np.ndarray) -> np.ndarray:
        n, t, _ = x.shape
        return x.reshape(n, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        n, h, t, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n, t, h * d)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, t, _ = x.shape
        q = self._split(self.wq(x))
        k = self._split(self.wk(x))
        v = self._split(self.wv(x))
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = np.einsum("nhtd,nhsd->nhts", q, k) * scale
        if self.causal:
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            scores = np.where(mask, -1e9, scores)
        attn = _softmax(scores)
        ctx = np.einsum("nhts,nhsd->nhtd", attn, v)
        self._cache = (q, k, v, attn, scale)
        return self.wo(self._merge(ctx))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (q, k, v, attn, scale), self._cache = self._cache, None
        d_ctx = self._split(self.wo.backward(grad_out))
        d_attn = np.einsum("nhtd,nhsd->nhts", d_ctx, v)
        d_v = np.einsum("nhts,nhtd->nhsd", attn, d_ctx)
        # Softmax backward: dS = A * (dA - sum(dA*A))
        inner = (d_attn * attn).sum(axis=-1, keepdims=True)
        d_scores = attn * (d_attn - inner)
        if self.causal:
            t = attn.shape[-1]
            mask = np.triu(np.ones((t, t), dtype=bool), k=1)
            d_scores = np.where(mask, 0.0, d_scores)
        d_scores = d_scores * scale
        d_q = np.einsum("nhts,nhsd->nhtd", d_scores, k)
        d_k = np.einsum("nhts,nhtd->nhsd", d_scores, q)
        dx = self.wq.backward(self._merge(d_q))
        dx = dx + self.wk.backward(self._merge(d_k))
        dx = dx + self.wv.backward(self._merge(d_v))
        return dx
