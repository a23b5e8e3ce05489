"""Error feedback (EF) wrapper (paper section 6, related work).

EF compensates compression error by carrying the residual
``original - decompressed`` into the next iteration's gradient (Lim et
al. 3LC; Gorbunov et al.).  The paper *avoids* EF because the residual
buffer costs one extra model-sized tensor per worker — a problem for
large-batch K-FAC training memory budgets — and because COMPSO's
SR-based design is unbiased and does not need it.

We implement EF as a wrapper so the trade-off is measurable: it repairs
biased compressors (e.g. Top-k, which silently drops mass) at the cost
of one float32 residual per wrapped tensor stream.
"""

from __future__ import annotations

import json

import numpy as np

from repro.compression.base import CompressedTensor, GradientCompressor

__all__ = ["ErrorFeedback"]


class ErrorFeedback(GradientCompressor):
    """Wrap a compressor with residual accumulation.

    Each distinct tensor shape+key gets its own residual buffer, so one
    wrapper instance can serve a whole model's layer stream (pass
    ``key=layer_index`` to keep streams separate; a key must be ``None``,
    an int or a str for the residuals to be checkpointed).

    Steering reaches the wrapped compressor (the base class forwards), but
    no pointwise bound is promised: the channel carries ``x + residual``,
    so ``|x - roundtrip(x)|`` is not bounded by the inner's contract.
    """

    bounds = None

    def __init__(self, inner: GradientCompressor):
        self.inner = inner
        self.name = f"ef({inner.name})"
        self._residuals: dict[object, np.ndarray] = {}

    def compress(self, x: np.ndarray, *, key: object = None) -> CompressedTensor:
        x = np.asarray(x, dtype=np.float32)
        residual = self._residuals.get((key, x.shape))
        corrected = x if residual is None else x + residual
        ct = self.inner.compress(corrected)
        decompressed = self.inner.decompress(ct)
        self._residuals[(key, x.shape)] = corrected - decompressed
        return ct

    def decompress(self, ct: CompressedTensor) -> np.ndarray:
        return self.inner.decompress(ct)

    def reset(self) -> int:
        """Drop all residual state; returns how many buffers it held."""
        dropped = len(self._residuals)
        self._residuals.clear()
        return dropped

    def residual_norm(self) -> float:
        """L2 norm over every residual buffer.

        The fault-tolerance layer watches this: an exploding residual
        means the compressor is systematically dropping signal (e.g.
        after corruption-induced bound loosening) and the trainer should
        reset EF state and degrade to a conservative compression mode.
        """
        total = 0.0
        for r in self._residuals.values():
            total += float(np.dot(r.ravel(), r.ravel()))
        return float(np.sqrt(total))

    def state_dict(self) -> dict[str, np.ndarray]:
        keys = [key for key, _ in self._residuals]
        if not all(key is None or isinstance(key, (int, str)) for key in keys):
            raise TypeError(f"residual keys must be None, int or str to be saved: {keys}")
        state = {**self.inner.state_dict(), "residual_keys": np.array(json.dumps(keys))}
        state.update((f"residual/{i}", r) for i, r in enumerate(self._residuals.values()))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.inner.load_state_dict(state)
        if "residual_keys" in state:
            keys = json.loads(str(state["residual_keys"][()]))
            residuals = [state[f"residual/{i}"] for i in range(len(keys))]
            self._residuals = {(k, r.shape): r for k, r in zip(keys, residuals)}
