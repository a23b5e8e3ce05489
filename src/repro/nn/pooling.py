"""Pooling and reshaping modules for CNN proxies."""

from __future__ import annotations

import numpy as np

from repro.nn._select import keep_where
from repro.nn.module import Module

__all__ = ["MaxPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Non-overlapping max pooling with window ``k``.

    The ``k*k`` window positions are ``k*k`` strided slabs of the input;
    forward keeps a running maximum and the index of the slab that set it,
    in the input's memory order, and returns a C-contiguous array.  Ties
    go to the first position and a NaN, once seen, stays (``argmax``'s
    rules), so backward routes each gradient where ``argmax`` would.
    """

    def __init__(self, k: int):
        super().__init__()
        if k <= 0:
            raise ValueError("pool size must be positive")
        self.k = k
        self._argmax: np.ndarray | None = None

    def _slabs(self, x: np.ndarray) -> list[np.ndarray]:
        k = self.k
        return [x[:, :, i::k, j::k] for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError(f"spatial dims ({h},{w}) not divisible by pool {k}")
        self._in_shape = x.shape
        slabs = self._slabs(x)
        best = slabs[0].copy(order="K")
        arg = np.zeros_like(best, dtype=np.min_scalar_type(k * k - 1))
        for t, slab in enumerate(slabs[1:], 1):
            higher = np.maximum(best, slab)
            # slab beats best: the maximum moved, and best was not already NaN.
            take = higher != best
            take &= best == best
            np.maximum(arg, np.multiply(take, t, dtype=arg.dtype), out=arg)
            best = higher
        self._argmax = np.ascontiguousarray(arg)
        return np.ascontiguousarray(best)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        argmax, self._argmax = self._argmax, None
        if argmax is None:
            raise RuntimeError("backward called before forward")
        grad_in = np.empty(self._in_shape, dtype=grad_out.dtype)
        for t, slab in enumerate(self._slabs(grad_in)):
            keep_where(argmax == t, grad_out, out=slab)
        return grad_in


class GlobalAvgPool2d(Module):
    """(N, C, H, W) -> (N, C) spatial mean."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._in_shape
        return np.broadcast_to(grad_out[:, :, None, None] / (h * w), self._in_shape).copy()
