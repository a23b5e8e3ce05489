"""Elementwise activation modules."""

from __future__ import annotations

import numpy as np

from repro.nn._select import keep_where
from repro.nn.module import Module

__all__ = ["ReLU", "GELU"]


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        # x where x > 0, else +0.0: fmax drops a NaN, adding +0.0 turns the
        # -0.0 fmax may pick into +0.0 and changes nothing else.
        y = np.fmax(x, 0)
        y += 0.0
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        return keep_where(mask, grad_out)


class GELU(Module):
    """tanh-approximation GELU (as used by BERT/GPT)."""

    _C = np.float32(np.sqrt(2.0 / np.pi))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        inner = self._C * (x + 0.044715 * x**3)
        self._tanh = np.tanh(inner)
        return 0.5 * x * (1.0 + self._tanh)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x, t = self._x, self._tanh
        self._x = self._tanh = None
        dinner = self._C * (1.0 + 3 * 0.044715 * x**2)
        dtanh = (1.0 - t**2) * dinner
        return grad_out * (0.5 * (1.0 + t) + 0.5 * x * dtanh)
