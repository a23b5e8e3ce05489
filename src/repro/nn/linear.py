"""Fully-connected layer with K-FAC statistics capture."""

from __future__ import annotations

import numpy as np

from repro.nn.module import KfacLayerMixin, Module, Parameter
from repro.util.seeding import spawn_rng

__all__ = ["Linear"]


class Linear(Module, KfacLayerMixin):
    """y = x @ W.T + b, with Kaiming-uniform init.

    Every model's layers have a bias; the bias-less branches serve layers
    whose ``bias`` a test set to ``None``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | int | None = 0,
    ):
        super().__init__()
        rng = spawn_rng(rng)
        bound = float(np.sqrt(6.0 / in_features))
        self.weight = Parameter(rng.uniform(-bound, bound, (out_features, in_features)))
        self.bias: Parameter | None = Parameter(np.zeros(out_features))
        self.in_features = in_features
        self.out_features = out_features
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Accept (..., in_features); flatten leading dims for the matmul.
        self._orig_shape = x.shape
        x2 = x.reshape(-1, self.in_features)
        self._x = x2
        y = x2 @ self.weight.data.T
        if self.bias is not None:
            y += self.bias.data
        return y.reshape(*self._orig_shape[:-1], self.out_features)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g2 = grad_out.reshape(-1, self.out_features)
        # One copy: astype detaches a view, and skips a reshape's own copy.
        g2 = g2.astype(np.float32, copy=np.may_share_memory(g2, grad_out))
        x2, self._x = self._x, None
        if x2 is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += g2.T @ x2
        if self.bias is not None:
            self.bias.grad += g2.sum(axis=0)
        if self.training:
            n = g2.shape[0]
            if self.bias is not None:
                self.last_a = np.concatenate([x2, np.ones((n, 1), dtype=np.float32)], axis=1)
            else:
                self.last_a = x2
            # Per-sample gradients of the summed loss: undo the 1/N of a
            # mean loss by scaling with the sample count.
            self.last_g = g2 * n
        grad_in = g2 @ self.weight.data
        return grad_in.reshape(self._orig_shape)

    # -- K-FAC hooks ----------------------------------------------------------

    def kfac_weight_grad(self) -> np.ndarray:
        if self.bias is not None:
            return np.concatenate([self.weight.grad, self.bias.grad[:, None]], axis=1)
        return self.weight.grad.copy()

    def set_kfac_weight_grad(self, grad: np.ndarray) -> None:
        if self.bias is not None:
            self.weight.grad = np.ascontiguousarray(grad[:, :-1])
            self.bias.grad = np.ascontiguousarray(grad[:, -1])
        else:
            self.weight.grad = np.ascontiguousarray(grad)
