"""Normalisation layers (elementwise-affine; not K-FAC-preconditioned,
matching distributed K-FAC practice of handling norm params with the
first-order update)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter

__all__ = ["LayerNorm", "BatchNorm2d"]

#: Both norms' variance floor.
_EPS = 1e-5
#: BatchNorm2d's running-statistics update rate.
_MOMENTUM = 0.1


class LayerNorm(Module):
    """Normalise over the last dimension."""

    def __init__(self, dim: int):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.dim = dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        self._inv_std = 1.0 / np.sqrt(var + _EPS)
        self._xhat = (x - mu) * self._inv_std
        return self.gamma.data * self._xhat + self.beta.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._xhat, self._inv_std
        self._xhat = self._inv_std = None
        d = self.dim
        reduce_axes = tuple(range(grad_out.ndim - 1))
        self.gamma.grad += (grad_out * xhat).sum(axis=reduce_axes)
        self.beta.grad += grad_out.sum(axis=reduce_axes)
        gx = grad_out * self.gamma.data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        mean_gx_xhat = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv_std * (gx - mean_gx - xhat * mean_gx_xhat)


class BatchNorm2d(Module):
    """Per-channel batch normalisation for (N, C, H, W) tensors."""

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        #: ``(mean, var)`` of the last training-mode batch, as folded into
        #: the running statistics; ``None`` after an eval-mode forward.
        self.batch_stats: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        m = x.shape[0] * x.shape[2] * x.shape[3]
        if self.training:
            mu = x.mean(axis=(0, 2, 3))
            # Centre once, for the variance and for x-hat.  These are
            # np.var's own steps in its order — subtract the mean, square,
            # sum, divide by an intp count (a float64 division rounded once
            # to the sum's dtype) — so the bits are np.var's.
            xc = x - mu[None, :, None, None]
            var = np.square(xc).sum(axis=(0, 2, 3))
            np.true_divide(var, np.intp(m), out=var, casting="unsafe")
            self.batch_stats = (mu, var)
            self.fold_batch_stats(mu, var)
        else:
            mu, var = self.running_mean, self.running_var
            self.batch_stats = None
            xc = x - mu[None, :, None, None]
        inv_std = 1.0 / np.sqrt(var + _EPS)
        self._inv_std = inv_std
        self._xhat = np.multiply(xc, inv_std[None, :, None, None], out=xc)
        y = self.gamma.data[None, :, None, None] * self._xhat
        y += self.beta.data[None, :, None, None]
        return y

    def fold_batch_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        """Fold one batch's per-channel statistics into the running ones."""
        self.running_mean = (1 - _MOMENTUM) * self.running_mean + _MOMENTUM * mean
        self.running_var = (1 - _MOMENTUM) * self.running_var + _MOMENTUM * var

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std = self._xhat, self._inv_std
        self._xhat = self._inv_std = None
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        if not self.training:
            return grad_out * self.gamma.data[None, :, None, None] * inv_std[None, :, None, None]
        gx = grad_out * self.gamma.data[None, :, None, None]
        mean_gx = gx.mean(axis=(0, 2, 3), keepdims=True)
        mean_gx_xhat = (gx * xhat).mean(axis=(0, 2, 3), keepdims=True)
        return inv_std[None, :, None, None] * (gx - mean_gx - xhat * mean_gx_xhat)
