"""2D convolution via im2col, with K-FAC statistics capture.

K-FAC for conv layers (Grosse & Martens, ICML'16) treats every spatial
location of every sample as an independent "sample": the activation
factor is built from im2col patches, the gradient factor from the
per-location output gradients.

Data movement is one copy per activation.  ``Conv2d.forward`` allocates
a single ``(N*oh*ow, C*kh*kw [+1])`` buffer: its first ``C*kh*kw``
columns are the patch matrix the GEMMs read in place (a view with the
buffer's row length as leading dimension), and a biased layer's last
column is K-FAC's ones column, so ``last_a`` *is* the buffer and nothing
is concatenated in backward.  The patch columns are filled by ``kh*kw``
slab copies straight from the unpadded input — tap ``(i, j)`` writes
column ``c*kh*kw + i*kw + j`` of every row from the input shifted by
``(i - pad, j - pad)``; rows whose tap falls in the padding keep the
buffer's zero.  ``col2im`` walks the same taps in the same ``(i, j)``
order, so every input position accumulates its contributions in the
order the padded scatter loop used; it accumulates channels-last (where a
tap's source and destination both run along ``C``) and then writes the
``(N, C, H+2p, W+2p)`` array whose interior it returns.

Layout is part of the contract: NumPy reductions follow memory order, so
``forward`` returns its ``(N, oh, ow, out)`` product transposed to NCHW,
``col2im`` returns an NCHW-strided array, and neither may hand back the
same numbers in another stride order (DESIGN.md decision 15).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import KfacLayerMixin, Module, Parameter
from repro.util.seeding import spawn_rng

__all__ = ["Conv2d", "col2im"]


def _out_shape(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    """Output height and width, or a ``ValueError`` naming what does not fit."""
    if stride <= 0 or pad < 0:
        raise ValueError(f"stride must be positive and padding non-negative, got {stride}, {pad}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ValueError(
            f"kernel {kh}x{kw} exceeds input {h}x{w} with padding {pad} (padded {hp}x{wp})"
        )
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


def _tap_span(tap: int, size: int, n_out: int, stride: int, pad: int) -> tuple[slice, slice]:
    """Output positions whose ``tap`` lands inside ``[0, size)``, and the
    input positions it lands on (``out * stride + tap - pad``)."""
    lo = max(0, -((tap - pad) // stride))  # ceil((pad - tap) / stride)
    hi = min(n_out, (size - 1 + pad - tap) // stride + 1)
    if hi <= lo:
        return slice(0, 0), slice(0, 0)
    first = lo * stride + tap - pad
    return slice(lo, hi), slice(first, first + (hi - lo - 1) * stride + 1, stride)


def _taps(h: int, w: int, oh: int, ow: int, kh: int, kw: int, stride: int, pad: int):
    """``(i, j, out_rows, out_cols, in_rows, in_cols)`` for every kernel tap, row-major."""
    spans_w = [_tap_span(j, w, ow, stride, pad) for j in range(kw)]
    for i in range(kh):
        oy, iy = _tap_span(i, h, oh, stride, pad)
        for j, (ox, ix) in enumerate(spans_w):
            yield i, j, oy, ox, iy, ix


def _patch_buffer(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, extra: int
) -> np.ndarray:
    """``(N, oh, ow, C*kh*kw + extra)`` buffer with ``x``'s patches in the
    leading columns; the ``extra`` trailing columns are left for the caller."""
    n, c, h, w = x.shape
    oh, ow = _out_shape(h, w, kh, kw, stride, pad)
    patch = c * kh * kw
    shape = (n, oh, ow, patch + extra)
    # Taps that fall in the padding write nothing: their zeros are the buffer's.
    buf = np.zeros(shape, dtype=x.dtype) if pad else np.empty(shape, dtype=x.dtype)
    cols6 = buf[..., :patch].reshape(n, oh, ow, c, kh, kw)
    xt = x.transpose(0, 2, 3, 1)
    for i, j, oy, ox, iy, ix in _taps(h, w, oh, ow, kh, kw, stride, pad):
        cols6[:, oy, ox, :, i, j] = xt[:, iy, ix]
    return buf


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`_patch_buffer` with no extra columns: scatter-add
    patches back to (N, C, H, W)."""
    n, c, h, w = x_shape
    oh, ow = _out_shape(h, w, kh, kw, stride, pad)
    if cols.size != n * oh * ow * c * kh * kw:
        raise ValueError(
            f"cols of shape {cols.shape} do not hold the {n}x{oh}x{ow} patches of "
            f"{c}x{kh}x{kw} that x_shape {tuple(x_shape)} implies"
        )
    cols6 = cols.reshape(n, oh, ow, c, kh, kw)
    acc = np.zeros((n, h, w, c), dtype=cols.dtype)
    for i, j, oy, ox, iy, ix in _taps(h, w, oh, ow, kh, kw, stride, pad):
        acc[:, iy, ix] += cols6[:, oy, ox, :, i, j]
    # Only the interior is ever visible, so the border is never written.
    x = np.empty((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    x = x[:, :, pad : pad + h, pad : pad + w]
    x[...] = acc.transpose(0, 3, 1, 2)
    return x


class Conv2d(Module, KfacLayerMixin):
    """Padded 2D convolution, weight (out_c, in_c, kh, kw).

    Every model's convolutions step one pixel and have a bias; the strided
    geometry and the bias-less branches serve layers a test built with
    another ``stride`` or whose ``bias`` it set to ``None``.
    """

    stride = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        padding: int = 0,
        rng: np.random.Generator | int | None = 0,
    ):
        super().__init__()
        rng = spawn_rng(rng)
        k = kernel_size
        fan_in = in_channels * k * k
        bound = float(np.sqrt(6.0 / fan_in))
        self.weight = Parameter(rng.uniform(-bound, bound, (out_channels, in_channels, k, k)))
        self.bias: Parameter | None = Parameter(np.zeros(out_channels))
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = k
        self.padding = padding
        self._rows: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        k = self.kernel_size
        has_bias = self.bias is not None
        buf = _patch_buffer(x, k, k, self.stride, self.padding, int(has_bias))
        n, oh, ow, width = buf.shape
        patch = width - has_bias
        rows = buf.reshape(-1, width)  # K-FAC's activation rows
        if has_bias:
            rows[:, patch] = 1.0
        self._rows = rows
        cols = rows[:, :patch]  # (N*oh*ow, C*k*k), row length = leading dimension
        if patch == 1 or self.out_channels == 1:
            # The products are then matrix-vector, and BLAS's GEMV kernels —
            # unlike GEMM, which packs its operands — round differently for
            # another leading dimension.
            cols = np.ascontiguousarray(cols)
        self._cols = cols
        w2 = self.weight.data.reshape(self.out_channels, patch)
        y = cols @ w2.T
        if has_bias:
            y += self.bias.data
        return y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols, rows = self._cols, self._rows
        self._cols = self._rows = None
        if cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        patch = cols.shape[1]
        n, _, oh, ow = grad_out.shape
        g = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        # reshape has already copied unless grad_out's rows were strided as
        # a matrix (batch 1, channels-last); only then must astype detach
        # them, in their memory order, as it always did.
        g = g.astype(np.float32, copy=np.may_share_memory(g, grad_out))
        self.weight.grad += (g.T @ cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g.sum(axis=0)
        if self.training:
            # K-FAC conv statistics: spatial locations are samples.  Scale
            # g by the batch size (not locations) to undo the loss mean.
            self.last_a = rows
            self.last_g = g * n
        w2 = self.weight.data.reshape(self.out_channels, patch)
        grad_cols = (g @ w2).reshape(n, oh, ow, patch)
        k = self.kernel_size
        return col2im(grad_cols, self._x_shape, k, k, self.stride, self.padding)

    # -- K-FAC hooks ----------------------------------------------------------

    def kfac_weight_grad(self) -> np.ndarray:
        patch = self.in_channels * self.kernel_size**2
        wgrad = self.weight.grad.reshape(self.out_channels, patch)
        if self.bias is not None:
            return np.concatenate([wgrad, self.bias.grad[:, None]], axis=1)
        return wgrad.copy()

    def set_kfac_weight_grad(self, grad: np.ndarray) -> None:
        patch = self.in_channels * self.kernel_size**2
        if self.bias is not None:
            self.weight.grad = np.ascontiguousarray(grad[:, :-1]).reshape(self.weight.data.shape)
            self.bias.grad = np.ascontiguousarray(grad[:, -1])
        else:
            self.weight.grad = np.ascontiguousarray(grad).reshape(self.weight.data.shape)
