"""Per-layer gradient checks and K-FAC statistics capture."""

import numpy as np
import pytest

from repro import nn
from repro.nn import norm
from repro.nn.conv import _patch_buffer
from tests.conftest import (
    assert_gradcheck,
    narrow_detection_proxy,
    strided_cnn,
    strided_conv2d,
    without_bias,
)


def _im2col(x, kh, kw, stride, pad):
    """(N, C, H, W) -> (N, out_h, out_w, C*kh*kw): the conv's patch buffer
    with no bias column."""
    return _patch_buffer(x, kh, kw, stride, pad, 0)


def _ce_loss(targets):
    return lambda y: nn.softmax_cross_entropy(y, targets)


class TestLinear:
    def test_gradcheck(self, rng):
        x = rng.standard_normal((8, 10))
        t = rng.integers(0, 4, 8)
        model = nn.Sequential(nn.Linear(10, 4, rng=1))
        assert_gradcheck(model, x, _ce_loss(t))

    def test_kfac_stats_shapes(self, rng):
        lin = nn.Linear(10, 4, rng=1)
        x = rng.standard_normal((8, 10)).astype(np.float32)
        y = lin(x)
        lin.backward(np.ones_like(y))
        assert lin.last_a.shape == (8, 11)  # bias column appended
        assert lin.last_g.shape == (8, 4)
        assert np.allclose(lin.last_a[:, -1], 1.0)

    def test_kfac_g_scaled_by_batch(self, rng):
        lin = nn.Linear(5, 3, rng=1)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        g = rng.standard_normal((4, 3)).astype(np.float32)
        lin(x)
        lin.backward(g)
        assert np.allclose(lin.last_g, g * 4)

    def test_no_stats_in_eval_mode(self, rng):
        lin = nn.Linear(5, 3, rng=1)
        lin.eval()
        x = rng.standard_normal((4, 5)).astype(np.float32)
        lin(x)
        lin.backward(np.ones((4, 3), dtype=np.float32))
        assert lin.last_a is None

    def test_kfac_weight_grad_roundtrip(self, rng):
        lin = nn.Linear(5, 3, rng=1)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        lin(x)
        lin.backward(np.ones((4, 3), dtype=np.float32))
        combined = lin.kfac_weight_grad()
        assert combined.shape == (3, 6)
        lin.set_kfac_weight_grad(combined * 2)
        assert np.allclose(lin.kfac_weight_grad(), combined * 2)

    def test_leading_dims_flattened(self, rng):
        lin = nn.Linear(6, 2, rng=1)
        x = rng.standard_normal((3, 5, 6)).astype(np.float32)
        y = lin(x)
        assert y.shape == (3, 5, 2)
        gx = lin.backward(np.ones_like(y))
        assert gx.shape == x.shape

    def test_no_bias(self, rng):
        lin = without_bias(nn.Linear(5, 3, rng=1))
        x = rng.standard_normal((4, 5)).astype(np.float32)
        lin(x)
        lin.backward(np.ones((4, 3), dtype=np.float32))
        assert lin.last_a.shape == (4, 5)
        assert lin.kfac_weight_grad().shape == (3, 5)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradcheck(self, rng, stride, padding):
        x = rng.standard_normal((3, 2, 8, 8))
        t = rng.integers(0, 3, 3)
        model = nn.Sequential(
            strided_conv2d(2, 4, 3, stride=stride, padding=padding, rng=1),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 3, rng=2),
        )
        assert_gradcheck(model, x, _ce_loss(t))

    def test_output_shape(self, rng):
        conv = strided_conv2d(3, 8, 3, padding=1, rng=1)
        y = conv(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        assert y.shape == (2, 8, 8, 8)

    def test_matches_direct_convolution(self, rng):
        conv = without_bias(nn.Conv2d(1, 1, 3, padding=0, rng=1))
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float32)
        y = conv(x)
        w = conv.weight.data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i : i + 3, j : j + 3] * w).sum()
        assert np.allclose(y[0, 0], expected, atol=1e-5)

    def test_kfac_stats_spatial_samples(self, rng):
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=1)
        x = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        y = conv(x)
        conv.backward(np.ones_like(y))
        assert conv.last_a.shape == (3 * 36, 2 * 9 + 1)
        assert conv.last_g.shape == (3 * 36, 4)

    def test_im2col_col2im_adjoint(self, rng):
        """col2im must be the exact adjoint of im2col."""
        from repro.nn.conv import col2im

        x = rng.standard_normal((2, 3, 7, 7))
        cols = _im2col(x, 3, 3, 2, 1)
        u = rng.standard_normal(cols.shape)
        v = rng.standard_normal(x.shape)
        lhs = (_im2col(v, 3, 3, 2, 1) * u).sum()
        rhs = (col2im(u, v.shape, 3, 3, 2, 1) * v).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestActivations:
    @pytest.mark.parametrize("act", [nn.GELU])
    def test_gradcheck_smooth(self, rng, act):
        x = rng.standard_normal((6, 5))
        t = rng.integers(0, 3, 6)
        model = nn.Sequential(nn.Linear(5, 8, rng=1), act(), nn.Linear(8, 3, rng=2))
        assert_gradcheck(model, x, _ce_loss(t))

    def test_relu_gradient_mask(self, rng):
        r = nn.ReLU()
        x = np.array([[-1.0, 2.0, -3.0, 4.0]])
        r(x)
        g = r.backward(np.ones_like(x))
        assert np.array_equal(g, [[0.0, 1.0, 0.0, 1.0]])

    def test_gelu_matches_reference_points(self):
        g = nn.GELU()
        assert g(np.array([0.0]))[0] == pytest.approx(0.0)
        assert g(np.array([1.0]))[0] == pytest.approx(0.8412, abs=1e-3)


class TestNormalisation:
    def test_layernorm_gradcheck(self, rng):
        x = rng.standard_normal((6, 5))
        t = rng.integers(0, 3, 6)
        model = nn.Sequential(nn.Linear(5, 8, rng=1), nn.LayerNorm(8), nn.Linear(8, 3, rng=2))
        assert_gradcheck(model, x, _ce_loss(t))

    def test_layernorm_output_standardised(self, rng):
        ln = nn.LayerNorm(64)
        x = rng.standard_normal((10, 64)).astype(np.float32) * 5 + 3
        y = ln(x)
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_batchnorm_train_vs_eval(self, rng):
        bn = nn.BatchNorm2d(4)
        x = rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 1
        y_train = bn(x)
        assert abs(float(y_train.mean())) < 1e-5
        for _ in range(50):
            bn(x)
        bn.eval()
        y_eval = bn(x)
        assert abs(float(y_eval.mean())) < 0.2  # running stats converged

    def test_batchnorm_gradcheck(self, rng):
        x = rng.standard_normal((5, 2, 4, 4))
        t = rng.integers(0, 3, 5)
        model = nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1, rng=1),
            nn.BatchNorm2d(3),
            nn.GlobalAvgPool2d(),
            nn.Linear(3, 3, rng=2),
        )
        assert_gradcheck(model, x, _ce_loss(t), tol=1e-2)


class TestPooling:
    def test_maxpool_forward(self):
        mp = nn.MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = mp(x)
        assert np.array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        mp = nn.MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        mp(x)
        g = mp.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert g.sum() == 4
        assert g[0, 0, 1, 1] == 1  # position of 5

    def test_pool_requires_divisible_dims(self):
        with pytest.raises(ValueError):
            nn.MaxPool2d(3)(np.ones((1, 1, 4, 4)))


class TestContainers:
    def test_residual_gradcheck(self, rng):
        x = rng.standard_normal((5, 6))
        t = rng.integers(0, 3, 5)
        model = nn.Sequential(
            nn.Linear(6, 6, rng=1),
            nn.Residual(nn.Sequential(nn.Linear(6, 6, rng=2), nn.GELU())),
            nn.Linear(6, 3, rng=3),
        )
        assert_gradcheck(model, x, _ce_loss(t))

    def test_sequential_indexing(self):
        s = nn.Sequential(nn.ReLU(), nn.GELU())
        assert len(s) == 2
        assert isinstance(s[1], nn.GELU)

    def test_parameter_discovery_recursive(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.Residual(nn.Sequential(nn.Linear(4, 4))))
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == 4  # two weights + two biases
        assert any("inner" in n for n in names)

    def test_kfac_layers_in_order(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Conv2d(1, 1, 3))
        layers = model.kfac_layers()
        assert len(layers) == 2
        assert isinstance(layers[0], nn.Linear)
        assert isinstance(layers[1], nn.Conv2d)


class TestEmbeddingAttention:
    def test_embedding_lookup(self, rng):
        emb = nn.Embedding(10, 4, rng=1)
        ids = np.array([[1, 2], [3, 1]])
        y = emb(ids)
        assert y.shape == (2, 2, 4)
        assert np.array_equal(y[0, 0], emb.weight.data[1])

    def test_embedding_grad_accumulates_repeats(self):
        emb = nn.Embedding(10, 4, rng=1)
        ids = np.array([[1, 1, 1]])
        emb(ids)
        emb.backward(np.ones((1, 3, 4), dtype=np.float32))
        assert np.allclose(emb.weight.grad[1], 3.0)

    def test_embedding_rejects_float_ids(self, rng):
        with pytest.raises(TypeError):
            nn.Embedding(10, 4)(rng.standard_normal((2, 3)))

    def test_attention_gradcheck(self, rng):
        x = rng.standard_normal((2, 4, 8))
        t = rng.integers(0, 3, (2, 4))

        class Wrap(nn.Module):
            def __init__(self):
                super().__init__()
                self.attn = nn.MultiHeadSelfAttention(8, 2, rng=1)
                self.fc = nn.Linear(8, 3, rng=2)

            def forward(self, x):
                return self.fc(self.attn(x))

            def backward(self, g):
                return self.attn.backward(self.fc.backward(g))

        assert_gradcheck(Wrap(), x, _ce_loss(t))

    def test_causal_mask_blocks_future(self, rng):
        attn = nn.MultiHeadSelfAttention(8, 2, causal=True, rng=1)
        x = rng.standard_normal((1, 5, 8)).astype(np.float32)
        y1 = attn(x)
        x2 = x.copy()
        x2[0, 4] += 100.0  # changing the future...
        y2 = attn(x2)
        assert np.allclose(y1[0, :4], y2[0, :4], atol=1e-5)  # ...must not leak back

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)


# -- bit-identity oracles -------------------------------------------------------
#
# The routines below are the data movement `repro.nn` used before each
# activation was copied once (PR 16).  They stay here as references: the
# layers must return the same bytes *in the same stride order*, because
# NumPy reductions follow memory layout and a layer that hands its
# successor the same numbers in another order changes BatchNorm's sums.


def _ref_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hp, wp = x.shape[2], x.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
    )
    return np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n, out_h, out_w, c * kh * kw
    )


def _ref_col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += cols6[
                :, :, :, :, i, j
            ]
    if pad:
        x = x[:, :, pad : pad + h, pad : pad + w]
    return x


def _ref_conv_forward(conv, x):
    k = conv.kernel_size
    cols = _ref_im2col(x, k, k, conv.stride, conv.padding)
    n, oh, ow, patch = cols.shape
    y = cols.reshape(-1, patch) @ conv.weight.data.reshape(conv.out_channels, patch).T
    if conv.bias is not None:
        y += conv.bias.data
    return cols, y.reshape(n, oh, ow, conv.out_channels).transpose(0, 3, 1, 2)


def _ref_conv_backward(conv, cols, x_shape, grad_out):
    """(weight grad, bias grad, last_a, last_g, input grad) of one backward."""
    n, oh, ow, patch = cols.shape
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, conv.out_channels).astype(np.float32)
    flat_cols = cols.reshape(-1, patch)
    wgrad = np.zeros_like(conv.weight.data)
    wgrad += (g.T @ flat_cols).reshape(wgrad.shape)
    bgrad = None
    rows = flat_cols
    if conv.bias is not None:
        bgrad = np.zeros_like(conv.bias.data)
        bgrad += g.sum(axis=0)
        rows = np.concatenate(
            [flat_cols, np.ones((flat_cols.shape[0], 1), dtype=np.float32)], axis=1
        )
    w2 = conv.weight.data.reshape(conv.out_channels, patch)
    k = conv.kernel_size
    gx = _ref_col2im((g @ w2).reshape(n, oh, ow, patch), x_shape, k, k, conv.stride, conv.padding)
    return wgrad, bgrad, rows, g * n, gx


def _ref_maxpool_forward(x, k):
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // k, k, w // k, k)
    flat = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
    return flat.max(axis=-1), flat.argmax(axis=-1)


def _ref_maxpool_backward(argmax, in_shape, k, grad_out):
    n, c, h, w = in_shape
    oh, ow = h // k, w // k
    flat = np.zeros((n, c, oh, ow, k * k), dtype=grad_out.dtype)
    np.put_along_axis(flat, argmax[..., None], grad_out[..., None], axis=-1)
    blocks = flat.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
    return blocks.reshape(n, c, h, w)


def _ref_batchnorm_forward(bn, x):
    """(output, x-hat, inv_std, running mean, running var) via ``np.var``."""
    if bn.training:
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean = (1 - norm._MOMENTUM) * bn.running_mean + norm._MOMENTUM * mu
        running_var = (1 - norm._MOMENTUM) * bn.running_var + norm._MOMENTUM * var
    else:
        mu, var = bn.running_mean, bn.running_var
        running_mean, running_var = mu, var
    inv_std = 1.0 / np.sqrt(var + norm._EPS)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = bn.gamma.data[None, :, None, None] * xhat + bn.beta.data[None, :, None, None]
    return out, xhat, inv_std, running_mean, running_var


_LAYOUTS = ("nchw", "nhwc")
_SPECIALS = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -1.0], dtype=np.float32)


def _as_layout(a, layout):
    """``a``'s values, C-contiguous or channels-last strided (what a conv
    hands its successor)."""
    a = np.ascontiguousarray(a)
    if layout == "nhwc":
        a = np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return a


def _sprinkle(rng, a, specials=_SPECIALS, share=0.15):
    """Overwrite a share of ``a`` with -0.0, NaN, +-Inf and repeated values."""
    flat = a.reshape(-1)
    idx = rng.random(flat.size) < share
    flat[idx] = rng.choice(specials, size=int(idx.sum()))
    return a


def _assert_same(got, want, what=""):
    """Same dtype, shape, bytes and — on every axis longer than 1 — strides."""
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    live = [i for i, size in enumerate(want.shape) if size > 1]
    assert [got.strides[i] for i in live] == [want.strides[i] for i in live], what
    assert got.tobytes() == want.tobytes(), what


def _conv_cases():
    for k in (1, 2, 3, 5):
        for stride in (1, 2, 3):
            for pad in (0, 1, 2):
                for c, n, h, w in ((1, 1, 7, 5), (3, 2, 6, 9), (3, 1, 5, 5)):
                    if k <= min(h, w) + 2 * pad:
                        yield k, stride, pad, n, c, h, w


class TestBitIdentity:
    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_im2col_col2im(self, rng, layout):
        from repro.nn.conv import col2im

        for k, stride, pad, n, c, h, w in _conv_cases():
            what = f"k={k} stride={stride} pad={pad} x=({n},{c},{h},{w}) {layout}"
            x = _sprinkle(rng, rng.standard_normal((n, c, h, w)).astype(np.float32))
            x = _as_layout(x, layout)
            want = _ref_im2col(x, k, k, stride, pad)
            _assert_same(_im2col(x, k, k, stride, pad), want, what)
            cols = _sprinkle(rng, rng.standard_normal(want.shape).astype(np.float32))
            with np.errstate(invalid="ignore"):
                _assert_same(
                    col2im(cols, x.shape, k, k, stride, pad),
                    _ref_col2im(cols, x.shape, k, k, stride, pad),
                    what,
                )

    def test_im2col_keeps_dtype_and_rectangular_kernels(self, rng):
        from repro.nn.conv import col2im

        x = rng.standard_normal((2, 3, 6, 7))
        for kh, kw, stride, pad in ((2, 3, 1, 1), (3, 1, 2, 0), (1, 4, 1, 2)):
            want = _ref_im2col(x, kh, kw, stride, pad)
            _assert_same(_im2col(x, kh, kw, stride, pad), want)
            _assert_same(
                col2im(want, x.shape, kh, kw, stride, pad),
                _ref_col2im(want, x.shape, kh, kw, stride, pad),
            )

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("bias", [True, False])
    def test_conv2d(self, rng, layout, bias):
        finite = np.array([-0.0, 0.0, 1.0, -1.0], dtype=np.float32)
        for k, stride, pad, n, c, h, w in _conv_cases():
            what = f"k={k} stride={stride} pad={pad} x=({n},{c},{h},{w}) {layout} bias={bias}"
            conv = strided_conv2d(c, 4, k, stride=stride, padding=pad, rng=k + stride)
            if bias:
                conv.bias.data[...] = rng.standard_normal(4)
            else:
                without_bias(conv)
            x = rng.standard_normal((n, c, h, w)).astype(np.float32)
            x = _as_layout(_sprinkle(rng, x, finite), layout)
            cols, want_y = _ref_conv_forward(conv, x)
            y = conv(x)
            _assert_same(y, want_y, what)
            grad_out = _as_layout(
                _sprinkle(rng, rng.standard_normal(y.shape).astype(np.float32), finite), layout
            )
            wgrad, bgrad, last_a, last_g, gx = _ref_conv_backward(conv, cols, x.shape, grad_out)
            rows, cols_view = conv._rows, conv._cols
            _assert_same(conv.backward(grad_out), gx, what)
            _assert_same(conv.weight.grad, wgrad, what)
            if bias:
                _assert_same(conv.bias.grad, bgrad, what)
            _assert_same(conv.last_a, last_a, what)
            _assert_same(conv.last_g, last_g, what)
            # last_a is forward's buffer: backward allocated and copied nothing.
            assert conv.last_a is rows
            if c * k * k > 1:  # (a one-column patch matrix is a GEMV operand, kept apart)
                assert np.shares_memory(conv.last_a, cols_view)

    def test_conv2d_float64_input(self, rng):
        conv = nn.Conv2d(2, 3, 3, padding=1, rng=1)
        x = rng.standard_normal((2, 2, 5, 5))
        cols, want_y = _ref_conv_forward(conv, x)
        y = conv(x)
        _assert_same(y, want_y)
        grad_out = rng.standard_normal(y.shape)
        wgrad, bgrad, last_a, last_g, gx = _ref_conv_backward(conv, cols, x.shape, grad_out)
        _assert_same(conv.backward(grad_out), gx)
        _assert_same(conv.weight.grad, wgrad)
        _assert_same(conv.bias.grad, bgrad)
        _assert_same(conv.last_a, last_a)
        _assert_same(conv.last_g, last_g)

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("k", [2, 3])
    def test_maxpool(self, rng, layout, k):
        for n, c, oh, ow in ((1, 1, 2, 3), (2, 3, 4, 2), (3, 5, 8, 8)):
            shape = (n, c, oh * k, ow * k)
            # Few distinct values: most windows hold a tie, many a NaN or both zeros.
            x = rng.integers(-2, 3, shape).astype(np.float32)
            x = _as_layout(_sprinkle(rng, x, share=0.3), layout)
            pool = nn.MaxPool2d(k)
            want_y, argmax = _ref_maxpool_forward(x, k)
            y = pool(x)
            _assert_same(y, want_y, f"{shape} {layout}")
            assert not np.shares_memory(y, x)
            for g_layout in _LAYOUTS:
                grad_out = _as_layout(
                    _sprinkle(rng, rng.standard_normal(y.shape).astype(np.float32)), g_layout
                )
                pool(x)  # backward releases what forward kept
                _assert_same(
                    pool.backward(grad_out),
                    _ref_maxpool_backward(argmax, shape, k, grad_out),
                    f"{shape} {layout} grad {g_layout}",
                )

    @pytest.mark.parametrize("shape,k", [((2, 3, 4, 5), 1), ((2, 3, 6, 2), 2)])
    def test_maxpool_output_is_c_contiguous(self, rng, shape, k):
        """The one deliberate layout change: with a 1x1 window, or a window as
        wide as a channels-last image, the reshape-based pool reduced over a
        *view* and so returned its input's stride order; every other shape got
        a C-contiguous array.  Now every shape does, with the same bytes."""
        x = _sprinkle(rng, rng.integers(-2, 3, shape).astype(np.float32), share=0.3)
        for layout in _LAYOUTS:
            xl = _as_layout(x, layout)
            pool = nn.MaxPool2d(k)
            want_y, argmax = _ref_maxpool_forward(xl, k)
            y = pool(xl)
            assert y.flags.c_contiguous and not np.shares_memory(y, xl)
            assert y.tobytes() == want_y.tobytes()
            if layout == "nchw":
                _assert_same(y, want_y)
            grad_out = rng.standard_normal(y.shape).astype(np.float32)
            _assert_same(
                pool.backward(grad_out), _ref_maxpool_backward(argmax, shape, k, grad_out)
            )

    def test_maxpool_float64_grad(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        pool = nn.MaxPool2d(2)
        want_y, argmax = _ref_maxpool_forward(x, 2)
        _assert_same(pool(x), want_y)
        grad_out = rng.standard_normal(want_y.shape)
        _assert_same(pool.backward(grad_out), _ref_maxpool_backward(argmax, x.shape, 2, grad_out))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("g_layout", _LAYOUTS + ("sliced",))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu(self, rng, layout, g_layout, dtype):
        for shape in ((1, 1, 3, 5), (2, 3, 4, 6), (4, 8, 8, 8)):
            x = _as_layout(_sprinkle(rng, rng.standard_normal(shape).astype(dtype)), layout)
            relu = nn.ReLU()
            _assert_same(relu(x), np.where(x > 0, x, 0.0), f"{shape} {layout}")
            g = _sprinkle(rng, rng.standard_normal(shape).astype(dtype))
            if g_layout == "sliced":  # what col2im returns for a padded conv
                n, c, h, w = shape
                padded = np.zeros((n, c, h + 2, w + 2), dtype=dtype)
                padded[:, :, 1:-1, 1:-1] = g
                g = padded[:, :, 1:-1, 1:-1]
            else:
                g = _as_layout(g, g_layout)
            _assert_same(relu.backward(g), np.where(x > 0, g, 0.0), f"{shape} {layout} {g_layout}")

    def test_relu_2d(self, rng):
        x = _sprinkle(rng, rng.standard_normal((6, 5)).astype(np.float32))
        g = _sprinkle(rng, rng.standard_normal((6, 5)).astype(np.float32))
        relu = nn.ReLU()
        _assert_same(relu(x), np.where(x > 0, x, 0.0))
        _assert_same(relu.backward(g), np.where(x > 0, g, 0.0))

    @pytest.mark.parametrize("layout", _LAYOUTS)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batchnorm_forward(self, rng, layout, training, dtype):
        for shape in ((1, 1, 3, 5), (2, 3, 4, 6), (16, 8, 8, 8), (5, 7, 16, 16)):
            for scale in (1.0, 1e-3, 1e4):
                x = (rng.standard_normal(shape) * scale + rng.standard_normal()).astype(dtype)
                x = _as_layout(x, layout)
                bn = nn.BatchNorm2d(shape[1])
                bn.gamma.data[...] = rng.standard_normal(shape[1])
                bn.beta.data[...] = rng.standard_normal(shape[1])
                bn.running_mean = rng.standard_normal(shape[1]).astype(np.float32)
                bn.running_var = rng.random(shape[1]).astype(np.float32) + 0.5
                bn.training = training
                want = _ref_batchnorm_forward(bn, x)
                what = f"{shape} x{scale} {layout}"
                _assert_same(bn(x), want[0], what)
                _assert_same(bn._xhat, want[1], what)
                _assert_same(bn._inv_std, want[2], what)
                _assert_same(bn.running_mean, want[3], what)
                _assert_same(bn.running_var, want[4], what)


class TestGeometryValidation:
    def test_kernel_larger_than_padded_input(self):
        from repro.nn.conv import col2im

        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=r"kernel 5x5 .* input 3x3 .* padding 0"):
            _im2col(x, 5, 5, 1, 0)
        with pytest.raises(ValueError, match=r"kernel 7x7 .* input 3x3 .* padding 1"):
            nn.Conv2d(1, 2, 7, padding=1, rng=0)(x)
        with pytest.raises(ValueError, match="kernel"):
            col2im(np.zeros((1, 1, 1, 25), dtype=np.float32), (1, 1, 3, 3), 5, 5, 1, 0)
        assert _im2col(x, 5, 5, 1, 1).shape == (1, 1, 1, 25)

    def test_col2im_rejects_mismatched_cols(self):
        from repro.nn.conv import col2im

        with pytest.raises(ValueError, match="x_shape"):
            col2im(np.zeros((1, 3, 3, 8), dtype=np.float32), (1, 1, 5, 5), 3, 3, 1, 0)

    def test_maxpool_rejects_nonpositive_window(self):
        for k in (0, -2):
            with pytest.raises(ValueError, match="positive"):
                nn.MaxPool2d(k)


# -- end-to-end layout pins -------------------------------------------------------
#
# Every parameter, BatchNorm running statistic and loss of a short
# distributed K-FAC run, hashed.
# A conv stack that returns the right numbers in another stride order moves
# BatchNorm's sums and, within a step or two, these digests.
#
# How they were captured: this file was copied into a ``git clone`` of
# commit d66aaf5 — the last one whose conv stack still ran np.pad /
# as_strided im2col, the scatter-loop col2im, argmax / put_along_axis
# pooling, np.where ReLU and np.var BatchNorm — and the digests
# ``_trained_digest`` returns were printed there.  They moving means an
# observable of training moved; re-pin only for a change meant to do that.
#
# Re-pinned once since, for float32 K-FAC factor statistics: no repro.nn
# file changed, and tests/test_factor_exchange.py holds the same three
# runs' losses to within 1e-3 of those at c3bf950 (measured: 2e-6).
#
# ``strided_cnn`` took the place of a residual model that left ``src/``
# because no run built it; its digest was printed the same way at ca648ca,
# the commit before, so this file's change moved no pin.

_PINNED_RUNS = {
    # Sequential: residual block, stride-1 3x3 convs, two pools.
    "resnet_proxy": "94f8f8f8f4c92741e40c99c9d8956e7249b8868e94db7ccd90133c4bb71bbda5",
    # Module with a shared trunk, two linear heads and a split gradient.
    "detection_proxy": "6d8d9423dc97d354423b80c6d45b21b7569046ae252c1257fe0821cb53bd990d",
    # Residual block with a 1x1 conv, stride-2 3x3 and 1x1 convs, no max pooling.
    "strided_cnn": "4cb2dae68a335402f7e6f8ce68aac7dc6aa7b81be545f45cccdd6d861d3d7752",
}


def _trained_digest(name):
    import hashlib

    from repro.core import CompsoCompressor
    from repro.data import make_detection_data, make_image_data
    from repro.distributed import SimCluster
    from repro.kfac_dist import DistributedKfacTrainer
    from repro.models import resnet_proxy
    from repro.train import ClassificationTask, DetectionTask

    if name == "detection_proxy":
        task = DetectionTask(make_detection_data(96, n_classes=4, n_boxes=2, size=8, seed=2))
        model = narrow_detection_proxy(n_classes=4, n_boxes=2, rng=5)
    else:
        task = ClassificationTask(make_image_data(96, n_classes=5, size=8, noise=0.5, seed=1))
        if name == "resnet_proxy":
            model = resnet_proxy(n_classes=5, channels=8, rng=3)
        else:
            model = strided_cnn(n_classes=5, rng=4)
    trainer = DistributedKfacTrainer(
        model,
        task,
        SimCluster(1, 2, seed=0),
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
    )
    history = trainer.train(iterations=5, batch_size=24)
    h = hashlib.sha256()
    for pname, p in model.named_parameters():
        h.update(pname.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    for module in model.modules():
        if isinstance(module, nn.BatchNorm2d):
            h.update(module.running_mean.tobytes() + module.running_var.tobytes())
    h.update(np.asarray(history.losses, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_training_digest_is_pinned(name):
    digest = _trained_digest(name)
    assert digest == _PINNED_RUNS[name], f"{name}: {digest}"
