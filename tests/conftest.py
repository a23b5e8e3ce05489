"""Shared fixtures: deterministic RNG and gradient-like test tensors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import synthetic


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def kfac_like_gradient(rng) -> np.ndarray:
    """Float32 tensor resembling K-FAC gradient statistics: ~90% of values
    are tiny relative to the max (the regime where COMPSO's 4e-3 relative
    filter reaches the paper's ~22x ratio), plus a heavy-tailed remainder
    with wide dynamic range."""
    return synthetic.kfac_like_gradient(rng, 50_000)


@pytest.fixture
def byte_payloads(rng) -> dict[str, bytes]:
    """Byte streams of different character for encoder tests."""
    skewed = rng.geometric(0.25, 30_000).clip(0, 255).astype(np.uint8).tobytes()
    return {
        "zeros": bytes(10_000),
        "skewed": skewed,
        "uniform": rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes(),
        "runs": (b"\x00" * 500 + b"\x07" * 300 + b"\xff" * 200) * 20,
        "short": b"xyz",
        "empty": b"",
    }


def assert_gradcheck(model, x, loss_fn, *, eps=1e-3, tol=5e-3, n_checks=6, seed=0):
    """Finite-difference gradient check against the analytic backward."""
    y = model(x)
    _, dl = loss_fn(y)
    model.zero_grad()
    model(x)
    model.backward(dl)
    check_rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        flat = p.data.ravel()
        g = p.grad.ravel()
        idx = check_rng.choice(flat.size, size=min(n_checks, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_fn(model(x))
            flat[i] = orig - eps
            lm, _ = loss_fn(model(x))
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            ana = float(g[i])
            rel = abs(num - ana) / max(abs(num), abs(ana), 1e-3)
            assert rel < tol, f"{name}[{i}]: numeric {num:.6f} vs analytic {ana:.6f}"


def kfac_step(kfac):
    """One single-worker K-FAC iteration: the stages a one-rank trainer runs,
    with no communication in between (the oracle of the distributed fold)."""
    factors = kfac.local_factors(kfac.layers)
    for idx in range(len(kfac.layers)):
        kfac.accumulate_factors(idx, *factors[idx])
        if kfac.t % kfac.inv_update_freq == 0 or not kfac.state[idx].ready:
            kfac.compute_eigen(idx)
    kfac.apply({idx: kfac.precondition(idx) for idx in range(len(kfac.layers))})
    kfac.t += 1


def strided_conv2d(*args, stride=2, **kwargs):
    """A ``Conv2d`` of another stride: every model's convolutions step one
    pixel, so only tests reach the strided geometry (DESIGN.md decision
    27(c))."""
    from repro import nn

    return type("StridedConv2d", (nn.Conv2d,), {"stride": stride})(*args, **kwargs)


def without_bias(layer):
    """``layer`` (a ``Linear`` or ``Conv2d``) with its bias removed: every
    model's layers have one, so only tests reach the bias-less branches."""
    layer.bias = None
    return layer


def absolute(cls):
    """``cls`` with absolute error bounds; every run's are relative to the
    value range."""
    return type(f"Absolute{cls.__name__}", (cls,), {"relative": False})


def narrow_detection_proxy(**kwargs):
    """``DetectionProxy`` with a 6-channel trunk, small enough for pins."""
    from repro.models import DetectionProxy

    class NarrowDetectionProxy(DetectionProxy):
        channels = 6

    return NarrowDetectionProxy(**kwargs)


#: The ``SimCluster`` methods that give a payload its per-rank form: a
#: ``RepView`` on the timing track, a per-rank list on the convergence one.
_PAYLOAD_FORMS = ("replicate", "_replicate_result", "_allgather_data", "_broadcast_data")


def full_payloads(cls):
    """``cls`` (a ``SimCluster``) moving full per-rank payloads on the timing
    track, as the convergence track does: the oracle for its representative
    ones.  Only :data:`_PAYLOAD_FORMS` run as on the convergence track;
    everything else (one shard, the reduction, the clocks) stays timing."""

    def convergent(method):
        def full(self, *args, **kwargs):
            self.track = "convergence"
            try:
                return method(self, *args, **kwargs)
            finally:
                self.track = "timing"

        return full

    forms = {name: convergent(getattr(cls, name)) for name in _PAYLOAD_FORMS}
    return type("FullPayloads", (cls,), forms)


def tiny_kfac_trainer(**kwargs):
    """A K-FAC trainer to build collaborators from: a 4-channel proxy on
    two ranks; ``kwargs`` go to the trainer."""
    from repro.data import make_image_data
    from repro.distributed import SimCluster
    from repro.kfac_dist import DistributedKfacTrainer
    from repro.models import resnet_proxy
    from repro.train import ClassificationTask

    task = ClassificationTask(make_image_data(32, n_classes=4, size=8, noise=0.5, seed=0))
    model = resnet_proxy(n_classes=4, channels=4, rng=3)
    return DistributedKfacTrainer(model, task, SimCluster(1, 2, seed=0), **kwargs)


def strided_cnn(n_classes=5, *, rng=4):
    """A residual conv stack of stride-2 3x3 and 1x1 convs: the conv
    geometries the model proxies, all stride-1 3x3, never train."""
    from repro import nn

    c = 8
    return nn.Sequential(
        nn.Conv2d(3, c, 3, padding=1, rng=rng),
        nn.BatchNorm2d(c),
        nn.ReLU(),
        nn.Residual(
            nn.Sequential(
                nn.Conv2d(c, c, 3, padding=1, rng=rng + 1),
                nn.BatchNorm2d(c),
                nn.ReLU(),
                nn.Conv2d(c, c, 1, rng=rng + 2),
                nn.BatchNorm2d(c),
            )
        ),
        nn.ReLU(),
        strided_conv2d(c, 2 * c, 3, padding=1, rng=rng + 3),
        nn.BatchNorm2d(2 * c),
        nn.ReLU(),
        strided_conv2d(2 * c, 2 * c, 1, rng=rng + 4),
        nn.BatchNorm2d(2 * c),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(2 * c, n_classes, rng=rng + 5),
    )
