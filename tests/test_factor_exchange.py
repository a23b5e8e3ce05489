"""K-FAC factors at the width of the data: float32 statistics and a
float32 upper-triangle factor exchange.

The digests that moved with this change (six ledgers, six ``PINNED``
configurations, eighteen result documents, three training digests) used
to prove that nothing about the factor path moved.  These tests say what
is true of it now:

(a) the statistic is float32, symmetric bit for bit, and within
    2e-6 x max|A| of the float64 product written out here as the oracle;
(b) exchanging upper triangles and mirroring afterwards equals
    exchanging the squares, bit for bit;
(c) the distributed fold equals single-worker K-FAC's (``tests.conftest.kfac_step``);
(d) the executed factor bytes equal the analytic model's triangle;
(e) training cannot tell: the loss sequences of
    ``test_nn_layers.test_training_digest_is_pinned``'s three runs stay
    within 1e-3 relative of the parent commit's.

How (e)'s constants were captured (PR 13's method): this file was copied
into a ``git clone`` of commit c3bf950 — the last one whose trainer
formed float64 statistics and allreduced the full squares — and
``python -m pytest tests/test_factor_exchange.py -k trajectory`` printed,
as its failure message, the losses ``_losses`` returns there.  They are
that commit's numbers, not this one's.
"""

import hashlib

import numpy as np
import pytest

from repro import nn, telemetry
from repro.core import CompsoCompressor, FactorCompressor
from repro.data import make_detection_data, make_image_data
from repro.distributed import SimCluster
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.models.catalogs import LayerShape
from repro.optim import Kfac
from repro.runtime import Bucketer, StreamRuntime
from repro.train import ClassificationTask, DetectionTask
from tests.conftest import (
    kfac_step,
    narrow_detection_proxy,
    strided_cnn,
    strided_conv2d,
    without_bias,
)


def _triangle():
    """Imported late so (e) also collects at the parent commit."""
    from repro.util import triangle

    return triangle


# -- (a) the statistic ---------------------------------------------------------

#: name -> (layer, input shape).  Batch 1 and one output channel are the
#: shapes whose ``last_g`` reaches the product strided or F-ordered
#: (``tests/test_nn_layers.py::TestBitIdentity``); a one-column patch
#: matrix is the GEMV operand ``Conv2d`` keeps apart.
_STAT_CASES = {
    "conv-bias": (lambda: nn.Conv2d(3, 4, 3, padding=1, rng=1), (2, 3, 6, 6)),
    "conv-nobias": (lambda: without_bias(nn.Conv2d(3, 4, 3, padding=1, rng=1)), (2, 3, 6, 6)),
    "conv-stride2": (lambda: strided_conv2d(3, 5, 3, padding=1, rng=2), (3, 3, 7, 5)),
    "conv-batch1": (lambda: nn.Conv2d(3, 4, 3, padding=1, rng=1), (1, 3, 5, 5)),
    "conv-one-out-channel": (lambda: nn.Conv2d(3, 1, 3, padding=1, rng=1), (2, 3, 5, 5)),
    "conv-one-column-patch": (lambda: without_bias(nn.Conv2d(1, 4, 1, rng=1)), (2, 1, 4, 4)),
    "conv-kfac-train-shape": (lambda: nn.Conv2d(32, 32, 3, padding=1, rng=1), (16, 32, 8, 8)),
    "linear-bias": (lambda: nn.Linear(7, 5, rng=1), (6, 7)),
    "linear-nobias": (lambda: without_bias(nn.Linear(7, 5, rng=1)), (6, 7)),
    "linear-seq": (lambda: nn.Linear(7, 5, rng=1), (3, 4, 7)),
    "linear-seq-nobias": (lambda: without_bias(nn.Linear(7, 5, rng=1)), (3, 4, 7)),
    "linear-batch1": (lambda: nn.Linear(7, 5, rng=1), (1, 7)),
    "linear-one-out": (lambda: nn.Linear(7, 1, rng=1), (6, 7)),
}


def _channels_last(a):
    """``a``'s values strided channels-last, as a conv hands them on."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize(
    "case, grad_layout",
    [
        (case, layout)
        for case, (_, shape) in sorted(_STAT_CASES.items())
        # Only a conv's gradient can arrive channels-last.
        for layout in (("contiguous", "channels-last") if len(shape) == 4 else ("contiguous",))
    ],
)
def test_statistic_is_float32_symmetric_and_close_to_float64(rng, case, grad_layout):
    build, shape = _STAT_CASES[case]
    layer = build()
    x = rng.standard_normal(shape).astype(np.float32)
    y = layer(x)
    grad_out = rng.standard_normal(y.shape).astype(np.float32)
    if grad_layout == "channels-last":
        grad_out = _channels_last(grad_out)
    layer.backward(grad_out)
    kfac = Kfac(nn.Sequential(layer))
    captured_pair = (layer.last_a, layer.last_g)
    (factors,) = kfac.local_factors(kfac.layers)
    for got, captured in zip(factors, captured_pair):
        wide = captured.astype(np.float64)
        oracle = wide.T @ wide / wide.shape[0]
        assert got.dtype == np.float32
        assert got.shape == oracle.shape
        assert np.array_equal(got, got.T), "the statistic is not symmetric bit for bit"
        assert np.abs(got - oracle).max() <= 2e-6 * np.abs(oracle).max()


def test_statistics_over_zero_samples_fail_naming_the_layer(rng):
    """0/0 factors used to surface a phase later, as ``eigh``'s
    ``FactorNumericsError`` (PR 7 met it through ``_trimmed_shards``)."""
    model = nn.Sequential(nn.Linear(4, 3, rng=1), nn.ReLU(), nn.Linear(3, 2, rng=2))
    kfac = Kfac(model)
    x = rng.standard_normal((5, 4)).astype(np.float32)
    model.backward(np.ones_like(model(x)))
    kfac.local_factors(kfac.layers)
    model.backward(np.ones_like(model(x[:0])))
    with pytest.raises(RuntimeError, match="layer 0 .*zero samples"):
        kfac.local_factors(kfac.layers)


def test_running_averages_stay_float64(rng):
    kfac = Kfac(nn.Sequential(nn.Linear(4, 3, rng=1)))
    first = np.full((5, 5), 1.0, dtype=np.float32)
    kfac.accumulate_factors(0, first, first[:3, :3])
    st = kfac.state[0]
    assert st.A.dtype == st.G.dtype == np.float64
    assert not np.shares_memory(st.A, first)
    # 0.1 is not a float32: folded at float32 width the average would be off by 1e-9.
    kfac.accumulate_factors(0, np.full((5, 5), 0.1, np.float32), np.zeros((3, 3), np.float32))
    assert st.A.dtype == np.float64
    assert st.A[0, 0] == 0.95 * 1.0 + (1 - 0.95) * float(np.float32(0.1))


# -- one definition of the triangle --------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_triangle_order_and_round_trip(rng, n):
    tri = _triangle()
    a = rng.standard_normal((2 * n, n)).astype(np.float32)
    sym = a.T @ a
    packed = tri.pack_upper(sym)
    assert packed.dtype == np.float32 and packed.shape == (tri.triangle_size(n),)
    assert np.array_equal(packed, sym[np.triu_indices(n)])  # row-major, diagonal included
    assert tri.mirror_upper(packed, n).tobytes() == sym.tobytes()
    # Strided input packs the same elements.
    assert np.array_equal(tri.pack_upper(np.asfortranarray(sym)), packed)


def test_triangle_rejects_wrong_shapes():
    tri = _triangle()
    with pytest.raises(ValueError, match="square"):
        tri.pack_upper(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="6 elements"):
        tri.mirror_upper(np.zeros(5), 3)


def test_triangle_index_is_shared_and_read_only():
    tri = _triangle()
    upper, full = tri._triangle_maps(5)
    assert tri._triangle_maps(5)[0] is upper
    with pytest.raises(ValueError):
        upper[0] = 1
    with pytest.raises(ValueError):
        full[0] = 1


def test_factor_compressor_frame_is_the_parents(rng):
    """The shared triangle helper changed neither the frame nor the
    decoded matrix: both digests were printed by this test at c3bf950."""
    a = rng.standard_normal((40, 17)).astype(np.float32)
    factor = a.T @ a / 40
    fc = FactorCompressor(1e-3)
    ct = fc.compress(factor)
    frame = hashlib.sha256(bytes(ct.segments["codes"]))
    frame.update(repr(sorted(ct.meta.items())).encode())
    decoded = fc.decompress(ct)
    assert decoded.dtype == np.float32 and np.array_equal(decoded, decoded.T)
    got = (frame.hexdigest(), hashlib.sha256(decoded.tobytes()).hexdigest())
    assert got == _FACTOR_FRAME, got


_FACTOR_FRAME = (
    "b6703c3301d6e1f2e23eb988050fc4c402e8e392f2cbce22df72939ce2d8886e",
    "99cc2c4bcc4b6b81b9713eeb2f0102fcda7060e47408c144f6d42574e9a99e28",
)


# -- (b) triangle exchange == square exchange ----------------------------------

_DIMS = (5, 28, 1, 64, 33)


@pytest.mark.parametrize("overlap", [False, True], ids=["blocking", "overlapped"])
@pytest.mark.parametrize("track", ["convergence", "timing"])
@pytest.mark.parametrize("world", [1, 4])
def test_triangle_exchange_equals_square_exchange(rng, world, track, overlap):
    tri = _triangle()

    def statistic(n):
        a = rng.standard_normal((16, n)).astype(np.float32)
        return a.T @ a / 16

    # Timing track: one representative rank stands in for all of them.
    n_distinct = 1 if track == "timing" else world
    per_rank = [[statistic(n) for n in _DIMS] for _ in range(n_distinct)]

    def exchange(encode):
        cluster = SimCluster(1, world, seed=0, track=track)
        rt = StreamRuntime(cluster, overlap=overlap)
        bucketer = Bucketer(rt, threshold_bytes=4096, category="kfac_allreduce", average=True)
        for k in range(len(_DIMS)):
            if track == "timing":
                message = cluster.replicate(encode(per_rank[0][k]), copy=False)
            else:
                message = [encode(rank[k]) for rank in per_rank]
            bucketer.add(k, message)
        reduced = bucketer.wait()
        rt.assert_quiesced()
        return reduced, bucketer.wire_bytes

    squares, square_bytes = exchange(lambda mat: mat)
    triangles, triangle_bytes = exchange(tri.pack_upper)
    for k, n in enumerate(_DIMS):
        got = tri.mirror_upper(triangles[k], n)
        assert got.dtype == squares[k].dtype == np.float32
        assert got.tobytes() == squares[k].tobytes()
    assert square_bytes == 4 * sum(n * n for n in _DIMS)
    assert triangle_bytes == 4 * sum(tri.triangle_size(n) for n in _DIMS)


# -- (c) the distributed fold is single-worker K-FAC's ---------------------------


def _task_and_model():
    task = ClassificationTask(make_image_data(300, n_classes=4, size=8, noise=0.4, seed=0))
    return task, resnet_proxy(n_classes=4, channels=8, rng=3)


def test_world1_factors_equal_single_worker_bit_for_bit():
    """A triangle round trip and a one-rank average are exact."""
    task, single_model = _task_and_model()
    _, dist_model = _task_and_model()
    idx = np.random.default_rng(7).integers(0, task.n, 32)

    kfac = Kfac(single_model, lr=0.05, inv_update_freq=3)
    x, y = task.batch(idx)
    _, dl = task.loss_and_grad(single_model(x), y)
    single_model.zero_grad()
    single_model.backward(dl)
    kfac_step(kfac)

    trainer = DistributedKfacTrainer(
        dist_model, task, SimCluster(1, 1, seed=0), lr=0.05, inv_update_freq=3
    )
    trainer.step(idx)
    assert len(kfac.state) == len(trainer.kfac.state) > 0
    for i, want in kfac.state.items():
        got = trainer.kfac.state[i]
        for name in ("A", "G", "QA", "QG", "vA", "vG"):
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (i, name)


def test_world4_fold_is_the_mean_of_the_ranks_float32_squares():
    """What the trainer ships and mirrors is what shipping each rank's
    whole float32 square would have produced (``SimCluster`` sums in
    rank order at float64 and rounds once to the payload's dtype)."""
    from repro.data.loaders import shard

    task, model = _task_and_model()
    _, probe = _task_and_model()
    idx = np.random.default_rng(7).integers(0, task.n, 32)

    probe_kfac = Kfac(probe)
    per_rank = []
    for rank_idx in shard(idx, 4):
        x, y = task.batch(rank_idx)
        _, dl = task.loss_and_grad(probe(x), y)
        probe.zero_grad()
        probe.backward(dl)
        per_rank.append(probe_kfac.local_factors(probe_kfac.layers))

    trainer = DistributedKfacTrainer(model, task, SimCluster(1, 4, seed=0), lr=0.05)
    trainer.step(idx)
    for i, st in trainer.kfac.state.items():
        for slot, got in enumerate((st.A, st.G)):
            total = np.zeros(got.shape, dtype=np.float64)
            for rank in per_rank:
                total += rank[i][slot]
            want = (total / 4).astype(np.float32).astype(np.float64)
            assert got.tobytes() == want.tobytes(), (i, slot)


# -- (d) executed bytes == the analytic model's triangle -------------------------


def _kfac_allreduce_bytes(trainer, idx):
    """Wire bytes of one step's ``kfac_allreduce`` collectives, from the
    sim-track spans rank 0 recorded for them."""
    with telemetry.session() as session:
        trainer.step(idx)
    return sum(
        span.attrs["nbytes_wire"]
        for span in session.tracer.spans(rank=0, category="kfac_allreduce")
        if "nbytes_wire" in span.attrs
    )


def test_executed_factor_bytes_equal_the_analytic_triangle():
    """ROADMAP item 2, first cell: the executed trainer and the models
    that price it agree on what a factor exchange ships.  The model is
    ``kfac_train``'s; the full squares at float64 were 2 102 720 B."""
    tri = _triangle()
    data = make_image_data(64, n_classes=10, size=16, noise=0.4, seed=0)
    model = resnet_proxy(n_classes=10, channels=32, rng=3)
    trainer = DistributedKfacTrainer(
        model, ClassificationTask(data), SimCluster(1, 4, seed=0), lr=0.05
    )
    executed = _kfac_allreduce_bytes(trainer, np.arange(64))

    dims = [trainer.kfac.layer_dims(i) for i in range(len(trainer.kfac.layers))]
    assert dims == [(28, 32), (289, 32), (289, 32), (289, 64), (65, 10)]
    exact = sum(4 * (tri.triangle_size(in_f) + tri.triangle_size(out_f)) for in_f, out_f in dims)
    assert executed == exact == 527_940

    catalog = [LayerShape(f"layer{i}", out_f, in_f, 0.0) for i, (in_f, out_f) in enumerate(dims)]
    analytic = sum(layer.factor_bytes for layer in catalog) / 2  # "the triangle travels"
    assert abs(executed - analytic) <= 0.01 * analytic  # the diagonal: n/2 of n(n+1)/2


def test_factor_compressor_still_sets_the_wire_bytes():
    data = make_image_data(64, n_classes=5, size=8, noise=0.4, seed=0)
    trainer = DistributedKfacTrainer(
        resnet_proxy(n_classes=5, channels=8, rng=3),
        ClassificationTask(data),
        SimCluster(1, 2, seed=0),
        lr=0.05,
        factor_compressor=FactorCompressor(1e-3),
    )
    tri = _triangle()
    dense = sum(
        4 * (tri.triangle_size(a) + tri.triangle_size(g))
        for a, g in (trainer.kfac.layer_dims(i) for i in range(len(trainer.kfac.layers)))
    )
    executed = _kfac_allreduce_bytes(trainer, np.arange(64))
    assert 0 < executed < dense
    assert all(st.A.dtype == np.float64 for st in trainer.kfac.state.values())


# -- (e) training cannot tell ----------------------------------------------------

#: The 5-step loss sequences of the three runs at c3bf950 (see the module docstring).
_PARENT_LOSSES = {
    "detection_proxy": [
        3.685226321220398, 2.894540011882782, 2.5737521052360535,
        2.0942269265651703, 1.6894994676113129,
    ],
    "resnet_proxy": [
        1.677733063697815, 1.5536243915557861, 1.0020261406898499,
        0.5772645175457001, 0.42313557863235474,
    ],
    "strided_cnn": [
        1.804654598236084, 1.5922292470932007, 1.226346731185913,
        1.072621762752533, 0.7951512038707733,
    ],
}


def _losses(name):
    """The runs of ``test_nn_layers.test_training_digest_is_pinned``."""
    if name == "detection_proxy":
        task = DetectionTask(make_detection_data(96, n_classes=4, n_boxes=2, size=8, seed=2))
        model = narrow_detection_proxy(n_classes=4, n_boxes=2, rng=5)
    else:
        task = ClassificationTask(make_image_data(96, n_classes=5, size=8, noise=0.5, seed=1))
        model = (
            resnet_proxy(n_classes=5, channels=8, rng=3)
            if name == "resnet_proxy"
            else strided_cnn(n_classes=5, rng=4)
        )
    trainer = DistributedKfacTrainer(
        model,
        task,
        SimCluster(1, 2, seed=0),
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
    )
    return trainer.train(iterations=5, batch_size=24).losses


@pytest.mark.parametrize("name", sorted(_PARENT_LOSSES))
def test_trajectory_stays_within_1e3_of_the_parents(name):
    losses = _losses(name)
    parent = _PARENT_LOSSES[name]
    assert len(losses) == len(parent) == 5, f"{name}: {[float(v) for v in losses]!r}"
    assert np.allclose(losses, parent, rtol=1e-3, atol=0.0), (
        f"{name}: {[float(v) for v in losses]!r}"
    )
