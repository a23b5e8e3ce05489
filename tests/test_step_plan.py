"""The executed K-FAC step held to the analytic step plan.

``KfacIterationModel.plan`` lists one iteration's exchanges and the model
prices each through ``COLLECTIVE_COSTS``, the table ``SimCluster`` prices
the executed trainer's collectives with.  This grid runs one step of every
``scenarios.MODELS`` proxy through ``scenarios.build`` at three worlds on
both platforms' networks, dense and COMPSO, on both tracks, and checks
exact identities between what the trainer did and what the plan lists.
Where the two differ by design the difference is named in
:data:`DIVERGENCES` and asserted, so a change on either side has to edit
that list.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

from repro import scenarios
from repro.core import FactorCompressor
from repro.distributed import PLATFORM1, PLATFORM2
from repro.distributed.collectives import COLLECTIVE_COSTS
from repro.gpusim.kernels import PIPELINES
from repro.kfac_dist import CompressionSpec, KfacIterationModel
from repro.kfac_dist.timing import TimingProfile
from repro.models.catalogs import LayerShape
from repro.telemetry import SIM_TRACK

PLATFORMS = {p.name: p for p in (PLATFORM1, PLATFORM2)}
WORLDS = (4, 8, 16)
TRACKS = ("convergence", "timing")
#: The plan's interval and overhead come from a profile; the grid's is the
#: default one (every field but the batch, which no exchange reads).
PROFILE = TimingProfile(per_gpu_batch=1)

#: Where the executed trainer and the plan differ by design.  Each entry
#: is asserted by ``test_named_divergence``; fixing one moves paper-band
#: rows, so none is fixed here.
DIVERGENCES = {
    "allgather_is_broadcast": (
        "the plan allgathers the whole preconditioned payload; the trainer "
        "broadcasts each layer from its owner"
    ),
    "message_overhead": (
        "the plan charges the profile's message_overhead per eager message; "
        "SimCluster charges only the collective"
    ),
    "factor_interval": (
        "the plan runs the factor exchange every factor_update_freq iterations; "
        "the trainer runs it every step"
    ),
}

_BASE = scenarios.Scenario(name="step-plan-grid", gpus_per_node=4, iterations=1, xray=True)


def catalog_of(kfac) -> list[LayerShape]:
    """A live proxy's K-FAC layers as the model's layer catalog."""
    return [
        LayerShape(f"layer{i}", out_f, in_f, 0.0)
        for i, (in_f, out_f) in enumerate(kfac.layer_dims(i) for i in range(len(kfac.layers)))
    ]


@functools.lru_cache(maxsize=None)
def _cell(model: str, world: int, platform: str, compso: bool, track: str, factor: bool = False):
    """One executed step and the model of its catalog, world and network."""
    plat = PLATFORMS[platform]
    s = replace(
        _BASE,
        model=model,
        nodes=world // plat.gpus_per_node,
        network=plat.network,
        track=track,
        compressor=scenarios.compso if compso else None,
        factor_compressor=(lambda s: FactorCompressor(1e-3)) if factor else None,
    )
    trainer, session = scenarios.run(s)
    return trainer, session, KfacIterationModel(
        catalog_of(trainer.kfac), plat, s.nodes, profile=PROFILE
    )


def _collectives(session, category: str):
    """One rank's collective spans of a category (``"*"`` on the timing track)."""
    return [
        sp
        for sp in session.tracer.spans(track=SIM_TRACK, category=category)
        if sp.rank in (0, "*") and "nbytes_wire" in sp.attrs
    ]


def _wire(session, category: str) -> float:
    return sum(sp.attrs["nbytes_wire"] for sp in _collectives(session, category))


def _entry(plan, category: str):
    (entry,) = [e for e in plan if e.category == category]
    return entry


def _diagonal(trainer) -> int:
    """Bytes the trainer's triangles carry beyond ``factor_bytes / 2``."""
    kfac = trainer.kfac
    return sum(2 * (a + g) for a, g in map(kfac.layer_dims, range(len(kfac.layers))))


def _other_params(trainer) -> int:
    return sum(p.size for p in trainer.kfac.other_params)


CELLS = [
    (model, world, platform, compso, track)
    for model in scenarios.MODELS
    for world in WORLDS
    for platform in PLATFORMS
    for compso in (False, True)
    for track in TRACKS
]


def _id(cell) -> str:
    model, world, platform, compso, track = cell
    return f"{model}-w{world}-{platform}-{'compso' if compso else 'dense'}-{track}"


@pytest.mark.parametrize("cell", CELLS, ids=_id)
def test_executed_step_matches_the_plan(cell):
    trainer, session, model = _cell(*cell)
    _, world, platform, compso, _ = cell
    net, gpn = PLATFORMS[platform].network, PLATFORMS[platform].gpus_per_node
    n_layers = len(trainer.kfac.layers)
    dense_plan = model.plan(None, 1.0)
    breakdown = trainer.cluster.breakdown()

    # The plan lists exactly the categories the step charged.
    assert set(breakdown) == {e.category for e in dense_plan}

    # kfac_allgather: the dense bytes are the plan's, one broadcast per message.
    gather = _entry(dense_plan, "kfac_allgather")
    assert trainer.bytes_original[-1] == gather.nbytes * world == model.grad_bytes
    assert len(_collectives(session, "kfac_allgather")) == gather.messages == n_layers
    wire = _wire(session, "kfac_allgather")
    assert wire == trainer.bytes_on_wire[-1]
    if compso:
        spec = CompressionSpec(model.grad_bytes / wire, PIPELINES["compso-cuda"], 1)
        compressed = _entry(model.plan(spec, 1.0), "kfac_allgather")
        assert compressed.messages == n_layers
        assert compressed.nbytes * world == pytest.approx(wire, rel=1e-12)
    else:
        assert wire == gather.nbytes * world

    # kfac_allreduce: the trainer ships the triangle, the plan half the square.
    factors = _entry(dense_plan, "kfac_allreduce")
    assert _wire(session, "kfac_allreduce") - factors.nbytes == _diagonal(trainer)

    # grad_allreduce: the trainer also averages the non-K-FAC parameters,
    # as one more message.
    grads = _entry(dense_plan, "grad_allreduce")
    others = _other_params(trainer)
    assert _wire(session, "grad_allreduce") - grads.nbytes == 4 * others
    assert len(_collectives(session, "grad_allreduce")) == 1 + (others > 0)

    # Every executed collective, priced by the plan's table, is the clock.
    for category, seconds in breakdown.items():
        priced = sum(
            COLLECTIVE_COSTS[sp.name](net, world, sp.attrs["nbytes_wire"], gpn)
            for sp in _collectives(session, category)
        )
        assert priced == pytest.approx(seconds, rel=1e-12, abs=0.0), category

    # The critical path covers the step.
    (record,) = trainer.xray.records
    assert record["critpath_s"] == pytest.approx(trainer.cluster.time, rel=1e-12)


@pytest.mark.parametrize(
    "cell",
    [c[:4] for c in CELLS if not c[3] and c[4] == "convergence"],
    ids=lambda c: f"{c[0]}-w{c[1]}-{c[2]}",
)
def test_dense_timing_track_charges_what_convergence_does(cell):
    convergence = _cell(*cell, "convergence")[0].cluster.breakdown()
    timing = _cell(*cell, "timing")[0].cluster.breakdown()
    assert set(timing) == set(convergence)
    for category, seconds in convergence.items():
        assert timing[category] == pytest.approx(seconds, rel=1e-12), category


@pytest.mark.parametrize("track", TRACKS)
@pytest.mark.parametrize("proxy", list(scenarios.MODELS))
def test_factor_compression_prices_the_executed_wire(proxy, track):
    """With a ``FactorCompressor`` the plan divides ``factor_bytes / 2`` by
    the step's measured ratio, so it prices the executed wire scaled by
    the same half-square-to-triangle share as the dense exchange."""
    trainer, session, model = _cell(proxy, 8, "platform1", False, track, True)
    executed = _wire(session, "kfac_allreduce")
    factor_ratio = float(np.mean(trainer.factor_ratios))
    planned = _entry(model.plan(None, factor_ratio), "kfac_allreduce").nbytes
    half_square = model.factor_bytes / 2
    triangle = half_square + _diagonal(trainer)
    assert 0 < executed < triangle
    assert planned / executed == pytest.approx(half_square / triangle, rel=1e-12)


def _allgather_is_broadcast():
    trainer, session, model = _cell("mini-resnet", 8, "platform1", True, "convergence")
    entry = _entry(model.plan(None, 1.0), "kfac_allgather")
    assert entry.op == "allgather"
    executed = _collectives(session, "kfac_allgather")
    assert {sp.name for sp in executed} == {"broadcast"}
    assert sorted(sp.attrs["root"] for sp in executed) == sorted(trainer.owners)


def _message_overhead():
    trainer, session, model = _cell("mini-resnet", 8, "platform1", False, "convergence")
    plat = PLATFORMS["platform1"]
    entry = _entry(model.plan(None, 1.0), "kfac_allgather")
    collective = COLLECTIVE_COSTS["allgather"](plat.network, 8, entry.nbytes, 4)
    priced = model.breakdown().kfac_allgather
    assert priced == collective + entry.messages * PROFILE.message_overhead
    assert priced - collective > 0
    executed = sum(sp.duration for sp in _collectives(session, "kfac_allgather"))
    assert executed == pytest.approx(trainer.cluster.breakdown()["kfac_allgather"], rel=1e-12)
    assert executed == sum(
        COLLECTIVE_COSTS["broadcast"](plat.network, 8, sp.attrs["nbytes_wire"], 4)
        for sp in _collectives(session, "kfac_allgather")
    )


def _factor_interval():
    model = _cell("mini-resnet", 8, "platform1", False, "convergence")[2]
    assert _entry(model.plan(None, 1.0), "kfac_allreduce").every == PROFILE.factor_update_freq > 1
    s = replace(_BASE, nodes=2, network=PLATFORM1.network, iterations=2, xray=False)
    trainer, session = scenarios.run(s)
    per_step = len(trainer.kfac.layers)  # one bucket per layer, unbucketed schedule
    assert len(_collectives(session, "kfac_allreduce")) == 2 * per_step


_DIVERGENCE_CHECKS = {
    "allgather_is_broadcast": _allgather_is_broadcast,
    "message_overhead": _message_overhead,
    "factor_interval": _factor_interval,
}


@pytest.mark.parametrize("name", list(DIVERGENCES))
def test_named_divergence(name):
    assert set(_DIVERGENCE_CHECKS) == set(DIVERGENCES)
    _DIVERGENCE_CHECKS[name]()


def test_catalog_of_a_proxy_is_its_kfac_layers():
    trainer = _cell("mini-resnet", 4, "platform1", False, "convergence")[0]
    catalog = catalog_of(trainer.kfac)
    assert [(l.in_f, l.out_f) for l in catalog] == [
        trainer.kfac.layer_dims(i) for i in range(len(trainer.kfac.layers))
    ]
    kfac_grads = sum(layer.kfac_weight_grad().size for layer in trainer.kfac.layers)
    assert sum(l.grad_bytes for l in catalog) == 4 * kfac_grads
