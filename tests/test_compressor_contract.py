"""The ``GradientCompressor`` contract: how a compressor is steered,
inspected and saved (DESIGN.md decision 21).

Every class ``repro.compression`` and ``repro.core`` export is held to it,
bare and behind ``ErrorFeedback``; the classes are discovered, so a new
compressor is covered the day it is exported.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import repro.compression
import repro.core
from repro.compression import (
    CocktailSgdCompressor,
    ErrorFeedback,
    GradientCompressor,
    OkTopkCompressor,
    QsgdCompressor,
    oktopk,
)
from repro.core import (
    AdaptiveCompso,
    Bounds,
    CompsoCompressor,
    FactorCompressor,
    StepLrSchedule,
    adaptive,
)
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.encoders import EncodeError, get_encoder, list_encoders
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.store import CheckpointStore
from repro.train import ClassificationTask
from repro.util.checkpoint import _read_all

CLASSES = sorted(
    {
        cls
        for package in (repro.compression, repro.core)
        for cls in (getattr(package, name) for name in package.__all__)
        if isinstance(cls, type) and issubclass(cls, GradientCompressor)
        and cls is not GradientCompressor
    },
    key=lambda cls: cls.__name__,
)
#: The classes with something to say; everything else must stay neutral.
BOUNDED = (CompsoCompressor, AdaptiveCompso)
WRAPPERS = (ErrorFeedback, AdaptiveCompso)
PLAIN = [cls for cls in CLASSES if cls not in BOUNDED + WRAPPERS]


def _build(cls):
    if cls is ErrorFeedback:
        return ErrorFeedback(_compso(0))
    if cls is AdaptiveCompso:
        return _adaptive(0)
    return cls()


def _gradient(seed=0, n=4096):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * np.exp(rng.standard_normal(n))).astype(np.float32)


def _frame(ct):
    return ct.segments, ct.shape, ct.meta


def test_the_discovery_finds_at_least_the_ten_compressors_of_pr_24():
    # The tenth, IdentityCompressor, left src/ because no run built it.
    assert {cls.__name__ for cls in CLASSES} >= {
        "AdaptiveCompso", "CocktailSgdCompressor", "CompsoCompressor", "ErrorFeedback",
        "FactorCompressor", "OkTopkCompressor", "QsgdCompressor", "SzCompressor",
        "TopKCompressor",
    }


# -- neutral answers ------------------------------------------------------------


def _neutral_answers(comp):
    return [
        comp.bounds, comp.set_bounds(1e-3, 1e-3), comp.set_encoder("huffman"),
        comp.degrade(3), comp.step(), comp.residual_norm(),
    ]


#: The plain compressors that carry generator (or threshold) state between
#: calls, and the sections they save; every other plain one saves nothing.
RESUMABLE = {
    CocktailSgdCompressor: ["quantizer_rng", "rng"],
    FactorCompressor: ["rng"],
    OkTopkCompressor: ["calls", "rng", "threshold"],
    QsgdCompressor: ["rng"],
}


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_a_plain_compressor_answers_neutrally_and_ignores_steering(cls):
    steered, untouched = cls(), cls()
    assert steered.inner is None
    before = dict(vars(steered))
    assert _neutral_answers(steered) == [None] * 6
    assert steered.reset() is None
    assert sorted(steered.state_dict()) == RESUMABLE.get(cls, [])
    # Sections it does not own are ignored; its own come from a fresh twin.
    steered.load_state_dict(
        {"eb_f": np.array(0.5), "rng": np.array("{}"), **untouched.state_dict()}
    )
    assert vars(steered).keys() == before.keys()
    x = _gradient().reshape(64, 64)  # square: FactorCompressor takes nothing else
    assert _frame(steered.compress(x)) == _frame(untouched.compress(x))


@pytest.mark.parametrize("cls", PLAIN, ids=lambda c: c.__name__)
def test_error_feedback_over_a_plain_compressor_has_only_its_residuals(cls):
    ef = ErrorFeedback(cls())
    assert ef.inner is not None and ef.bounds is None
    assert _neutral_answers(ef)[:5] == [None] * 5
    assert ef.residual_norm() == 0.0 and ef.reset() == 0
    ef.compress(_gradient().reshape(64, 64))
    assert sorted(ef.state_dict()) == sorted(
        ["residual/0", "residual_keys", *RESUMABLE.get(cls, [])]
    )
    assert ef.reset() == 1 and sum(r.nbytes for r in ef._residuals.values()) == 0


# -- forwarding -------------------------------------------------------------------


class _Spy(GradientCompressor):
    """Records every contract call and answers with the call itself."""

    def __init__(self):
        self.calls = []

    def compress(self, x):
        raise NotImplementedError

    decompress = compress

    def _note(self, *call):
        self.calls.append(call)
        return call

    @property
    def bounds(self):
        return self._note("bounds")

    def set_bounds(self, eb_f, eb_q):
        return self._note("set_bounds", eb_f, eb_q)

    def set_encoder(self, name):
        return self._note("set_encoder", name)

    def degrade(self, iterations=2):
        return self._note("degrade", iterations)

    def step(self):
        return self._note("step")

    def reset(self):
        return self._note("reset")

    def residual_norm(self):
        return self._note("residual_norm")

    def state_dict(self):
        return {"spy": self._note("state_dict")}

    def load_state_dict(self, state):
        self._note("load_state_dict", state)


class _Wrapper(GradientCompressor):
    """A wrapper that overrides nothing: the base class does the forwarding."""

    def __init__(self, inner):
        self.inner = inner

    def compress(self, x):
        return self.inner.compress(x)

    def decompress(self, ct):
        return self.inner.decompress(ct)


#: Each steering / inspection call, and what the spy answers to it.
_CALLS = {
    "bounds": (lambda c: c.bounds, ("bounds",)),
    "set_bounds": (lambda c: c.set_bounds(1e-3, 2e-3), ("set_bounds", 1e-3, 2e-3)),
    "set_encoder": (lambda c: c.set_encoder("huffman"), ("set_encoder", "huffman")),
    "degrade": (lambda c: c.degrade(4), ("degrade", 4)),
    "step": (lambda c: c.step(), ("step",)),
    "reset": (lambda c: c.reset(), ("reset",)),
    "residual_norm": (lambda c: c.residual_norm(), ("residual_norm",)),
}
#: What each wrapper answers itself; everything else must reach ``inner``.
_OWN = {
    _Wrapper: set(),
    ErrorFeedback: {"bounds", "reset", "residual_norm"},
    AdaptiveCompso: {"degrade", "step"},
}


@pytest.mark.parametrize("wrapper_cls", _OWN, ids=lambda c: c.__name__)
def test_a_wrapper_forwards_every_call_it_has_nothing_to_say_about(wrapper_cls):
    spy = _Spy()
    wrapper = _Wrapper(spy) if wrapper_cls is _Wrapper else _build(wrapper_cls)
    wrapper.inner = spy
    forwarded = [name for name in _CALLS if name not in _OWN[wrapper_cls]]
    for name in forwarded:
        call, answer = _CALLS[name]
        assert call(wrapper) == answer, name
    assert wrapper.state_dict()["spy"] == ("state_dict",)
    wrapper.load_state_dict({"spy": 1})
    assert spy.calls == [
        *(_CALLS[name][1] for name in forwarded), ("state_dict",), ("load_state_dict", {"spy": 1})
    ]


def test_steering_reaches_the_compressor_behind_error_feedback():
    ef = ErrorFeedback(AdaptiveCompso(StepLrSchedule(3), seed=0))
    assert ef.set_bounds(1e-3, 2e-3) == Bounds(1e-3, 2e-3) == ef.inner.bounds
    assert ef.set_encoder("huffman") == "huffman" == ef.inner.inner.encoder_name
    assert ef.step() == ef.inner.bounds and ef.inner.iteration == 1
    assert ef.degrade(2) == adaptive._FALLBACK and ef.inner.degraded


# -- bounds -----------------------------------------------------------------------


def _bounds_at_the_parent(comp):
    """``guard.sentinels.active_bounds`` as 5917d82 had it: the schedule,
    recomputed, for an ``AdaptiveCompso``; the two attributes otherwise."""
    if isinstance(comp, AdaptiveCompso):
        scheduled = comp.schedule.bounds_at(comp.iteration)
        if comp.iteration < comp._degraded_until:
            return adaptive._FALLBACK.eb_f, min(adaptive._FALLBACK.eb_q, scheduled.eb_q)
        return scheduled.eb_f, scheduled.eb_q
    return float(comp.eb_f), float(comp.eb_q)


def test_bounds_are_the_ones_in_force():
    compso = CompsoCompressor(2e-3, 3e-3)
    assert compso.bounds == Bounds(2e-3, 3e-3) == Bounds(*_bounds_at_the_parent(compso))
    compso.set_bounds(0.0, 1e-3)
    assert compso.bounds == Bounds(0.0, 1e-3) and compso.bounds.eb_f == 0

    adaptive = _build(AdaptiveCompso)
    seen = []
    for iteration in range(8):
        if iteration == 1:
            adaptive.degrade(2)
        assert adaptive.bounds == Bounds(*_bounds_at_the_parent(adaptive)), iteration
        assert adaptive.bounds == adaptive.inner.bounds
        seen.append((adaptive.degraded, adaptive.bounds.eb_f > 0))
        adaptive.step()
    # loose, two degraded iterations, the scheduled drop at 3
    assert seen == [(False, True), (True, False), (True, False)] + [(False, False)] * 5

    assert ErrorFeedback(compso).bounds is None
    assert ErrorFeedback(adaptive).bounds is None


def test_bounds_add_no_public_instance_attribute():
    """``describe_compressor`` scrapes ``vars()`` into the pinned manifest."""
    assert sorted(k for k in vars(CompsoCompressor()) if not k.startswith("_")) == [
        "eb_f", "eb_q", "encoder_name", "name", "rounding",
    ]
    assert sorted(k for k in vars(_build(AdaptiveCompso)) if not k.startswith("_")) == [
        "inner", "iteration", "name", "schedule",
    ]
    assert sorted(k for k in vars(_build(ErrorFeedback)) if not k.startswith("_")) == [
        "inner", "name",
    ]


# -- state --------------------------------------------------------------------------


def _compso(seed):
    return CompsoCompressor(2e-3, 3e-3, seed=seed)


def _adaptive(seed):
    return AdaptiveCompso(StepLrSchedule(3), seed=seed)


def _square(seed, n=4096):
    """A square gradient: ``FactorCompressor`` takes nothing else."""
    side = int(np.sqrt(n))
    return _gradient(seed, n).reshape(side, side)


def _draw(comp):
    comp.compress(_square(1))


def _oktopk(seed):
    return OkTopkCompressor(0.05, seed=seed)


def _mid_schedule(comp):
    for _ in range(4):
        comp.compress(_gradient(1))
        comp.step()


def _mid_degradation(comp):
    comp.compress(_gradient(1))
    comp.step()
    comp.degrade(3)
    comp.step()


def _autotuned(comp):
    comp.step()
    comp.set_bounds(1e-2, 5e-3)  # an override the schedule would not re-derive


def _behind_error_feedback(make, use):
    def use_wrapped(ef):
        use(ef.inner)
        ef.compress(_gradient(2))
        ef.compress(_gradient(3, n=512), key=7)

    return (lambda seed: ErrorFeedback(make(seed))), use_wrapped


#: name -> (build from a seed, bring into the state worth saving)
_STATEFUL = {
    "compso": (_compso, _draw),
    "adaptive-mid-schedule": (_adaptive, _mid_schedule),
    "adaptive-mid-degradation": (_adaptive, _mid_degradation),
    "adaptive-autotuned": (_adaptive, _autotuned),
    "ef(compso)": _behind_error_feedback(_compso, _draw),
    "ef(adaptive-mid-degradation)": _behind_error_feedback(_adaptive, _mid_degradation),
    "cocktail": (lambda seed: CocktailSgdCompressor(seed=seed), _draw),
    "oktopk": (_oktopk, _draw),
    "qsgd": (lambda seed: QsgdCompressor(seed=seed), _draw),
    "factor": (lambda seed: FactorCompressor(), _draw),
    "ef(qsgd)": _behind_error_feedback(lambda seed: QsgdCompressor(seed=seed), _draw),
}


@pytest.mark.parametrize("name", _STATEFUL)
def test_state_round_trip_makes_the_next_frames_identical(name, monkeypatch):
    # Ok-topk: a small sample and a short period, so the next frames depend
    # on the saved threshold, call count and generator alike.
    monkeypatch.setattr(oktopk, "_REESTIMATE_EVERY", 2)
    monkeypatch.setattr(oktopk, "_SAMPLE_SIZE", 1024)
    make, use = _STATEFUL[name]
    used, fresh = make(0), make(99)
    use(used)
    fresh.load_state_dict(used.state_dict())
    assert fresh.bounds == used.bounds
    for step in range(3):
        x = _square(10 + step)
        assert _frame(fresh.compress(x)) == _frame(used.compress(x)), step
        assert fresh.step() == used.step()
    assert fresh.residual_norm() == used.residual_norm()


def test_a_partial_state_leaves_the_rest_alone():
    """Archives written before a field existed still load."""
    comp = _adaptive(0)
    _mid_schedule(comp)
    rng_before = comp.inner._rng.bit_generator.state
    comp.load_state_dict({"iteration": np.array(1)})
    assert comp.iteration == 1 and comp.bounds == comp.schedule.bounds_at(1)
    assert comp.inner._rng.bit_generator.state == rng_before
    ef = ErrorFeedback(_compso(0))
    ef.compress(_gradient())
    ef.load_state_dict({})
    assert sum(r.nbytes for r in ef._residuals.values()) > 0


def test_error_feedback_refuses_to_save_a_key_it_could_not_restore():
    ef = ErrorFeedback(CompsoCompressor())
    ef.compress(_gradient(), key=("layer", 3))
    with pytest.raises(TypeError, match="residual keys"):
        ef.state_dict()


def _checkpoint_sections(compressor, tmp_path):
    data = make_image_data(64, n_classes=4, size=8, noise=0.6, seed=0)
    store = CheckpointStore(tmp_path)
    trainer = DistributedKfacTrainer(
        resnet_proxy(n_classes=4, channels=8, rng=3), ClassificationTask(data),
        SimCluster(1, 2, seed=0), lr=0.05, inv_update_freq=3, compressor=compressor,
        checkpoint_store=store,
    )
    trainer.train(iterations=1, batch_size=16)
    gen = trainer.save_state()
    return {
        key: (value.dtype.kind, value.dtype.itemsize if value.dtype.kind != "U" else None,
              value.shape)
        for key, value in _read_all(store.root / gen.file).items()
        if key.startswith("compressor/")
    }


def test_the_compressor_sections_of_a_kfac_checkpoint_are_pinned(tmp_path):
    compso = {
        "compressor/eb_f": ("f", 8, ()),
        "compressor/eb_q": ("f", 8, ()),
        "compressor/rng": ("U", None, ()),
    }
    adaptive = {
        **compso,
        "compressor/iteration": ("i", 8, ()),
        "compressor/degraded_until": ("i", 8, ()),
    }
    assert _checkpoint_sections(CompsoCompressor(seed=0), tmp_path) == compso
    assert _checkpoint_sections(_build(AdaptiveCompso), tmp_path) == adaptive
    wrapped = _checkpoint_sections(ErrorFeedback(_build(AdaptiveCompso)), tmp_path)
    residuals = {k: v for k, v in wrapped.items() if k.startswith("compressor/residual/")}
    assert wrapped == {**adaptive, "compressor/residual_keys": ("U", None, ()), **residuals}
    assert residuals and all(v[:2] == ("f", 4) for v in residuals.values())
    assert _checkpoint_sections(repro.compression.TopKCompressor(), tmp_path) == {}


# -- the lint: callers ask, they do not probe -------------------------------------------

_CONTRACT_NAMES = (
    "inner|bounds|eb_f|eb_q|set_bounds|set_encoder|degrade|reset|residual_norm|step|"
    "state_dict|load_state_dict|group_nbytes|iteration|_rng|_degraded_until|_apply|compress_many"
)
#: A trainer's durable state is declared too (DESIGN.md decision 23): every
#: trainer answers ``restore_latest``, and there is one way to save.
_DURABLE_NAMES = "checkpoint_store|restore_latest|save_state|restore_state|_last_checkpoint"
#: And so are the run's collaborators: a guard has a ``config`` and an
#: ``autotune_veto``, a trainer a ``compressor``, a fleet job's cluster the
#: timing track's ``_plane``.
_COLLABORATOR_NAMES = "autotune_veto|config|compressor|_plane"
_PROBE = re.compile(
    rf'(getattr|hasattr)\([^,]+, *"({_CONTRACT_NAMES}|{_DURABLE_NAMES}|{_COLLABORATOR_NAMES})"'
)
_TYPE_TEST = re.compile(
    r"isinstance\(.*\b(" + "|".join(cls.__name__ for cls in CLASSES) + r")\b"
)
_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _probes(path: Path, text: str) -> list[str]:
    owner = path.relative_to(_SRC).parts[0] in ("core", "compression")
    return [
        f"{path.relative_to(_SRC)}:{n}: {line.strip()}"
        for n, line in enumerate(text.splitlines(), 1)
        if _PROBE.search(line) or (not owner and _TYPE_TEST.search(line))
    ]


def test_src_asks_compressors_and_does_not_probe_them():
    found = [hit for path in sorted(_SRC.rglob("*.py")) for hit in _probes(path, path.read_text())]
    assert found == []


def test_the_probe_lint_sees_what_it_looks_for():
    bad = (
        'inner = getattr(compressor, "inner", None)\n'
        'if hasattr(comp, "set_bounds"):\n'
        "    bounds = comp.bounds\n"
        "if isinstance(self.compressor, AdaptiveCompso):\n"
        'norm = getattr(self.compressor,  "residual_norm", None)\n'
        'rng = getattr(optimizer, "_velocity", None)\n'
        'store = getattr(trainer, "checkpoint_store", None)\n'
        'if hasattr(trainer, "restore_state"):\n'
        'checkpoint = getattr(trainer, "_last_checkpoint", None)\n'
        'config = getattr(guard, "config", None)\n'
        'compressor = getattr(trainer, "compressor", None)\n'
        'veto = getattr(guard, "autotune_veto", None)\n'
        'plane = getattr(self.cluster, "_plane", None)\n'
        'compressor_name = getattr(args, "compressor_name", None)\n'
    )
    assert [hit.split(":")[1] for hit in _probes(_SRC / "guard" / "x.py", bad)] == [
        "1", "2", "4", "5", "7", "8", "9", "10", "11", "12", "13",
    ]
    assert [hit.split(":")[1] for hit in _probes(_SRC / "core" / "x.py", bad)] == [
        "1", "2", "5", "7", "8", "9", "10", "11", "12", "13",
    ]


# -- several tensors at once: compress_each / decompress_each ---------------------


def _each_inputs(seed):
    """Tensors whose COMPSO frames cover every case one shared encoder call
    meets: empty, one element, all filtered (zeros), raw-stored frames
    (tiny, and a bitmap that half the elements set at random), single-lane
    and multi-lane frames, 8-bit (all positive) and 16-bit codes, calls that
    share rows (both frames large) and calls that have one multi-lane frame.
    """
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(4000)
    half[rng.random(4000) < 0.5] *= 1e-5
    tensors = [
        np.zeros(0),
        np.array([0.7]),
        np.zeros(300),
        half,
        rng.standard_normal(2000),
        rng.standard_normal((200, 200)),
        rng.standard_normal(30000) * np.exp(2 * rng.standard_normal(30000)),
        rng.random(20000),
        rng.standard_normal(16),
        rng.random(500),
    ]
    return [t.astype(np.float32) for t in tensors]


def _each_lists(cls, seed):
    """Lists of tensors ``cls`` compresses one by one without raising."""
    if cls is FactorCompressor:
        rng = np.random.default_rng(seed)
        squares = [rng.standard_normal((side + 3, side)) for side in (1, 8, 64, 150)]
        tensors = [(a.T @ a).astype(np.float32) for a in squares]
    else:
        tensors = _each_inputs(seed)
    fine = []
    for x in tensors:
        try:
            _build(cls).compress(x)
        except ValueError:
            continue
        fine.append(x)
    assert len(fine) >= 4
    return [fine, fine[::-1], fine[-1:], fine[:2], []]


def _same_state(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), key


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_compress_each_is_the_loop_of_compress(cls, seed):
    """Frame for frame, meta for meta, draw for draw; and ``decompress_each``
    returns what each ``decompress`` returns."""
    for tensors in _each_lists(cls, seed):
        each, loop = _build(cls), _build(cls)
        cts = each.compress_each(tensors)
        want = [loop.compress(x) for x in tensors]
        assert [_frame(ct) for ct in cts] == [_frame(ct) for ct in want]
        _same_state(each, loop)
        decoded = each.decompress_each(cts)
        assert len(decoded) == len(want)
        for got, ref in zip(decoded, (loop.decompress(ct) for ct in want)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)
        probe = tensors[0] if tensors else _square(seed)
        assert _frame(each.compress(probe)) == _frame(loop.compress(probe))


@pytest.mark.parametrize("cls", [CompsoCompressor, AdaptiveCompso], ids=lambda c: c.__name__)
def test_each_fails_where_the_loop_fails(cls):
    """A non-finite tensor stops ``compress_each`` where the loop stops,
    with the draws of the tensors before it spent; a damaged frame makes
    ``decompress_each`` raise what the first failing ``decompress`` raises."""
    tensors = _each_inputs(3)
    poisoned = [*tensors[:5], np.full(64, np.nan, dtype=np.float32), *tensors[5:]]
    each, loop = _build(cls), _build(cls)
    with pytest.raises(ValueError) as got:
        each.compress_each(poisoned)
    with pytest.raises(ValueError) as want:
        for x in poisoned:
            loop.compress(x)
    assert str(got.value) == str(want.value)
    _same_state(each, loop)
    cts = each.compress_each(tensors)
    for k, segment in ((6, "codes"), (3, "bitmap")):  # the later one damaged first
        blob = cts[k].segments[segment]
        cts[k].segments[segment] = blob[:9] + bytes([blob[9] ^ 0x10]) + blob[10:]
        with pytest.raises(EncodeError) as got:
            each.decompress_each(cts)
        with pytest.raises(EncodeError) as want:
            for ct in cts:
                loop.decompress(ct)
        assert str(got.value) == str(want.value) and got.value.segment == want.value.segment


@pytest.mark.parametrize("name", list_encoders())
def test_encode_calls_is_encode_many_list_by_list(name):
    """Each list of frames codes as ``encode_many`` codes it alone — ANS
    runs every list's multi-lane frames in one row kernel — and every
    blob decodes alone."""
    enc = get_encoder(name)
    comp = CompsoCompressor(seed=0)
    calls = [frames for _, frames in (comp._stages(x) for x in _each_inputs(4))]
    calls += [[], [(b"", 1)], [frames[1] for frames in calls]]
    blobs = enc.encode_calls(calls)
    assert blobs == [enc.encode_many(frames) for frames in calls]
    for frames, coded in zip(calls, blobs):
        assert [enc.decode(blob) for blob in coded] == [bytes(data) for data, _ in frames]
    # The calls above hold single-lane, multi-lane and raw frames, and both symbol widths.
    if name == "ans":
        lanes = {int.from_bytes(b[5:7], "little") for frames in blobs for b in frames if b[0] == 1}
        assert {lane & 0xFFF > 1 for lane in lanes} == {True, False}
        assert {lane >> 12 for lane in lanes} == {0, 1}
        assert any(b[0] == 0 and len(b) > 5 for frames in blobs for b in frames)
