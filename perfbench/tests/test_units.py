"""Unit tests of the pieces: statistics, span self time, inputs,
failure counting, comparison verdicts."""

import numpy as np
import pytest

from perfbench import compare, inputs, stats
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS


# -- statistics ---------------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail_percentile(10) == 50.0  # not even the median qualifies
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(99) == 75.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_percentile_and_spread():
    values = list(range(1, 101))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# -- span self time -----------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    tracer = Tracer(clock)

    def leaf(cost):
        clock.now += cost

    leaf_t = tracer.wrap(leaf, "leaf", "low", measure=lambda a, k, r: a[0])

    def middle():
        clock.now += 1.0
        leaf_t(2.0)
        leaf_t(3.0)

    middle_t = tracer.wrap(middle, "middle", "mid")

    def top():
        clock.now += 0.5
        middle_t()
        leaf_t(4.0)

    tracer.wrap(top, "top", "high")()
    assert tracer.layer_self_seconds() == {"high": 0.5, "mid": 1.0, "low": 9.0}
    names = tracer.by_name()
    assert names["leaf"].calls == 3 and names["leaf"].work == 9.0
    assert names["top"].busy_s == 10.5 and names["top"].self_s == 0.5
    assert sum(tracer.layer_self_seconds().values()) == names["top"].busy_s
    assert tracer.enclosing("leaf", "middle") == 1
    assert [s.name for s in tracer.outermost("low")] == ["leaf"] * 3


def test_spans_outside_an_operation_are_dropped():
    clock = _Clock()
    tracer = Tracer(clock)
    inner = tracer.wrap(lambda: None, "inner", "x")
    tracer.wrap(inner, "operation", "x")()
    tracer.wrap(inner, "construction", "x")()
    tracer.keep_trees_of(("operation",))
    assert sorted(s.name for s in tracer.spans) == ["inner", "operation"]


def test_patch_wraps_every_spelling_and_uninstall_restores():
    import repro.core.compso as compso
    import repro.util.bitpack as bitpack
    from repro.compression.quantize import ROUNDING_MODES, round_stochastic

    original = bitpack.pack_uints
    tracer = Tracer()
    tracer.patch("repro.util.bitpack:pack_uints", "util.bitpack")
    tracer.patch("repro.compression.quantize:round_stochastic", "compression.quantize")
    tracer.patch("repro.core.compso:CompsoCompressor.no_such_method", "core.compso")
    assert bitpack.pack_uints is original  # registered, not yet in place
    tracer.install()
    assert bitpack.pack_uints is compso.pack_uints is not original
    assert ROUNDING_MODES["sr"] is not round_stochastic
    compso.pack_uints(np.arange(4, dtype=np.uint64), 8)
    assert [s.name for s in tracer.spans] == ["pack_uints"]
    assert tracer.missing == ["repro.core.compso:CompsoCompressor.no_such_method"]
    tracer.uninstall()
    assert bitpack.pack_uints is compso.pack_uints is original
    assert ROUNDING_MODES["sr"] is round_stochastic


# -- inputs -------------------------------------------------------------------


def test_same_seed_same_inputs():
    for make in (inputs.dense_gradients, inputs.sparse_gradients, inputs.fleet_specs):
        assert inputs.digest(make(3, quick=True)) == inputs.digest(make(3, quick=True))
        assert inputs.digest(make(3, quick=True)) != inputs.digest(make(4, quick=True))
    assert inputs.digest({"a": 1.0}) != inputs.digest({"a": 1.0000000000000002})


def test_shapes_are_resnet50_layers():
    from repro.models.catalogs import resnet50_catalog

    catalog = {(layer.out_f, layer.in_f) for layer in resnet50_catalog()}
    assert set(inputs.DENSE_SHAPES) <= catalog
    assert {shape for group in inputs.SPARSE_GROUPS for shape in group} <= catalog


def test_sparse_filter_rate_does_not_depend_on_the_seed():
    rates = []
    for seed in (1, 2, 3):
        x = inputs.sparse_gradients(seed, quick=True)[0][0]
        rates.append(float(np.mean(np.abs(x) < 1e-2 * np.abs(x).max())))
    assert 0.92 < min(rates) and max(rates) < 0.96 and max(rates) - min(rates) < 0.01


# -- failures are counted -----------------------------------------------------


class _BrokenBound:
    """A compressor whose decoder breaks the error-bound contract."""

    def __init__(self, inner, error):
        self.inner, self.error = inner, error

    def compress(self, x):
        return self.inner.compress(x)

    def decompress(self, ct):
        out = self.inner.decompress(ct)
        out.flat[0] += self.error
        return out


def test_a_bound_violation_is_a_failed_operation():
    from repro.core import CompsoCompressor

    workload = WORKLOADS["codec_dense"]
    data = workload.make_inputs(1, quick=True)
    good = workload.round(workload.build(data, None))
    assert good.failed == 0
    peak = max(float(np.abs(g[0]).max()) for g in data["groups"])
    broken = _BrokenBound(CompsoCompressor(4e-3, 4e-3, seed=0), error=0.02 * peak)
    bad = workload.round(workload.build(data, None, compressor=broken))
    assert bad.failed == bad.ops == len(data["groups"])


# -- comparison ---------------------------------------------------------------


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    kw = {"better": "lower", "bound": 0.10}
    assert compare.verdict(base, [x * 1.02 for x in base], **kw) == "unchanged"
    assert compare.verdict(base, [x * 1.20 for x in base], **kw) == "worse"
    assert compare.verdict(base, [x * 0.80 for x in base], **kw) == "improved"
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [x * 1.02 for x in noisy], **kw) == "unresolved"
    assert compare.verdict(noisy, [x * 2.0 for x in noisy], **kw) == "worse"
    higher = {"better": "higher", "bound": 0.10}
    assert compare.verdict(base, [x * 0.80 for x in base], **higher) == "worse"
    assert compare.verdict(base, [x * 1.20 for x in base], **higher) == "improved"


def _set(host, values, workload="codec_dense", metric="op_ms_p50"):
    return {
        "schema": 1,
        "host": host,
        "runs": [
            {"workload": workload, "trace": False,
             "metrics": {metric: {"value": v, "unit": "ms"}}}
            for v in values
        ],
    }


def test_compare_refuses_other_hosts(spec):
    here = {"cpu_model": "a", "nproc": 2, "loadavg_at_start": [0.1, 0.1, 0.1]}
    busy = dict(here, loadavg_at_start=[1.9, 1.0, 0.5])
    rows = compare.compare_sets(_set(here, [10.0, 10.1]), _set(busy, [10.0, 10.2]), spec)
    assert [r["verdict"] for r in rows] == ["unchanged"]
    with pytest.raises(compare.HostMismatch):
        compare.compare_sets(_set(here, [10.0]), _set(dict(here, nproc=4), [10.0]), spec)


def test_noise_check_flags_spread_and_drift(spec):
    host = {"cpu_model": "a"}
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]
    rows, problems = compare.check_noise([_set(host, steady), _set(host, steady)], spec)
    assert problems == [] and rows[0]["spreads"][0] < 0.02
    wild = [10.0, 14.0, 7.0, 13.0, 8.0, 10.0, 14.0, 7.0, 13.0, 8.0]
    assert compare.check_noise([_set(host, wild), _set(host, wild)], spec)[1]
    slower = [v * 1.3 for v in steady]
    assert compare.check_noise([_set(host, steady), _set(host, slower)], spec)[1]


# -- calibration --------------------------------------------------------------


def test_speed_factor_scales_to_nominal():
    from perfbench import calibrate

    nominal = calibrate._NOMINAL_S
    assert calibrate.factor(nominal, nominal) == pytest.approx(1.0)
    slow = tuple(2.0 * t for t in nominal)
    # A host running at half speed: measured seconds count half.
    assert calibrate.factor(slow, slow) == pytest.approx(0.5)
    assert calibrate.factor(nominal, slow) == pytest.approx(1 / 1.5)
    py_s, np_s = calibrate.probe()
    assert 0 < py_s < 0.1 and 0 < np_s < 0.1
