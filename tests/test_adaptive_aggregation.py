"""Iteration-wise adaptive schedules and layer aggregation."""

import numpy as np
import pytest

from repro.core import adaptive
from repro.core.adaptive import AdaptiveCompso, Bounds, SmoothLrSchedule, StepLrSchedule
from repro.core.layer_aggregation import LayerAggregator


class TestStepLrSchedule:
    def test_loose_before_drop_tight_after(self):
        s = StepLrSchedule(first_lr_drop=100)
        assert s.bounds_at(0) == adaptive._LOOSE
        assert s.bounds_at(99) == adaptive._LOOSE
        assert s.bounds_at(100) == adaptive._TIGHT
        assert s.bounds_at(10_000) == adaptive._TIGHT

    def test_default_tight_is_sr_only(self):
        s = StepLrSchedule(50)
        assert s.bounds_at(60).eb_f == 0
        assert s.bounds_at(10).eb_f > 0

    def test_negative_drop_rejected(self):
        with pytest.raises(ValueError):
            StepLrSchedule(-1)


class TestSmoothLrSchedule:
    def test_stage_boundaries(self):
        s = SmoothLrSchedule(1000, z=4)
        assert s.stage_at(0) == 0
        assert s.stage_at(249) == 0
        assert s.stage_at(250) == 1
        assert s.stage_at(999) == 3
        assert s.stage_at(5000) == 3  # clamped

    def test_bounds_decay_per_stage(self):
        s = SmoothLrSchedule(1000, z=4, alpha=0.5)
        assert s.bounds_at(0).eb_q == pytest.approx(4e-3)
        assert s.bounds_at(300).eb_q == pytest.approx(2e-3)
        assert s.bounds_at(600).eb_q == pytest.approx(1e-3)
        assert s.bounds_at(900).eb_q == pytest.approx(5e-4)

    def test_filter_only_in_first_stage(self):
        s = SmoothLrSchedule(1000, z=4)
        assert s.bounds_at(100).eb_f > 0
        assert s.bounds_at(400).eb_f == 0

    def test_min_eb_floor(self):
        s = SmoothLrSchedule(10_000, z=100, alpha=0.1)
        assert s.bounds_at(9999).eb_q == 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothLrSchedule(0)
        with pytest.raises(ValueError):
            SmoothLrSchedule(100, z=0)
        with pytest.raises(ValueError):
            SmoothLrSchedule(100, alpha=1.5)


class TestAdaptiveCompso:
    def test_step_advances_bounds(self):
        ac = AdaptiveCompso(StepLrSchedule(3))
        assert ac.bounds.eb_f > 0
        for _ in range(3):
            ac.step()
        assert ac.bounds.eb_f == 0
        assert ac.inner.eb_f == 0.0

    def test_compression_still_bounded_after_transition(self, kfac_like_gradient):
        x = kfac_like_gradient
        ac = AdaptiveCompso(SmoothLrSchedule(40, z=4))
        for t in range(40):
            out = ac.roundtrip(x)
            b = ac.bounds
            tol = max(b.eb_f, b.eb_q) * np.abs(x).max() * 1.0001
            assert np.abs(out - x).max() <= tol, t
            ac.step()

    def test_aggressive_stage_higher_ratio(self, kfac_like_gradient):
        x = kfac_like_gradient
        ac = AdaptiveCompso(StepLrSchedule(5))
        early = x.nbytes / ac.compress(x).nbytes
        for _ in range(6):
            ac.step()
        late = x.nbytes / ac.compress(x).nbytes
        assert early > late


class TestLayerAggregator:
    def test_groups_cover_all_layers(self):
        agg = LayerAggregator(4)
        groups = agg.groups(10)
        assert [i for g in groups for i in g] == list(range(10))
        assert len(groups) == 3

    def test_m1_is_identity(self):
        assert LayerAggregator(1).groups(5) == [[0], [1], [2], [3], [4]]

    def test_group_bytes(self):
        agg = LayerAggregator(2)
        assert agg.group_bytes([10, 20, 30]) == [4 * 30, 4 * 30]

    def test_aggregate_partitions_tensors(self, rng):
        tensors = [rng.standard_normal(5) for _ in range(7)]
        parts = LayerAggregator(3).aggregate(tensors)
        assert [len(p) for p in parts] == [3, 3, 1]

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            LayerAggregator(0)
