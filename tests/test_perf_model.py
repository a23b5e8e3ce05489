"""Performance model (Eq. 5): lookup table, speedup math, decisions."""

import numpy as np
import pytest

from repro.core import CompsoCompressor, PerformanceModel
from repro.core.perf_model import CommLookupTable, ProfiledStats
from repro.distributed import SLINGSHOT10, SLINGSHOT11


@pytest.fixture
def grads(rng):
    return [
        (rng.standard_normal(s) * np.exp(rng.standard_normal(s))).astype(np.float32) * 1e-3
        for s in (100_000, 20_000, 300_000, 5_000)
    ]


class TestCommLookupTable:
    def test_throughput_interpolates_model(self):
        from repro.distributed.collectives import allgather_time

        lut = CommLookupTable(SLINGSHOT10)
        n = 7.3e6  # off-grid size
        direct = n / allgather_time(SLINGSHOT10, 64, n / 64, 4)
        assert lut.throughput(64, n) == pytest.approx(direct, rel=0.1)

    def test_larger_messages_higher_throughput(self):
        lut = CommLookupTable(SLINGSHOT10)
        assert lut.throughput(64, 1e8) > lut.throughput(64, 1e4)

    def test_single_rank_free(self):
        lut = CommLookupTable(SLINGSHOT10)
        assert lut.time(1, 1e9) == 0.0

    def test_nearest_gpu_count(self):
        lut = CommLookupTable(SLINGSHOT10)
        # p=60 snaps to 64's column, not 32's.
        assert lut.throughput(60, 1e7) == lut.throughput(64, 1e7)


class TestEq5:
    def test_end_to_end_speedup_formula(self):
        # Paper's example: r=50%, s=10x -> 1.8x end to end.
        assert PerformanceModel.end_to_end_speedup(10.0, 0.5) == pytest.approx(1.818, abs=0.01)

    def test_no_comm_no_gain(self):
        assert PerformanceModel.end_to_end_speedup(100.0, 0.0) == 1.0

    def test_comm_speedup_accounts_overhead(self):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        fast = ProfiledStats(L_o=1e8, L_c=5e6, T_comp=1e11, T_decomp=1e11, r=0.4)
        slow = ProfiledStats(L_o=1e8, L_c=5e6, T_comp=1e8, T_decomp=1e8, r=0.4)
        assert pm.comm_speedup(fast) > pm.comm_speedup(slow)
        assert pm.comm_speedup(slow) < 1.0  # slow compressor is a net loss

    def test_better_ratio_better_speedup(self):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        hi = ProfiledStats(1e8, 4e6, 1e11, 1e11, 0.4)
        lo = ProfiledStats(1e8, 4e7, 1e11, 1e11, 0.4)
        assert pm.comm_speedup(hi) > pm.comm_speedup(lo)


class TestProfiling:
    def test_profile_measures_real_sizes(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        stats = pm.profile(grads, CompsoCompressor(4e-3, 4e-3), r=0.4)
        assert stats.L_o == sum(g.nbytes for g in grads)
        assert 1 < stats.ratio < 200

    def test_aggregation_reduces_compressed_size_overheads(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        s1 = pm.profile(grads, c, r=0.4, aggregation=1)
        s4 = pm.profile(grads, c, r=0.4, aggregation=4)
        assert s4.T_comp > s1.T_comp  # fewer kernel invocations

    def test_choose_aggregation_prefers_m_gt_1(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        m, scores = pm.choose_aggregation(grads, CompsoCompressor(4e-3, 4e-3), r=0.4)
        assert m > 1
        assert scores[m] == max(scores.values())

    def test_choose_encoder_returns_candidate(self, grads):
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        c = CompsoCompressor(4e-3, 4e-3)
        best, results = pm.choose_encoder(grads, c, aggregation=4)
        assert best in results
        assert c.encoder_name == "ans"  # restored after probing

    def test_ans_wins_encoder_selection(self, grads):
        """Paper Table 2: ANS is the overall best encoder."""
        pm = PerformanceModel(SLINGSHOT10, world_size=64)
        best, _ = pm.choose_encoder(grads, CompsoCompressor(4e-3, 4e-3))
        assert best == "ans"

    def test_slower_network_bigger_gain(self, grads):
        """Paper section 5.2: slower fabrics benefit more from compression."""
        c = CompsoCompressor(4e-3, 4e-3)
        pm10 = PerformanceModel(SLINGSHOT10, world_size=64)
        pm11 = PerformanceModel(SLINGSHOT11, world_size=64)
        s10 = pm10.comm_speedup(pm10.profile(grads, c, r=0.4))
        s11 = pm11.comm_speedup(pm11.profile(grads, c, r=0.4))
        assert s10 >= s11 * 0.95  # at worst comparable; typically larger
