"""Network cost models, simulated collectives, and clock accounting."""

import numpy as np
import pytest

from repro.distributed import (
    PLATFORM1,
    PLATFORM2,
    SLINGSHOT10,
    SLINGSHOT11,
    SimClock,
    SimCluster,
    allgather_time,
    allreduce_time,
    broadcast_time,
    reduce_scatter_time,
)


class TestNetworkSpec:
    def test_intra_node_uses_nvlink(self):
        assert SLINGSHOT10.effective_bandwidth(4, 4) == SLINGSHOT10.intra_bw

    def test_cross_node_shares_nic(self):
        bw = SLINGSHOT10.effective_bandwidth(64, 4)
        assert bw == pytest.approx(SLINGSHOT10.inter_bw / 4)

    def test_slingshot11_twice_slingshot10(self):
        assert SLINGSHOT11.inter_bw == pytest.approx(2 * SLINGSHOT10.inter_bw)

    def test_platform_world_size(self):
        assert PLATFORM1.world_size(16) == 64
        assert PLATFORM2.world_size(64) == 256
        with pytest.raises(ValueError):
            PLATFORM1.world_size(17)


class TestCollectiveCosts:
    @pytest.mark.parametrize(
        "fn", [allreduce_time, broadcast_time, reduce_scatter_time]
    )
    def test_zero_for_single_rank(self, fn):
        assert fn(SLINGSHOT10, 1, 1e6, 4) == 0.0

    def test_allgather_zero_payload(self):
        assert allgather_time(SLINGSHOT10, 8, 0, 4) == 0.0

    def test_monotone_in_size(self):
        ts = [allreduce_time(SLINGSHOT10, 64, s, 4) for s in (1e6, 1e7, 1e8)]
        assert ts[0] < ts[1] < ts[2]

    def test_monotone_in_ranks(self):
        ts = [allreduce_time(SLINGSHOT10, p, 1e8, 4) for p in (8, 32, 128)]
        assert ts[0] < ts[1] < ts[2]

    def test_faster_network_faster_collective(self):
        assert allreduce_time(SLINGSHOT11, 64, 1e8, 4) < allreduce_time(SLINGSHOT10, 64, 1e8, 4)

    def test_allreduce_twice_reduce_scatter_bandwidth(self):
        # Ring allreduce = reduce-scatter + allgather: ~2x the volume.
        ar = allreduce_time(SLINGSHOT10, 64, 1e9, 4)
        rs = reduce_scatter_time(SLINGSHOT10, 64, 1e9, 4)
        assert ar == pytest.approx(2 * rs, rel=0.01)

    def test_broadcast_log_scaling(self):
        t8 = broadcast_time(SLINGSHOT10, 8, 1e8, 4)
        t64 = broadcast_time(SLINGSHOT10, 64, 1e8, 4)
        assert t64 == pytest.approx(2 * t8, rel=0.01)  # log2: 3 vs 6 hops


class TestSimClock:
    def test_advance_accumulates_categories(self):
        c = SimClock()
        c.advance(1.0, "a")
        c.advance(2.0, "b")
        c.advance(3.0, "a")
        assert c.now == 6.0
        assert c.breakdown() == {"a": 4.0, "b": 2.0}

    def test_sync_to_only_forward(self):
        c = SimClock()
        c.advance(5.0, "x")
        c.sync_to(3.0)
        assert c.now == 5.0
        c.sync_to(7.0)
        assert c.now == 7.0
        assert c.breakdown()["wait"] == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)


class TestSimCluster:
    def test_allreduce_sums(self):
        cl = SimCluster(2, 2)
        out = cl.allreduce([np.full(5, float(r)) for r in range(4)])
        assert all(np.allclose(o, 6.0) for o in out)

    def test_allreduce_average(self):
        cl = SimCluster(1, 4)
        out = cl.allreduce([np.full(5, float(r)) for r in range(4)], average=True)
        assert np.allclose(out[0], 1.5)

    def test_allreduce_results_independent_copies(self):
        cl = SimCluster(1, 2)
        out = cl.allreduce([np.ones(3), np.ones(3)])
        out[0][0] = 99
        assert out[1][0] == 2.0

    def test_allgather_distributes_everything(self):
        cl = SimCluster(1, 3)
        got = cl.allgather([f"obj{r}" for r in range(3)])
        assert got[1] == ["obj0", "obj1", "obj2"]

    def test_broadcast(self):
        cl = SimCluster(1, 4)
        got = cl.broadcast("payload", root=2, nbytes=100)
        assert got == ["payload"] * 4

    def test_broadcast_array_results_independent_copies(self):
        # Regression: non-root ranks used to receive the root's own array
        # object, so one rank's in-place update leaked to every other rank.
        cl = SimCluster(1, 4)
        payload = np.ones(5)
        got = cl.broadcast(payload, root=2)
        assert got[2] is payload  # root keeps its own buffer (MPI semantics)
        got[0][0] = 99.0
        assert got[1][0] == 1.0 and got[3][0] == 1.0 and payload[0] == 1.0

    def test_allgather_array_results_independent_copies(self):
        # Regression: every rank used to see the same array objects.
        cl = SimCluster(1, 3)
        contribs = [np.full(4, float(r)) for r in range(3)]
        got = cl.allgather(contribs)
        got[0][1][0] = 99.0
        assert got[1][1][0] == 1.0 and got[2][1][0] == 1.0
        assert contribs[1][0] == 1.0

    def test_reduce_scatter_chunks(self):
        cl = SimCluster(1, 4)
        arrays = [np.arange(8, dtype=np.float64) for _ in range(4)]
        out = cl.reduce_scatter(arrays)
        assert np.allclose(np.concatenate(out), np.arange(8) * 4)
        assert all(len(c) == 2 for c in out)

    def test_reduce_scatter_nbytes_override(self):
        # Like allreduce/broadcast, reduce_scatter must cost compressed
        # payloads by their wire size, not the raw tensor size.
        arrays = [np.ones(10_000, dtype=np.float32) for _ in range(4)]
        full = SimCluster(1, 4)
        full.reduce_scatter(arrays)
        small = SimCluster(1, 4)
        small.reduce_scatter(arrays, nbytes=500.0)
        assert small.time < full.time
        assert small.time == pytest.approx(
            reduce_scatter_time(small.network, 4, 500.0, small.gpus_per_node)
        )

    def test_reduce_scatter_nbytes_in_span(self):
        from repro import telemetry
        from repro.telemetry import SIM_TRACK

        with telemetry.session() as t:
            cl = SimCluster(1, 4, seed=0)
            cl.reduce_scatter([np.ones(1000, dtype=np.float32) for _ in range(4)], nbytes=77.0)
        spans = t.tracer.spans(track=SIM_TRACK, category="reduce_scatter")
        assert len(spans) == 4
        assert all(s.attrs["nbytes_wire"] == 77.0 for s in spans)
        # raw size is the float64 reduction buffer (8 bytes/element)
        assert all(s.attrs["nbytes_raw"] == 8000 for s in spans)

    def test_collectives_advance_clocks(self):
        cl = SimCluster(2, 4)
        cl.allreduce([np.ones(1000) for _ in range(8)])
        assert cl.time > 0
        assert cl.breakdown()["allreduce"] > 0

    def test_collective_is_barrier(self):
        cl = SimCluster(1, 2)
        cl.advance_rank(0, 1.0, "compute")
        cl.allreduce([np.ones(10), np.ones(10)])
        # Rank 1 must have waited for rank 0 before the collective.
        assert cl.ranks[1].clock.now >= 1.0

    def test_wrong_rank_count_rejected(self):
        cl = SimCluster(1, 4)
        with pytest.raises(ValueError):
            cl.allreduce([np.ones(3)])

    def test_per_rank_rngs_differ(self):
        cl = SimCluster(1, 2, seed=3)
        assert not np.array_equal(cl.ranks[0].rng.random(4), cl.ranks[1].rng.random(4))

