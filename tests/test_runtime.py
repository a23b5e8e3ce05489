"""repro.runtime: handles, scheduling, matching, bucketing, telemetry."""

import numpy as np
import pytest

from repro import telemetry
from repro.distributed import RepView, SimCluster
from repro.faults import FaultPlan
from repro.runtime import (
    Bucketer,
    ComputeModel,
    DeadlockError,
    StreamRuntime,
    UnmatchedCollectiveError,
    split_bounds,
)
from repro.telemetry import SIM_TRACK
from repro.telemetry.export import chrome_trace
from tests.conftest import full_payloads


def make_pair(overlap=True, **kw):
    cluster = SimCluster(1, 4, seed=0)
    return cluster, StreamRuntime(cluster, overlap=overlap, **kw)


def per_rank(world, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(world)]


def _canon(value, inputs):
    """A result as comparable data: every array's dtype, shape and bytes,
    plus the position of the *input* object it is (``None`` for a copy) —
    so "the root keeps its own buffer, everyone else gets a copy" is part
    of what two settlers must agree on."""
    if isinstance(value, RepView):
        return ("rep", len(value), _canon(value.payload, inputs))
    if isinstance(value, list):
        return [_canon(v, inputs) for v in value]
    own = next((i for i, x in enumerate(inputs) if x is value), None)
    return (value.dtype.str, value.shape, value.tobytes(), own)


#: name -> cluster factory.  The timing track's contract is identical
#: per-rank payloads, so its rows are fed one array world times.
CLUSTERS = {
    "convergence": lambda **kw: SimCluster(1, 4, seed=0, **kw),
    "timing-full": lambda **kw: full_payloads(SimCluster)(1, 4, seed=0, track="timing", **kw),
    "timing-representative": lambda **kw: SimCluster(1, 4, seed=0, track="timing", **kw),
}


def _payloads(cluster):
    if cluster.is_timing:
        # One payload in the per-rank form this cluster gives it.
        return cluster.replicate(per_rank(1)[0])
    return per_rank(cluster.world_size)


#: old test id -> (blocking method, positional arguments, keyword arguments)
OPERATIONS = {
    "iallreduce": lambda c: ("allreduce", (_payloads(c),), {"average": True}),
    "iallgather": lambda c: ("allgather", (_payloads(c),), {}),
    "ibroadcast": lambda c: ("broadcast", (per_rank(1)[0],), {"root": 2}),
    "ireduce_scatter": lambda c: ("reduce_scatter", (_payloads(c),), {}),
}


def _blocking(cluster, method, args, kwargs):
    return getattr(cluster, method)(*args, **kwargs)


def _handle(overlap):
    def settle(cluster, method, args, kwargs):
        rt = StreamRuntime(cluster, overlap=overlap)
        out = getattr(rt, "i" + method)(*args, **kwargs).wait()  # waited at once
        rt.assert_quiesced()
        return out

    return settle


SETTLERS = {"blocking-handle": _handle(False), "overlapped-handle": _handle(True)}


def _observe(cluster, settle, operations):
    """Run ``operations`` through ``settle`` on a clock-skewed cluster and
    return everything a caller, a ledger or a trace could see of them."""
    with telemetry.session() as t:
        cluster.advance_rank(1, 3e-6, "forward")  # somebody waits at the barrier
        results = []
        for operation in operations:
            method, args, kwargs = OPERATIONS[operation](cluster)
            inputs = [args[0]] if method == "broadcast" else list(args[0])
            results.append(_canon(settle(cluster, method, args, kwargs), inputs))
    seen = {
        "results": results,
        "metrics": [m for m in t.metrics.snapshot() if m["name"].startswith("comm.")],
        "peak_payload_bytes": cluster.peak_payload_bytes,
        "fault_delay_seconds": cluster.fault_delay_seconds,
        "fault_events": None if cluster.faults is None else cluster.faults.events,
    }
    barrier_only = {
        "clocks": [r.clock.now for r in cluster.ranks],
        "breakdown": cluster.breakdown(),
        "spans": [
            (s.name, s.category, s.start, s.duration, s.rank, s.stream, list(s.attrs.items()))
            for s in t.tracer.spans(track=SIM_TRACK)
        ],
        "edges": [(e.src, e.dst, e.kind) for e in t.tracer.edges()],
    }
    return seen, barrier_only


class TestDataEquivalence:
    """A collective is planned once; whichever schedule settles the plan,
    the caller, the metrics and the payload accounting see the same thing —
    and a ``StreamRuntime(overlap=False)`` handle *is* the blocking method,
    clock for clock and span for span."""

    @pytest.mark.parametrize("settler", SETTLERS)
    @pytest.mark.parametrize("cluster", CLUSTERS)
    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_settlers_agree(self, operation, cluster, settler):
        want, want_barrier = _observe(CLUSTERS[cluster](), _blocking, [operation])
        got, got_barrier = _observe(CLUSTERS[cluster](), SETTLERS[settler], [operation])
        assert want["metrics"] and want["peak_payload_bytes"] > 0
        assert got == want
        if settler == "blocking-handle":
            assert want_barrier["spans"]
            # (the timing track emits one span per collective, hence no edges)
            assert want_barrier["edges"] or cluster != "convergence"
            assert got_barrier == want_barrier

    def test_faulted_barrier_settlers_agree(self):
        """Under a straggler, a corruption model and a dropped contribution
        the blocking method and the ``overlap=False`` handle draw the fault
        RNG in the same order: same corrupted bytes on the same receivers,
        same ``fault_delay_seconds``, same clocks and spans."""

        def faulted():
            plan = FaultPlan(seed=5).add_straggler(1, start=0, slowdown=3.0)
            plan.add_corruption(0.6, n_bits=3).add_drop(2, iteration=0)
            cluster = CLUSTERS["convergence"](fault_plan=plan)
            cluster.begin_iteration(0)
            return cluster

        sequence = ["iallreduce", "iallgather", "ibroadcast", "ireduce_scatter", "iallgather"]
        want = _observe(faulted(), _blocking, sequence)
        got = _observe(faulted(), SETTLERS["blocking-handle"], sequence)
        assert got == want
        clean, _ = _observe(CLUSTERS["convergence"](), _blocking, sequence)
        assert want[0]["fault_delay_seconds"] > 0.0
        kinds = {e["kind"] for e in want[0]["fault_events"]}
        assert {"straggler", "corruption", "drop"} <= kinds
        for faulted_result, clean_result in zip(want[0]["results"][:3], clean["results"]):
            assert faulted_result != clean_result  # the drop and the flips landed


def _broadcast(cluster, settler, payload, root):
    if settler == "blocking-method":
        return cluster.broadcast(payload, root=root)
    rt = StreamRuntime(cluster, overlap=settler == "overlapped-handle")
    try:
        return rt.ibroadcast(payload, root=root).wait()
    finally:
        rt.assert_quiesced()  # a refused root posted nothing, left nothing pending


@pytest.mark.parametrize("settler", ["blocking-method", *SETTLERS])
@pytest.mark.parametrize("track", ["convergence", "timing"])
class TestBroadcastRoot:
    """``root`` is validated once, in the broadcast plan, so every schedule
    refuses a sender that is not a live rank position."""

    @pytest.mark.parametrize("root", [99, 4, -1, True, 2.0, None, "2", np.bool_(True)])
    def test_root_outside_the_world_is_refused(self, track, settler, root):
        cluster = SimCluster(1, 4, seed=0, track=track)
        with pytest.raises(ValueError, match="broadcast root") as err:
            _broadcast(cluster, settler, per_rank(1)[0], root)
        assert f"root {root!r} " in str(err.value) and "[0, 4)" in str(err.value)
        assert cluster.time == 0.0 and cluster.peak_payload_bytes == 0.0

    @pytest.mark.parametrize("root", [2, np.int64(2), np.uint8(2)])
    def test_integer_roots_pass_and_are_recorded_as_given(self, track, settler, root):
        payload = per_rank(1)[0]
        with telemetry.session() as t:
            out = _broadcast(SimCluster(1, 4, seed=0, track=track), settler, payload, root)
        assert len(out) == 4 and out[2] is payload
        recorded = {s.attrs["root"] for s in t.tracer.spans(track=SIM_TRACK) if "root" in s.attrs}
        assert len(recorded) == 1 and type(recorded.pop()) is type(root)

    def test_stale_root_after_a_world_shrink_is_refused(self, track, settler):
        plan = FaultPlan(seed=0).add_failure(3, iteration=1)
        cluster = SimCluster(1, 4, seed=0, track=track, fault_plan=plan)
        payload = per_rank(1)[0]
        assert _broadcast(cluster, settler, payload, 3)[3] is payload
        assert [e.rank for e in cluster.begin_iteration(1)] == [3]
        with pytest.raises(ValueError, match=r"root 3 is not .* integer in \[0, 3\)$"):
            _broadcast(cluster, settler, payload, 3)
        assert len(_broadcast(cluster, settler, payload, 2)) == 3


class TestHandles:
    def test_double_wait_idempotent(self):
        _, rt = make_pair()
        h = rt.iallreduce(per_rank(4), average=True)
        first = h.wait()
        t_after = rt.cluster.time
        again = h.wait()
        assert again is first
        assert rt.cluster.time == t_after

    def test_out_of_order_waits(self):
        """Waiting in reverse issue order still settles deterministically."""
        arrays = per_rank(4)
        _, rt = make_pair()
        handles = [rt.iallreduce([a + i for a in arrays], average=True) for i in range(3)]
        results = [h.wait()[0] for h in reversed(handles)]
        rt.assert_quiesced()
        _, rt2 = make_pair()
        handles2 = [rt2.iallreduce([a + i for a in arrays], average=True) for i in range(3)]
        results2 = [h.wait()[0] for h in handles2]
        rt2.assert_quiesced()
        for r, r2 in zip(results, reversed(results2)):
            assert np.array_equal(r, r2)
        assert rt.cluster.time == rt2.cluster.time

    def test_done_and_describe(self):
        _, rt = make_pair()
        h = rt.iallreduce(per_rank(4), average=True)
        assert not h.done
        assert "allreduce" in h.describe()
        h.wait()
        assert h.done
        rt.assert_quiesced()


def _post(rt, rank, op, category, nbytes):
    """One rank announcing a collective on its own: how a mismatch or a
    hang begins (every ``i*`` call posts for all live ranks at once)."""
    rt._posted.setdefault(rank, []).append((op, category, nbytes))


class TestMatching:
    def test_unmatched_heads_raise_with_report(self):
        _, rt = make_pair()
        _post(rt, 0, "allreduce", "grad", 64)
        _post(rt, 1, "broadcast", "grad", 64)
        _post(rt, 2, "allreduce", "grad", 64)
        _post(rt, 3, "allreduce", "grad", 64)
        with pytest.raises(UnmatchedCollectiveError) as ei:
            rt._match()
        msg = str(ei.value)
        assert "rank 1" in msg and "broadcast" in msg

    def test_size_mismatch_detected(self):
        _, rt = make_pair()
        for r in range(3):
            _post(rt, r, "allreduce", "grad", 64)
        _post(rt, 3, "allreduce", "grad", 128)
        with pytest.raises(UnmatchedCollectiveError):
            rt._match()

    def test_partial_posting_fails_quiesce(self):
        _, rt = make_pair()
        _post(rt, 0, "allreduce", "grad", 64)
        with pytest.raises(UnmatchedCollectiveError) as ei:
            rt.assert_quiesced()
        assert "rank 0" in str(ei.value)

    def test_unwaited_handle_is_deadlock(self):
        _, rt = make_pair()
        rt.iallreduce(per_rank(4), average=True)
        with pytest.raises(DeadlockError) as ei:
            rt.assert_quiesced()
        assert "never waited" in str(ei.value)

    def test_clean_quiesce_passes(self):
        _, rt = make_pair()
        rt.iallreduce(per_rank(4), average=True).wait()
        rt.assert_quiesced()


class TestDiagnosticsReport:
    """The per-rank pending-op report is precise enough to debug a hang."""

    def test_posted_entries_carry_op_category_and_bytes(self):
        _, rt = make_pair()
        _post(rt, 0, "allreduce", "grad", 256)
        report = rt.pending_report()
        assert "rank 0: posted=[allreduce[grad, 256B]]" in report
        # ranks with nothing outstanding show explicit '-' markers
        assert "rank 2: posted=[-] awaiting-wait=[-]" in report

    def test_unwaited_handles_listed_with_seq_and_duration(self):
        _, rt = make_pair()
        h = rt.iallreduce(per_rank(4), average=True)
        report = rt.pending_report()
        # every rank participates in the collective, so each line names it
        for rank in range(4):
            assert f"rank {rank}:" in report
        assert h.describe() in report
        assert f"#{h.seq} allreduce" in report and "us)" in report
        h.wait()
        rt.assert_quiesced()

    def test_deadlock_message_names_the_leaked_handle(self):
        _, rt = make_pair()
        h = rt.ibroadcast(per_rank(4), root=2, category="kfac_bcast")
        with pytest.raises(DeadlockError) as ei:
            rt.assert_quiesced()
        msg = str(ei.value)
        assert "1 collective(s) issued but never waited" in msg
        assert f"#{h.seq} broadcast (kfac_bcast" in msg
        h.wait()  # settle so the leaked handle does not poison later state

    def test_quiesce_mismatch_report_distinguishes_ranks(self):
        _, rt = make_pair()
        _post(rt, 0, "allgather", "precond", 64)
        _post(rt, 1, "allgather", "precond", 64)
        with pytest.raises(UnmatchedCollectiveError) as ei:
            rt.assert_quiesced()
        msg = str(ei.value)
        assert "never joined" in msg
        assert "rank 0: posted=[allgather[precond, 64B]]" in msg
        assert "rank 3: posted=[-]" in msg


class TestOverlapAccounting:
    def test_hidden_when_compute_covers_comm(self):
        cluster, rt = make_pair()
        h = rt.iallreduce(per_rank(4, n=1024), average=True)
        cluster.advance_all(1.0, "forward")
        h.wait()
        rt.assert_quiesced()
        assert rt.hidden_comm_seconds() > 0.0
        assert rt.exposed_comm_seconds() == 0.0
        assert rt.hidden_fraction() == pytest.approx(1.0)

    def test_exposed_when_waited_immediately(self):
        _, rt = make_pair()
        rt.iallreduce(per_rank(4, n=1024), average=True).wait()
        rt.assert_quiesced()
        assert rt.hidden_comm_seconds() == 0.0
        assert rt.exposed_comm_seconds() > 0.0

    def test_stats_keyed_by_category(self):
        cluster, rt = make_pair()
        rt.iallreduce(per_rank(4), average=True, category="grad_allreduce").wait()
        rt.ibroadcast(per_rank(1)[0], root=0, category="kfac_allgather").wait()
        rt.assert_quiesced()
        stats = rt.overlap_stats()
        assert set(stats) == {"grad_allreduce", "kfac_allgather"}
        for s in stats.values():
            assert s["total"] == pytest.approx(s["hidden"] + s["exposed"])

    def test_blocking_mode_measures_nothing(self):
        cluster, rt = make_pair(overlap=False)
        h = rt.iallreduce(per_rank(4), average=True)
        assert h.done  # already completed: the blocking barrier ran
        h.wait()
        rt.assert_quiesced()
        assert rt.hidden_comm_seconds() == 0.0
        assert rt.exposed_comm_seconds() == 0.0
        assert cluster.time > 0.0  # paid on the barrier instead

    def test_wait_matches_blocking_cost_when_idle(self):
        """With no compute in between, overlap buys nothing: the exposed
        tail equals the blocking barrier's advance."""
        arrays = per_rank(4, n=4096)
        blocking = SimCluster(1, 4, seed=0)
        blocking.allreduce(arrays, average=True)
        cluster, rt = make_pair()
        rt.iallreduce(arrays, average=True).wait()
        rt.assert_quiesced()
        assert cluster.time == pytest.approx(blocking.time)


class TestComputeModel:
    def test_scaling(self):
        cm = ComputeModel(train_flops=1e9)
        assert cm.forward_seconds(1000, 32) == pytest.approx(2 * 1000 * 32 / 1e9)
        assert cm.backward_seconds(1000, 32) == pytest.approx(
            2 * cm.forward_seconds(1000, 32)
        )
        assert cm.eig_seconds(64) > 0
        assert cm.precondition_seconds(64, 32) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeModel(train_flops=0.0)

    def test_runtime_validation(self):
        cluster = SimCluster(1, 2)
        with pytest.raises(ValueError):
            StreamRuntime(cluster, n_comm_streams=0)


class TestBucketing:
    def test_split_bounds_single_huge_tensor(self):
        x = np.zeros(1000, dtype=np.float32)
        assert split_bounds(x, 1 << 30) == [(0, 1000)]

    def test_split_bounds_exact_threshold(self):
        x = np.zeros(256, dtype=np.float32)  # 1024 bytes
        assert split_bounds(x, 512) == [(0, 128), (128, 256)]

    def test_split_bounds_tiny_bucket_floors_at_one(self):
        x = np.zeros(3, dtype=np.float64)
        assert split_bounds(x, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_split_bounds_empty_and_invalid(self):
        assert split_bounds(np.zeros(0, dtype=np.float32), 1024) == []
        with pytest.raises(ValueError):
            split_bounds(np.zeros(4, dtype=np.float32), 0)

    def test_many_tiny_tensors_coalesce(self):
        _, rt = make_pair()
        b = Bucketer(rt, threshold_bytes=1024)
        rng = np.random.default_rng(1)
        tensors = {f"t{i}": [rng.standard_normal(16).astype(np.float32) for _ in range(4)]
                   for i in range(32)}
        for key, arrs in tensors.items():
            b.add(key, arrs)
        out = b.wait()
        rt.assert_quiesced()
        # 32 tensors x 64 B = 2048 B at a 1024 B threshold -> 2 buckets.
        assert b.n_buckets == 2
        assert set(out) == set(tensors)

    def test_exact_threshold_flushes(self):
        _, rt = make_pair()
        b = Bucketer(rt, threshold_bytes=64)
        b.add("a", [np.zeros(16, dtype=np.float32)] * 4)  # exactly 64 B
        assert b.n_buckets == 1  # flushed on add, not deferred to wait
        b.wait()
        rt.assert_quiesced()

    def test_results_match_direct_allreduce(self):
        rng = np.random.default_rng(2)
        items = {
            "w": [rng.standard_normal((4, 4)).astype(np.float32) for _ in range(4)],
            "b": [rng.standard_normal(4).astype(np.float32) for _ in range(4)],
        }
        _, rt = make_pair()
        b = Bucketer(rt, threshold_bytes=32)
        for key, arrs in items.items():
            b.add(key, arrs)
        out = b.wait()
        rt.assert_quiesced()
        ref = SimCluster(1, 4, seed=0)
        for key, arrs in items.items():
            want = ref.allreduce([a.ravel() for a in arrs], average=True)[0]
            assert out[key].shape == arrs[0].shape
            assert np.array_equal(out[key].ravel(), want)

    def test_single_bucket_matches_whole_tensor(self):
        arrays = per_rank(4, n=4096)
        _, rt = make_pair()
        bounds = split_bounds(arrays[0], 1024)
        assert len(bounds) > 1
        parts = [rt.iallreduce([a[lo:hi] for a in arrays], average=True) for lo, hi in bounds]
        got = np.concatenate([h.wait()[0] for h in parts])
        rt.assert_quiesced()
        want = SimCluster(1, 4, seed=0).allreduce(arrays, average=True)[0]
        assert np.array_equal(got, want)


class TestTelemetryStreams:
    def test_comm_spans_on_their_own_lanes(self):
        with telemetry.session() as t:
            cluster, rt = make_pair(n_comm_streams=2)
            rt.iallreduce(per_rank(4), average=True).wait()
            rt.assert_quiesced()
        streams = t.tracer.streams(SIM_TRACK)
        assert 1 in streams  # the transfer's comm lane
        comm = [s for s in t.tracer.spans(track=SIM_TRACK) if s.stream >= 1]
        assert comm and all(s.name == "allreduce" for s in comm)

    def test_chrome_trace_tids_separate_streams(self):
        with telemetry.session() as t:
            cluster, rt = make_pair(n_comm_streams=2)
            rt.iallreduce(per_rank(4), average=True).wait()
            rt.assert_quiesced()
        doc = chrome_trace(t.tracer)
        names = {
            (e["tid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        n_streams = max(t.tracer.streams(SIM_TRACK)) + 1
        for rank in range(4):
            assert (rank * n_streams, f"rank {rank}") in names
        assert any("comm" in n for _, n in names)

    def test_stream0_reconciles_with_breakdown(self):
        """The compute-lane totals must equal the clock accounting exactly
        even when comm travels on streams."""
        with telemetry.session() as t:
            cluster, rt = make_pair()
            h = rt.iallreduce(per_rank(4, n=2048), average=True)
            cluster.advance_all(1e-6, "forward")
            h.wait()
            rt.ibroadcast(per_rank(1)[0], root=1, category="kfac_allgather").wait()
            rt.assert_quiesced()
            breakdown = cluster.breakdown()
        totals = t.tracer.category_totals(track=SIM_TRACK)  # stream 0 only
        for cat, sec in breakdown.items():
            assert totals.get(cat, 0.0) == pytest.approx(sec, abs=1e-12)
        # The comm lanes carry spans the compute-lane totals leave out.
        assert any(s.stream != 0 and s.category == "allreduce" for s in t.tracer.spans())
