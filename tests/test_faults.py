"""Fault injection, detection, recovery, and determinism."""

from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule, adaptive
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.distributed.collectives import broadcast_time, reduce_scatter_time
from repro.faults import (
    CHECKSUM_BYTES,
    FaultController,
    FaultPlan,
    ReliableChannel,
    corrupt_payload,
    is_sealed,
    payload_crc,
    seal,
    verify,
)
from repro.faults.plan import Jitter
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.train import ClassificationTask


def _counters(snapshot, prefix="faults."):
    return {
        (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
        for m in snapshot
        if m["type"] == "counter" and m["name"].startswith(prefix)
    }


def _tiny_trainer(plan, *, seed=0, compressor="adaptive"):
    data = make_image_data(200, n_classes=4, size=8, noise=0.6, seed=seed)
    task = ClassificationTask(data)
    cluster = SimCluster(1, 4, seed=seed, fault_plan=plan)
    model = resnet_proxy(n_classes=4, channels=8, rng=seed + 3)
    comp = None
    if compressor == "adaptive":
        comp = AdaptiveCompso(StepLrSchedule(3), seed=seed)
    elif compressor == "compso":
        comp = CompsoCompressor(4e-3, 4e-3, seed=seed)
    return DistributedKfacTrainer(
        model, task, cluster, lr=0.05, inv_update_freq=5, compressor=comp
    )


class TestFaultPlan:
    def test_empty_plan_detected(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan().add_straggler(0, start=0).is_empty()

    def test_validate_rejects_out_of_range_rank(self):
        with pytest.raises(ValueError, match="rank 9"):
            FaultPlan().add_straggler(9, start=0).validate(4)
        with pytest.raises(ValueError, match="rank 4"):
            FaultPlan().add_failure(4, iteration=0).validate(4)

    def test_validate_rejects_total_annihilation(self):
        plan = FaultPlan()
        for r in range(4):
            plan.add_failure(r, iteration=1)
        with pytest.raises(ValueError, match="at least one"):
            plan.validate(4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FaultPlan().add_straggler(0, start=0, slowdown=0.5)
        with pytest.raises(ValueError):
            FaultPlan().add_corruption(1.5)
        with pytest.raises(ValueError):
            FaultPlan().add_jitter(0.0)
        with pytest.raises(ValueError):
            FaultPlan().add_link_degradation(start=0, latency_factor=0.2)

    def test_node_failure_expands_to_all_gpus(self):
        plan = FaultPlan().add_node_failure(1, iteration=3, gpus_per_node=4)
        assert sorted(f.rank for f in plan.failures) == [4, 5, 6, 7]

    def test_describe_lists_entries(self):
        text = FaultPlan(seed=7).add_straggler(2, start=1, slowdown=3.0).describe()
        assert "seed=7" in text and "Straggler" in text


class TestEmptyPlanIdentity:
    def test_empty_plan_is_discarded(self):
        assert SimCluster(1, 2, fault_plan=FaultPlan()).faults is None
        assert SimCluster(1, 2, fault_plan=None).faults is None

    def test_empty_plan_run_bit_identical(self):
        """The acceptance bar: FaultPlan() must not perturb a single bit."""

        def run(plan):
            tr = _tiny_trainer(plan)
            tr.train(iterations=4, batch_size=32)
            params = np.concatenate([p.data.ravel() for p in tr.model.parameters()])
            return tr.history.losses, tr.cluster.breakdown(), params, tr.cluster.time

        l0, b0, p0, t0 = run(None)
        l1, b1, p1, t1 = run(FaultPlan())
        assert l0 == l1
        assert b0 == b1
        assert t0 == t1
        assert np.array_equal(p0, p1)


class TestTimePlane:
    def test_straggler_slows_breakdown(self):
        plan = FaultPlan().add_straggler(1, start=0, slowdown=3.0)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.allreduce([np.ones(1000) for _ in range(4)])
        bd = cl.breakdown()
        assert bd["fault_delay"] > 0
        # The straggler's clock leads by its extra time: (slowdown-1)x base.
        clean = SimCluster(1, 4)
        clean.allreduce([np.ones(1000) for _ in range(4)])
        assert cl.time == pytest.approx(clean.time * 3.0)

    def test_straggler_outside_window_is_free(self):
        plan = FaultPlan().add_straggler(1, start=5, stop=6, slowdown=3.0)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(0)
        cl.allreduce([np.ones(1000) for _ in range(4)])
        assert "fault_delay" not in cl.breakdown()

    def test_link_degradation_scales_collective_time(self):
        base = SimCluster(1, 4)
        base.broadcast(np.ones(100_000))
        plan = FaultPlan().add_link_degradation(start=0, latency_factor=2.0, bandwidth_factor=2.0)
        degraded = SimCluster(1, 4, fault_plan=plan)
        degraded.begin_iteration(0)
        degraded.broadcast(np.ones(100_000))
        assert degraded.time > base.time * 1.5
        expected = broadcast_time(degraded.network, 4, 800_000, 4)
        assert degraded.breakdown()["broadcast"] == pytest.approx(expected)

    def test_jitter_adds_positive_time(self):
        plan = FaultPlan(seed=3).add_jitter(1e-4, start=0)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.allreduce([np.ones(10) for _ in range(4)])
        assert cl.breakdown().get("fault_delay", 0.0) > 0


class TestChecksum:
    def test_seal_and_verify_roundtrip(self, kfac_like_gradient):
        ct = CompsoCompressor(4e-3, 4e-3).compress(kfac_like_gradient)
        assert not is_sealed(ct)
        sealed = seal(ct)
        assert is_sealed(sealed) and verify(sealed)
        assert sealed.nbytes == ct.nbytes  # +CHECKSUM_BYTES charged on the wire
        assert CHECKSUM_BYTES == 4

    def test_corruption_breaks_verification(self, kfac_like_gradient, rng):
        sealed = seal(CompsoCompressor(4e-3, 4e-3).compress(kfac_like_gradient))
        corrupted = corrupt_payload(sealed, rng, 4)
        assert not verify(corrupted)
        assert payload_crc(corrupted) != payload_crc(sealed)

    def test_corrupt_payload_ndarray(self, rng):
        x = np.ones(100, dtype=np.float32)
        y = corrupt_payload(x, rng, 2)
        assert y.shape == x.shape and not np.array_equal(x, y)
        assert np.array_equal(x, np.ones(100, dtype=np.float32))  # original intact


class TestReliableChannel:
    def _sealed_broadcast(self, probability, seed=0):
        plan = FaultPlan(seed=seed).add_corruption(probability, n_bits=4)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(0)
        chan = ReliableChannel(cl)
        ct = CompsoCompressor(4e-3, 4e-3).compress(np.linspace(-1, 1, 5000).astype(np.float32))
        return chan.broadcast(ct, root=0, category="kfac_allgather"), cl

    def test_clean_channel_single_attempt(self):
        plan = FaultPlan().add_straggler(0, start=0, slowdown=1.5)  # non-empty, no corruption
        cl = SimCluster(1, 4, fault_plan=plan)
        chan = ReliableChannel(cl)
        ct = CompsoCompressor(4e-3, 4e-3).compress(np.ones(100, dtype=np.float32))
        sealed, report = chan.broadcast(ct, root=0, category="kfac_allgather")
        assert report.attempts == 1 and report.detected == 0 and not report.unrecoverable
        assert verify(sealed)

    def test_retransmit_until_clean(self):
        # Three corrupted attempts, then a clean one inside the three-retry budget.
        (sealed, report), cl = self._sealed_broadcast(0.3, seed=2)
        assert report.detected > 0
        assert report.attempts > 1 and not report.unrecoverable
        assert verify(sealed)
        assert cl.breakdown().get("fault_backoff", 0.0) > 0

    def test_unrecoverable_after_max_retries(self):
        (sealed, report), _ = self._sealed_broadcast(1.0)
        assert report.unrecoverable
        assert report.attempts == 1 + ReliableChannel.max_retries == 4
        assert verify(sealed)  # the root's copy is always clean

    def test_wire_bytes_factor_counts_attempts(self):
        (_, report), _ = self._sealed_broadcast(1.0)
        assert report.wire_bytes_factor == 4.0

    def test_root_outside_the_world_is_refused(self):
        """The channel sends through the cluster's broadcast plan, which
        refuses a root that is no live rank — unchecked, every rank was a
        receiver and the sender's own copy could be bit-flipped."""
        plan = FaultPlan(seed=0).add_corruption(1.0, n_bits=4)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(0)
        ct = CompsoCompressor(4e-3, 4e-3).compress(np.ones(100, dtype=np.float32))
        with pytest.raises(ValueError, match="broadcast root 99 is not a rank position"):
            ReliableChannel(cl).broadcast(ct, root=99)
        assert cl.time == 0.0 and not cl.faults.events


class TestDataPlane:
    def test_drop_rescales_average(self):
        plan = FaultPlan().add_drop(1, iteration=0)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(0)
        out = cl.allreduce([np.full(3, float(r + 1)) for r in range(4)], average=True)
        # Ranks 1's contribution (value 2.0) is lost: mean of {1, 3, 4}.
        assert np.allclose(out[0], (1 + 3 + 4) / 3)

    def test_drop_only_named_iteration(self):
        plan = FaultPlan().add_drop(1, iteration=0)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(1)
        out = cl.allreduce([np.full(3, float(r + 1)) for r in range(4)], average=True)
        assert np.allclose(out[0], 2.5)

    def test_broadcast_corruption_spares_root(self):
        plan = FaultPlan(seed=0).add_corruption(1.0, n_bits=1)
        cl = SimCluster(1, 4, fault_plan=plan)
        cl.begin_iteration(0)
        payload = np.ones(64, dtype=np.float32)
        got = cl.broadcast(payload, root=2)
        assert got[2] is payload
        assert any(not np.array_equal(got[i], payload) for i in (0, 1, 3))


class TestElasticContinuation:
    def test_rank_failure_shrinks_world(self):
        plan = FaultPlan().add_failure(3, iteration=2)
        tr = _tiny_trainer(plan)
        h = tr.train(iterations=5, batch_size=32)
        assert len(h.losses) == 5
        assert tr.cluster.world_size == 3
        assert tr.cluster.lost_ranks and tr.cluster.lost_ranks[0].rank == 3
        assert max(tr.owners) < 3
        assert np.isfinite(h.losses[-1])

    def test_all_ranks_dead_raises(self):
        # validate() rejects plans that fail every rank, so build the
        # second failure behind its back to exercise the runtime guard.
        from repro.faults.plan import RankFailure

        plan = FaultPlan().add_failure(0, iteration=1)
        cl = SimCluster(1, 2, fault_plan=plan)
        cl.faults.plan.failures.append(RankFailure(1, 1))
        with pytest.raises(RuntimeError, match="every remaining rank"):
            cl.begin_iteration(1)

    def test_failure_counters_and_gauge(self):
        plan = FaultPlan().add_failure(2, iteration=1)
        tr = _tiny_trainer(plan, compressor=None)
        with telemetry.session() as sess:
            tr.train(iterations=3, batch_size=32)
            counters = _counters(sess.metrics.snapshot())
            gauges = {
                m["name"]: m["value"]
                for m in sess.metrics.snapshot()
                if m["type"] == "gauge"
            }
        assert counters[("faults.injected", (("kind", "rank_failure"),))] == 1
        assert counters[("faults.recovered", (("kind", "rank_failure"),))] == 1
        assert gauges["faults.world_size"] == 3


class TestCorruptionRecovery:
    def test_detection_matches_checksummed_injection(self):
        """Every corruption on the checksummed path must be detected."""
        plan = FaultPlan(seed=5).add_corruption(0.4, start=1, stop=4, n_bits=4)
        tr = _tiny_trainer(plan)
        with telemetry.session() as sess:
            tr.train(iterations=5, batch_size=32)
            counters = _counters(sess.metrics.snapshot())
        injected = counters.get(("faults.injected", (("kind", "corruption"),)), 0)
        detected = counters.get(("faults.detected", (("kind", "corruption"),)), 0)
        assert injected > 0
        # Undetected injections can only come from the unchecksummed raw
        # fallback; they never exceed the fallback count.
        fallbacks = counters.get(("faults.recovered", (("kind", "lossless_fallback"),)), 0)
        assert injected - detected <= fallbacks * tr.cluster.world_size

    def test_corruption_run_converges(self):
        plan = FaultPlan(seed=5).add_corruption(0.3, start=1, stop=6, n_bits=4)
        tr = _tiny_trainer(plan)
        h = tr.train(iterations=8, batch_size=32)
        clean = _tiny_trainer(None)
        hc = clean.train(iterations=8, batch_size=32)
        assert h.losses[-1] < h.losses[0]
        assert abs(h.losses[-1] - hc.losses[-1]) / hc.losses[-1] < 0.25


class TestGracefulDegradation:
    def test_degrade_tightens_bounds_then_lapses(self):
        ac = AdaptiveCompso(StepLrSchedule(10))
        assert ac.bounds.eb_f > 0  # loose phase
        ac.degrade(iterations=2)
        assert ac.degraded
        assert ac.bounds.eb_f == 0 and ac.bounds.eb_q == pytest.approx(1e-4)
        ac.step()
        assert ac.degraded
        ac.step()
        assert not ac.degraded
        assert ac.bounds.eb_f > 0  # schedule re-tightens control

    def test_degrade_validates_window(self):
        ac = AdaptiveCompso(StepLrSchedule(10))
        with pytest.raises(ValueError):
            ac.degrade(iterations=0)

    def test_ef_residual_guard(self):
        """A non-finite error-feedback residual is the ``ef_residual``
        verdict: it resets the wrapper, then — the reset on cool-down —
        degrades the compressor *behind* it through the wrapper's forwarding."""
        from repro.compression.error_feedback import ErrorFeedback
        from repro.guard import GuardConfig
        from tests.conftest import tiny_kfac_trainer

        ef = ErrorFeedback(AdaptiveCompso(StepLrSchedule(10)))
        guard = tiny_kfac_trainer(compressor=ef, guard=GuardConfig()).guard
        grad = np.linspace(-1.0, 1.0, 4096, dtype=np.float32)

        def step(t, *, poison):
            guard.begin_step(t)
            ef.compress(grad)
            if poison:
                ef._residuals[(None, grad.shape)][0] = np.inf
            guard.check_ef(ef)

        step(0, poison=False)
        assert guard.timeline == [] and np.isfinite(ef.residual_norm())
        step(1, poison=True)
        assert [(a.verdict, a.action) for a in guard.timeline] == [("ef_residual", "reset_ef")]
        assert sum(r.nbytes for r in ef._residuals.values()) == 0 and ef.residual_norm() == 0.0
        assert not ef.inner.degraded
        step(2, poison=True)
        assert guard.verdict_counts == {"ef_residual": 2}
        assert [a.action for a in guard.timeline] == ["reset_ef", "tighten_bounds"]
        assert ef.inner.degraded and ef.inner.inner.bounds.eb_f == 0
        assert guard.timeline[-1].detail["eb_q"] == adaptive._FALLBACK.eb_q


class TestDeterminism:
    def test_same_seed_same_schedule_and_params(self):
        """Same (seed, plan) twice: bit-identical events, params, clocks."""

        def run():
            plan = (
                FaultPlan(seed=11)
                .add_straggler(1, start=1, stop=4, slowdown=2.0)
                .add_corruption(0.3, start=1, stop=5, n_bits=2)
                .add_drop(2, iteration=3)
                .add_failure(3, iteration=4)
            )
            plan.jitters.append(Jitter(5e-5, start=0, stop=5))
            tr = _tiny_trainer(plan, seed=2)
            tr.train(iterations=6, batch_size=32)
            params = np.concatenate([p.data.ravel() for p in tr.model.parameters()])
            return tr.cluster.faults.events, params, tr.cluster.breakdown(), tr.history.losses

        e0, p0, b0, l0 = run()
        e1, p1, b1, l1 = run()
        assert e0 == e1
        assert np.array_equal(p0, p1)
        assert b0 == b1
        assert l0 == l1

    def test_different_seeds_differ(self):
        def events(seed):
            plan = FaultPlan(seed=seed).add_corruption(0.5, n_bits=1)
            cl = SimCluster(1, 4, fault_plan=plan)
            cl.begin_iteration(0)
            cl.broadcast(np.ones(128, dtype=np.float32), root=0)
            return cl.faults.events

        assert events(1) != events(2)


class TestChaosHarness:
    def test_make_plan_scales_and_validates(self):
        from repro.scenarios import SCENARIOS, fault_plan

        for scenario in SCENARIOS["chaos"].values():
            assert (scenario.world, scenario.iterations, scenario.job_seed) == (4, 12, 0)
            plan = fault_plan(scenario)
            assert not plan.is_empty()
            plan.validate(4)
        with pytest.raises(ValueError):
            fault_plan(replace(SCENARIOS["chaos"]["smoke"], faults="nope"))

    def test_smoke_scenario_end_to_end(self):
        from repro.faults.chaos import run_chaos
        from repro.scenarios import SCENARIOS

        smoke = SCENARIOS["chaos"]["smoke"]
        r = run_chaos(replace(smoke, nodes=1, gpus_per_node=2, iterations=4, batch_size=16))
        assert r.completed
        assert sum(v for k, v in r.counters.items() if k.startswith("faults.injected")) > 0
        assert r.faulted_sim_time > r.baseline_sim_time
        d = r.to_dict()
        assert d["scenario"] == "smoke" and "counters" in d
