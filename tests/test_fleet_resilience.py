"""Fleet resilience tests: fault semantics, restart, preemption, SLOs.

Contracts:

1. **Per-fault-class capability check** — the timing track accepts
   time-plane and availability-plane faults and rejects data-plane
   faults with an error naming the fault class and supporting tracks;
   a crashes-only plan is invisible to the cluster entirely.
2. **Crash/restart** — a crashed job restarts from its exact-resume
   checkpoint: the finished trajectory is bit-identical to one that
   never crashed, within a capped-backoff retry budget.
3. **Preemption** — a concurrency cap admits by priority, preemption
   costs zero work and never charges the retry budget.
4. **Determinism** — chaos fleets are byte-reproducible, and an empty
   chaos plan is bit-identical (ledger digest) to a faultless fleet.
5. **SLO/goodput accounting** — JobReport carries restarts, SLO
   verdicts, time lost, and goodput with sane invariants.
"""

import numpy as np
import pytest

from repro.distributed import SimCluster
from repro.faults import FaultPlan, JobCrash
from repro.fleet import (
    FleetScheduler,
    JobSpec,
    SharedFabric,
    apply_chaos,
    chaos_plan,
)
from repro.obsv import load_ledger
from repro.scenarios import FLEETS


def _params(model):
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _solo(name="solo", **kw):
    return JobSpec(name, world_size=8, iterations=4, batch_size=32, seed=0, **kw)


class TestFaultCapability:
    def test_timing_rejects_corruption_naming_class_and_tracks(self):
        plan = FaultPlan().add_corruption(0.5)
        with pytest.raises(ValueError, match="PayloadCorruption.*timing.*convergence"):
            SimCluster(2, 4, track="timing", fault_plan=plan)

    def test_timing_rejects_drops_naming_class(self):
        plan = FaultPlan().add_drop(0, iteration=1)
        with pytest.raises(ValueError, match="DroppedContribution.*data-plane"):
            SimCluster(2, 4, track="timing", fault_plan=plan)

    def test_timing_accepts_time_and_availability_planes(self):
        plan = (
            FaultPlan()
            .add_straggler(1, start=0, slowdown=2.0)
            .add_link_degradation(start=0, stop=1, bandwidth_factor=2.0)
            .add_failure(2, iteration=1)
            .add_crash(iteration=1)
        )
        cluster = SimCluster(2, 4, track="timing", fault_plan=plan)
        assert cluster.faults is not None

    def test_convergence_still_accepts_data_plane(self):
        plan = FaultPlan().add_corruption(0.5).add_drop(0, iteration=1)
        cluster = SimCluster(2, 4, track="convergence", fault_plan=plan)
        assert cluster.faults is not None

    def test_crashes_only_plan_is_invisible_to_cluster(self):
        # Crashes are interpreted by the fleet scheduler; the cluster
        # must not grow a controller (which would add checksum traffic).
        plan = FaultPlan().add_crash(iteration=1)
        cluster = SimCluster(2, 4, track="timing", fault_plan=plan)
        assert cluster.faults is None
        assert not plan.is_empty()
        assert plan.is_empty_for_cluster()

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="crash iteration"):
            JobCrash(-1)

    def test_plan_entries_and_describe_include_crashes(self):
        plan = FaultPlan().add_crash(iteration=2)
        assert any(isinstance(e, JobCrash) for e in plan.entries())
        assert "JobCrash" in plan.describe()


class TestJobSpecValidation:
    def test_rejects_nonpositive_priority(self):
        with pytest.raises(ValueError, match="priority must be > 0"):
            JobSpec("j", world_size=8, iterations=1, priority=0.0)
        with pytest.raises(ValueError, match="priority must be > 0"):
            JobSpec("j", world_size=8, iterations=1, priority=-1.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            JobSpec("", world_size=8, iterations=1)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            JobSpec("j", world_size=8, iterations=1, arrival=-0.1)

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            JobSpec("j", world_size=8, iterations=1, deadline=0.0)

    def test_duplicate_names_raise(self):
        specs = [_solo("same"), _solo("same")]
        with pytest.raises(ValueError, match="duplicate"):
            FleetScheduler(specs)

    def test_scheduler_kwargs_validation(self):
        specs = [_solo()]
        with pytest.raises(ValueError, match="max_concurrent"):
            FleetScheduler(specs, max_concurrent=0)
        with pytest.raises(ValueError, match="retry_budget"):
            FleetScheduler(specs, retry_budget=-1)


class TestCrashRestart:
    def test_restart_resumes_from_checkpoint_bit_identical(self):
        # A job checkpoints after every step, so a crash at iteration 3
        # restores the checkpoint of step 3 and loses only the backoff.
        # Exact-resume checkpoints make the finished trajectory
        # bit-identical to the run that never crashed.
        crash = _solo(fault_plan=FaultPlan().add_crash(iteration=3))
        clean = _solo()
        s_crash = FleetScheduler([crash])
        s_clean = FleetScheduler([clean])
        r_crash = s_crash.run().by_name("solo")
        r_clean = s_clean.run().by_name("solo")
        assert r_crash.state == "done"
        assert r_crash.restarts == 1
        assert r_crash.steps == crash.iterations
        assert r_crash.final_loss == r_clean.final_loss
        np.testing.assert_array_equal(
            _params(s_crash.jobs[0].trainer.model), _params(s_clean.jobs[0].trainer.model)
        )
        # The restart's backoff is lost time.
        assert r_crash.time_lost_s > 0.0
        assert r_crash.fleet_end > r_clean.fleet_end
        assert r_crash.goodput < 1.0

    def test_storage_faults_fire_without_a_store_dir(self):
        """Every job owns a checkpoint store, so a crash inside a save is
        live even when the scheduler is given no ``store_dir``: it costs a
        restart (beside the plan's job crash) and no bit of the result."""
        plan = (
            FaultPlan()
            .add_save_crash(save_index=1, point="save:tmp_written")
            .add_crash(iteration=3)
        )
        faulted = FleetScheduler([_solo(fault_plan=plan)]).run().by_name("solo")
        clean = FleetScheduler([_solo()]).run().by_name("solo")
        assert faulted.restarts == 2  # the save crash, then the job crash
        assert faulted.state == "done" and faulted.steps == 4
        assert faulted.final_loss == clean.final_loss

    def test_crash_fires_once_and_counts_in_ledger(self, tmp_path):
        spec = _solo(fault_plan=FaultPlan().add_crash(iteration=1))
        result = FleetScheduler([spec], ledger_dir=tmp_path).run()
        report = result.by_name("solo")
        assert report.restarts == 1
        assert result.total_restarts == 1
        fleet = load_ledger(tmp_path / "solo.ledger").manifest["fleet"]
        assert fleet["restarts"] == 1
        assert fleet["state"] == "done"
        assert 0.0 < fleet["goodput"] < 1.0

    def test_retry_budget_exhaustion_fails_job(self):
        plan = FaultPlan()
        for it in (1, 2, 3):
            plan.add_crash(iteration=it)
        spec = _solo(fault_plan=plan, deadline=10.0)
        other = JobSpec("peer", world_size=8, iterations=2, batch_size=32, seed=1)
        result = FleetScheduler([spec, other], retry_budget=2).run()
        report = result.by_name("solo")
        assert report.state == "failed"
        assert report.restarts == 2  # budget, not the number of crashes
        assert report.slo_met is False
        assert result.jobs_failed == 1
        assert result.slo_missed == 1
        # The healthy peer is unaffected.
        assert result.by_name("peer").state == "done"

    def test_backoff_is_capped_exponential(self):
        plan = FaultPlan()
        for it in (1, 2, 3, 4, 5):
            plan.add_crash(iteration=it)
        spec = JobSpec("solo", world_size=8, iterations=6, batch_size=32, fault_plan=plan)
        sched = FleetScheduler([spec], retry_budget=5)
        report = sched.run().by_name("solo")
        assert report.state == "done"
        assert report.restarts == 5
        # Backoffs: 1e-3 doubling to the 8e-3 cap, which the last two hit.
        assert (sched.backoff_base, sched.backoff_cap) == (1e-3, 8e-3)
        job = sched.jobs[0]
        assert job.backoff_total == pytest.approx((1 + 2 + 4 + 8 + 8) * 1e-3)


class TestPreemption:
    def test_high_priority_preempts_lowest(self):
        specs = [
            JobSpec("low", world_size=8, iterations=4, batch_size=32, seed=0, priority=1.0),
            JobSpec(
                "high", world_size=8, iterations=2, batch_size=32, seed=1,
                priority=3.0, arrival=0.0005,
            ),
        ]
        result = FleetScheduler(specs, max_concurrent=1).run()
        low = result.by_name("low")
        high = result.by_name("high")
        assert low.state == "done" and high.state == "done"
        assert low.preemptions >= 1
        assert high.preemptions == 0
        assert result.total_preemptions == low.preemptions
        # Preemption costs queue position, never the retry budget.
        assert low.restarts == 0
        assert low.steps == 4

    def test_equal_priority_queues_instead_of_preempting(self):
        specs = [
            JobSpec("a", world_size=8, iterations=2, batch_size=32, seed=0),
            JobSpec("b", world_size=8, iterations=2, batch_size=32, seed=1, arrival=0.0005),
        ]
        result = FleetScheduler(specs, max_concurrent=1).run()
        assert result.total_preemptions == 0
        assert all(r.state == "done" for r in result.reports)
        # b could only start after a finished.
        assert result.by_name("b").fleet_end > result.by_name("a").fleet_end

    def test_preempted_job_never_starved_past_budget(self):
        # A low-priority job repeatedly preempted by later high-priority
        # arrivals still completes with its restart budget untouched.
        specs = [
            JobSpec("victim", world_size=8, iterations=4, batch_size=32, seed=0, priority=1.0),
            JobSpec("h1", world_size=8, iterations=2, batch_size=32, seed=1,
                    priority=2.0, arrival=0.0004),
            JobSpec("h2", world_size=8, iterations=2, batch_size=32, seed=2,
                    priority=2.0, arrival=0.0008),
        ]
        result = FleetScheduler(specs, max_concurrent=1, retry_budget=1).run()
        victim = result.by_name("victim")
        assert victim.state == "done"
        assert victim.restarts == 0
        assert victim.steps == 4


class TestElasticShrink:
    def test_node_failure_shrinks_world_and_continues(self):
        plan = FaultPlan().add_node_failure(1, iteration=1, gpus_per_node=4)
        spec = JobSpec("elastic", world_size=16, iterations=3, batch_size=32,
                       seed=0, fault_plan=plan)
        sched = FleetScheduler([spec])
        report = sched.run().by_name("elastic")
        assert report.state == "done"
        assert report.steps == 3
        # Handled inside the trainer (elastic continuation), not by the
        # scheduler's restart machinery.
        assert report.restarts == 0
        assert sched.jobs[0].cluster.world_size == 12
        assert np.isfinite(report.final_loss)


class TestFabricDegradation:
    def test_degradation_window_stretches_overlap_only(self):
        fabric = SharedFabric()
        fabric.register("j")
        fabric.degrade(1.0, 2.0, 3.0)
        # Fully inside the window: 3x.
        assert fabric.acquire("j", "allreduce", 1.0, 0.5) == pytest.approx(1.5)
        # Fully outside: nominal.
        assert fabric.acquire("j", "allreduce", 5.0, 0.5) == pytest.approx(0.5)
        # Half overlap: only the overlapped half is stretched.
        assert fabric.acquire("j", "allreduce", 1.75, 0.5) == pytest.approx(
            0.5 + 2.0 * 0.25
        )
        assert fabric.degraded_seconds["j"] > 0.0
        assert fabric.contended_seconds["j"] == 0.0

    def test_degrade_validation(self):
        fabric = SharedFabric()
        with pytest.raises(ValueError, match="empty"):
            fabric.degrade(1.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="factor"):
            fabric.degrade(0.0, 1.0, 0.5)

    def test_fleet_degradation_slows_solo_job(self):
        plain = FleetScheduler([_solo()]).run().by_name("solo")
        slowed = FleetScheduler(
            [_solo()], fabric_degradations=[(0.0, 1.0, 2.0)]
        ).run().by_name("solo")
        assert slowed.sim_time > plain.sim_time
        assert slowed.contended_seconds == 0.0
        assert slowed.goodput < 1.0


class TestChaosDeterminism:
    def test_empty_chaos_is_bit_identical_to_faultless(self, tmp_path):
        specs = FLEETS["smoke"].jobs()
        assert apply_chaos(specs, rate=0.0) == specs
        FleetScheduler(specs, ledger_dir=tmp_path / "plain").run()
        FleetScheduler(apply_chaos(specs, rate=0.0), ledger_dir=tmp_path / "chaos0").run()
        for spec in specs:
            a = load_ledger(tmp_path / "plain" / f"{spec.name}.ledger")
            b = load_ledger(tmp_path / "chaos0" / f"{spec.name}.ledger")
            assert a.digest() == b.digest()

    def test_chaos_reruns_are_byte_identical(self, tmp_path):
        specs = apply_chaos(FLEETS["smoke"].jobs(), rate=1.0, seed=7)
        FleetScheduler(specs, ledger_dir=tmp_path / "a").run()
        FleetScheduler(specs, ledger_dir=tmp_path / "b").run()
        for spec in specs:
            a = load_ledger(tmp_path / "a" / f"{spec.name}.ledger")
            b = load_ledger(tmp_path / "b" / f"{spec.name}.ledger")
            assert a.digest() == b.digest()

    def test_chaos_plan_is_deterministic_and_rate_scaled(self):
        spec = _solo()
        p1 = chaos_plan(spec, 0, rate=1.0, seed=3)
        p2 = chaos_plan(spec, 0, rate=1.0, seed=3)
        assert p1 is not None and p2 is not None
        assert p1.describe() == p2.describe()
        assert chaos_plan(spec, 0, rate=0.0, seed=3) is None
        with pytest.raises(ValueError, match="rate"):
            chaos_plan(spec, 0, rate=-1.0, seed=3)

    def test_tiebreak_orders_by_priority_then_name(self):
        # Identical arrivals: the higher-priority job is admitted first;
        # among equals, lexicographic name order breaks the tie.
        specs = [
            JobSpec("b", world_size=8, iterations=1, batch_size=32, seed=0),
            JobSpec("a", world_size=8, iterations=1, batch_size=32, seed=1),
            JobSpec("z", world_size=8, iterations=1, batch_size=32, seed=2, priority=2.0),
        ]
        sched = FleetScheduler(specs, max_concurrent=1)
        keys = sorted(sched.jobs, key=sched._key)
        assert [j.spec.name for j in keys] == ["z", "a", "b"]

    def test_chaos_smoke_preset_restarts_and_converges(self, tmp_path):
        result = FleetScheduler(
            FLEETS["chaos-smoke"].jobs(),
            ledger_dir=tmp_path,
            **FLEETS["chaos-smoke"].options,
        ).run()
        assert result.total_restarts >= 1
        assert result.total_preemptions >= 1
        assert result.jobs_failed == 0
        assert all(np.isfinite(r.final_loss) for r in result.reports)
        assert all(r.slo_met is not False for r in result.reports)


class TestSLOGoodput:
    def test_solo_faultless_goodput_is_one_and_slo_met(self):
        report = FleetScheduler([_solo(deadline=10.0)]).run().by_name("solo")
        assert report.goodput == pytest.approx(1.0)
        assert report.slo_met is True
        assert report.time_lost_s == 0.0

    def test_impossible_deadline_is_missed(self):
        report = FleetScheduler([_solo(deadline=1e-9)]).run().by_name("solo")
        assert report.slo_met is False

    def test_no_deadline_means_no_slo(self):
        result = FleetScheduler([_solo()]).run()
        assert result.by_name("solo").slo_met is None
        assert result.slo_missed == 0

    def test_fleet_summary_counts(self):
        specs = [
            _solo("crashy", fault_plan=FaultPlan().add_crash(iteration=1), deadline=10.0),
            JobSpec("fine", world_size=8, iterations=2, batch_size=32, seed=1, deadline=10.0),
        ]
        result = FleetScheduler(specs).run()
        assert result.total_restarts == 1
        assert result.slo_missed == 0
        assert result.jobs_failed == 0
