"""repro.fleet + representative-rank data plane tests.

Three contracts:

1. **Track equivalence** — on the timing track, representative payloads
   (one buffer stands in for all ranks) produce bit-identical parameters
   and simulated times to full per-rank payloads, for SGD and K-FAC,
   blocking and overlapped.
2. **Convergence track untouched** — the default track still carries
   full per-rank payloads through per-rank SimClocks; explicitly asking
   for ``track="convergence"`` changes nothing.
3. **Fleet semantics** — the scheduler completes multi-job runs with
   weighted-fair contention (priority slows less), O(1) payload memory
   in world size, and per-job obsv ledgers.
"""

import numpy as np
import pytest

from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import (
    SLINGSHOT10,
    RepView,
    SimCluster,
    VirtualClockPlane,
    allreduce_time,
    map_payloads,
    payload_nbytes,
)
from repro.faults import FaultPlan
from repro.faults.plan import PayloadCorruption
from repro.fleet import FleetScheduler, JobSpec, SharedFabric
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.optim import Sgd
from repro.runtime import ComputeModel, StreamRuntime
from repro.scenarios import FLEETS
from repro.train import ClassificationTask, DistributedSgdTrainer
from tests.conftest import full_payloads

ITERS = 3
FLOPS = 5e7


def _task():
    return ClassificationTask(make_image_data(200, n_classes=5, size=8, noise=0.4, seed=0))


def _params(model):
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _run(kind, ranks, *, track="timing", full=False, overlap=False, use_rt=False):
    cluster = (full_payloads(SimCluster) if full else SimCluster)(
        ranks // min(ranks, 4), min(ranks, 4), seed=0, network=SLINGSHOT10, track=track
    )
    model = resnet_proxy(n_classes=5, channels=8, rng=3)
    rt = (
        StreamRuntime(cluster, overlap=overlap, compute=ComputeModel(train_flops=FLOPS))
        if use_rt
        else None
    )
    comp = CompsoCompressor(4e-3, 4e-3, seed=0)
    if kind == "sgd":  # the SGD trainer has no runtime: it is always blocking
        assert rt is None
        trainer = DistributedSgdTrainer(
            model, _task(), Sgd(model.parameters(), lr=0.05), cluster, compressor=comp
        )
    else:
        trainer = DistributedKfacTrainer(
            model, _task(), cluster, lr=0.05, inv_update_freq=2,
            compressor=comp, runtime=rt,
        )
    trainer.train(iterations=ITERS, batch_size=64)
    return _params(model), cluster


class TestRepresentativeEquivalence:
    """Representative payloads == full payloads on the timing track."""

    @pytest.mark.parametrize("ranks", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["sgd", "kfac"])
    def test_blocking_bit_identical(self, kind, ranks):
        p_rep, c_rep = _run(kind, ranks)
        p_full, c_full = _run(kind, ranks, full=True)
        assert np.array_equal(p_rep, p_full)
        assert c_rep.time == c_full.time

    @pytest.mark.parametrize("kind", ["kfac"])
    def test_overlapped_bit_identical(self, kind):
        p_rep, c_rep = _run(kind, 8, use_rt=True, overlap=True)
        p_full, c_full = _run(kind, 8, full=True, use_rt=True, overlap=True)
        assert np.array_equal(p_rep, p_full)
        assert c_rep.time == c_full.time

    def test_representative_memory_flat_in_world(self):
        _, c_small = _run("kfac", 256)
        _, c_large = _run("kfac", 4096)
        assert c_small.peak_payload_bytes > 0
        assert c_large.peak_payload_bytes == c_small.peak_payload_bytes

    def test_convergence_memory_grows_with_world(self):
        _, c4 = _run("kfac", 4, track="convergence")
        _, c8 = _run("kfac", 8, track="convergence")
        assert c8.peak_payload_bytes == 2 * c4.peak_payload_bytes


class TestTimingTrackComposition:
    """Runtime, time-plane faults, guard, and telemetry all compose with
    the representative path."""

    def test_straggler_guard_telemetry_compose(self):
        from repro import telemetry
        from repro.guard.guard import GuardConfig

        plan = FaultPlan().add_straggler(1, start=0, slowdown=3.0)
        cluster = SimCluster(
            2, 4, seed=0, network=SLINGSHOT10, track="timing", fault_plan=plan
        )
        model = resnet_proxy(n_classes=5, channels=8, rng=3)
        rt = StreamRuntime(cluster, overlap=True, compute=ComputeModel(train_flops=FLOPS))
        trainer = DistributedKfacTrainer(
            model, _task(), cluster, lr=0.05, inv_update_freq=2,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
            runtime=rt, guard=GuardConfig(),
        )
        with telemetry.session():
            trainer.train(iterations=ITERS, batch_size=64)
        assert np.all(np.isfinite(_params(model)))
        # The straggler stretched the run past the fault-free twin.
        clean = SimCluster(
            2, 4, seed=0, network=SLINGSHOT10, track="timing"
        )
        model2 = resnet_proxy(n_classes=5, channels=8, rng=3)
        rt2 = StreamRuntime(clean, overlap=True, compute=ComputeModel(train_flops=FLOPS))
        DistributedKfacTrainer(
            model2, _task(), clean, lr=0.05, inv_update_freq=2,
            compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
            runtime=rt2, guard=GuardConfig(),
        ).train(iterations=ITERS, batch_size=64)
        assert cluster.time > clean.time
        assert np.array_equal(_params(model), _params(model2))


class TestConvergenceTrackUntouched:
    def test_default_cluster_is_convergence_full(self):
        cluster = SimCluster(2, 4, seed=0)
        assert cluster.track == "convergence"
        assert not cluster.is_timing
        assert not cluster.representative
        out = cluster.allreduce([np.full(4, float(r + 1)) for r in range(8)])
        assert isinstance(out, list) and len(out) == 8
        assert out[0] is not out[1]

    @pytest.mark.parametrize("kind", ["sgd", "kfac"])
    def test_explicit_convergence_matches_default(self, kind):
        p_explicit, c_explicit = _run(kind, 8, track="convergence")
        cluster = SimCluster(2, 4, seed=0, network=SLINGSHOT10)
        model = resnet_proxy(n_classes=5, channels=8, rng=3)
        comp = CompsoCompressor(4e-3, 4e-3, seed=0)
        if kind == "sgd":
            trainer = DistributedSgdTrainer(
                model, _task(), Sgd(model.parameters(), lr=0.05), cluster, compressor=comp
            )
        else:
            trainer = DistributedKfacTrainer(
                model, _task(), cluster, lr=0.05, inv_update_freq=2, compressor=comp
            )
        trainer.train(iterations=ITERS, batch_size=64)
        assert np.array_equal(p_explicit, _params(model))
        assert c_explicit.time == cluster.time


class TestValidation:
    @pytest.mark.parametrize("n_nodes,gpus", [(0, 4), (-1, 4), (2, 0), (2, -3), (True, 4)])
    def test_rejects_nonpositive_shape(self, n_nodes, gpus):
        with pytest.raises((ValueError, TypeError)):
            SimCluster(n_nodes, gpus)

    def test_a_job_world_must_divide_into_nodes(self):
        with pytest.raises(ValueError, match="does not divide"):
            JobSpec("j", world_size=10, iterations=1)

    def test_rejects_unknown_track(self):
        with pytest.raises(ValueError, match="track"):
            SimCluster(1, 4, track="sideways")

    def test_timing_rejects_data_plane_faults(self):
        plan = FaultPlan(corruptions=[PayloadCorruption(probability=0.5)])
        with pytest.raises(ValueError, match="timing"):
            SimCluster(1, 4, track="timing", fault_plan=plan)

    def test_collective_costs_require_gpus_per_node(self):
        with pytest.raises(TypeError):
            allreduce_time(SLINGSHOT10, 8, 1e6)


class TestVirtualClockPlane:
    def test_barrier_charges_mean_wait_and_syncs(self):
        plane = VirtualClockPlane(4)
        plane.advance_rank(0, 2.0, "compute")
        plane.advance_rank(1, 1.0, "compute")
        assert plane.now_of(0) == 2.0
        assert plane.now_of(3) == 0.0
        plane.barrier("wait")
        # Everyone lands on the slowest rank's time.
        assert all(plane.now_of(r) == 2.0 for r in range(4))
        # Mean wait = top - mean(skew) = 2.0 - 0.75
        assert plane.breakdown()["wait"] == pytest.approx(1.25)

    def test_advance_all(self):
        plane = VirtualClockPlane(2)
        plane.advance_all(1.5, "comm")
        assert plane.max_now == 1.5
        assert plane.breakdown() == {"comm": 1.5}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            VirtualClockPlane(0)
        plane = VirtualClockPlane(2)
        with pytest.raises(ValueError):
            plane.advance_all(-1.0)


class TestRepView:
    def test_sequence_semantics(self):
        payload = np.arange(3.0)
        view = RepView(payload, 1000)
        assert len(view) == 1000
        assert view[0] is payload and view[999] is payload and view[-1] is payload
        with pytest.raises(IndexError):
            view[1000]
        sliced = view[10:20]
        assert isinstance(sliced, RepView) and len(sliced) == 10
        assert sum(1 for _ in view) == 1000

    def test_map_and_nbytes(self):
        view = RepView(np.zeros(4, dtype=np.float64), 512)
        doubled = map_payloads(view, lambda a: a + 1.0)
        assert isinstance(doubled, RepView) and doubled.payload[0] == 1.0
        # One buffer resident regardless of world.
        assert payload_nbytes(view) == 32.0
        assert payload_nbytes([np.zeros(4) for _ in range(512)]) == 32.0 * 512
        assert map_payloads([1, 2], lambda x: x * 2) == [2, 4]


class TestSharedFabric:
    def test_uncontended_is_nominal(self):
        fabric = SharedFabric()
        fabric.register("a")
        assert fabric.acquire("a", "allreduce", 0.0, 1.0) == 1.0
        assert fabric.slowdown("a") == 1.0

    def test_full_overlap_equal_weights_doubles(self):
        fabric = SharedFabric()
        fabric.register("a")
        fabric.register("b")
        fabric.acquire("a", "allreduce", 0.0, 1.0)
        assert fabric.acquire("b", "allreduce", 0.0, 1.0) == pytest.approx(2.0)

    def test_priority_weight_reduces_slowdown(self):
        fabric = SharedFabric()
        fabric.register("hi", 2.0)
        fabric.register("lo", 1.0)
        fabric.acquire("lo", "allreduce", 0.0, 1.0)
        # hi overlapping lo: (2 + 1) / 2 = 1.5x, vs 2x for equal weights.
        assert fabric.acquire("hi", "allreduce", 0.0, 1.0) == pytest.approx(1.5)

    def test_prune_drops_past_windows(self):
        fabric = SharedFabric()
        fabric.register("a")
        fabric.acquire("a", "allreduce", 0.0, 1.0)
        fabric.acquire("a", "allreduce", 5.0, 1.0)
        assert fabric.prune(3.0) == 1
        assert len(fabric._windows) == 1

    def test_register_validation(self):
        fabric = SharedFabric()
        fabric.register("a")
        with pytest.raises(ValueError):
            fabric.register("a")
        with pytest.raises(ValueError):
            fabric.register("b", 0.0)
        with pytest.raises(KeyError):
            fabric.acquire("ghost", "allreduce", 0.0, 1.0)


class _ScanFabric:
    """The fabric as one list scanned whole per transfer: the reference for
    the indexed windows of :class:`SharedFabric`."""

    def __init__(self):
        self.weights, self.windows, self.degradations = {}, [], []
        self.contended_seconds, self.nominal_seconds, self.degraded_seconds = {}, {}, {}

    def register(self, name, weight=1.0):
        self.weights[name] = float(weight)
        for seconds in (self.contended_seconds, self.nominal_seconds, self.degraded_seconds):
            seconds[name] = 0.0

    def degrade(self, start, stop, factor):
        self.degradations.append((float(start), float(stop), float(factor)))

    def acquire(self, name, op, start, seconds):
        if seconds <= 0.0:
            return seconds
        own = self.weights[name]
        degraded = seconds
        for d_start, d_stop, d_factor in self.degradations:
            overlap = min(start + seconds, d_stop) - max(start, d_start)
            if overlap > 0.0:
                degraded += (d_factor - 1.0) * overlap
        end = start + degraded
        load = own
        for w_start, w_end, w_name, w_weight in self.windows:
            if w_name == name:
                continue
            overlap = min(end, w_end) - max(start, w_start)
            if overlap > 0.0:
                load += w_weight * (overlap / degraded)
        slowed = degraded * (load / own)
        self.windows.append((start, start + slowed, name, own))
        self.nominal_seconds[name] += seconds
        self.degraded_seconds[name] += degraded - seconds
        self.contended_seconds[name] += slowed - degraded
        return slowed

    def prune(self, frontier):
        before = len(self.windows)
        self.windows = [w for w in self.windows if w[1] > frontier]
        self.degradations = [d for d in self.degradations if d[1] > frontier]
        return before - len(self.windows)


class TestFabricAgainstScan:
    """Indexed windows price every transfer to the float a whole scan gives."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences_match_the_scan(self, seed):
        rng = np.random.default_rng(seed)
        fabric, scan = SharedFabric(), _ScanFabric()
        names = [f"job{j}" for j in range(int(rng.integers(2, 6)))]
        for name in names:
            weight = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            fabric.register(name, weight)
            scan.register(name, weight)
        # Starts on a coarse grid tie; draws below the running clock come out of order.
        clock = 0.0
        for _ in range(300):
            kind = rng.random()
            if kind < 0.05:
                start, length = float(rng.uniform(0, clock + 1)), float(rng.uniform(0.01, 0.5))
                factor = float(rng.choice([1.0, 1.5, 3.0]))
                fabric.degrade(start, start + length, factor)
                scan.degrade(start, start + length, factor)
            elif kind < 0.15:
                # Some frontiers fall exactly on a window's end, which the prune drops.
                frontier = float(clock - rng.uniform(0, 0.5))
                if scan.windows and rng.random() < 0.5:
                    frontier = scan.windows[int(rng.integers(len(scan.windows)))][1]
                assert fabric.prune(frontier) == scan.prune(frontier)
            else:
                name = names[int(rng.integers(len(names)))]
                start = float(rng.choice([round(clock, 1), clock - rng.uniform(0, 0.3), clock]))
                seconds = float(rng.choice([0.0, -1e-3, rng.uniform(1e-6, 1e-3), rng.uniform(0.01, 0.4)]))
                assert fabric.acquire(name, "allreduce", start, seconds) == scan.acquire(
                    name, "allreduce", start, seconds
                )
                clock += float(rng.uniform(0, 0.05))
        assert fabric.nominal_seconds == scan.nominal_seconds
        assert fabric.degraded_seconds == scan.degraded_seconds
        assert fabric.contended_seconds == scan.contended_seconds


class TestFleetScheduler:
    def test_smoke_preset_completes_with_contention(self, tmp_path):
        result = FleetScheduler(FLEETS["smoke"].jobs(), ledger_dir=tmp_path).run()
        assert len(result.reports) == 3
        assert all(r.steps == spec.iterations for r, spec in zip(result.reports, FLEETS["smoke"].jobs()))
        assert result.total_contended_seconds > 0.0
        for r in result.reports:
            assert (tmp_path / f"{r.name}.ledger").exists()
        # The priority-2 job is slowed less than its priority-1 peers.
        job0 = result.by_name("job0")
        assert job0.slowdown < result.by_name("job1").slowdown
        assert job0.slowdown < result.by_name("job2").slowdown

    def test_single_job_fleet_is_uncontended(self):
        spec = JobSpec("solo", world_size=16, iterations=2, seed=0)
        result = FleetScheduler([spec]).run()
        report = result.by_name("solo")
        assert report.contended_seconds == 0.0
        assert report.slowdown == 1.0
        assert result.makespan == report.sim_time

    def test_fleet_payload_memory_flat_across_worlds(self):
        specs = [
            JobSpec("small", world_size=256, iterations=2, seed=0),
            JobSpec("large", world_size=4096, iterations=2, seed=0, arrival=0.001),
        ]
        result = FleetScheduler(specs).run()
        small = result.by_name("small")
        large = result.by_name("large")
        assert small.peak_payload_bytes > 0
        assert large.peak_payload_bytes == small.peak_payload_bytes

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            FleetScheduler([])
        dup = [JobSpec("x", 8, 1), JobSpec("x", 8, 1)]
        with pytest.raises(ValueError):
            FleetScheduler(dup)
        with pytest.raises(ValueError):
            JobSpec("bad", world_size=8, iterations=0)

    def test_deterministic_reruns(self, tmp_path):
        r1 = FleetScheduler(FLEETS["smoke"].jobs(), ledger_dir=tmp_path / "a").run()
        r2 = FleetScheduler(FLEETS["smoke"].jobs(), ledger_dir=tmp_path / "b").run()
        assert r1.makespan == r2.makespan
        for a, b in zip(r1.reports, r2.reports):
            assert a.sim_time == b.sim_time
            assert a.final_loss == b.final_loss
            assert a.contended_seconds == b.contended_seconds
