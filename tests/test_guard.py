"""repro.guard: sentinels, divergence detection, policy engine."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.compression import CompressedTensor, TopKCompressor
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.core.adaptive import Bounds
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.faults.plan import FaultPlan
from repro.guard import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    DivergenceDetector,
    GuardConfig,
    PolicyEngine,
    contract_error,
    factor_health,
    scan_tensor,
)
from repro.guard import policy
from repro.guard.health import _WINDOW
from repro.guard.policy import GuardContext
from repro.guard.sentinels import safe_eigen
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.optim import FactorNumericsError, Sgd
from repro.optim.kfac import Kfac
from repro.runtime import ComputeModel, StreamRuntime
from repro.store import CheckpointStore, Generation
from repro.telemetry.export import chrome_trace
from repro.train import ClassificationTask, DistributedSgdTrainer
from tests.archives import rewrite_archive


def _unknown_frame_kind(ct):
    """The payload with its code frame's kind byte set to 7, which no encoder writes."""
    codes = ct.segments["codes"]
    return CompressedTensor({**ct.segments, "codes": bytes([7]) + codes[1:]}, ct.shape, dict(ct.meta))


def _tenfold_step(ct):
    """The payload with its quantisation step ten times too large: it decodes,
    to values far outside the error-bound contract."""
    return CompressedTensor(dict(ct.segments), ct.shape, {**ct.meta, "step": ct.meta["step"] * 10})


class _DamagingRuntime(StreamRuntime):
    """Counts each step's ``kfac_allgather`` broadcasts (``sent``, from 0)
    and sends the one ``damages[(step(), sent)]`` names through it."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.sent = -1
        self.step = lambda: None
        self.damages = {}

    def ibroadcast(self, obj, root=0, *, nbytes=None, category="broadcast"):
        if category == "kfac_allgather":
            self.sent += 1
            damage = self.damages.get((self.step(), self.sent))
            if damage is not None:
                obj = damage(obj)
        return super().ibroadcast(obj, root, nbytes=nbytes, category=category)

    def assert_quiesced(self):
        super().assert_quiesced()
        self.sent = -1


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _kfac_trainer(seed=0, *, guard=None, plan=None, reliable_channel=True, **kw):
    data = make_image_data(200, n_classes=4, size=8, noise=1.6, seed=seed)
    task = ClassificationTask(data)
    cluster = SimCluster(2, 2, seed=seed, fault_plan=plan)
    model = resnet_proxy(n_classes=4, channels=8, rng=seed + 3)
    compressor = AdaptiveCompso(StepLrSchedule(4), seed=seed)
    return DistributedKfacTrainer(
        model,
        task,
        cluster,
        lr=0.05,
        inv_update_freq=5,
        compressor=compressor,
        guard=guard,
        reliable_channel=reliable_channel,
        **kw,
    )


# -- sentinels ----------------------------------------------------------------


class TestScanTensor:
    def test_clean_tensor_returned_untouched(self):
        x = np.arange(8, dtype=np.float32)
        result = scan_tensor(x)
        assert result.clean
        assert result.values is x  # no copy on the healthy path

    def test_nonfinite_scrubbed(self):
        x = np.array([1.0, np.nan, -np.inf, 2.0], dtype=np.float32)
        result = scan_tensor(x)
        assert not result.clean
        assert result.n_nonfinite == 2
        assert np.array_equal(result.values, [1.0, 0.0, 0.0, 2.0])
        assert np.isnan(x[1])  # original untouched

    def test_oversized_scrubbed(self):
        """A finite-but-absurd value (exponent bit flip) is caught too."""
        x = np.array([1.0, 1e30, -2.0], dtype=np.float32)
        result = scan_tensor(x)
        assert result.n_oversized == 1 and result.n_nonfinite == 0
        assert np.array_equal(result.values, [1.0, 0.0, -2.0])


class TestContract:
    def test_contract_held_returns_none(self):
        comp = CompsoCompressor(4e-3, 4e-3, seed=0)
        x = np.random.default_rng(0).standard_normal(4096).astype(np.float32)
        decoded = comp.decompress(comp.compress(x))
        assert contract_error(x, decoded, comp) is None

    def test_violation_reports_ratio(self):
        comp = CompsoCompressor(1e-4, 1e-4, seed=0)
        x = np.ones(64, dtype=np.float32)
        garbage = x + 0.5  # way past (eb_f+eb_q)*max|x|
        ratio = contract_error(x, garbage, comp)
        assert ratio is not None and ratio > 100

    def test_unknown_compressor_is_unknowable(self):
        """A compressor that promises no bound (``bounds is None``) is skipped."""
        assert contract_error(np.ones(4), np.ones(4) + 9.0, TopKCompressor()) is None


class TestFactorHealth:
    def test_healthy_factor_passes(self):
        a = np.eye(4) + 0.01
        assert factor_health(a) is None

    def test_nonfinite_and_asymmetry_detected(self):
        bad = np.eye(4)
        bad[0, 0] = np.nan
        assert "non-finite" in factor_health(bad)
        asym = np.eye(4)
        asym[0, 1] = 5.0
        assert "asymmetry" in factor_health(asym)

    @staticmethod
    def _six_passes(mat):
        """``factor_health`` as it read before it took two passes: the oracle."""
        if not np.isfinite(mat).all():
            return "non-finite entries"
        scale = float(np.abs(mat).max())
        if scale > 0.0:
            asym = float(np.abs(mat - mat.T).max())
            if asym > 1e-6 * scale:
                return f"asymmetry {asym:.3e} (scale {scale:.3e})"
        return None

    @staticmethod
    def _factors():
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 9))
        healthy = a.T @ a / 40
        yield "healthy", healthy
        for value in (np.nan, np.inf, -np.inf):
            for where in ((0, 0), (2, 5)):
                bad = healthy.copy()
                bad[where] = value
                yield f"{value} at {where}", bad
        scale = float(np.abs(healthy).max())
        for off in (0.5e-6, 0.999e-6, 1.001e-6, 2e-6, 1.0):
            skew = healthy.copy()
            skew[1, 4] += off * scale
            yield f"asymmetric by {off} of scale", skew
        yield "all zero", np.zeros((5, 5))
        mirrored = np.zeros((3, 3))
        mirrored[0, 2], mirrored[2, 0] = -0.0, 0.0
        yield "-0.0 mirrored", mirrored
        signed = healthy.copy()
        signed[3, 6], signed[6, 3] = 0.0, -0.0
        yield "-0.0 mirrored beside values", signed
        for value in (2.5, 0.0, -0.0, np.nan, np.inf):
            yield f"1x1 {value}", np.array([[value]])
        yield "float32", healthy.astype(np.float32)

    def test_the_verdicts_are_the_six_pass_ones(self):
        cases = list(self._factors())
        assert len(cases) == 21
        verdicts = set()
        for name, mat in cases:
            with np.errstate(all="raise"):
                got = factor_health(mat)
            with np.errstate(invalid="ignore"):
                assert got == self._six_passes(mat), name
            verdicts.add(None if got is None else got.split()[0])
        assert verdicts == {None, "non-finite", "asymmetry"}


class TestSafeEigen:
    def _kfac(self, seed=0):
        tr = _kfac_trainer(seed)
        tr.train(iterations=1, batch_size=16, seed=seed)
        return tr.kfac

    def test_healthy_path_is_single_eigen_call(self):
        kfac = self._kfac()
        a_before = kfac.state[0].A.copy()
        assert safe_eigen(kfac, 0) == 0
        assert np.array_equal(kfac.state[0].A, a_before)  # no repair touched it

    def test_poisoned_factor_recovers_with_retries(self):
        kfac = self._kfac()
        kfac.state[0].A[0, 0] = np.nan
        attempts = safe_eigen(kfac, 0)
        assert attempts >= 1
        assert np.isfinite(kfac.state[0].vA).all()

    def test_factor_numerics_error_names_layer(self):
        """Satellite: compute_eigen raises a typed error on a poisoned factor."""
        kfac = self._kfac()
        kfac.state[2].A[:] = np.nan
        with pytest.raises(FactorNumericsError) as ei:
            kfac.compute_eigen(2)
        assert ei.value.layer == 2
        assert "layer 2" in str(ei.value)


# -- divergence detector ------------------------------------------------------


class TestDivergenceDetector:
    def test_nan_loss_is_immediate(self):
        det = DivergenceDetector()
        report = det.observe(0, float("nan"), 1.0)
        assert report.verdicts == ["loss_nan"]

    def test_loss_spike_after_warmup(self):
        det = DivergenceDetector()  # warmup 3, spike factor 3
        for t in range(4):
            assert det.observe(t, 1.0, 1.0).ok
        report = det.observe(4, 10.0, 1.0)
        assert "loss_spike" in report.verdicts

    def test_no_spike_during_warmup(self):
        det = DivergenceDetector()
        assert det.observe(0, 1.0, 1.0).ok
        assert det.observe(1, 100.0, 1.0).ok  # not enough baseline yet

    def test_grad_spike(self):
        det = DivergenceDetector()  # grad spike factor 10
        for t in range(3):
            det.observe(t, 1.0, 1.0)
        assert "grad_spike" in det.observe(3, 1.0, 50.0).verdicts

    def test_spikes_do_not_ratchet_baseline(self):
        """A divergence burst must not normalise itself into the median."""
        det = DivergenceDetector()
        for t in range(4):
            det.observe(t, 1.0, 1.0)
        for t in range(4, 8):
            assert "loss_spike" in det.observe(t, 10.0, 1.0).verdicts

    def test_plateau(self):
        """A flat loss is healthy: no verdict, however long it lasts."""
        det = DivergenceDetector()
        assert all(det.observe(t, 1.0, 1.0).ok for t in range(50))

    def test_memory_is_bounded_by_the_window(self):
        """Every guarded run observes every step, so nothing the detector
        keeps may grow with the run."""
        det = DivergenceDetector()
        for t in range(10_000):
            det.observe(t, 1.0 + (t % 7) * 1e-3, 1.0)
        sizes = {name: len(v) for name, v in vars(det).items() if hasattr(v, "__len__")}
        assert sizes and max(sizes.values()) <= _WINDOW, sizes


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        b = CircuitBreaker()
        assert (b.cooldown, b.reclose_after) == (3, 2)
        assert b.state == BREAKER_CLOSED and b.allows_compression
        assert b.trip(3)
        assert b.state == BREAKER_OPEN and not b.allows_compression
        b.end_iteration(4, clean=True)
        b.end_iteration(5, clean=True)
        assert b.state == BREAKER_OPEN  # cooldown not elapsed
        b.end_iteration(6, clean=True)
        assert b.state == BREAKER_HALF_OPEN and b.allows_compression
        b.end_iteration(7, clean=True)
        assert b.state == BREAKER_HALF_OPEN  # one good, needs two
        b.end_iteration(8, clean=True)
        assert b.state == BREAKER_CLOSED
        assert b.transitions == [
            (3, "closed", "open"),
            (6, "open", "half_open"),
            (8, "half_open", "closed"),
        ]

    def test_dirty_halfopen_reopens(self):
        b = CircuitBreaker()
        b.trip(0)
        for t in range(1, 4):
            b.end_iteration(t, clean=True)
        assert b.state == BREAKER_HALF_OPEN
        b.end_iteration(4, clean=False)
        assert b.state == BREAKER_OPEN
        assert b.trips == 2

    def test_trip_while_open_rearms_cooldown(self):
        b = CircuitBreaker()
        assert b.trip(0)
        b.end_iteration(1, clean=True)
        b.end_iteration(2, clean=True)
        assert not b.trip(3)  # already open: not a new trip
        b.end_iteration(4, clean=True)
        assert b.state == BREAKER_OPEN  # cooldown was re-armed
        assert b.trips == 1


# -- policy engine ------------------------------------------------------------


class _StubTrainer:
    """A trainer whose store holds one generation (``None``: an empty store)."""

    GEN = Generation(gen=3, file="gen-00000003.npz", step=6, nbytes=1, crc32=0)

    def __init__(self, latest=GEN):
        self.latest = latest
        self.restored = []
        # What a guard built from this trainer reads off it.
        self.compressor = self.kfac = None
        self.cluster = SimCluster(1, 2, seed=0)

    def restore_latest(self):
        self.restored.append(self.latest)
        return self.latest


class TestPolicyEngine:
    def test_escalates_down_the_rule_list(self, monkeypatch):
        """Recurring verdicts escalate: tighten, then trip the breaker."""
        monkeypatch.setattr(policy, "_ACTION_COOLDOWN", 5)
        engine = PolicyEngine(CircuitBreaker())
        comp = AdaptiveCompso(StepLrSchedule(4), seed=0)
        ctx = GuardContext(compressor=comp)
        first = engine.handle("contract_violation", {}, ctx, 10)
        assert first.action == "tighten_bounds"
        second = engine.handle("contract_violation", {}, ctx, 11)
        assert second.action == "trip_breaker"
        assert engine.breaker.state == BREAKER_OPEN

    def test_unavailable_handles_are_skipped(self):
        engine = PolicyEngine(CircuitBreaker())
        action = engine.handle("contract_violation", {}, GuardContext(), 0)
        assert action is None  # no compressor: nothing applicable
        assert engine.timeline == []

    def test_rollback_restores_latest_checkpoint(self):
        engine = PolicyEngine(CircuitBreaker())
        trainer = _StubTrainer()
        action = engine.handle("loss_nan", {}, GuardContext(trainer=trainer), 7)
        assert action.action == "rollback"
        assert trainer.restored == [trainer.latest]
        # The detail names the generation, never a path: it reads the same every run.
        assert action.detail == {"generation": 3, "step": 6}

    def test_rollback_without_a_generation_escalates(self):
        engine = PolicyEngine(CircuitBreaker())
        comp = AdaptiveCompso(StepLrSchedule(4), seed=0)
        ctx = GuardContext(compressor=comp, trainer=_StubTrainer(latest=None))
        action = engine.handle("loss_nan", {}, ctx, 7)
        assert action.action == "trip_breaker"  # nothing to roll back to: next remediation

    def test_damping_escalation_is_capped(self, monkeypatch):
        monkeypatch.setattr(policy, "_DAMPING_CAP_FACTOR", 100.0)
        monkeypatch.setattr(policy, "_ACTION_COOLDOWN", 1)
        engine = PolicyEngine(CircuitBreaker())
        kfac = type("K", (), {"damping": 1e-2})()
        ctx = GuardContext(kfac=kfac)
        for it in range(5):
            engine.handle("eigh_retry", {}, ctx, it)
        assert kfac.damping == pytest.approx(1.0)  # 1e-2 * cap 100


# -- guard facade + trainer integration ---------------------------------------


class TestGuardedTraining:
    def test_guarded_healthy_run_is_bit_identical(self):
        base = _kfac_trainer(seed=0)
        base.train(iterations=6, batch_size=32, seed=0)
        guarded = _kfac_trainer(seed=0, guard=GuardConfig())
        guarded.train(iterations=6, batch_size=32, seed=0)
        assert np.array_equal(_params(base.model), _params(guarded.model))
        assert guarded.guard.report()["verdicts"] == {}

    def test_corruption_trips_breaker_and_run_survives(self, tmp_path):
        plan = FaultPlan(seed=0)
        plan.add_corruption(0.7, start=2, stop=6, n_bits=4, ops=("broadcast",))
        plan.validate(4)
        tr = _kfac_trainer(
            seed=0,
            guard=GuardConfig(),
            plan=plan,
            reliable_channel=False,
            checkpoint_store=CheckpointStore(tmp_path),
            checkpoint_every=2,
        )
        # 12 steps: the breaker's 3-step cool-down and 2-step probation
        # fit after the corruption window.
        tr.train(iterations=12, batch_size=32, seed=0)
        report = tr.guard.report()
        assert np.isfinite(tr.history.losses[-1])
        assert np.isfinite(_params(tr.model)).all()
        assert report["breaker"]["trips"] >= 1
        assert report["verdicts"]  # at least one sentinel fired
        assert any(
            frm == "half_open" and to == "closed"
            for _, frm, to in report["breaker"]["transitions"]
        ), "breaker must re-close after the corruption window"

    def test_guard_events_reconcile_with_chrome_trace(self, tmp_path):
        plan = FaultPlan(seed=0)
        plan.add_corruption(0.7, start=2, stop=6, n_bits=4, ops=("broadcast",))
        plan.validate(4)
        tr = _kfac_trainer(
            seed=0, guard=GuardConfig(), plan=plan, reliable_channel=False
        )
        with telemetry.session() as sess:
            tr.train(iterations=8, batch_size=32, seed=0)
            remediations = [
                s for s in sess.tracer.spans() if s.name.startswith("remediate:")
            ]
            verdict_spans = [
                s for s in sess.tracer.spans() if s.name.startswith("verdict:")
            ]
            snapshot = sess.metrics.snapshot()
            doc = chrome_trace(sess.tracer)
        assert len(remediations) == len(tr.guard.timeline)
        total_verdicts = sum(tr.guard.verdict_counts.values())
        assert len(verdict_spans) == total_verdicts
        counted = sum(
            m["value"]
            for m in snapshot
            if m["type"] == "counter" and m["name"] == "guard.remediations"
        )
        assert counted == len(tr.guard.timeline)
        trace_names = {ev["name"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        for action in tr.guard.timeline:
            assert f"remediate:{action.action}" in trace_names

    @staticmethod
    def _damaged_run(damages):
        """Six overlapped, bucketed, guarded steps with ``damages`` applied
        to the named broadcasts: the guard-event spans, the guard report,
        the parameters' digest and the losses."""
        data = make_image_data(200, n_classes=4, size=8, noise=1.6, seed=0)
        cluster = SimCluster(2, 2, seed=0)
        runtime = _DamagingRuntime(cluster, overlap=True, compute=ComputeModel(train_flops=5e7))
        tr = DistributedKfacTrainer(
            resnet_proxy(n_classes=4, channels=8, rng=3),
            ClassificationTask(data),
            cluster,
            lr=0.05,
            inv_update_freq=2,
            compressor=AdaptiveCompso(StepLrSchedule(4), seed=0),
            runtime=runtime,
            guard=GuardConfig(),
            reliable_channel=False,
        )
        runtime.step = lambda: tr.t
        runtime.damages = damages
        with telemetry.session() as sess:
            tr.train(iterations=6, batch_size=32, seed=0)
            events = [(s.name, s.start) for s in sess.tracer.spans() if s.category == "guard_event"]
        digest = hashlib.sha256(_params(tr.model).tobytes()).hexdigest()
        return events, tr.guard.report(), digest, tr.history.losses

    def test_a_damaged_broadcast_in_a_bucketed_step_is_a_decode_failure(self):
        """Layer 2's broadcast of step 3 arrives with an unknown frame kind
        under the overlapped, bucketed schedule: that layer alone gets a
        zero update, the breaker trips, and the rest of the step and the
        run go on.  Every value below was recorded before the step's layers
        shared their coder calls; the sim stamps were recorded again when
        short ANS frames began to carry their symbol counts (fewer wire
        bytes, earlier arrivals)."""
        events, report, digest, losses = self._damaged_run({(3, 2): _unknown_frame_kind})
        # Stamped at the damaged payload's arrival, not after the step's last one.
        assert events == [
            ("verdict:decode_failure", 0.027662176866666666),
            ("remediate:trip_breaker", 0.027662176866666666),
            ("breaker:open->half_open", 0.04151104082),
        ]
        assert report["verdicts"] == {"decode_failure": 1}
        assert report["remediations"] == [
            {
                "iteration": 3,
                "verdict": "decode_failure",
                "action": "trip_breaker",
                "detail": {
                    "layer": 2,
                    "error": "EncodeError: ans: unknown frame kind 7",
                    "cooldown": 3,
                },
            }
        ]
        assert report["breaker"] == {
            "state": "half_open",
            "trips": 1,
            "transitions": [[3, "closed", "open"], [5, "open", "half_open"]],
        }
        assert digest == "05089a236affc6edf58e5de42d523c5c6232e517bdda353425e4bb1f38ea0802"
        assert losses[3:] == [1.1460042893886566, 0.9379538595676422, 0.9191467016935349]

    def test_a_violation_before_a_decode_failure_keeps_its_place(self):
        """Layer 1 of step 3 decodes to values far outside the contract and
        layer 2 does not decode: the contract verdict and its remediation
        come first, as the per-layer loop emitted them, even though the
        step decodes its layers in one call.  Recorded as above."""
        events, report, digest, losses = self._damaged_run(
            {(3, 1): _tenfold_step, (3, 2): _unknown_frame_kind}
        )
        # Layers 3 and 4 are checked against the bounds layer 1 tightened.
        first, second = 0.027662176866666666, 0.027672637666666666
        assert events == [
            ("verdict:contract_violation", first),
            ("remediate:tighten_bounds", first),
            ("verdict:decode_failure", first),
            ("remediate:trip_breaker", first),
            ("verdict:contract_violation", second),
            ("verdict:contract_violation", second),
            ("breaker:open->half_open", 0.04151104082),
        ]
        assert report["verdicts"] == {"contract_violation": 3, "decode_failure": 1}
        assert [(r["verdict"], r["action"], r["detail"]["layer"]) for r in report["remediations"]] == [
            ("contract_violation", "tighten_bounds", 1),
            ("decode_failure", "trip_breaker", 2),
        ]
        assert report["remediations"][0]["detail"]["error_over_bound"] == 899.9999864479787
        assert digest == "7a48f99c14efad461285dbaaa9c1612046272ad4a1c791b285879e5ca03aa360"
        assert losses[3:] == [1.1460042893886566, 0.9355925917625427, 0.9235821664333344]

    def test_sgd_trainer_scrubs_corrupt_gradient(self):
        """The SGD trainer has no guard; under a corruption plan its run
        stays finite, and with nothing durable there is no rollback."""
        plan = FaultPlan(seed=0)
        plan.add_corruption(1.0, start=1, stop=3, n_bits=4, ops=("allgather",))
        plan.validate(2)
        data = make_image_data(120, n_classes=3, size=8, noise=1.0, seed=0)
        task = ClassificationTask(data)
        cluster = SimCluster(1, 2, seed=0, fault_plan=plan)
        model = resnet_proxy(n_classes=3, channels=8, rng=1)
        tr = DistributedSgdTrainer(model, task, Sgd(model.parameters(), lr=0.05), cluster)
        tr.train(iterations=5, batch_size=16, seed=0)
        assert np.isfinite(tr.history.losses[-1])
        assert np.isfinite(_params(model)).all()
        assert tr.restore_latest() is None

    def test_rollback_on_nan_loss(self, tmp_path):
        trainer = _StubTrainer()
        guard = GuardConfig().build(trainer)
        guard.begin_step(5)
        guard.end_step(loss=float("nan"), grad_norm=1.0)
        assert trainer.restored == [trainer.latest]
        assert guard.timeline[0].action == "rollback"
        assert guard.timeline[0].verdict == "loss_nan"


# -- satellites ---------------------------------------------------------------


class TestBoundsValidation:
    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="eb_f"):
            Bounds(-1e-3, 1e-3)
        with pytest.raises(ValueError, match="eb_q"):
            Bounds(1e-3, -1e-3)

    def test_zero_filter_bound_still_valid(self):
        b = Bounds(0.0, 1e-3)
        assert b.eb_f == 0.0


class TestCheckpointSchema:
    def _save(self, tmp_path, world_size=1):
        model = resnet_proxy(n_classes=4, channels=8, rng=0)
        from repro.util.checkpoint import save_checkpoint

        owners = {"param": model}
        save_checkpoint(tmp_path / "c", owners, world_size=world_size, step=0, hooks=None)
        return model

    def test_newer_schema_version_rejected(self, tmp_path):
        from repro.util.checkpoint import CheckpointError, load_checkpoint

        model = self._save(tmp_path)
        rewrite_archive(
            tmp_path / "c.npz",
            tmp_path / "future.npz",
            mutate=lambda arrays: arrays.update({"meta/schema_version": np.array(99)}),
        )
        with pytest.raises(CheckpointError, match="schema version 99"):
            load_checkpoint(tmp_path / "future.npz", {"param": model})

    def test_mutation_free_rejection(self, tmp_path):
        """A rejected restore must not have touched the model."""
        from repro.util.checkpoint import CheckpointError, load_checkpoint

        model = self._save(tmp_path, world_size=4)

        def tamper(arrays):
            key = next(k for k in sorted(arrays) if k.startswith("param/"))
            arrays[key] = arrays[key] + 1.0

        # Parameters that no longer match the seal, which is checked before any is restored.
        rewrite_archive(tmp_path / "c.npz", tmp_path / "rot.npz", mutate=tamper, reseal=False)
        before = _params(model).copy()
        for p in model.parameters():
            p.data = p.data + 1.0
        with pytest.raises(CheckpointError, match="content seal mismatch"):
            load_checkpoint(tmp_path / "rot.npz", {"param": model})
        assert np.array_equal(_params(model), before + 1.0)  # untouched by the failed load


class TestScenario:
    def test_guard_scenario_smoke(self):
        from repro.guard.scenario import run_guard_scenario
        from repro.scenarios import SCENARIOS

        result = run_guard_scenario(
            replace(SCENARIOS["guard"]["guard"], iterations=10, batch_size=16)
        )
        assert result.guarded_completed
        assert np.isfinite(result.guarded_loss)
        assert result.timeline  # at least one remediation fired
        assert result.unguarded_raised or not np.isfinite(
            result.unguarded_loss
        ) or result.unguarded_loss > result.clean_loss
