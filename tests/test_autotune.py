"""The repro.autotune subsystem: closed-loop cost-model autotuner."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.autotune import (
    DEFAULT_MENU,
    AlphaBetaEstimator,
    AutotuneConfig,
    CandidateConfig,
    CostModel,
    FidelityBudget,
    HysteresisPolicy,
    aggregation_credit,
    codec_seconds,
    modelled_extra_seconds,
)
from repro.autotune import cost_model
from repro.autotune.controller import _MAX_ERROR, _SAFE
from repro.cli import main
from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.faults import FaultPlan, LinkDegradation
from repro.guard.guard import GuardConfig
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.obsv import autotune_timeline, LedgerConfig, load_ledger, run_report, summarize
from repro.train import ClassificationTask
from tests.conftest import tiny_kfac_trainer

ITERS = 8


def _task(n=160):
    return ClassificationTask(make_image_data(n, n_classes=4, size=8, noise=0.5, seed=0))


def _params(model):
    return np.concatenate([np.asarray(p.data).ravel() for p in model.parameters()])


def _run_kfac(path=None, *, autotune=None, degraded=False, channels=16, seed=0):
    """One seeded guarded K-FAC run; the degraded variant injects a
    [3, 6) link-degradation window that makes bytes expensive."""
    plan = None
    if degraded:
        plan = FaultPlan(
            degradations=[
                LinkDegradation(start=3, stop=6, latency_factor=4.0, bandwidth_factor=64.0)
            ]
        )
    cluster = SimCluster(2, 2, seed=0, fault_plan=plan)
    trainer = DistributedKfacTrainer(
        resnet_proxy(n_classes=4, channels=channels, rng=3),
        _task(),
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
        guard=GuardConfig(),
        obsv=LedgerConfig(path) if path else None,
        autotune=autotune,
        reliable_channel=False,
    )
    with telemetry.session():
        trainer.train(iterations=ITERS, batch_size=32, eval_every=ITERS, seed=seed)
    return trainer, cluster


class TestFidelityBudget:
    def test_valid_budgets_pass(self):
        FidelityBudget()
        FidelityBudget(min_cosine=1.0, max_rel_l2=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan")])
    def test_min_cosine_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="min_cosine"):
            FidelityBudget(min_cosine=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_max_rel_l2_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="max_rel_l2"):
            FidelityBudget(max_rel_l2=bad)

    def test_offline_tuner_reexported(self):
        # One import surface: the offline tuner rides along with the
        # online controller (satellite of the autotune subsystem).
        import repro.autotune as online
        import repro.autotune.offline as offline

        assert online.FidelityBudget is offline.FidelityBudget
        assert online.autotune_bounds is offline.autotune_bounds
        assert online.TuneResult is offline.TuneResult
        # ...and only there: ``repro.core`` no longer carries a second name.
        import repro.core

        assert not hasattr(repro.core, "autotune_bounds")
        assert not hasattr(repro.core, "FidelityBudget")


class TestCandidateConfig:
    def test_default_menu_well_formed(self):
        names = [c.name for c in DEFAULT_MENU]
        assert len(set(names)) == len(names)
        assert "identity" in names and "default" in names

    def test_identity_has_zero_error_bound(self):
        identity = next(c for c in DEFAULT_MENU if c.is_identity)
        assert identity.error_bound == 0.0

    def test_bad_compressor_rejected(self):
        with pytest.raises(ValueError, match="compressor"):
            CandidateConfig(name="x", compressor="gzip-the-floats")

    def test_bad_encoder_rejected(self):
        with pytest.raises(ValueError, match="encoder"):
            CandidateConfig(name="x", encoder="no-such-encoder")

    def test_bad_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            CandidateConfig(name="x", aggregation=0)


class TestHysteresisPolicy:
    def test_warmup_and_dwell(self):
        p = HysteresisPolicy(warmup=2, min_dwell=3)
        assert not p.ready(1, -1)
        assert p.ready(2, -1)
        assert not p.ready(4, 2)
        assert p.ready(5, 2)

    def test_improvement_band(self):
        p = HysteresisPolicy(warmup=0, min_dwell=1)
        assert p.min_improvement == 0.1
        assert p.should_switch(1.0, 0.85)
        assert not p.should_switch(1.0, 0.95)

    def test_infinite_improvement_never_switches(self, monkeypatch):
        monkeypatch.setattr(HysteresisPolicy, "min_improvement", float("inf"))
        p = HysteresisPolicy(warmup=0, min_dwell=1)
        assert not p.should_switch(1.0, 1e-12)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            HysteresisPolicy(warmup=-1)
        with pytest.raises(ValueError):
            HysteresisPolicy(min_dwell=0)


class TestCostModel:
    def test_estimator_recovers_planted_rates(self):
        est = AlphaBetaEstimator()
        alpha, beta = 3e-5, 2e-9
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = float(rng.integers(1, 30))
            b = float(rng.integers(1, 1 << 22))
            est.observe(m, b, alpha * m + beta * b)
        a, b_ = est.fit()
        assert a == pytest.approx(alpha, rel=0.05)
        assert b_ == pytest.approx(beta, rel=0.05)

    def test_prior_keeps_fit_well_posed(self):
        a, b = AlphaBetaEstimator().fit()
        assert a == pytest.approx(5e-5)
        assert b == pytest.approx(1e-9)

    def test_identity_has_no_codec_cost(self):
        identity = next(c for c in DEFAULT_MENU if c.is_identity)
        assert codec_seconds(identity, dense_bytes=1e6, wire_bytes=1e5, n_layers=10) == 0.0

    def test_aggregation_amortises_codec_overhead(self):
        flat = CandidateConfig(name="flat", aggregation=1)
        agg = CandidateConfig(name="agg", aggregation=8)
        kw = dict(dense_bytes=1e6, wire_bytes=1e5, n_layers=16)
        assert codec_seconds(agg, **kw) < codec_seconds(flat, **kw)
        assert aggregation_credit(agg, n_layers=16, alpha=5e-5) > 0
        assert aggregation_credit(flat, n_layers=16, alpha=5e-5) == 0.0
        assert modelled_extra_seconds(agg, alpha=5e-5, **kw) == pytest.approx(
            codec_seconds(agg, **kw) - aggregation_credit(agg, n_layers=16, alpha=5e-5)
        )

    def test_probe_is_deterministic_and_telemetry_silent(self, monkeypatch):
        monkeypatch.setattr(cost_model, "_PROBE_ELEMENTS", 1 << 12)
        grad = np.random.default_rng(0).standard_normal(1 << 14).astype(np.float32)

        def probe_once():
            model = CostModel(AlphaBetaEstimator())
            with telemetry.session() as t:
                model.probe(grad, DEFAULT_MENU, seed=0)
                spans = len(t.tracer.spans())
            return model.cr, spans

        cr1, spans1 = probe_once()
        cr2, spans2 = probe_once()
        assert cr1 == cr2
        assert spans1 == spans2 == 0
        assert cr1["identity"] == 1.0
        assert cr1["aggressive"] > cr1["conservative"] > 1.0


class TestControllerValidation:
    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError, match="initial"):
            tiny_kfac_trainer(autotune=AutotuneConfig(initial="nope"))

    def test_initial_must_satisfy_max_error(self):
        """Any menu entry may be the initial or the safe candidate, so the
        whole menu sits inside the fidelity gate."""
        assert [c.name for c in DEFAULT_MENU if c.error_bound > _MAX_ERROR] == []

    def test_safe_defaults_to_identity(self):
        safe = next(c for c in DEFAULT_MENU if c.name == _SAFE)
        assert safe.is_identity


class FakeBreakerGuard:
    """Minimal guard stand-in: only the veto surface the controller uses."""

    def __init__(self):
        self.vetoing = False
        self.timeline = []

    def autotune_veto(self):
        return self.vetoing


def _vetoable_controller(guard):
    """A controller built from a trainer whose guard is ``guard``."""
    trainer = SimpleNamespace(
        cluster=SimCluster(1, 2, seed=0),
        guard=guard,
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
    )
    return AutotuneConfig(initial="default", warmup=0, min_dwell=1).build(trainer)


class TestBreakerVeto:
    def test_guard_autotune_veto_follows_breaker(self):
        guard = tiny_kfac_trainer(guard=GuardConfig()).guard
        assert not guard.autotune_veto()
        guard.breaker.trip(0)
        assert guard.autotune_veto()

    def test_open_breaker_pins_safe_candidate(self):
        guard = FakeBreakerGuard()
        controller = _vetoable_controller(guard)
        guard.vetoing = True
        for step in range(3):
            controller.end_step(
                step=step, wire_bytes=1e5, dense_bytes=1e6, n_messages=4
            )
        # One veto episode, not one per step; the safe config is pinned.
        assert [d.kind for d in controller.decisions] == ["veto"]
        assert controller.decisions[0].to_config == "identity"
        assert controller.active.name == "identity"

    def test_new_veto_episode_after_reclose(self):
        guard = FakeBreakerGuard()
        controller = _vetoable_controller(guard)
        guard.vetoing = True
        controller.end_step(step=0, wire_bytes=1e5, dense_bytes=1e6, n_messages=4)
        guard.vetoing = False
        controller.end_step(step=1, wire_bytes=1e5, dense_bytes=1e6, n_messages=4)
        guard.vetoing = True
        controller.end_step(step=2, wire_bytes=1e5, dense_bytes=1e6, n_messages=4)
        assert [d.kind for d in controller.decisions] == ["veto", "veto"]


class TestBitIdentity:
    def test_none_and_never_firing_controller_identical(self, monkeypatch):
        base_tr, base_cl = _run_kfac(autotune=None, channels=4)
        monkeypatch.setattr(HysteresisPolicy, "min_improvement", float("inf"))
        idle_tr, idle_cl = _run_kfac(autotune=AutotuneConfig(initial="default"), channels=4)
        assert np.array_equal(_params(base_tr.model), _params(idle_tr.model))
        assert base_tr.history.losses == idle_tr.history.losses
        assert base_cl.time == idle_cl.time
        assert idle_tr.autotune.decisions == []

    def test_decision_events_byte_identical(self, tmp_path):
        def run(tag):
            path = str(tmp_path / f"{tag}.ledger")
            _run_kfac(
                path,
                autotune=AutotuneConfig(initial="identity", warmup=2, min_dwell=1),
                degraded=True,
            )
            ledger = load_ledger(path)
            events = json.dumps(autotune_timeline(ledger), sort_keys=True)
            return events, ledger.digest()

        events_a, digest_a = run("a")
        events_b, digest_b = run("b")
        assert json.loads(events_a)  # the degraded run must actually decide
        assert events_a == events_b
        assert digest_a == digest_b


class TestClosedLoop:
    def test_reacts_to_link_degradation(self, tmp_path):
        path = str(tmp_path / "degraded.ledger")
        trainer, _ = _run_kfac(
            path,
            autotune=AutotuneConfig(initial="identity", warmup=2, min_dwell=1),
            degraded=True,
        )
        decisions = autotune_timeline(load_ledger(path))
        retunes = [d for d in decisions if d["kind"] == "retune"]
        assert retunes, "controller never reacted to the degraded link"
        first = retunes[0]
        assert 3 <= first["step"] < 6, "first retune should land inside the window"
        assert first["to"] != "identity", "degraded link should buy CR with fidelity"
        assert first["signals"]["bw_factor"] > 1.0
        # The ledger manifest records the controller's config.
        manifest = load_ledger(path).manifest
        assert manifest["autotune"]["initial"] == "identity"

    def test_clean_fabric_stays_put(self, tmp_path):
        path = str(tmp_path / "clean.ledger")
        _run_kfac(
            path,
            autotune=AutotuneConfig(initial="identity", warmup=2, min_dwell=1),
            degraded=False,
        )
        ledger = load_ledger(path)
        assert autotune_timeline(ledger) == []
        summary = summarize(ledger)
        assert summary["autotune_retunes"] == 0
        assert summary["autotune_vetoes"] == 0

    def test_report_renders_decisions(self, tmp_path):
        path = str(tmp_path / "degraded.ledger")
        _run_kfac(
            path,
            autotune=AutotuneConfig(initial="identity", warmup=2, min_dwell=1),
            degraded=True,
        )
        md = run_report(load_ledger(path)).markdown()
        assert "## Autotune decisions" in md
        assert "retune" in md


class TestCli:
    def test_autotune_clean_preset_gates_zero_retunes(self, tmp_path, capsys):
        out = str(tmp_path / "clean.ledger")
        rc = main(
            [
                "autotune",
                "--preset",
                "autotuned",
                "--out",
                out,
                "--iterations",
                "8",
                "--max-retunes",
                "0",
            ]
        )
        assert rc == 0
        assert "autotune_retunes       0" in capsys.readouterr().out

    def test_tune_prints_bounds(self, capsys):
        rc = main(["tune", "--size", "16384", "--samples", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen eb_f" in out and "achieved ratio" in out

    def test_compress_encoder_flag(self, capsys):
        rc = main(["compress", "--size", "16384", "--encoder", "zstd"])
        assert rc == 0
        assert "compso-zstd" in capsys.readouterr().out

    def test_compress_unknown_encoder_rejected(self):
        with pytest.raises(SystemExit):
            main(["compress", "--size", "4096", "--encoder", "no-such"])
