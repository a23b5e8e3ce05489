"""The repro.obsv subsystem: ledger, analytics, report, diff, CLI gate."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.guard.guard import GuardConfig
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.obsv import (
    DEFAULT_SPECS,
    LedgerConfig,
    LedgerError,
    MetricSpec,
    RunLedger,
    bound_series,
    describe_compressor,
    diff_ledgers,
    fault_plan_digest,
    guard_timeline,
    load_ledger,
    loss_series,
    parse_tolerance,
    run_report,
    summarize,
)
from repro.obsv.ledger import SCHEMA_VERSION
from repro.runtime import ComputeModel, StreamRuntime
from repro.train import ClassificationTask
from tests.conftest import tiny_kfac_trainer

ITERS = 5


def _task(n=160):
    return ClassificationTask(make_image_data(n, n_classes=4, size=8, noise=0.5, seed=0))


def _record_kfac(
    path,
    *,
    eb=4e-3,
    seed=0,
    guard=True,
    overlap=True,
    use_telemetry=True,
    obsv="ledger",
):
    """One small guarded+overlapped K-FAC run; returns the trainer."""
    cluster = SimCluster(2, 2, seed=0)
    runtime = None
    if overlap:
        runtime = StreamRuntime(
            cluster, overlap=True, n_comm_streams=2, compute=ComputeModel(train_flops=5e7)
        )
    trainer = DistributedKfacTrainer(
        resnet_proxy(n_classes=4, channels=4, rng=3),
        _task(),
        cluster,
        lr=0.05,
        inv_update_freq=2,
        compressor=CompsoCompressor(eb, eb, seed=0),
        runtime=runtime,
        guard=GuardConfig() if guard else None,
        obsv=LedgerConfig(path) if obsv == "ledger" else None,
    )
    if use_telemetry:
        with telemetry.session():
            trainer.train(iterations=ITERS, batch_size=32, eval_every=ITERS, seed=seed)
    else:
        trainer.train(iterations=ITERS, batch_size=32, eval_every=ITERS, seed=seed)
    return trainer


class TestLedger:
    def test_structure_and_load(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path)
        lines = path.read_text().splitlines()
        assert "manifest" in json.loads(lines[0])
        assert "final" in json.loads(lines[-1])
        ledger = load_ledger(path)
        assert ledger.manifest["schema_version"] == SCHEMA_VERSION
        assert ledger.manifest["kind"] == "kfac"
        assert ledger.manifest["seed"] == 0
        assert ledger.manifest["cluster"] == {
            "n_nodes": 2,
            "gpus_per_node": 2,
            "world_size": 4,
            "fabric": "slingshot10",
        }
        assert ledger.manifest["compressor"]["class"] == "CompsoCompressor"
        assert ledger.manifest["runtime"]["overlap"] is True
        assert ledger.manifest["guard"]["enabled"] is True
        assert len(ledger.steps) == ITERS
        assert ledger.final["steps"] == ITERS

    def test_step_records_fold_every_source(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path)
        ledger = load_ledger(path)
        step = ledger.steps[-1]
        # Trainer scalars + wire accounting.
        assert step["loss"] > 0 and step["lr"] == 0.05
        assert step["cr"] == step["dense_bytes"] / step["wire_bytes"]
        assert step["layers"]  # per-layer (layer, wire, dense) triples
        # Cluster, bounds, overlap, span digests, metrics snapshots.
        assert step["sim_time"] > 0 and step["world_size"] == 4
        assert step["bounds"] == {"eb_f": 4e-3, "eb_q": 4e-3}
        assert set(step["overlap"]) == {"hidden", "exposed", "hidden_fraction", "per_category"}
        assert "sim" in step["spans"]
        digest = next(iter(step["spans"]["sim"].values()))
        assert set(digest) == {"count", "total", "p50", "p95", "p99"}
        assert any(m["name"] == "train.loss" for m in step["metrics"])

    def test_determinism_same_seed_same_body(self, tmp_path):
        a, b = tmp_path / "a.ledger", tmp_path / "b.ledger"
        _record_kfac(a)
        _record_kfac(b)
        la, lb = load_ledger(a), load_ledger(b)
        assert la.body_text() == lb.body_text()
        assert la.digest() == lb.digest()
        # Only the timestamp may differ between the raw files.
        ma = dict(la.manifest)
        mb = dict(lb.manifest)
        ma.pop("created_unix")
        mb.pop("created_unix")
        assert ma == mb

    def test_different_seed_different_body(self, tmp_path):
        a, b = tmp_path / "a.ledger", tmp_path / "b.ledger"
        _record_kfac(a, seed=0)
        _record_kfac(b, seed=1)
        assert load_ledger(a).digest() != load_ledger(b).digest()

    def test_obsv_none_is_bit_identical(self, tmp_path):
        with_ledger = _record_kfac(tmp_path / "run.ledger", obsv="ledger")
        without = _record_kfac(tmp_path / "unused.ledger", obsv=None)
        assert with_ledger.history.losses == without.history.losses
        pa = np.concatenate([p.data.ravel() for p in with_ledger.model.parameters()])
        pb = np.concatenate([p.data.ravel() for p in without.model.parameters()])
        assert np.array_equal(pa, pb)
        assert with_ledger.cluster.time == without.cluster.time

    def test_works_without_telemetry_session(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path, use_telemetry=False)
        ledger = load_ledger(path)
        step = ledger.steps[0]
        assert "metrics" not in step and "spans" not in step
        assert step["loss"] > 0

    def test_load_rejects_newer_schema(self, tmp_path):
        p = tmp_path / "future.ledger"
        p.write_text(
            json.dumps({"manifest": {"schema_version": SCHEMA_VERSION + 1}})
            + "\n"
            + json.dumps({"final": {}})
            + "\n"
        )
        with pytest.raises(LedgerError, match="newer than supported"):
            load_ledger(p)

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.ledger"
        p.write_text(json.dumps({"step": 0, "loss": 1.0}) + "\n")
        with pytest.raises(LedgerError):
            load_ledger(p)
        p.write_text(json.dumps({"manifest": {"schema_version": 1}}) + "\n")
        with pytest.raises(LedgerError, match="final"):
            load_ledger(p)

    def test_writer_refuses_after_close(self, tmp_path):
        w = tiny_kfac_trainer(obsv=LedgerConfig(tmp_path / "x.ledger")).obsv
        w.record_step(0, loss=1.0)
        w.close()
        with pytest.raises(LedgerError, match="closed"):
            w.record_step(1, loss=0.5)
        # Re-close is an idempotent no-op.
        assert w.close() == w.path

    def test_describe_compressor_recurses_into_inner(self):
        desc = describe_compressor(AdaptiveCompso(StepLrSchedule(4)))
        assert desc["class"] == "AdaptiveCompso"
        assert desc["inner"]["class"] == "CompsoCompressor"
        assert desc["inner"]["params"]["eb_f"] == pytest.approx(4e-3)
        assert describe_compressor(None) is None

    def test_fault_plan_digest_stability(self):
        from repro.faults.plan import FaultPlan

        plan_a = FaultPlan(seed=7).add_straggler(1, start=2, slowdown=3.0)
        plan_b = FaultPlan(seed=7).add_straggler(1, start=2, slowdown=3.0)
        plan_c = FaultPlan(seed=7).add_straggler(1, start=3, slowdown=3.0)
        assert fault_plan_digest(plan_a) == fault_plan_digest(plan_b)
        assert fault_plan_digest(plan_a) != fault_plan_digest(plan_c)
        assert fault_plan_digest(None) is None


class TestAnalytics:
    def test_summarize_and_series(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path)
        ledger = load_ledger(path)
        s = summarize(ledger)
        assert s["steps"] == ITERS and s["world_size"] == 4
        assert s["final_loss"] == ledger.steps[-1]["loss"]
        assert s["mean_cr"] > 1.0
        assert s["total_wire_mb"] < s["total_dense_mb"]
        assert 0.0 <= s["hidden_fraction"] <= 1.0
        assert s["guard_remediations"] == 0 and s["breaker_trips"] == 0
        assert len(loss_series(ledger)) == ITERS
        assert len({r[0] for step in ledger.steps for r in step.get("layers", [])}) > 1
        assert guard_timeline(ledger) == []

    def test_bound_series_tracks_adaptive_schedule(self, tmp_path):
        path = tmp_path / "adaptive.ledger"
        trainer = DistributedKfacTrainer(
            resnet_proxy(n_classes=4, channels=4, rng=3),
            _task(),
            SimCluster(1, 2, seed=0),
            lr=0.05,
            inv_update_freq=2,
            compressor=AdaptiveCompso(StepLrSchedule(2)),
            obsv=LedgerConfig(path),
        )
        trainer.train(iterations=4, batch_size=32)
        bounds = bound_series(load_ledger(path))
        assert len(bounds) == 4
        # The schedule loosens -> tightens across the pivot.
        assert bounds[0]["eb_f"] > bounds[-1]["eb_f"] == 0.0


class TestDiff:
    def test_identical_runs_are_ok(self, tmp_path):
        a, b = tmp_path / "a.ledger", tmp_path / "b.ledger"
        _record_kfac(a)
        _record_kfac(b)
        diff = diff_ledgers(load_ledger(a), load_ledger(b))
        assert diff.ok
        assert all(r.status == "ok" for r in diff.rows)
        assert "final_loss" in diff.format_table()

    def test_degraded_run_regresses_and_gates(self, tmp_path):
        base, bad = tmp_path / "base.ledger", tmp_path / "bad.ledger"
        _record_kfac(base, eb=4e-3)
        _record_kfac(bad, eb=0.5)
        diff = diff_ledgers(load_ledger(base), load_ledger(bad))
        assert not diff.ok
        status = {r.metric: r.status for r in diff.rows}
        # The proxy is tiny, so quality damage shows up in the final
        # evaluation metric (accuracy collapse) rather than raw loss.
        assert status["final_metric"] == "regressed"
        # A looser bound compresses *more*: improvement, not regression.
        assert status["mean_cr"] == "improved"
        assert "final_metric" in [r.metric for r in diff.regressions]
        assert diff.to_dict()["ok"] is False

    def test_missing_metric_gates(self):
        a = RunLedger(manifest={}, steps=[], final={"steps": 2, "final_loss": 1.0})
        b = RunLedger(manifest={}, steps=[], final={"steps": 2})
        diff = diff_ledgers(a, b)
        assert {r.metric: r.status for r in diff.rows}["final_loss"] == "missing"
        assert not diff.ok

    def test_drift_on_directionless_metric(self):
        a = RunLedger(manifest={}, steps=[], final={"steps": 4, "final_loss": 1.0})
        b = RunLedger(manifest={}, steps=[], final={"steps": 8, "final_loss": 1.0})
        diff = diff_ledgers(a, b)
        assert {r.metric: r.status for r in diff.rows}["steps"] == "drift"
        assert not diff.ok

    def test_tolerance_band_and_overrides(self):
        a = RunLedger(manifest={}, steps=[], final={"final_loss": 1.0, "steps": 1})
        b = RunLedger(manifest={}, steps=[], final={"final_loss": 1.2, "steps": 1})
        # Default band (rel 0.25) absorbs a 20% loss increase...
        assert diff_ledgers(a, b).ok
        # ...a tightened override does not.
        tight = parse_tolerance("final_loss=0.1", DEFAULT_SPECS)
        assert tight.better == "lower" and tight.rel_tol == 0.1
        assert not diff_ledgers(a, b, tolerances={"final_loss": tight}).ok
        # abs: overrides switch to an absolute band.
        loose = parse_tolerance("final_loss=abs:0.5", DEFAULT_SPECS)
        assert loose.abs_tol == 0.5 and loose.rel_tol == 0.0
        assert diff_ledgers(a, b, tolerances={"final_loss": loose}).ok

    def test_parse_tolerance_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tolerance("final_loss", DEFAULT_SPECS)

    def test_metric_spec_band(self):
        spec = MetricSpec("x", "lower", rel_tol=0.1, abs_tol=0.5)
        assert spec.band(10.0) == pytest.approx(1.5)
        assert spec.band(-10.0) == pytest.approx(1.5)


class TestReport:
    def test_markdown_and_html_render(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path)
        ledger = load_ledger(path)
        md = run_report(ledger).markdown()
        assert "# Run report — kfac" in md
        assert "## Summary" in md and "final_loss" in md
        assert "## Guard timeline" in md
        assert "Span digests — sim track" in md
        page = run_report(ledger).html()
        assert page.startswith("<!doctype html>")
        assert "<script" not in page  # self-contained, no scripts
        assert "<svg" in page and "training loss" in page
        assert "compression ratio" in page

    def test_write_report_paths(self, tmp_path):
        path = tmp_path / "run.ledger"
        _record_kfac(path)
        ledger = load_ledger(path)
        written = run_report(ledger).write(
            html_path=tmp_path / "r.html", md_path=tmp_path / "r.md"
        )
        assert [p.name for p in written] == ["r.html", "r.md"]
        assert all(p.stat().st_size > 500 for p in written)


class TestCli:
    def test_record_report_diff_gate(self, tmp_path, capsys):
        base = str(tmp_path / "base.ledger")
        cand = str(tmp_path / "cand.ledger")
        bad = str(tmp_path / "bad.ledger")
        for out, preset in ((base, "smoke"), (cand, "smoke"), (bad, "smoke-degraded")):
            assert main(["record", "--preset", preset, "--out", out, "--iterations", "4"]) == 0
        capsys.readouterr()
        # Report renders both artifacts.
        assert main(["report", base]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert (tmp_path / "base.html").exists() and (tmp_path / "base.md").exists()
        # Same-config candidate passes the gate; degraded one fails it.
        assert main(["diff", base, cand]) == 0
        capsys.readouterr()
        json_out = str(tmp_path / "diff.json")
        assert main(["diff", base, bad, "--json", json_out]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        result = json.loads((tmp_path / "diff.json").read_text())
        assert result["ok"] is False and "final_loss" in result["regressions"]

    def test_diff_tolerance_override(self, tmp_path, capsys):
        base = str(tmp_path / "base.ledger")
        bad = str(tmp_path / "bad.ledger")
        assert main(["record", "--out", base, "--iterations", "4"]) == 0
        assert main(["record", "--preset", "smoke-degraded", "--out", bad, "--iterations", "4"]) == 0
        capsys.readouterr()
        # A huge tolerance on every regressing metric silences the gate.
        assert (
            main(
                [
                    "diff", base, bad,
                    "--tol", "final_loss=abs:1e9",
                    "--tol", "tail_loss=abs:1e9",
                    "--tol", "total_wire_mb=abs:1e9",
                    "--tol", "sim_time=abs:1e9",
                    "--tol", "hidden_fraction=abs:1e9",
                    "--tol", "hidden_comm_seconds=abs:1e9",
                    "--tol", "exposed_comm_seconds=abs:1e9",
                    "--tol", "final_metric=abs:1e9",
                ]
            )
            == 0
        )
