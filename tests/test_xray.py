"""The repro.xray subsystem: causal graph, critical path, attribution."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.fleet import FleetScheduler, JobSpec
from repro.kfac_dist import DistributedKfacTrainer
from repro.models import resnet_proxy
from repro.obsv import (
    LedgerConfig,
    RunLedger,
    diff_ledgers,
    load_ledger,
    run_report,
    summarize,
    xray_timeline,
)
from repro.runtime import ComputeModel, StreamRuntime
from repro.telemetry import SIM_TRACK, Tracer
from repro.telemetry.tracer import Span, span_sort_key
from repro.train import ClassificationTask
from repro.xray import (
    COMM_OPS,
    XrayAnalyzer,
    attribute_regression,
    build_step_graph,
    critical_path,
    is_comm,
    xray_report,
)

ITERS = 4
#: The acceptance criterion for the telescoping-walk identity.
IDENTITY_TOL = 1e-9


def _task(n=160):
    return ClassificationTask(make_image_data(n, n_classes=4, size=8, noise=0.5, seed=0))


def _run(*, nodes=2, gpus=2, overlap=False, seed=0, xray=True, ledger=None):
    """One small traced K-FAC run with xray attached; returns the trainer."""
    cluster = SimCluster(nodes, gpus, seed=0)
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
        compressor=CompsoCompressor(4e-3, 4e-3, seed=0),
        runtime=runtime,
        obsv=LedgerConfig(ledger) if ledger is not None else None,
        xray=xray,
    )
    with telemetry.session():
        trainer.train(iterations=ITERS, batch_size=32, eval_every=ITERS, seed=seed)
    return trainer


def _sim(name, category, start, duration, *, rank=0, stream=0, attrs=None, id=-1):
    return Span(
        name, category, start, duration,
        track=SIM_TRACK, rank=rank, stream=stream, attrs=attrs or {}, id=id,
    )


class TestGraph:
    def test_window_filtering_and_lane_split(self):
        spans = [
            _sim("compute", "compute", 0.0, 1.0),                 # before window
            _sim("compute", "compute", 1.0, 1.0),                 # inside
            _sim("allreduce", "comm", 2.5, 0.5, stream=1),        # comm stream
            _sim("compute", "compute", 3.0, 1.0),                 # after window
            _sim("rank_failure", "fault", 1.5, 0.0),              # zero-duration marker
            Span("host", "host", 1.0, 1.0, track="host"),         # wrong track
        ]
        g = build_step_graph(spans, t0=1.0, t1=3.0)
        assert list(g.lanes) == [0]
        assert [s.name for s in g.lanes[0]] == ["compute"]
        assert [s.name for s in g.comm_lanes[0]] == ["allreduce"]
        assert g.elapsed == 2.0

    def test_lanes_sorted_by_documented_key(self):
        spans = [
            _sim("b", "compute", 1.0, 1.0, id=2),
            _sim("a", "compute", 0.0, 1.0, id=1),
        ]
        g = build_step_graph(spans, t0=0.0, t1=2.0)
        assert [s.name for s in g.lanes[0]] == ["a", "b"]
        assert g.lanes[0] == sorted(g.lanes[0], key=span_sort_key)

    def test_string_ranks_order_after_integers(self):
        spans = [
            _sim("x", "compute", 0.0, 1.0, rank="*"),
            _sim("x", "compute", 0.0, 1.0, rank=1),
        ]
        g = build_step_graph(spans, t0=0.0, t1=1.0)
        assert g.ranks() == [1, "*"]

    def test_is_comm_by_name_or_wire_attr(self):
        assert all(is_comm(_sim(op, "c", 0.0, 1.0)) for op in COMM_OPS)
        assert is_comm(_sim("kfac_allreduce", "c", 0.0, 1.0, attrs={"nbytes_wire": 8.0}))
        assert not is_comm(_sim("compute", "compute", 0.0, 1.0))


class TestCriticalPath:
    def test_empty_graph_is_one_untraced_segment(self):
        g = build_step_graph([], t0=0.0, t1=2.0)
        (seg,) = critical_path(g)
        assert (seg.name, seg.category, seg.seconds) == ("untraced", "untraced", 2.0)

    def test_degenerate_window_is_empty(self):
        assert critical_path(build_step_graph([], t0=1.0, t1=1.0)) == []

    def test_barrier_wait_jumps_to_straggler(self):
        # Rank 0 finishes compute at 1.0 then waits; rank 1 computes
        # until 3.0.  The path must charge [1.0, 3.0] to rank 1.
        spans = [
            _sim("compute", "compute", 0.0, 1.0, rank=0),
            _sim("wait", "wait", 1.0, 2.0, rank=0),
            _sim("allreduce", "allreduce", 3.0, 1.0, rank=0),
            _sim("compute", "compute", 0.0, 3.0, rank=1),
            _sim("allreduce", "allreduce", 3.0, 1.0, rank=1),
        ]
        g = build_step_graph(spans, t0=0.0, t1=4.0)
        segs = critical_path(g)
        assert sum(s.seconds for s in segs) == pytest.approx(4.0, abs=IDENTITY_TOL)
        charged = {(s.name, s.rank) for s in segs}
        assert ("compute", 1) in charged
        assert ("wait", 0) not in charged  # the wait is never on-path
        assert any(s.comm for s in segs if s.name == "allreduce")

    def test_gap_becomes_untraced_filler(self):
        spans = [
            _sim("compute", "compute", 0.0, 1.0),
            _sim("compute", "compute", 2.0, 1.0),
        ]
        segs = critical_path(build_step_graph(spans, t0=0.0, t1=3.0))
        assert [s.name for s in segs] == ["compute", "untraced", "compute"]
        assert sum(s.seconds for s in segs) == pytest.approx(3.0, abs=IDENTITY_TOL)

    def test_all_wait_lane_degenerates_gracefully(self):
        spans = [_sim("wait", "wait", 0.0, 2.0, rank=r) for r in range(2)]
        segs = critical_path(build_step_graph(spans, t0=0.0, t1=2.0))
        assert sum(s.seconds for s in segs) == pytest.approx(2.0, abs=IDENTITY_TOL)

    def test_segments_sorted_and_serialisable(self):
        spans = [_sim("compute", "compute", 0.0, 2.0)]
        (seg,) = critical_path(build_step_graph(spans, t0=0.0, t1=2.0))
        d = seg.to_dict()
        assert d == {
            "name": "compute", "category": "compute", "rank": "0",
            "start_s": 0.0, "seconds": 2.0,
        }


class TestIdentity:
    """The subsystem's acceptance criterion: critpath_s == elapsed_s."""

    @pytest.mark.parametrize(
        "nodes,gpus,overlap",
        [(2, 2, False), (2, 2, True), (2, 4, False), (2, 4, True)],
        ids=["blocking-w4", "overlapped-w4", "blocking-w8", "overlapped-w8"],
    )
    def test_critpath_equals_sim_elapsed(self, nodes, gpus, overlap):
        trainer = _run(nodes=nodes, gpus=gpus, overlap=overlap)
        records = trainer.xray.records
        assert len(records) == ITERS
        for r in records:
            assert r["critpath_s"] == pytest.approx(r["elapsed_s"], abs=IDENTITY_TOL)
        total = sum(r["elapsed_s"] for r in records)
        assert total == pytest.approx(trainer.cluster.time, abs=IDENTITY_TOL)

    def test_hidden_comm_matches_runtime_accounting(self):
        trainer = _run(overlap=True)
        hidden = sum(r["hidden_comm_s"] for r in trainer.xray.records)
        assert hidden == pytest.approx(
            trainer.runtime.hidden_comm_seconds(), abs=IDENTITY_TOL
        )
        assert hidden > 0.0  # the overlapped runtime genuinely hides comm

    def test_blocking_run_hides_nothing(self):
        trainer = _run(overlap=False)
        assert sum(r["hidden_comm_s"] for r in trainer.xray.records) == 0.0

    def test_records_are_deterministic(self):
        a = _run(overlap=True).xray.records
        b = _run(overlap=True).xray.records
        assert a == b

    def test_comm_charged_on_path(self):
        records = _run().xray.records
        assert sum(r["exposed_comm_s"] for r in records) > 0.0
        cats = set()
        for r in records:
            cats.update(r["comm_categories"])
        assert cats & {"kfac_allreduce", "kfac_allgather", "grad_allreduce"}


class TestAnalyzer:
    def test_as_xray_normalisation(self):
        """``xray=`` is a switch: ``True`` builds the analyzer, which no run
        configures, so its manifest section is empty."""

        def trainer(xray):
            return DistributedKfacTrainer(
                resnet_proxy(n_classes=4, channels=4, rng=3), _task(), SimCluster(1, 2),
                xray=xray,
            )

        assert trainer(False).xray is None
        analyzer = trainer(True).xray
        assert isinstance(analyzer, XrayAnalyzer) and analyzer.describe() == {}

    def test_disabled_without_tracer_session(self):
        analyzer = XrayAnalyzer(SimCluster(1, 2, seed=0))
        assert analyzer.end_step(0) is None
        assert analyzer.records == []
        assert analyzer.report() is None

    def test_take_step_record_clears_buffer(self, tmp_path):
        # Without a ledger the buffer holds the last record once...
        bare = _run()
        assert bare.xray.take_step_record() is not None
        assert bare.xray.take_step_record() is None  # ...and is cleared on read.
        # With a ledger bound, record_step already drained it.
        recorded = _run(ledger=tmp_path / "run.ledger")
        assert recorded.xray.take_step_record() is None

    def test_report_totals_fold_records(self):
        xray = _run().xray
        report = xray.report()
        assert report["steps"] == ITERS
        assert report["critpath_s"] == pytest.approx(
            sum(r["critpath_s"] for r in xray.records)
        )
        assert report["top_straggler_rank"] is not None
        assert sum(report["by_category"].values()) == pytest.approx(
            report["critpath_s"], abs=IDENTITY_TOL
        )


class TestLedgerIntegration:
    def test_step_and_final_records(self, tmp_path):
        path = tmp_path / "run.ledger"
        _run(ledger=path)
        ledger = load_ledger(path)
        assert ledger.manifest["xray"] == {}
        for step in ledger.steps:
            xr = step["xray"]
            assert xr["critpath_s"] == pytest.approx(xr["elapsed_s"], abs=IDENTITY_TOL)
            assert list(xr["by_category"]) == sorted(xr["by_category"])
        assert ledger.final["xray"]["steps"] == ITERS
        s = summarize(ledger)
        assert s["xray_critpath_s"] == pytest.approx(ledger.final["xray"]["critpath_s"])
        assert s["xray_exposed_comm_s"] >= 0.0
        assert s["xray_straggler_skew"] >= 0.0

    def test_xray_none_leaves_ledger_untouched(self, tmp_path):
        with_x = _run(ledger=tmp_path / "x.ledger", xray=True)
        without = _run(ledger=tmp_path / "plain.ledger", xray=None)
        # Numerics are bit-identical: the analyzer only observes.
        assert with_x.history.losses == without.history.losses
        pa = np.concatenate([p.data.ravel() for p in with_x.model.parameters()])
        pb = np.concatenate([p.data.ravel() for p in without.model.parameters()])
        assert np.array_equal(pa, pb)
        assert with_x.cluster.time == without.cluster.time
        # And the plain ledger carries no xray keys anywhere.
        plain = load_ledger(tmp_path / "plain.ledger")
        assert "xray" not in plain.manifest
        assert all("xray" not in s for s in plain.steps)
        assert "xray" not in plain.final
        assert "xray_critpath_s" not in summarize(plain)

    def test_ledger_determinism_with_xray(self, tmp_path):
        _run(ledger=tmp_path / "a.ledger")
        _run(ledger=tmp_path / "b.ledger")
        la, lb = load_ledger(tmp_path / "a.ledger"), load_ledger(tmp_path / "b.ledger")
        assert la.body_text() == lb.body_text()
        assert la.digest() == lb.digest()


class TestAttribution:
    def test_requires_both_sides_analysed(self, tmp_path):
        _run(ledger=tmp_path / "x.ledger", xray=True)
        _run(ledger=tmp_path / "plain.ledger", xray=None)
        with_x = load_ledger(tmp_path / "x.ledger")
        plain = load_ledger(tmp_path / "plain.ledger")
        assert attribute_regression(plain, with_x) is None
        assert attribute_regression(with_x, plain) is None
        assert xray_timeline(plain) == []

    def test_diff_gates_missing_xray_side(self, tmp_path):
        _run(ledger=tmp_path / "x.ledger", xray=True)
        _run(ledger=tmp_path / "plain.ledger", xray=None)
        diff = diff_ledgers(
            load_ledger(tmp_path / "x.ledger"), load_ledger(tmp_path / "plain.ledger")
        )
        status = {r.metric: r.status for r in diff.rows}
        assert status["xray_critpath_s"] == "missing"
        assert not diff.ok

    def test_identical_xray_runs_pass_gate(self, tmp_path):
        _run(ledger=tmp_path / "a.ledger")
        _run(ledger=tmp_path / "b.ledger")
        diff = diff_ledgers(
            load_ledger(tmp_path / "a.ledger"), load_ledger(tmp_path / "b.ledger")
        )
        assert diff.ok
        status = {r.metric: r.status for r in diff.rows}
        assert status["xray_critpath_s"] == "ok"

    def test_names_injected_comm_regression(self):
        a = RunLedger(manifest={}, steps=[
            {"step": 0, "xray": {
                "critpath_s": 1.0,
                "by_category": {"compute": 0.8, "kfac_allreduce": 0.2},
                "by_phase": {"compute": 0.8, "allreduce": 0.2},
                "comm_categories": ["kfac_allreduce"],
            }},
        ], final={})
        b = RunLedger(manifest={}, steps=[
            {"step": 0, "xray": {
                "critpath_s": 2.0,
                "by_category": {"compute": 0.8, "kfac_allreduce": 1.2},
                "by_phase": {"compute": 0.8, "allreduce": 1.2},
                "comm_categories": ["kfac_allreduce"],
            }},
        ], final={})
        verdict = attribute_regression(a, b)
        assert verdict["segment"] == "kfac_allreduce"
        assert verdict["kind"] == "comm"
        assert verdict["delta_s"] == pytest.approx(1.0)
        assert verdict["share"] == pytest.approx(1.0)
        assert verdict["phase"] == "allreduce"


class TestRender:
    def _ledger(self, tmp_path):
        path = tmp_path / "run.ledger"
        _run(ledger=path)
        return load_ledger(path)

    def test_markdown(self, tmp_path):
        md = xray_report(self._ledger(tmp_path)).markdown()
        assert "# Xray report — kfac" in md
        assert "## Critical path per step" in md
        assert "## Totals" in md and "critpath_s" in md
        assert "## Longest on-path segments" in md

    def test_html_self_contained_flame(self, tmp_path):
        page = xray_report(self._ledger(tmp_path)).html()
        assert page.startswith("<!doctype html>")
        assert "<script" not in page  # inline CSS/SVG only
        assert "<svg" in page and "<rect" in page
        assert "Critical-path flame view" in page

    def test_no_records_degrades(self, tmp_path):
        _run(ledger=tmp_path / "plain.ledger", xray=None)
        plain = load_ledger(tmp_path / "plain.ledger")
        assert "no xray records" in xray_report(plain).markdown()
        assert "no xray records" in xray_report(plain).html()

    def test_obsv_report_gains_xray_section(self, tmp_path):
        ledger = self._ledger(tmp_path)
        assert "## Critical path (xray)" in run_report(ledger).markdown()
        assert "Critical path (xray)" in run_report(ledger).html()


class TestFleetStragglers:
    def test_report_carries_critpath_and_skew(self):
        result = FleetScheduler([JobSpec("solo", world_size=8, iterations=2, seed=0)]).run()
        report = result.by_name("solo")
        assert report.critpath_s > 0.0
        assert report.critpath_s <= report.sim_time + IDENTITY_TOL
        # A faultless symmetric job has no straggler and zero skew.
        assert report.straggler_skew_s == 0.0
        assert report.top_straggler_rank is None


class TestCli:
    def test_record_xray_diff_attribute(self, tmp_path, capsys):
        fast = str(tmp_path / "fast.ledger")
        slow = str(tmp_path / "slow.ledger")
        for out, preset in ((fast, "smoke"), (slow, "smoke-slow-net")):
            args = ["record", "--preset", preset, "--out", out, "--iterations", "4", "--xray"]
            assert main(args) == 0
        capsys.readouterr()
        # The xray view renders for an analysed ledger...
        assert main(["xray", fast]) == 0
        out = capsys.readouterr().out
        assert "# Xray report" in out
        assert (tmp_path / "fast.xray.html").exists()
        assert (tmp_path / "fast.xray.md").exists()
        # ...and attribution names the injected slow network as comm.
        json_out = str(tmp_path / "diff.json")
        main(["diff", fast, slow, "--attribute", "--json", json_out])
        captured = capsys.readouterr()
        assert "attribution:" in captured.out
        verdict = json.loads((tmp_path / "diff.json").read_text())["attribution"]
        assert verdict["kind"] == "comm"
        assert verdict["delta_s"] > 0.0

    def test_xray_command_rejects_plain_ledger(self, tmp_path, capsys):
        plain = str(tmp_path / "plain.ledger")
        assert main(["record", "--preset", "smoke", "--out", plain, "--iterations", "2"]) == 0
        capsys.readouterr()
        assert main(["xray", plain]) == 1
        assert "no xray records" in capsys.readouterr().err


class TestTracerContracts:
    """Satellite: the ordering/nesting guarantees xray builds on."""

    def test_unbalanced_pop_never_goes_negative(self):
        t = Tracer()
        depth, span_id, parent = t._pop(SIM_TRACK, 0)  # pop with no open span
        assert depth == 0 and parent is None and span_id >= 0
        # Subsequent nesting still records correct non-negative depths.
        with t.span("outer", "a"):
            with t.span("inner", "b"):
                pass
        by_name = {s.name: s for s in t.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_nested_spans_emit_parent_edges(self):
        t = Tracer()
        with t.span("outer", "a"):
            with t.span("inner", "b"):
                pass
        by_name = {s.name: s for s in t.spans()}
        (edge,) = t.edges(kind="parent")
        assert edge.src == by_name["outer"].id
        assert edge.dst == by_name["inner"].id

    def test_ids_stable_and_reset_by_clear(self):
        t = Tracer()
        a = t.add_span("a", "c", 1.0)
        b = t.add_span("b", "c", 1.0)
        assert (a.id, b.id) == (0, 1)
        t.add_edge(a.id, b.id, "wait")
        t.clear()
        assert t.edges() == []
        assert t.add_span("again", "c", 1.0).id == 0

    def test_add_edge_ignores_uncollected_ids(self):
        t = Tracer()
        assert t.add_edge(-1, 0, "wait") is None
        assert t.add_edge(0, -1, "wait") is None
        assert t.edges() == []

    def test_ordered_spans_independent_of_insertion_order(self):
        def build(reverse):
            t = Tracer()
            spans = [
                ("b", 1, 1.0), ("a", 0, 0.0), ("c", 0, 2.0),
            ]
            if reverse:
                spans = spans[::-1]
            for name, rank, start in spans:
                t.add_span(name, "c", 1.0, start=start, rank=rank)
            return [(s.name, s.rank, s.start) for s in sorted(t.spans(), key=span_sort_key)]

        assert build(False) == build(True)
        assert build(False) == [("a", 0, 0.0), ("c", 0, 2.0), ("b", 1, 1.0)]

    def test_id_breaks_ties_between_identical_spans(self):
        t = Tracer()
        first = t.add_span("op", "c", 1.0, start=0.0)
        second = t.add_span("op", "c", 1.0, start=0.0)
        ordered = sorted(t.spans(), key=span_sort_key)
        assert [s.id for s in ordered] == [first.id, second.id]


class TestMinimalLedgerDegradation:
    """Satellite: analytics/report survive ledgers missing every optional
    section (no overlap, guard, autotune, xray, spans, metrics)."""

    MINIMAL = RunLedger(
        manifest={"kind": "kfac"},
        steps=[{"step": 0, "loss": 1.0}],
        final={"steps": 1, "final_loss": 1.0},
    )

    def test_summarize_minimal(self):
        s = summarize(self.MINIMAL)
        assert s["steps"] == 1 and s["final_loss"] == 1.0
        for key in (
            "hidden_fraction", "guard_remediations", "autotune_retunes",
            "xray_critpath_s", "fleet_restarts", "store_fallbacks",
        ):
            assert key not in s

    def test_summarize_empty(self):
        s = summarize(RunLedger(manifest={}, steps=[], final={}))
        assert s["steps"] == 0
        assert s["tail_loss"] is None

    def test_render_markdown_minimal(self):
        md = run_report(self.MINIMAL).markdown()
        assert "# Run report — kfac" in md
        assert "final_loss" in md

    def test_render_html_minimal(self):
        page = run_report(self.MINIMAL).html()
        assert page.startswith("<!doctype html>")
        assert "<script" not in page

    def test_summarize_falls_back_to_step_xray_records(self):
        truncated = RunLedger(
            manifest={},
            steps=[{"step": 0, "xray": {
                "critpath_s": 2.0, "exposed_comm_s": 0.5, "straggler_skew_s": 0.1,
            }}],
            final={"steps": 1},  # crash-truncated: no final xray summary
        )
        s = summarize(truncated)
        assert s["xray_critpath_s"] == 2.0
        assert s["xray_exposed_comm_s"] == 0.5
        assert s["xray_straggler_skew"] == pytest.approx(0.1)
