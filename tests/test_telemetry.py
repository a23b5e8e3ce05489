"""The repro.telemetry subsystem: spans, metrics, exporters, wiring."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core import CompsoCompressor
from repro.data import make_image_data
from repro.distributed import SimCluster
from repro.distributed.network import PLATFORM1
from repro.gpusim.kernels import PIPELINES
from repro.kfac_dist import DistributedKfacTrainer, KfacIterationModel, MODEL_TIMING_PROFILES
from repro.models import resnet_proxy
from repro.models.catalogs import MODEL_CATALOGS
from repro.telemetry import (
    DEVICE_TRACK,
    HOST_TRACK,
    NULL_METRICS,
    NULL_TRACER,
    SIM_TRACK,
    MetricsRegistry,
    Tracer,
    category_fractions,
    chrome_trace,
    get_metrics,
    get_tracer,
    metrics_jsonl,
    summary_table,
    write_metrics_jsonl,
)
from repro.telemetry.metrics import SAMPLE_CAP
from repro.train import ClassificationTask


def tiny_trainer(compressor="default"):
    task = ClassificationTask(make_image_data(96, n_classes=4, size=8, noise=0.5, seed=0))
    if compressor == "default":
        compressor = CompsoCompressor(4e-3, 4e-3, seed=0)
    return DistributedKfacTrainer(
        resnet_proxy(n_classes=4, channels=4, rng=3),
        task,
        SimCluster(2, 2, seed=0),
        lr=0.05,
        inv_update_freq=2,
        compressor=compressor,
    )


class TestTracer:
    def test_nesting_depths(self):
        t = Tracer()
        with t.span("outer", "a"):
            with t.span("inner", "b"):
                with t.span("leaf", "c"):
                    pass
        by_name = {s.name: s for s in t.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["leaf"].depth == 2

    def test_measured_span_contains_children(self):
        t = Tracer()
        with t.span("outer", "a"):
            with t.span("inner", "b"):
                pass
        outer, inner = (
            next(s for s in t.spans() if s.name == n) for n in ("outer", "inner")
        )
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_add_span_stacks_at_cursor(self):
        t = Tracer()
        t.add_span("k1", "kernel", 2.0, track=DEVICE_TRACK)
        t.add_span("k2", "kernel", 3.0, track=DEVICE_TRACK)
        spans = t.spans(track=DEVICE_TRACK)
        assert spans[0].start == 0.0 and spans[0].end == 2.0
        assert spans[1].start == 2.0 and spans[1].end == 5.0
        assert t.cursor(DEVICE_TRACK, 0) == 5.0

    def test_explicit_start_and_clock(self):
        t = Tracer()
        t.add_span("x", "cat", 1.5, start=10.0, rank=3)
        (s,) = t.spans(track=SIM_TRACK)
        assert (s.start, s.end, s.rank) == (10.0, 11.5, 3)
        fake_now = iter([5.0, 9.0])
        with t.span("clocked", "cat", track=SIM_TRACK, clock=lambda: next(fake_now)):
            pass
        s = next(s for s in t.spans() if s.name == "clocked")
        assert (s.start, s.duration) == (5.0, 4.0)

    def test_category_totals_mean_across_ranks(self):
        t = Tracer()
        for rank in range(4):
            t.add_span("op", "comm", 2.0, start=0.0, rank=rank)
        assert t.category_totals() == {"comm": 2.0}

    def test_category_totals_depth_filter(self):
        t = Tracer()
        t.add_span("parent", "p", 4.0, track=HOST_TRACK, depth=0)
        t.add_span("child", "c", 1.0, track=HOST_TRACK, depth=1)
        assert t.category_totals(track=HOST_TRACK) == {"p": 4.0}
        assert t.category_totals(track=HOST_TRACK, depth=1) == {"c": 1.0}

    def test_clear(self):
        t = Tracer()
        t.add_span("x", "c", 1.0)
        t.clear()
        assert t.spans() == [] and t.cursor(SIM_TRACK) == 0.0


class TestDisabledPath:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS
        assert not get_tracer().enabled

    def test_null_tracer_span_is_shared_noop(self):
        t = NULL_TRACER
        cm1 = t.span("a", "b", anything=1)
        cm2 = t.span("c")
        assert cm1 is cm2  # one reusable context manager, no allocation
        with cm1:
            pass
        assert t.add_span("a", "b", 1.0) is None
        assert t.spans() == [] and t.category_totals() == {}

    def test_null_metrics_shared_noop(self):
        m = NULL_METRICS
        c = m.counter("x", label="y")
        c.inc(5)
        assert c is m.histogram("z") and c.value == 0.0
        assert m.snapshot() == [] and m.record_step(0) == {}

    def test_disabled_training_records_nothing_and_matches_traced_run(self):
        # Identical seeds, with and without telemetry: step outputs must
        # be byte-identical, and the disabled run must record nothing.
        plain = tiny_trainer()
        losses_plain = [plain.step(np.arange(32)) for _ in range(3)]
        assert get_tracer().spans() == []

        traced = tiny_trainer()
        with telemetry.session() as t:
            losses_traced = [traced.step(np.arange(32)) for _ in range(3)]
        assert losses_plain == losses_traced
        for p_a, p_b in zip(plain.model.parameters(), traced.model.parameters()):
            assert p_a.data.tobytes() == p_b.data.tobytes()
        assert len(t.tracer.spans()) > 0

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.session():
                assert get_tracer().enabled
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS


class TestMetrics:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c", op="x").inc()
        m.counter("c", op="x").inc(2)
        m.gauge("g").set(7.5)
        h = m.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert m.counter("c", op="x").value == 3.0
        assert m.gauge("g").value == 7.5
        assert (h.count, h.total, h.vmin, h.vmax, h.last) == (3, 6.0, 1.0, 3.0, 2.0)
        assert h.mean == pytest.approx(2.0)

    def test_labels_separate_instruments(self):
        m = MetricsRegistry()
        m.counter("c", op="a").inc()
        m.counter("c", op="b").inc(10)
        assert m.counter("c", op="a").value == 1.0
        assert m.counter("c", op="b").value == 10.0

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_snapshot_and_steps(self):
        m = MetricsRegistry()
        m.counter("c").inc(1)
        m.record_step(0)
        m.counter("c").inc(1)
        m.record_step(1, sim_time=0.5)
        snaps = m.steps
        assert [s["step"] for s in snaps] == [0, 1]
        assert snaps[0]["metrics"][0]["value"] == 1.0
        assert snaps[1]["metrics"][0]["value"] == 2.0
        assert snaps[1]["sim_time"] == 0.5

    def test_histogram_percentiles_exact_below_cap(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # 1..100, shuffled order must not matter
            h.observe(float(101 - v))
        assert h.percentile(50.0) == 50.0
        assert h.percentile(95.0) == 95.0
        assert h.percentile(99.0) == 99.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0

    def test_histogram_percentile_validation_and_empty(self):
        h = MetricsRegistry().histogram("h")
        assert h.percentile(50.0) is None
        h.observe(3.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)
        with pytest.raises(ValueError):
            h.percentile(-1.0)
        # Single observation: every percentile is that value.
        assert h.percentile(1.0) == h.percentile(99.0) == 3.0

    def test_histogram_decimation_bounded_and_deterministic(self):
        def fill(n):
            h = MetricsRegistry().histogram("h")
            for v in range(n):
                h.observe(float(v))
            return h

        n = SAMPLE_CAP * 5
        a, b = fill(n), fill(n)
        assert len(a.samples) < SAMPLE_CAP
        assert a.stride > 1
        assert a.samples == b.samples and a.stride == b.stride
        assert (a.count, a.total) == (n, sum(range(n)))
        # Decimated percentiles stay close to the exact ones.
        assert a.percentile(50.0) == pytest.approx(n / 2, rel=0.05)
        assert a.percentile(99.0) == pytest.approx(0.99 * n, rel=0.05)

    def test_histogram_snapshot_has_percentiles(self):
        m = MetricsRegistry()
        h = m.histogram("lat", op="x")
        for v in (5.0, 1.0, 9.0, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4 and snap["sum"] == 18.0
        assert snap["p50"] == 3.0
        assert snap["p95"] == snap["p99"] == 9.0

    def test_null_histogram_percentile(self):
        h = NULL_METRICS.histogram("h")
        h.observe(1.0)
        assert h.percentile(50.0) is None
        assert h.samples == ()

    def test_jsonl_parses(self):
        m = MetricsRegistry()
        m.counter("c", op="x").inc(3)
        m.record_step(0)
        lines = metrics_jsonl(m).strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["step"] == 0
        assert parsed[-1]["final"] is True
        assert parsed[-1]["metrics"][0] == {
            "type": "counter",
            "name": "c",
            "labels": {"op": "x"},
            "value": 3.0,
        }

    def test_jsonl_roundtrip_lossless(self, tmp_path):
        m = MetricsRegistry()
        # Multi-label instruments exercise label ordering; a histogram
        # exercises the nested percentile fields.
        m.counter("wire", op="allgather", layer="0").inc(7)
        m.gauge("train.loss").set(0.5)
        h = m.histogram("cr", phase="aggressive")
        for v in (22.0, 19.5, 24.0):
            h.observe(v)
        m.record_step(0, sim_time=0.25)
        m.counter("wire", op="allgather", layer="0").inc(1)
        m.record_step(1, sim_time=0.5)
        path = write_metrics_jsonl(m, tmp_path / "metrics.jsonl")
        original = path.read_text()
        assert original == metrics_jsonl(m)
        records = [json.loads(line) for line in original.splitlines()]
        # Byte-exact export -> parse -> export round trip: JSON objects
        # keep their key and label order.
        assert "\n".join(json.dumps(r) for r in records) + "\n" == original
        *steps, final = records
        assert [r["step"] for r in steps] == [0, 1]
        assert final["final"] is True
        assert any(f["name"] == "cr" for f in final["metrics"])
        loss = [
            (r["step"], f["value"]) for r in steps for f in r["metrics"]
            if f["name"] == "train.loss"
        ]
        assert loss == [(0, 0.5), (1, 0.5)]


class TestInstrumentation:
    def test_collective_spans_match_breakdown_exactly(self):
        with telemetry.session() as t:
            cl = SimCluster(2, 2, seed=0)
            cl.advance_rank(0, 1e-3, "compute")
            cl.allreduce([np.ones(1000) for _ in range(4)])
            cl.allgather([np.ones(50) for _ in range(4)])
            cl.broadcast(np.ones(100), root=1)
            cl.reduce_scatter([np.ones(64) for _ in range(4)])
            expected = cl.breakdown()
        totals = t.tracer.category_totals(track=SIM_TRACK)
        assert set(totals) == set(expected)
        for cat, sec in expected.items():
            assert totals[cat] == pytest.approx(sec, abs=1e-12), cat

    def test_collective_span_attrs_and_metrics(self):
        with telemetry.session() as t:
            cl = SimCluster(1, 4, seed=0)
            cl.allreduce([np.ones(1000, dtype=np.float32) for _ in range(4)], nbytes=123.0)
        spans = t.tracer.spans(track=SIM_TRACK, category="allreduce")
        assert len(spans) == 4  # one per rank
        assert all(s.attrs["nbytes_wire"] == 123.0 for s in spans)
        assert all(s.attrs["nbytes_raw"] == 4000 for s in spans)
        assert t.metrics.counter("comm.calls", op="allreduce").value == 1.0
        assert t.metrics.counter("comm.wire_bytes", op="allreduce").value == 123.0

    def test_compressor_stage_spans_and_metrics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096).astype(np.float32)
        comp = CompsoCompressor(4e-3, 4e-3, seed=0)
        with telemetry.session() as t:
            ct = comp.compress(x)
            comp.decompress(ct)
        cats = {s.category for s in t.tracer.spans(track=HOST_TRACK)}
        assert {
            "compress",
            "compress.filter",
            "compress.quantise",
            "compress.pack",
            "compress.encode",
            "decompress",
        } <= cats
        ratio = t.metrics.histogram("compress.ratio", compressor=comp.name)
        assert ratio.count == 1 and ratio.last == pytest.approx(x.nbytes / ct.nbytes)
        hit = t.metrics.histogram("compso.filter_hit_rate")
        assert 0.0 <= hit.last <= 1.0

    def test_kernel_pipeline_device_spans(self):
        pipe = PIPELINES["compso-cuda"]
        with telemetry.session() as t:
            total = pipe.compress_time(1 << 20)
        spans = t.tracer.spans(track=DEVICE_TRACK)
        parents = [s for s in spans if s.depth == 0]
        children = [s for s in spans if s.depth == 1]
        assert len(parents) == 1 and parents[0].duration == pytest.approx(total)
        assert sum(c.duration for c in children) == pytest.approx(total)
        assert {"launch", "hbm", "alu", "reduce", "encode"} == {c.name for c in children}

    def test_trainer_phase_spans(self):
        trainer = tiny_trainer()
        with telemetry.session() as t:
            trainer.step(np.arange(32))
        cats = t.tracer.category_totals(track=HOST_TRACK, depth=1)
        for phase in ("forward", "backward", "factor", "inverse", "precondition", "comm"):
            assert phase in cats, phase
        assert t.metrics.counter("train.steps").value == 1.0
        assert len(t.metrics.steps) == 1

    def test_trainer_trace_reconciles_with_cluster_breakdown(self):
        trainer = tiny_trainer()
        with telemetry.session() as t:
            trainer.train(iterations=3, batch_size=32)
        expected = trainer.cluster.breakdown()
        totals = t.tracer.category_totals(track=SIM_TRACK)
        assert set(totals) == set(expected)
        for cat, sec in expected.items():
            assert totals[cat] == pytest.approx(sec, rel=1e-12, abs=1e-15), cat


class TestExporters:
    def _traced_run(self):
        trainer = tiny_trainer()
        with telemetry.session() as t:
            trainer.train(iterations=2, batch_size=32)
        return t

    def test_chrome_trace_valid_and_monotonic(self, tmp_path):
        t = self._traced_run()
        path = telemetry.write_chrome_trace(t.tracer, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        last_ts: dict[tuple, float] = {}
        for e in events:
            assert e["ph"] in ("X", "M", "s", "f")
            if e["ph"] != "X":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last_ts.get(key, -1.0), "events must be time-ordered per rank"
            assert e["dur"] >= 0.0
            last_ts[key] = e["ts"]

    def test_chrome_trace_flow_events_pair_up(self):
        t = self._traced_run()
        doc = chrome_trace(t.tracer)
        starts = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "s"}
        ends = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "f"}
        assert starts, "a collective run must emit flow events"
        assert set(starts) == set(ends)
        for fid, s in starts.items():
            f = ends[fid]
            assert s["cat"] == f["cat"] and s["cat"] in ("collective", "wait")
            assert f["bp"] == "e"
        # "parent" nesting never becomes an arrow — it is slice containment.
        assert all(e["cat"] != "parent" for e in starts.values())

    def test_chrome_trace_byte_stable_without_edges(self):
        t = Tracer()
        t.add_span("op", "compute", 1.0, start=0.0)
        doc = chrome_trace(t)
        assert all(e["ph"] in ("X", "M") for e in doc["traceEvents"])

    def test_chrome_trace_one_thread_per_rank(self):
        t = self._traced_run()
        doc = chrome_trace(t.tracer)
        sim_threads = {
            e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
        }
        assert sim_threads == {0, 1, 2, 3}

    def test_summary_table_renders(self):
        t = self._traced_run()
        table = summary_table(t.tracer)
        assert "kfac_allgather" in table and "share%" in table

    def test_category_fractions_sum_to_one(self):
        t = self._traced_run()
        fr = category_fractions(t.tracer)
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_record_trace_matches_analytic_breakdown(self):
        m = KfacIterationModel(
            MODEL_CATALOGS["resnet50"](),
            PLATFORM1,
            4,
            profile=MODEL_TIMING_PROFILES["resnet50"],
        )
        tracer = Tracer()
        bd = m.record_trace(tracer)
        fr = category_fractions(tracer)
        expect = bd.fractions()
        for cat in ("kfac_allgather", "kfac_allreduce", "kfac_compute", "fwd_bwd"):
            assert fr[cat] == pytest.approx(expect[cat])


class TestCli:
    def test_trace_subcommand_writes_parseable_outputs(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        rc = main(
            [
                "trace",
                "--model",
                "mini-resnet",
                "--nodes",
                "2",
                "--gpus-per-node",
                "2",
                "--iterations",
                "2",
                "--out",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert len(doc["traceEvents"]) > 0
        # Complete events are written in timestamp order on every track.
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        last = {}
        for e in spans:
            key = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(key, -1.0), "events out of order"
            last[key] = e["ts"]
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        assert lines[-1]["final"] is True and lines[-1]["metrics"]
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        # Telemetry must be torn down after the command.
        assert get_tracer() is NULL_TRACER

    def test_trace_compressor_none_is_dense(self, tmp_path, capsys):
        from repro.cli import _scenario, build_parser, main
        from repro.scenarios import build

        argv = ["trace", "--nodes", "1", "--iterations", "2", "--metrics-out", ""]
        dense = tmp_path / "dense.json"
        compso = tmp_path / "compso.json"
        assert main([*argv, "--compressor", "none", "--out", str(dense)]) == 0
        assert main([*argv, "--out", str(compso)]) == 0
        capsys.readouterr()

        def codec_spans(path):
            events = json.loads(path.read_text())["traceEvents"]
            return [e for e in events if e.get("name") in ("compress", "decompress")]

        assert codec_spans(compso) and not codec_spans(dense)
        args = build_parser().parse_args([*argv, "--compressor", "none"])
        assert build(_scenario(args, "trace", None, "nodes", "compressor")).compressor is None
