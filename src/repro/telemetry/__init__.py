"""Tracing, metrics, and profiling for the COMPSO reproduction.

The subsystem has three parts, all zero-cost when disabled:

* :class:`Tracer` — hierarchical spans over the simulated-cluster,
  host, and modelled-device timelines (:mod:`repro.telemetry.tracer`);
* :class:`MetricsRegistry` — counters/gauges/histograms with per-step
  snapshots (:mod:`repro.telemetry.metrics`);
* exporters — Chrome ``trace_event`` JSON, metrics JSONL, and plain-text
  summary tables (:mod:`repro.telemetry.export`).

Instrumented code (collectives, compressors, kernels, trainers) fetches
the active tracer/registry via :func:`get_tracer` / :func:`get_metrics`;
both return no-op singletons until a session is opened::

    from repro import telemetry

    with telemetry.session() as t:
        trainer.train(iterations=5, batch_size=32)
    telemetry.write_chrome_trace(t.tracer, "trace.json")
    print(telemetry.summary_table(t.tracer))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

from repro.telemetry.export import (
    category_fractions,
    chrome_trace,
    metrics_jsonl,
    summary_table,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.telemetry.tracer import (
    DEVICE_TRACK,
    HOST_TRACK,
    NULL_TRACER,
    SIM_TRACK,
    Edge,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span_sort_key,
)

__all__ = [
    "Counter",
    "DEVICE_TRACK",
    "Edge",
    "Gauge",
    "HOST_TRACK",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "SIM_TRACK",
    "Span",
    "TelemetrySession",
    "Tracer",
    "category_fractions",
    "chrome_trace",
    "get_metrics",
    "get_tracer",
    "metrics_jsonl",
    "session",
    "set_metrics",
    "set_tracer",
    "span_sort_key",
    "summary_table",
    "write_chrome_trace",
    "write_metrics_jsonl",
]


class TelemetrySession(NamedTuple):
    """The tracer/registry pair active inside a :func:`session`."""

    tracer: Tracer
    metrics: MetricsRegistry


@contextmanager
def session():
    """Enable telemetry for the duration of the ``with`` block.

    Fresh collectors are created; the previously active pair (normally
    the null singletons) is restored on exit, including on exceptions,
    so a crashed traced run never leaves tracing enabled.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(metrics)
    try:
        yield TelemetrySession(tracer, metrics)
    finally:
        set_tracer(prev_tracer if isinstance(prev_tracer, Tracer) else None)
        set_metrics(prev_metrics if isinstance(prev_metrics, MetricsRegistry) else None)
