"""Trace and metric exporters.

Three output formats:

* **Chrome trace** — ``trace_event`` JSON loadable in ``chrome://tracing``
  or Perfetto.  Each track (sim / host / device) becomes a process, each
  simulated rank a thread, so a trained eye reads the run like an
  ``nsys`` timeline: per-rank collective bars on the sim process, Python
  phase bars on the host process, modelled kernels on the device process.
* **Metrics JSONL** — one JSON object per line: per-step snapshots first
  (``{"step": ..., "metrics": [...]}``), then one ``{"final": ...}``
  record with the end-of-run state of every instrument.
* **Summary table** — plain-text per-category totals via
  :mod:`repro.util.tables`, the same renderer the benchmarks use.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import SIM_TRACK, Tracer
from repro.util.tables import format_table

__all__ = [
    "category_fractions",
    "chrome_trace",
    "metrics_jsonl",
    "summary_table",
    "write_chrome_trace",
    "write_metrics_jsonl",
]

#: Stable process ids per track; unknown tracks get ids after these.
_TRACK_PIDS = {"sim": 0, "host": 1, "device": 2}


def _pid_map(tracer: Tracer) -> dict[str, int]:
    pids = dict(_TRACK_PIDS)
    next_pid = max(pids.values()) + 1
    for track in tracer.tracks():
        if track not in pids:
            pids[track] = next_pid
            next_pid += 1
    return pids


def chrome_trace(tracer: Tracer) -> dict:
    """Render all spans as a Chrome ``trace_event`` document.

    Events are complete ("ph": "X") events in microseconds, sorted so
    timestamps are monotonically non-decreasing within each (pid, tid)
    row, parents before their children.

    Each (rank, stream) pair renders as its own thread lane with
    ``tid = rank * n_streams + stream`` (``n_streams`` per track), so the
    comm streams of :mod:`repro.runtime` appear directly beneath their
    rank's compute lane.  Tracks without comm-stream spans keep
    ``tid == rank``, preserving the pre-stream layout.
    """
    pids = _pid_map(tracer)
    n_streams = {
        track: max(tracer.streams(track), default=0) + 1 for track in tracer.tracks()
    }

    def tid_of(track: str, rank: int, stream: int) -> int:
        return rank * n_streams[track] + stream

    events: list[dict] = []
    for track in tracer.tracks():
        pid = pids[track]
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": track},
            }
        )
        lanes = sorted({(s.rank, s.stream) for s in tracer.spans(track=track)})
        for rank, stream in lanes:
            base = f"rank {rank}" if track == SIM_TRACK else f"{track} {rank}"
            label = base if stream == 0 else f"{base} · comm{stream}"
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid_of(track, rank, stream),
                    "args": {"name": label},
                }
            )
    spans = sorted(
        tracer.spans(),
        key=lambda s: (pids[s.track], tid_of(s.track, s.rank, s.stream), s.start, -s.duration, s.depth),
    )
    for s in spans:
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": s.category,
                "pid": pids[s.track],
                "tid": tid_of(s.track, s.rank, s.stream),
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "args": s.attrs,
            }
        )
    # Causal edges become flow events ("s" at the source span's end, "f"
    # bound to the destination span) so Perfetto draws cross-stream wait
    # and collective arrows.  "parent" edges are skipped — lexical nesting
    # is already visible as slice containment.  With no edges recorded the
    # document is byte-identical to the pre-flow exporter.
    by_id = {s.id: s for s in spans}
    flow_id = 0
    for edge in tracer.edges():
        if edge.kind == "parent":
            continue
        src = by_id.get(edge.src)
        dst = by_id.get(edge.dst)
        if src is None or dst is None:
            continue
        events.append(
            {
                "ph": "s",
                "name": edge.kind,
                "cat": edge.kind,
                "id": flow_id,
                "pid": pids[src.track],
                "tid": tid_of(src.track, src.rank, src.stream),
                "ts": src.end * 1e6,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "name": edge.kind,
                "cat": edge.kind,
                "id": flow_id,
                "pid": pids[dst.track],
                "tid": tid_of(dst.track, dst.rank, dst.stream),
                "ts": dst.start * 1e6,
            }
        )
        flow_id += 1
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the Chrome trace JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), indent=1))
    return path


def metrics_jsonl(registry: MetricsRegistry) -> str:
    """Per-step snapshot lines followed by one final-state line."""
    lines = [json.dumps(record) for record in registry.steps]
    lines.append(json.dumps({"final": True, "metrics": registry.snapshot()}))
    return "\n".join(lines) + "\n"


def write_metrics_jsonl(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write the metrics JSONL dump; returns the path written."""
    path = Path(path)
    path.write_text(metrics_jsonl(registry))
    return path


def category_fractions(tracer: Tracer) -> dict[str, float]:
    """Share of total top-level span time per category on the sim track."""
    totals = tracer.category_totals()
    grand = sum(totals.values())
    if grand <= 0:
        return {k: 0.0 for k in totals}
    return {k: v / grand for k, v in totals.items()}


def summary_table(
    tracer: Tracer, *, track: str = SIM_TRACK, depth: int = 0, title: str | None = None
) -> str:
    """Per-category totals at one depth of ``track`` as a text table.

    Seconds are the mean across ranks (the ``SimCluster.breakdown()``
    convention); span counts are totals across all ranks.  Pass
    ``depth=1`` on the host track to see trainer phases instead of the
    enclosing per-step spans.
    """
    totals = tracer.category_totals(track=track, depth=depth)
    grand = sum(totals.values())
    counts: dict[str, int] = {}
    for s in tracer.spans(track=track):
        if s.depth == depth:
            counts[s.category] = counts.get(s.category, 0) + 1
    rows = [
        [cat, counts.get(cat, 0), seconds, 100.0 * seconds / grand if grand else 0.0]
        for cat, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
    rows.append(["total", sum(counts.values()), grand, 100.0 if grand else 0.0])
    return format_table(
        ["category", "spans", "seconds/rank", "share%"],
        rows,
        title=title or f"telemetry summary — {track} track",
        floatfmt=".6f",
    )
