"""One document model for the views of a run ledger, and its two writers.

A view is data: a :class:`Report` is a title and :class:`Section` s, each
a heading and blocks (:class:`Table`, :class:`Chart`, :class:`Bullets`,
:class:`Note`, inline :class:`Svg`).  :func:`run_report` and
:func:`repro.xray.xray_report` each build one view from a
:class:`RunLedger`; :meth:`Report.markdown` and :meth:`Report.html` are
the only renderers, so both formats carry the same sections.  The HTML
is self-contained (inline CSS and SVG, no scripts, no external assets),
and both outputs are byte-deterministic given the ledger.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import NamedTuple

from repro.obsv.analytics import (
    autotune_timeline,
    bound_series,
    guard_timeline,
    loss_series,
    series,
    span_totals,
    summarize,
    xray_timeline,
)
from repro.obsv.ledger import RunLedger
from repro.util.tables import format_table

__all__ = [
    "Bullets", "Chart", "Note", "Report", "Section", "Svg", "Table", "records_table", "run_report",
]


# -- the document ----------------------------------------------------------------


class Table(NamedTuple):
    headers: list[str]
    rows: list[list]


class Chart(NamedTuple):
    """A per-step line chart; markdown shows its caption with min and max."""

    caption: str
    values: list[float]
    color: str = "#2563eb"


class Bullets(NamedTuple):
    items: list[str]


class Note(NamedTuple):
    text: str


class Svg(NamedTuple):
    """Ready-made inline SVG markup; markdown shows only its caption."""

    caption: str
    markup: str


class Section(NamedTuple):
    heading: str
    blocks: list


class Report(NamedTuple):
    title: str
    sections: list[Section]

    def markdown(self) -> str:
        parts = [f"# {self.title}"]
        for section in self.sections:
            parts.append(f"## {section.heading}")
            parts.extend(_markdown(block) for block in section.blocks)
        return "\n\n".join(parts) + "\n"

    def html(self) -> str:
        title = html.escape(self.title)
        body = "".join(
            f"<h2>{html.escape(section.heading)}</h2>" + "".join(map(_html, section.blocks))
            for section in self.sections
        )
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{title}</title><style>{_CSS}</style></head><body>"
            f"<h1>{title}</h1>{body}</body></html>\n"
        )

    def write(
        self, *, html_path: str | Path | None = None, md_path: str | Path | None = None
    ) -> list[Path]:
        """Write the HTML and/or markdown rendering; returns paths written."""
        written = []
        for path, render in ((html_path, self.html), (md_path, self.markdown)):
            if path is not None:
                path = Path(path)
                path.write_text(render())
                written.append(path)
        return written


def records_table(records: list[dict], columns: dict[str, str]) -> Table:
    """One row per record, one column per ``{header: record key}``."""
    return Table(list(columns), [[r.get(key) for key in columns.values()] for r in records])


# -- the two writers ---------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return "-" if value is None else str(value)


def _markdown(block) -> str:
    match block:
        case Table(headers, rows):
            text = format_table(headers, [[_fmt(c) for c in row] for row in rows])
            return "```\n" + "\n".join(line.rstrip() for line in text.splitlines()) + "\n```"
        case Chart(caption, values):
            return f"- {caption}: min {min(values):.5g}, max {max(values):.5g}, {len(values)} steps"
        case Bullets(items):
            return "\n".join(f"- {item}" for item in items)
        case Note(text):
            return f"({text})"
        case Svg(caption):
            return caption
    raise TypeError(f"not a report block: {block!r}")


_W, _H, _PAD = 520, 140, 28


def _html(block) -> str:
    match block:
        case Table(headers, rows):
            head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
            body = "".join(
                "<tr>" + "".join(f"<td>{html.escape(_fmt(c))}</td>" for c in row) + "</tr>"
                for row in rows
            )
            return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
        case Chart(caption, values, color):
            vmin, vmax = min(values), max(values)
            dx = (_W - 2 * _PAD) / max(len(values) - 1, 1)
            dy = (_H - 2 * _PAD) / ((vmax - vmin) or 1.0)
            points = " ".join(
                f"{_PAD + i * dx:.1f},{_H - _PAD - (v - vmin) * dy:.1f}"
                for i, v in enumerate(values)
            )
            return (
                f"<figure><figcaption>{html.escape(caption)}</figcaption>"
                f'<svg viewBox="0 0 {_W} {_H}" width="{_W}" height="{_H}" role="img">'
                f'<rect width="{_W}" height="{_H}" fill="#f8fafc"/>'
                f'<text x="{_PAD}" y="14" class="lim">max {vmax:.5g}</text>'
                f'<text x="{_PAD}" y="{_H - 8}" class="lim">min {vmin:.5g}</text>'
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
                "</svg></figure>"
            )
        case Bullets(items):
            return "<ul>" + "".join(f"<li>{html.escape(i)}</li>" for i in items) + "</ul>"
        case Note(text):
            return f"<p>{html.escape(text)}</p>"
        case Svg(caption, markup):
            return f"<figure><figcaption>{html.escape(caption)}</figcaption>{markup}</figure>"
    raise TypeError(f"not a report block: {block!r}")


_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem;
       color: #0f172a; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; } th { background: #f1f5f9; }
th, td { border: 1px solid #cbd5e1; padding: .25rem .6rem; text-align: left;
         font-variant-numeric: tabular-nums; }
figure { display: inline-block; margin: .5rem 1rem .5rem 0; }
figcaption { font-weight: 600; margin-bottom: .25rem; }
svg text { font: 10px system-ui, sans-serif; fill: #334155; } svg .lim { fill: #64748b; }
.legend span { display: inline-block; margin-right: 1rem; }
.legend i { display: inline-block; width: .8em; height: .8em; margin-right: .3em;
            border-radius: 2px; }
"""


# -- the run view ------------------------------------------------------------------


def run_report(ledger: RunLedger) -> Report:
    """The run dashboard: summary, trajectories, manifest, error-bound
    schedule, guard and autotune timelines, critical path, span digests."""
    bounds = bound_series(ledger)
    charts = [
        Chart("training loss", loss_series(ledger)),
        Chart("compression ratio (dense/wire)", series(ledger, "cr"), "#059669"),
        Chart("wire MB per step", [w / 1e6 for w in series(ledger, "wire_bytes")], "#d97706"),
        Chart("quantisation bound eb_q", [b["eb_q"] for b in bounds], "#7c3aed"),
        Chart(
            "cumulative hidden-comm fraction",
            [r["overlap"]["hidden_fraction"] for r in ledger.steps if "overlap" in r],
            "#0891b2",
        ),
    ]
    manifest = [
        f"{key}: {json.dumps(value, sort_keys=True) if isinstance(value, dict) else _fmt(value)}"
        for key, value in ledger.manifest.items()
        if key != "created_unix"
    ]
    summary = Table(["metric", "value"], [list(kv) for kv in summarize(ledger).items()])
    sections = [
        Section("Summary", [summary]),
        Section("Trajectories", [c for c in charts if c.values] or [Note("no per-step series")]),
        Section("Manifest", [Bullets(manifest)]),
    ]
    if bounds:
        # The steps at which (eb_f, eb_q) changed: the schedule's staircase.
        pairs = [(b["eb_f"], b["eb_q"]) for b in bounds]
        stages = [b for i, b in enumerate(bounds) if i == 0 or pairs[i] != pairs[i - 1]]
        sections.append(Section("Error-bound schedule", [Bullets(
            [f"step {b['step']}: eb_f={_fmt(b['eb_f'])} eb_q={_fmt(b['eb_q'])}" for b in stages]
        )]))
    events = guard_timeline(ledger)
    columns = {"step": "step", "verdict": "verdict", "action": "action", "breaker": "breaker_state"}
    guard = records_table(events, columns)
    sections.append(Section("Guard timeline", [guard if events else Note("no remediation fired")]))
    decisions = autotune_timeline(ledger)
    if decisions:
        columns = {key: key for key in ("step", "kind", "from", "to", "reason")}
        sections.append(Section("Autotune decisions", [records_table(decisions, columns)]))
    xrays = xray_timeline(ledger)
    if xrays:
        columns = {"step": "step", "critpath s": "critpath_s", "exposed comm s": "exposed_comm_s",
                   "wait s": "wait_s", "straggler": "straggler_rank"}
        critpath = [r.get("critpath_s", 0.0) for r in xrays]
        sections.append(Section("Critical path (xray)", [
            Chart("critical-path seconds per step", critpath, "#b91c1c"),
            records_table(xrays, columns),
            Note("full flame view: repro xray <ledger>"),
        ]))
    for track, cats in span_totals(ledger).items():
        rows = [[cat, d["count"], d["total"], d["p50"], d["p95"], d["p99"]]
                for cat, d in sorted(cats.items(), key=lambda kv: -kv[1]["total"])]
        table = Table(["category", "spans", "total s", "p50 s", "p95 s", "p99 s"], rows)
        sections.append(Section(f"Span digests — {track} track", [table]))
    return Report(f"Run report — {ledger.manifest.get('kind', 'run')}", sections)
