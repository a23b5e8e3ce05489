"""The xray view: a ledger's critical-path attribution as one report.

:func:`xray_report` builds it from :func:`repro.obsv.analytics.xray_timeline`
and :class:`repro.obsv.report.Report` renders it.  The flame view draws
each step as one bar whose category slices are proportional to their
on-path seconds — a critical-path flame graph flattened to one level.
"""

from __future__ import annotations

import html

from repro.obsv.analytics import xray_timeline
from repro.obsv.report import Bullets, Note, Report, Section, Svg, Table, records_table

__all__ = ["xray_report"]

#: Deterministic category palette: hash-free, assignment by sorted order.
_COLORS = ("#2563eb", "#059669", "#d97706", "#7c3aed", "#0891b2",
           "#b91c1c", "#4d7c0f", "#9d174d", "#475569", "#a16207")


def _flame(records: list[dict]) -> Svg:
    """Legend plus per-step stacked critical-path bars, one row per step."""
    categories = sorted({cat for r in records for cat in r.get("by_category", {})})
    colors = {cat: _COLORS[i % len(_COLORS)] for i, cat in enumerate(categories)}
    width, row_h, pad, label_w = 680, 18, 4, 60
    vmax = max((r.get("critpath_s", 0.0) for r in records), default=0.0) or 1.0
    height = len(records) * (row_h + pad) + pad
    parts = ['<p class="legend">'] + [
        f'<span><i style="background:{color}"></i>{html.escape(cat)}</span>'
        for cat, color in colors.items()
    ]
    parts.append(
        f'</p><svg viewBox="0 0 {width} {height}" width="{width}" height="{height}" role="img">'
    )
    for row, r in enumerate(records):
        y = pad + row * (row_h + pad)
        parts.append(f'<text x="0" y="{y + row_h - 5}">step {r.get("step")}</text>')
        x = float(label_w)
        for cat, seconds in sorted(r.get("by_category", {}).items()):
            w = seconds * (width - label_w) / vmax
            if w > 0.0:
                parts.append(
                    f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h}" '
                    f'fill="{colors[cat]}"><title>{html.escape(f"{cat}: {seconds:.6g} s")}'
                    "</title></rect>"
                )
                x += w
    parts.append("</svg>")
    return Svg("on-path seconds per step, by category: " + ", ".join(categories), "".join(parts))


def _totals(records: list[dict], final) -> list[list]:
    if isinstance(final, dict) and final:
        keys = ("steps", "critpath_s", "exposed_comm_s", "hidden_comm_s", "wait_s",
                "untraced_s", "straggler_skew_s", "top_straggler_rank")
        return [[k, final[k]] for k in keys if k in final]
    sums = ("critpath_s", "exposed_comm_s", "wait_s", "untraced_s")
    return [["steps", len(records)]] + [[k, sum(r.get(k, 0.0) for r in records)] for k in sums]


def xray_report(ledger) -> Report:
    """The critical-path view: flame, per-step attribution, totals, and
    the ten longest on-path segments."""
    records = xray_timeline(ledger)
    title = f"Xray report — {ledger.manifest.get('kind', 'run')}"
    if not records:
        note = Note("no xray records in this ledger — record with xray enabled")
        return Report(title, [Section("Critical-path flame view", [note])])
    columns = {"step": "step", "critpath s": "critpath_s", "exposed comm s": "exposed_comm_s",
               "hidden comm s": "hidden_comm_s", "wait s": "wait_s", "straggler": "straggler_rank"}
    totals = Table(["metric", "value"], _totals(records, ledger.final.get("xray")))
    sections = [
        Section("Critical-path flame view", [_flame(records)]),
        Section("Critical path per step", [records_table(records, columns)]),
        Section("Totals", [totals]),
    ]
    longest = sorted(
        (-seg.get("seconds", 0.0), r.get("step"), seg.get("name"), seg.get("category"),
         seg.get("rank"), seg.get("seconds"))
        for r in records
        for seg in r.get("top_segments", [])
    )[:10]
    if longest:
        sections.append(Section("Longest on-path segments", [Bullets([
            f"step {step}: {name} ({category}) on rank {rank} — {seconds:.6g} s"
            for _, step, name, category, rank, seconds in longest
        ])]))
    return Report(title, sections)
