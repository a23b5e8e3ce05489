"""Regression attribution between two xray-enabled run ledgers.

``repro diff`` says *that* a run regressed; this module says *where*:
it merges both runs' per-step critical-path category totals and names
the segment whose on-path seconds grew the most, classified as comm,
wait, untraced, or compute.  Pure function of the two ledgers.
"""

from __future__ import annotations

from repro.obsv.analytics import xray_timeline

__all__ = ["attribute_regression"]


def _totals(records: list[dict]) -> tuple[dict[str, float], dict[str, float], set[str], float]:
    by_category: dict[str, float] = {}
    by_phase: dict[str, float] = {}
    comm_categories: set[str] = set()
    critpath = 0.0
    for r in records:
        critpath += r.get("critpath_s", 0.0)
        for cat, s in r.get("by_category", {}).items():
            by_category[cat] = by_category.get(cat, 0.0) + s
        for phase, s in r.get("by_phase", {}).items():
            by_phase[phase] = by_phase.get(phase, 0.0) + s
        comm_categories.update(r.get("comm_categories", []))
    return by_category, by_phase, comm_categories, critpath


def attribute_regression(baseline, candidate) -> dict | None:
    """Name the critical-path segment responsible for a slowdown.

    Returns ``None`` when either ledger lacks xray records (attribution
    needs both sides analysed).  Otherwise the verdict names the
    category with the largest positive critical-path delta, its kind
    (``comm`` / ``wait`` / ``untraced`` / ``compute``), the share of
    the total slowdown it explains, and the phase (span name) that
    moved most — enough to point an engineer at one subsystem.
    """
    base_records = xray_timeline(baseline)
    cand_records = xray_timeline(candidate)
    if not base_records or not cand_records:
        return None
    base_cat, base_phase, base_comm, base_total = _totals(base_records)
    cand_cat, cand_phase, cand_comm, cand_total = _totals(cand_records)
    deltas = {
        cat: cand_cat.get(cat, 0.0) - base_cat.get(cat, 0.0)
        for cat in sorted(set(base_cat) | set(cand_cat))
    }
    if not deltas:
        return None
    worst = max(deltas.values())
    segment = min(cat for cat, d in deltas.items() if d == worst)
    comm_cats = base_comm | cand_comm
    if segment in comm_cats:
        kind = "comm"
    elif segment in ("wait", "untraced"):
        kind = segment
    else:
        kind = "compute"
    phase_deltas = {
        p: cand_phase.get(p, 0.0) - base_phase.get(p, 0.0)
        for p in sorted(set(base_phase) | set(cand_phase))
    }
    phase = None
    if phase_deltas:
        worst_phase = max(phase_deltas.values())
        phase = min(p for p, d in phase_deltas.items() if d == worst_phase)
    total_delta = cand_total - base_total
    share = deltas[segment] / total_delta if total_delta > 0 else None
    return {
        "segment": segment,
        "kind": kind,
        "delta_s": deltas[segment],
        "total_delta_s": total_delta,
        "share": share,
        "phase": phase,
        "by_category_delta": deltas,
    }
