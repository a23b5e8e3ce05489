"""Comparing two sets of runs, and one set with itself.

A *set* is a JSON file ``{"schema": 1, "host": {...}, "runs": [...]}``
as ``python -m perfbench run --out`` writes it.  Rules follow the
choosing-metrics guide, sections 6 and 8: every workload and metric is
its own row, every ratio is given with its base, and a metric whose
run-to-run spread is wider than its bound is *unresolved*, not
unchanged, unless every run of one side beats every run of the other.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench import stats
from perfbench.host import comparable

__all__ = ["HostMismatch", "values_by_cell", "verdict", "compare_sets", "check_noise"]


class HostMismatch(ValueError):
    """The two sets were not measured on the same host and pinning."""


def values_by_cell(runs: list[dict], *, trace: bool = False) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    cells: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        if bool(run["trace"]) != trace:
            continue
        for name, metric in run["metrics"].items():
            cells[(run["workload"], name)].append(metric["value"])
    return cells


def _worsening(parent: float, change: float, better: str) -> float:
    """Signed share of the parent by which the change is worse."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else 0.0


def verdict(parent: list[float], change: list[float], *, better: str, bound: float) -> str:
    """``improved`` / ``unchanged`` / ``worse`` / ``unresolved`` for one cell."""
    sign = 1.0 if better == "lower" else -1.0
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    worse_by = _worsening(stats.median(parent), stats.median(change), better)
    noise = stats.spread(parent)
    if all_better and -worse_by > noise:
        return "improved"
    if max(noise, stats.spread(change)) > bound and not all_worse:
        return "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def compare_sets(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric."""
    if comparable(parent["host"]) != comparable(change["host"]):
        raise HostMismatch(
            "the two sets differ in host or pinning; measure both on one machine:\n"
            f"  parent: {comparable(parent['host'])}\n  change: {comparable(change['host'])}"
        )
    p_cells = values_by_cell(parent["runs"])
    c_cells = values_by_cell(change["runs"])
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            cell = (workload, metric["name"])
            if cell not in p_cells or cell not in c_cells:
                continue
            p, c = p_cells[cell], c_cells[cell]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "parent": stats.quartiles(p),
                    "change": stats.quartiles(c),
                    "runs": (len(p), len(c)),
                    "ratio": stats.median(c) / stats.median(p),
                    "bound": metric["bound"],
                    "verdict": verdict(p, c, better=metric["better"], bound=metric["bound"]),
                }
            )
    return rows


def check_noise(sets: list[dict], spec: dict) -> tuple[list[dict], list[str]]:
    """The acceptance rule for the benchmark itself, on sets of runs of
    one commit: every spread but ``setup_s``'s within the metric's bound,
    and no later set's median worse than the first's by more than it."""
    rows, problems = [], []
    cells = [values_by_cell(s["runs"]) for s in sets]
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            cell = (workload, metric["name"])
            values = [c[cell] for c in cells if cell in c]
            if not values:
                continue
            medians = [stats.median(v) for v in values]
            spreads = [stats.spread(v) for v in values]
            drift = max(
                (_worsening(medians[0], m, metric["better"]) for m in medians[1:]), default=0.0
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "medians": medians,
                    "spreads": spreads,
                    "drift": drift,
                    "bound": metric["bound"],
                }
            )
            where = f"{workload}/{metric['name']}"
            if metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
                problems.append(f"{where}: spread {max(spreads):.4f} > bound {metric['bound']}")
            if drift > metric["bound"]:
                problems.append(f"{where}: later median worse by {drift:.4f} > {metric['bound']}")
    return rows, problems
