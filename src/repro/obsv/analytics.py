"""Analytics over a parsed :class:`~repro.obsv.ledger.RunLedger`.

Pure functions from a ledger to trajectories and summary scalars; the
report renderer and the run comparator are both built on top of these,
so a metric means exactly the same thing in a dashboard and in a CI
gate.
"""

from __future__ import annotations

from repro.obsv.ledger import RunLedger

__all__ = [
    "autotune_timeline",
    "bound_series",
    "guard_timeline",
    "loss_series",
    "overlap_summary",
    "series",
    "span_totals",
    "summarize",
    "xray_timeline",
]


def series(ledger: RunLedger, key: str) -> list:
    """Per-step values of one scalar field (missing steps skipped)."""
    return [r[key] for r in ledger.steps if key in r]


def loss_series(ledger: RunLedger) -> list[float]:
    return series(ledger, "loss")


def bound_series(ledger: RunLedger) -> list[dict]:
    """Error-bound trajectory ``[{"step": t, "eb_f": ..., "eb_q": ...}]``.

    Under an adaptive schedule this is the loose→tight staircase the
    paper's iteration-wise adaptation produces.
    """
    return [
        {"step": r["step"], **r["bounds"]} for r in ledger.steps if "bounds" in r
    ]


def guard_timeline(ledger: RunLedger) -> list[dict]:
    """Flattened guard remediation events, each tagged with its step."""
    out: list[dict] = []
    for r in ledger.steps:
        for event in r.get("guard_events", []):
            out.append({"step": r["step"], **event})
    return out


def autotune_timeline(ledger: RunLedger) -> list[dict]:
    """Flattened autotune decision events (retunes and breaker vetoes).

    Prefers the per-step ``autotune_events`` records; falls back to the
    final record's decision list for ledgers trimmed of step detail.
    """
    out: list[dict] = []
    for r in ledger.steps:
        out.extend(dict(event) for event in r.get("autotune_events", []))
    if out:
        return out
    autotune = ledger.final.get("autotune")
    if isinstance(autotune, dict):
        out.extend(dict(event) for event in autotune.get("decisions", []))
    return out


def xray_timeline(ledger: RunLedger) -> list[dict]:
    """Per-step critical-path attribution records (empty if no xray)."""
    return [r["xray"] for r in ledger.steps if isinstance(r.get("xray"), dict)]


def overlap_summary(ledger: RunLedger) -> dict | None:
    """End-of-run hidden/exposed comm accounting (None if no runtime)."""
    overlap = ledger.final.get("overlap")
    if overlap is None:
        for r in reversed(ledger.steps):
            if "overlap" in r:
                return r["overlap"]
    return overlap


def span_totals(ledger: RunLedger) -> dict[str, dict[str, dict]]:
    """Per-track per-category span digests aggregated across all steps.

    Counts and totals sum exactly; the percentile columns report the
    worst (largest) per-step digest value, a conservative tail estimate
    that needs no raw samples.
    """
    out: dict[str, dict[str, dict]] = {}
    for r in ledger.steps:
        for track, cats in r.get("spans", {}).items():
            per_track = out.setdefault(track, {})
            for cat, d in cats.items():
                agg = per_track.setdefault(
                    cat, {"count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
                )
                agg["count"] += d["count"]
                agg["total"] += d["total"]
                for q in ("p50", "p95", "p99"):
                    agg[q] = max(agg[q], d[q])
    return out


def summarize(ledger: RunLedger) -> dict:
    """Flat scalar summary — the metric set reports and diffs consume.

    Every value is deterministic given ``(seed, config)``; wall-clock
    quantities are deliberately excluded so two machines can compare
    ledgers.
    """
    final = ledger.final
    losses = loss_series(ledger)
    tail = losses[-max(len(losses) // 4, 1) :] if losses else []
    out: dict = {
        "steps": final.get("steps", len(ledger.steps)),
        "world_size": final.get("world_size"),
        "final_loss": final.get("final_loss"),
        "tail_loss": sum(tail) / len(tail) if tail else None,
        "mean_cr": final.get("mean_cr"),
        "total_wire_mb": final.get("total_wire_bytes", 0.0) / 1e6,
        "total_dense_mb": final.get("total_dense_bytes", 0.0) / 1e6,
        "sim_time": final.get("sim_time"),
    }
    if final.get("final_metric") is not None:
        out["final_metric"] = final["final_metric"]
    overlap = overlap_summary(ledger)
    if overlap is not None:
        out["hidden_comm_seconds"] = overlap["hidden"]
        out["exposed_comm_seconds"] = overlap["exposed"]
        out["hidden_fraction"] = overlap["hidden_fraction"]
    guard = final.get("guard")
    if guard is not None:
        out["guard_remediations"] = len(guard.get("remediations", []))
        out["breaker_trips"] = guard.get("breaker", {}).get("trips", 0)
    autotune = final.get("autotune")
    if isinstance(autotune, dict):
        out["autotune_retunes"] = autotune.get("retunes", 0)
        out["autotune_vetoes"] = autotune.get("vetoes", 0)
    xray = final.get("xray")
    if not isinstance(xray, dict):
        # Fall back to step records (crash-truncated ledgers fsck'd
        # without a written final xray summary).
        records = xray_timeline(ledger)
        if records:
            xray = {
                "critpath_s": sum(r.get("critpath_s", 0.0) for r in records),
                "exposed_comm_s": sum(r.get("exposed_comm_s", 0.0) for r in records),
                "straggler_skew_s": sum(r.get("straggler_skew_s", 0.0) for r in records),
            }
    if isinstance(xray, dict):
        # xray_* keys exist exactly when the run was xray-enabled, so a
        # diff gates them only when both sides analysed their traces.
        out["xray_critpath_s"] = xray.get("critpath_s")
        out["xray_exposed_comm_s"] = xray.get("exposed_comm_s")
        out["xray_straggler_skew"] = xray.get("straggler_skew_s")
    fleet = ledger.manifest.get("fleet")
    if isinstance(fleet, dict) and "restarts" in fleet:
        # Fleet lifecycle fields (restarts/SLO/goodput) only exist on
        # ledgers written by a FleetScheduler with the failure machinery;
        # older fleet ledgers summarize without them.
        out["fleet_restarts"] = fleet.get("restarts", 0)
        out["fleet_preemptions"] = fleet.get("preemptions", 0)
        out["fleet_time_lost_s"] = fleet.get("time_lost_s", 0.0)
        out["fleet_goodput"] = fleet.get("goodput")
        if fleet.get("slo_met") is not None:
            out["fleet_slo_met"] = 1.0 if fleet["slo_met"] else 0.0
    store = ledger.manifest.get("store")
    if isinstance(store, dict):
        # Durable-state fields exist only when a CheckpointStore had to
        # work around damage (fallbacks/quarantines/repairs); a healthy
        # store contributes nothing to the ledger.
        out["store_fallbacks"] = store.get("fallbacks", 0)
        out["store_quarantined"] = store.get("quarantined", 0)
        out["store_repairs"] = store.get("repairs", 0)
    if ledger.final.get("repaired"):
        out["ledger_repaired"] = 1.0
    return out
