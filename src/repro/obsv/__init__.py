"""Run ledger, report/diff analytics, and the perf-regression gate.

The paper's claims are comparative — COMPSO vs. dense and vs. prior
compressors on iteration breakdowns, compression ratio vs. accuracy,
and end-to-end speedup — so the reproduction needs *like-for-like run
accounting*: one canonical artifact per run that every other subsystem
(telemetry, runtime overlap, guard) folds into, plus tooling to render
it and to compare two of them under tolerance bands.

* :mod:`repro.obsv.ledger` — the versioned run ledger trainers write
  via ``obsv=LedgerConfig(...)``;
* :mod:`repro.obsv.analytics` — trajectories and summary scalars;
* :mod:`repro.obsv.report` — the report document and its markdown and
  self-contained HTML writers;
* :mod:`repro.obsv.diff` — structural run comparison that exits CI
  non-zero on perf/accuracy regression against committed baselines.
"""

from __future__ import annotations

from repro.obsv.analytics import (
    autotune_timeline,
    bound_series,
    guard_timeline,
    loss_series,
    overlap_summary,
    span_totals,
    summarize,
    xray_timeline,
)
from repro.obsv.diff import (
    DEFAULT_SPECS,
    DiffRow,
    MetricSpec,
    RunDiff,
    diff_ledgers,
    parse_tolerance,
)
from repro.obsv.ledger import (
    SCHEMA_VERSION,
    LedgerConfig,
    LedgerError,
    LedgerFsck,
    LedgerWriter,
    RunLedger,
    describe_compressor,
    fault_plan_digest,
    final_from_steps,
    fsck_ledger,
    load_ledger,
)
from repro.obsv.report import Report, run_report

__all__ = [
    "DEFAULT_SPECS",
    "DiffRow",
    "LedgerConfig",
    "LedgerError",
    "LedgerFsck",
    "LedgerWriter",
    "MetricSpec",
    "RunDiff",
    "Report",
    "RunLedger",
    "SCHEMA_VERSION",
    "autotune_timeline",
    "bound_series",
    "describe_compressor",
    "diff_ledgers",
    "fault_plan_digest",
    "final_from_steps",
    "fsck_ledger",
    "guard_timeline",
    "load_ledger",
    "loss_series",
    "overlap_summary",
    "parse_tolerance",
    "run_report",
    "span_totals",
    "summarize",
    "xray_timeline",
]
