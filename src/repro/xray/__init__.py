"""repro.xray — causal trace graph, critical path, and attribution.

The observability ledger (:mod:`repro.obsv`) records *what happened*;
xray answers *why it took that long*.  It assembles the tracer's span
stream into one causal :class:`StepGraph` per training step, extracts
the critical path (whose segment seconds sum exactly to the step's
simulated elapsed time), and folds the path into deterministic
attribution records — seconds on-path by category/phase/rank, exposed
vs hidden communication, and the straggler rank.  ``repro xray``
renders those records as a flame view; ``repro diff --attribute``
compares two runs' records and names the segment that regressed.

Everything here is a pure function of the recorded spans: enabling
xray never mutates clocks, consumes randomness, or changes a run's
numerics, and ``xray=False`` stays bit-identical to a build without
this package.
"""

from repro.xray.analyzer import XrayAnalyzer
from repro.xray.attribute import attribute_regression
from repro.xray.critical import PathSegment, critical_path
from repro.xray.graph import COMM_OPS, StepGraph, build_step_graph, is_comm
from repro.xray.render import xray_report

__all__ = [
    "COMM_OPS",
    "PathSegment",
    "StepGraph",
    "XrayAnalyzer",
    "attribute_regression",
    "build_step_graph",
    "critical_path",
    "is_comm",
    "xray_report",
]
