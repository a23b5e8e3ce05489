"""Per-step causal graph assembly over the tracer's span stream.

The xray engine never re-instruments anything: it consumes the spans
(and causal edges) the cluster, runtime, and trainers already emit, and
assembles them into one :class:`StepGraph` per training step.  The core
structural invariant it relies on — and that the critical-path tests
pin — is that on the convergence track every rank's **stream-0 sim
spans exactly tile that rank's clock timeline**: compute advances,
barrier waits, collective legs, fault delays, and exposed comm tails
each mirror one clock mutation, with no gaps and no overlaps.  The
timing track relaxes this (its barrier emits no span), which surfaces
as explicit ``untraced`` path segments rather than silent error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.tracer import SIM_TRACK, Edge, Span, span_sort_key

__all__ = ["COMM_OPS", "StepGraph", "build_step_graph", "is_comm"]

#: Time comparison tolerance (seconds) of the graph build and the path
#: walk.  Well below the 1e-9 identity the tests assert, well above
#: float64 noise at sim scales.
TOL = 1e-12

#: Span names that are collective operations on the wire.
COMM_OPS = frozenset(
    {"allreduce", "allgather", "broadcast", "reduce_scatter", "gather", "alltoall"}
)


def is_comm(span: Span) -> bool:
    """Whether a span represents time spent on (or blocked by) the wire.

    Collective op spans are named after their operation; runtime
    transfer/exposed-tail spans inherit the op name and always carry a
    ``nbytes_wire`` attribute, so either signal classifies.
    """
    return span.name in COMM_OPS or "nbytes_wire" in span.attrs


@dataclass
class StepGraph:
    """One step's causal view: per-rank lanes plus cross-span edges.

    ``lanes`` maps rank -> stream-0 sim spans intersecting the step
    window, in the documented stable order; ``comm_lanes`` holds the
    comm-stream (stream >= 1) transfer spans the runtime scheduled.
    """

    t0: float
    t1: float
    lanes: dict = field(default_factory=dict)
    comm_lanes: dict = field(default_factory=dict)
    edges: tuple = ()

    @property
    def elapsed(self) -> float:
        return self.t1 - self.t0

    def ranks(self) -> list:
        """Ranks present in either lane set, in stable (sortable) order."""
        keys = set(self.lanes) | set(self.comm_lanes)
        return sorted(keys, key=lambda r: (1, 0, str(r)) if isinstance(r, str) else (0, r, ""))


def build_step_graph(
    spans: list[Span],
    edges: tuple[Edge, ...] = (),
    *,
    t0: float,
    t1: float,
) -> StepGraph:
    """Assemble the step DAG for the window ``[t0, t1]``.

    Only sim-track spans that genuinely intersect the window are kept
    (zero-duration marker spans — ``rank_failure``, ``corruption`` —
    are dropped; they are events, not time).  Lanes come out sorted by
    :func:`~repro.telemetry.tracer.span_sort_key`, so the graph is a
    pure function of the recorded span set.
    """
    graph = StepGraph(t0=t0, t1=t1, edges=tuple(edges))
    for span in sorted(spans, key=span_sort_key):
        if span.track != SIM_TRACK or span.duration <= TOL:
            continue
        if span.end <= t0 + TOL or span.start >= t1 - TOL:
            continue
        target = graph.lanes if span.stream == 0 else graph.comm_lanes
        target.setdefault(span.rank, []).append(span)
    return graph
