"""Critical-path extraction over a :class:`~repro.xray.graph.StepGraph`.

The walk runs **backwards** from the step's end: at every point in time
it sits on exactly one rank and consumes the stream-0 span that ends
there, jumping ranks only through barrier-wait spans — a wait records
"this rank was idle until the slowest participant arrived", so the path
hops to the rank that was actually working at that instant (the
straggler).  Segment boundaries telescope, which gives the subsystem's
central identity *by construction*:

    sum of critical-path segment seconds == t1 - t0  (the step's
    simulated elapsed time), exactly, for blocking and overlapped runs.

Time the tracer cannot account for (timing-track barrier gaps, spans
from subsystems recorded outside the window) becomes explicit
``untraced`` segments instead of silently breaking the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xray.graph import TOL, StepGraph, is_comm

__all__ = ["PathSegment", "critical_path"]


@dataclass(frozen=True)
class PathSegment:
    """One contiguous stretch of the critical path on a single rank."""

    name: str
    category: str
    rank: object
    start: float
    end: float
    #: Whether the underlying span was wire time (see :func:`is_comm`).
    comm: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "rank": str(self.rank),
            "start_s": self.start,
            "seconds": self.seconds,
        }


def _is_barrier_wait(span) -> bool:
    return span.name == "wait" and span.category == "wait"


def _covering_index(lane: list, hint: int, t: float) -> int:
    """Largest index whose span starts strictly before ``t`` (or -1).

    ``hint`` is the previous pointer; the walk's time is non-increasing,
    so the scan only ever moves left — the whole walk is O(spans).
    """
    i = min(hint, len(lane) - 1)
    while i >= 0 and lane[i].start >= t - TOL:
        i -= 1
    return i


def critical_path(graph: StepGraph) -> list[PathSegment]:
    """Extract the step's critical path as a list of segments.

    Segments come out in reverse-chronological walk order but are
    returned sorted by start time; their seconds always sum to exactly
    ``graph.elapsed`` (telescoping boundaries plus explicit untraced
    filler).
    """
    t0, t1 = graph.t0, graph.t1
    if t1 - t0 <= TOL:
        return []
    lanes = {r: lane for r, lane in graph.lanes.items() if lane}
    if not lanes:
        return [PathSegment("untraced", "untraced", "*", t0, t1)]
    rank_order = sorted(
        lanes, key=lambda r: (1, 0, str(r)) if isinstance(r, str) else (0, r, "")
    )
    # Start on the rank whose lane reaches furthest — the rank that
    # defines the step's end time (ties break to the lowest rank).
    rank = rank_order[0]
    for r in rank_order[1:]:
        if lanes[r][-1].end > lanes[rank][-1].end + TOL:
            rank = r
    pointer = {r: len(lane) - 1 for r, lane in lanes.items()}
    segments: list[PathSegment] = []
    t = t1
    while t > t0 + TOL:
        lane = lanes[rank]
        i = _covering_index(lane, pointer[rank], t)
        pointer[rank] = i
        if i < 0 or lane[i].end < t - TOL:
            # Nothing on this rank accounts for the time ending at t:
            # an instrumentation gap (timing-track barriers emit no
            # span).  Fill down to the nearest accounted boundary.
            floor = lane[i].end if i >= 0 else t0
            start = max(floor, t0)
            segments.append(PathSegment("untraced", "untraced", rank, start, t))
            t = start
            continue
        span = lane[i]
        if _is_barrier_wait(span):
            # This rank idled until the slowest participant arrived;
            # the critical path continues on the rank that was working
            # right up to the barrier point.
            jumped = False
            for r in rank_order:
                if r == rank:
                    continue
                j = _covering_index(lanes[r], pointer[r], t)
                pointer[r] = j
                if j >= 0 and lanes[r][j].end >= t - TOL and not _is_barrier_wait(lanes[r][j]):
                    rank = r
                    jumped = True
                    break
            if jumped:
                continue
            # Every lane ends in a wait here (degenerate, e.g. a pure
            # fault-injected stall): charge the wait itself so the walk
            # always terminates.
        start = max(span.start, t0)
        segments.append(
            PathSegment(span.name, span.category, rank, start, t, comm=is_comm(span))
        )
        t = start
        pointer[rank] -= 1
    segments.reverse()
    return segments
