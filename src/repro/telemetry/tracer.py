"""Hierarchical span tracing over the simulator's three timelines.

A :class:`Span` is a named, categorised interval on one *track*:

* ``sim`` — the simulated cluster timeline.  One sub-track (``rank``) per
  simulated GPU; span start/end are :class:`~repro.distributed.clock.SimClock`
  values, so per-rank per-category span totals reconcile exactly with
  ``SimCluster.breakdown()``.
* ``host`` — real (wall-clock) time spent in the Python process: trainer
  phases, compressor stages.  This is an honest profile of the
  reproduction itself, kept on its own timeline so it never pollutes the
  modelled one.
* ``device`` — modelled GPU kernel time from :mod:`repro.gpusim`; spans
  are stacked sequentially by a per-track cursor.

Tracing is disabled by default: :func:`get_tracer` returns the singleton
:data:`NULL_TRACER` whose ``span`` hands back one reusable no-op context
manager, so instrumentation costs a function call and a truthiness check
when off.  Enable with :func:`set_tracer` or ``repro.telemetry.session``.

The collector is thread-safe (one lock around the span list, thread-local
nesting stacks), matching the "in-process collector" contract even though
the simulator itself is single-threaded today.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "DEVICE_TRACK",
    "Edge",
    "HOST_TRACK",
    "NULL_TRACER",
    "NullTracer",
    "SIM_TRACK",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span_sort_key",
]

SIM_TRACK = "sim"
HOST_TRACK = "host"
DEVICE_TRACK = "device"


@dataclass
class Span:
    """One named interval on a (track, rank) timeline."""

    name: str
    category: str
    #: Start time in seconds on the span's track timeline.
    start: float
    duration: float
    track: str = SIM_TRACK
    #: Sub-track: simulated rank on ``sim``, thread/stream index elsewhere.
    rank: int = 0
    #: Execution stream within the rank: 0 is the compute stream (the
    #: rank's :class:`SimClock` timeline); 1.. are comm streams used by
    #: :mod:`repro.runtime`'s nonblocking collectives.  The Chrome-trace
    #: exporter renders each (rank, stream) pair as its own lane.
    stream: int = 0
    #: Nesting depth (0 = top level) for summary rendering.
    depth: int = 0
    attrs: dict = field(default_factory=dict)
    #: Stable per-tracer id, assigned on append (monotone in emission
    #: order).  ``-1`` means "not yet collected"; causal :class:`Edge`
    #: records reference spans by this id.
    id: int = -1

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class Edge:
    """One causal edge between two spans, by span id.

    ``src`` causally precedes (or encloses) ``dst``.  Kinds used by the
    simulator:

    * ``"parent"`` — lexical nesting: ``src`` is the enclosing span.
    * ``"collective"`` — couples the per-rank legs of one collective
      operation; the edge chain orders ranks ascending.
    * ``"wait"`` — couples a comm-stream transfer span to the stream-0
      span that blocked on it (the exposed tail / barrier wait).
    """

    src: int
    dst: int
    kind: str


def span_sort_key(span: Span):
    """The documented stable ordering for span streams.

    Sorts by ``(track, rank, stream, start, -duration, depth, id)`` with
    ranks keyed so integer ranks order numerically and string ranks (the
    timing track's ``"*"``) sort after them — no ``int < str`` comparisons.
    The trailing ``id`` tiebreak makes the order total and equal to
    emission order among otherwise-identical spans, so xray DAG
    construction never depends on collection-time races.
    """
    rank = span.rank
    rank_key = (1, 0, str(rank)) if isinstance(rank, str) else (0, rank, "")
    return (span.track, rank_key, span.stream, span.start, -span.duration, span.depth, span.id)


class _SpanContext:
    """Context manager recording one measured span on enter/exit."""

    __slots__ = ("_tracer", "_name", "_category", "_track", "_rank", "_clock", "_attrs", "_t0")

    def __init__(self, tracer, name, category, track, rank, clock, attrs):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._track = track
        self._rank = rank
        self._clock = clock
        self._attrs = attrs

    def _now(self) -> float:
        return self._clock() if self._clock is not None else self._tracer.host_now()

    def __enter__(self) -> "_SpanContext":
        self._t0 = self._now()
        self._tracer._push(self._track, self._rank)
        return self

    def __exit__(self, *exc) -> bool:
        depth, span_id, parent_id = self._tracer._pop(self._track, self._rank)
        t1 = self._now()
        self._tracer._append(
            Span(
                self._name,
                self._category,
                self._t0,
                max(t1 - self._t0, 0.0),
                track=self._track,
                rank=self._rank,
                depth=depth,
                attrs=self._attrs,
                id=span_id,
            )
        )
        if parent_id is not None:
            self._tracer.add_edge(parent_id, span_id, "parent")
        return False


class Tracer:
    """Thread-safe in-process span collector."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._edges: list[Edge] = []
        self._cursors: dict[tuple[str, int], float] = {}
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._next_id = 0

    # -- time sources --------------------------------------------------------

    def host_now(self) -> float:
        """Seconds of real time since this tracer was created."""
        return time.perf_counter() - self._origin

    def cursor(self, track: str, rank: int = 0) -> float:
        """End of the latest span on (track, rank); 0.0 if none yet."""
        with self._lock:
            return self._cursors.get((track, rank), 0.0)

    # -- nesting bookkeeping -------------------------------------------------
    #
    # Open-span state is a per-thread stack of reserved span ids keyed by
    # (track, rank).  Depth is derived from stack length, so unbalanced
    # ``_pop`` calls can never drive it negative (the pre-PR-10 ``_depths``
    # counter underflowed and recorded spans at depth < 0 forever after).

    def _stacks(self) -> dict[tuple[str, int], list[int]]:
        d = getattr(self._local, "stacks", None)
        if d is None:
            d = self._local.stacks = {}
        return d

    def _reserve_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _push(self, track: str, rank: int) -> int:
        """Reserve an id for an opening span and push it on the stack."""
        span_id = self._reserve_id()
        self._stacks().setdefault((track, rank), []).append(span_id)
        return span_id

    def _pop(self, track: str, rank: int) -> tuple[int, int, int | None]:
        """Close the innermost open span on (track, rank).

        Returns ``(depth, span_id, parent_id)``; depth is clamped at 0
        even for unbalanced pops.
        """
        stack = self._stacks().setdefault((track, rank), [])
        span_id = stack.pop() if stack else self._reserve_id()
        depth = len(stack)
        parent_id = stack[-1] if stack else None
        return depth, span_id, parent_id

    def _append(self, span: Span) -> None:
        key = (span.track, span.rank)
        with self._lock:
            if span.id < 0:
                span.id = self._next_id
                self._next_id += 1
            self._spans.append(span)
            if span.end > self._cursors.get(key, 0.0):
                self._cursors[key] = span.end

    # -- recording -----------------------------------------------------------

    def span(
        self,
        name: str,
        category: str = "host",
        *,
        track: str = HOST_TRACK,
        rank: int = 0,
        clock=None,
        **attrs,
    ) -> _SpanContext:
        """Context manager measuring a span from enter to exit.

        ``clock`` is an optional zero-arg callable returning the current
        time on the span's timeline (e.g. a simulated rank clock's
        ``now``); without it, real host time is measured.
        """
        return _SpanContext(self, name, category, track, rank, clock, attrs)

    def add_span(
        self,
        name: str,
        category: str,
        duration: float,
        *,
        start: float | None = None,
        track: str = SIM_TRACK,
        rank: int = 0,
        stream: int = 0,
        depth: int = 0,
        **attrs,
    ) -> Span:
        """Record a span with a known duration.

        With ``start=None`` the span is stacked at the (track, rank)
        cursor — the end of the latest span there — which is how modelled
        device kernels build a sequential timeline.  ``stream`` places the
        span on a comm-stream sub-lane of the rank (0 = compute stream).
        """
        if start is None:
            start = self.cursor(track, rank)
        span = Span(
            name,
            category,
            start,
            duration,
            track=track,
            rank=rank,
            stream=stream,
            depth=depth,
            attrs=attrs,
        )
        self._append(span)
        return span

    def add_edge(self, src: int, dst: int, kind: str) -> Edge | None:
        """Record a causal edge between two collected span ids.

        Negative ids (uncollected spans, or spans recorded through the
        null tracer) are ignored so call sites can pass ``span.id``
        without guarding.
        """
        if src < 0 or dst < 0:
            return None
        edge = Edge(src, dst, kind)
        with self._lock:
            self._edges.append(edge)
        return edge

    # -- reading -------------------------------------------------------------

    def edges(self, *, kind: str | None = None) -> list[Edge]:
        """Snapshot of recorded causal edges, optionally filtered by kind."""
        with self._lock:
            out = list(self._edges)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def spans(
        self,
        *,
        track: str | None = None,
        rank: int | None = None,
        category: str | None = None,
    ) -> list[Span]:
        """Snapshot of recorded spans, optionally filtered."""
        with self._lock:
            out = list(self._spans)
        if track is not None:
            out = [s for s in out if s.track == track]
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        if category is not None:
            out = [s for s in out if s.category == category]
        return out

    def tracks(self) -> list[str]:
        """Track names with at least one span, in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans():
            seen.setdefault(s.track, None)
        return list(seen)

    def ranks(self, track: str = SIM_TRACK) -> list[int]:
        """Sorted ranks with at least one span on ``track``."""
        return sorted({s.rank for s in self.spans(track=track)})

    def streams(self, track: str = SIM_TRACK) -> list[int]:
        """Sorted stream indices with at least one span on ``track``."""
        return sorted({s.stream for s in self.spans(track=track)})

    def category_totals(self, *, track: str = SIM_TRACK, depth: int = 0) -> dict[str, float]:
        """Total span seconds per category at one nesting depth of a track.

        Summing a single depth (default: top level) means nested child
        spans never double-count their parents' time.  The totals are the
        *mean across ranks* present on the track — the same convention as
        ``SimCluster.breakdown()``.

        Only stream 0 (the compute stream, i.e. the rank's ``SimClock``
        timeline) counts, so sim-track totals keep reconciling exactly with
        ``SimCluster.breakdown()`` even when comm-stream spans from
        :mod:`repro.runtime` are present.
        """
        spans = [s for s in self.spans(track=track) if s.depth == depth and s.stream == 0]
        n_ranks = max(len({s.rank for s in spans}), 1)
        out: dict[str, float] = {}
        for s in spans:
            out[s.category] = out.get(s.category, 0.0) + s.duration / n_ranks
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._edges.clear()
            self._cursors.clear()
            self._next_id = 0


class _NullSpanContext:
    """Reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every operation is a cheap no-op."""

    enabled = False

    def host_now(self) -> float:
        return 0.0

    def cursor(self, track: str, rank: int = 0) -> float:
        return 0.0

    def span(self, *args, **kwargs) -> _NullSpanContext:
        return _NULL_SPAN

    def add_span(self, *args, **kwargs) -> None:
        return None

    def add_edge(self, src: int, dst: int, kind: str) -> None:
        return None

    def spans(self, **kwargs) -> list[Span]:
        return []

    def edges(self, **kwargs) -> list[Edge]:
        return []

    def tracks(self) -> list[str]:
        return []

    def ranks(self, track: str = SIM_TRACK) -> list[int]:
        return []

    def streams(self, track: str = SIM_TRACK) -> list[int]:
        return []

    def category_totals(self, **kwargs) -> dict[str, float]:
        return {}

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()

_active_tracer: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide active tracer (the null tracer when disabled)."""
    return _active_tracer


def set_tracer(tracer: Tracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` (None disables); returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer if tracer is not None else NULL_TRACER
    return previous
