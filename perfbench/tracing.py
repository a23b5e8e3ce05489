"""Span tracer installed from the benchmark around calls into each layer.

Nothing in ``src/`` knows about it: :meth:`Tracer.patch` finds a class
method or a module function, :meth:`install` swaps it for a timing
wrapper and :meth:`uninstall` puts the original back.  Spans (name, layer, start, end, parent) stay in
memory; a layer's *self time* is its spans' duration minus the part
their child spans cover.  One process, one thread, so spans nest
strictly and a parent's covered part is the sum of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["Span", "Tracer", "NameTotals"]


class Span(NamedTuple):
    index: int
    name: str
    layer: str
    parent: int  # index of the span that caused this one, -1 for a root
    start: float
    end: float
    #: Work the call did, as its target's ``measure`` counted it
    #: (bytes, elements); 0 when the target counts nothing.
    work: float = 0.0
    #: Second count of the same call (coded frames, wire bytes).
    extra: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class NameTotals:
    calls: int = 0
    busy_s: float = 0.0  # inclusive of children
    self_s: float = 0.0
    work: float = 0.0
    extra: float = 0.0


class Tracer:
    """In-memory span recorder plus the monkeypatches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0
        #: (owner, key, original, wrapper) of every place a target lives.
        self._sites: list[tuple[object, str, object, object]] = []
        #: Targets that no longer exist in the program (renamed or
        #: removed since the benchmark was written).
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, measure=None):
        """Return ``fn`` wrapped in a span; ``measure(args, kwargs, result)``
        returns the work done, or a ``(work, extra)`` pair."""
        clock = self._clock
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(index, name, layer, parent, start, end))
                raise
            end = clock()
            stack.pop()
            work = extra = 0.0
            if measure is not None:
                counted = measure(args, kwargs, result)
                if isinstance(counted, tuple):
                    work, extra = counted
                else:
                    work = counted
            spans.append(Span(index, name, layer, parent, start, end, work, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def patch(self, target: str, layer: str, measure=None) -> None:
        """Register ``"package.module:Class.method"`` or ``"package.module:function"``
        for wrapping; :meth:`install` then puts the wrappers in place.

        A function is replaced in every loaded ``repro`` module that
        imported it by name, and in module-level dicts holding it (a
        dispatch table), so calls reach the wrapper whichever way the
        program spells them — register after the program's modules are
        loaded.  A target that does not exist is recorded in
        :attr:`missing`, not raised: a later refactor may rename it, and
        the rest of the trace is still worth having.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            self.missing.append(target)
            return
        wrapper = self.wrap(original, path, layer, measure)
        if parents:
            self._sites.append((owner, attr, original, wrapper))
            return
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._sites.append((other, key, original, wrapper))
                elif isinstance(value, dict):
                    self._sites.extend(
                        (value, k, original, wrapper) for k, v in value.items() if v is original
                    )

    @staticmethod
    def _assign(owner, key, value) -> None:
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        for owner, key, _, wrapper in self._sites:
            self._assign(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._sites:
            self._assign(owner, key, original)

    # -- analysis -----------------------------------------------------------

    def keep_trees_of(self, root_names) -> None:
        """Drop every span whose root is not one of ``root_names``: what
        ran while wrappers were installed but outside a timed operation
        (constructing the objects of the next round)."""
        by_index = {s.index: s for s in self.spans}
        keep: dict[int, bool] = {}

        def kept(span: Span) -> bool:
            if span.index not in keep:
                keep[span.index] = (
                    span.name in root_names if span.parent < 0 else kept(by_index[span.parent])
                )
            return keep[span.index]

        self.spans = [s for s in self.spans if kept(s)]

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the part direct children cover."""
        own = {s.index: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s.layer] += own[s.index]
        return dict(totals)

    def by_name(self) -> dict[str, NameTotals]:
        own = self.self_times()
        totals: dict[str, NameTotals] = defaultdict(NameTotals)
        for s in self.spans:
            t = totals[s.name]
            t.calls += 1
            t.busy_s += s.duration
            t.self_s += own[s.index]
            t.work += s.work
            t.extra += s.extra
        return totals

    def outermost(self, layer: str) -> list[Span]:
        """Spans of ``layer`` whose parent is not of the same layer."""
        by_index = {s.index: s for s in self.spans}
        return [
            s
            for s in self.spans
            if s.layer == layer
            and (s.parent < 0 or by_index[s.parent].layer != layer)
        ]

    def enclosing(self, name: str, ancestor: str) -> int:
        """How many distinct ``ancestor`` spans have a ``name`` span beneath them."""
        by_index = {s.index: s for s in self.spans}
        found = set()
        for s in self.spans:
            if s.name != name:
                continue
            while s.parent >= 0 and s.name != ancestor:
                s = by_index[s.parent]
            if s.name == ancestor:
                found.add(s.index)
        return len(found)
