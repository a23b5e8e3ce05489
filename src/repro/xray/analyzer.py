"""The xray analyzer: per-step critical-path attribution records.

``XrayAnalyzer`` rides the same passive-observer contract as the ledger
writer and the autotune controller: the K-FAC trainer constructs it on
its cluster for ``xray=True`` and calls :meth:`end_step` once per
iteration *before* the ledger folds the step, so the attribution record
lands in the step that produced it.
The analyzer only reads tracer/cluster state and never consumes
randomness — ``xray=False`` (the default) is bit-identical to a build
without this subsystem.

Every record is a pure function of ``(seed, config)``: the span stream
is deterministic on the simulated tracks, the graph ordering is the
documented :func:`~repro.telemetry.tracer.span_sort_key`, and all
aggregation below iterates in sorted key order.
"""

from __future__ import annotations

from repro.xray.critical import PathSegment, critical_path
from repro.xray.graph import build_step_graph, is_comm

__all__ = ["XrayAnalyzer"]

#: Length of each step record's "longest segments" list.
_TOP_SEGMENTS = 5


def _clip(span, t0: float, t1: float) -> float:
    """Seconds of ``span`` that fall inside the window."""
    return max(min(span.end, t1) - max(span.start, t0), 0.0)


class XrayAnalyzer:
    """Builds one critical-path attribution record per training step."""

    def __init__(self, cluster):
        self.records: list[dict] = []
        self._cluster = cluster
        self._t_prev = cluster.time
        self._span_cursor = 0
        self._edge_cursor = 0
        self._pending: dict | None = None

    def describe(self) -> dict:
        """The ledger manifest's ``xray`` section: no run chooses a setting."""
        return {}

    # -- per-step analysis -----------------------------------------------------

    def end_step(self, step: int) -> dict | None:
        """Analyse the step window that just closed; returns the record.

        Must run before the ledger's ``record_step`` (the same ordering
        contract as ``autotune.end_step``): the record is buffered and
        the ledger pulls it via :meth:`take_step_record`.
        """
        from repro.telemetry import get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return None
        t0, t1 = self._t_prev, self._cluster.time
        self._t_prev = t1
        spans = tracer.spans()
        fresh = spans[self._span_cursor :]
        self._span_cursor = len(spans)
        edges = tracer.edges()
        fresh_edges = tuple(edges[self._edge_cursor :])
        self._edge_cursor = len(edges)
        graph = build_step_graph(fresh, fresh_edges, t0=t0, t1=t1)
        segments = critical_path(graph)
        record = self._attribute(step, graph, segments)
        self.records.append(record)
        self._pending = record
        return record

    def take_step_record(self) -> dict | None:
        """Hand the buffered record to the ledger (cleared on read)."""
        record, self._pending = self._pending, None
        return record

    def _attribute(self, step: int, graph, segments: list[PathSegment]) -> dict:
        """Fold a step's path into the JSON-stable attribution record."""
        by_category: dict[str, float] = {}
        by_phase: dict[str, float] = {}
        by_rank: dict[str, float] = {}
        comm_categories: set[str] = set()
        critpath = exposed_comm = wait = untraced = 0.0
        for seg in segments:
            critpath += seg.seconds
            by_category[seg.category] = by_category.get(seg.category, 0.0) + seg.seconds
            by_phase[seg.name] = by_phase.get(seg.name, 0.0) + seg.seconds
            if seg.category == "wait":
                wait += seg.seconds
            elif seg.category == "untraced":
                untraced += seg.seconds
            else:
                by_rank[str(seg.rank)] = by_rank.get(str(seg.rank), 0.0) + seg.seconds
            if seg.comm:
                exposed_comm += seg.seconds
                comm_categories.add(seg.category)
        # Straggler analytics: the rank carrying the most on-path work,
        # and the mean per-rank barrier wait inside the window.
        straggler_rank = None
        if by_rank:
            best = max(by_rank.values())
            straggler_rank = min(r for r, s in by_rank.items() if s == best)
        n_lanes = max(len(graph.lanes), 1)
        skew = sum(
            _clip(s, graph.t0, graph.t1)
            for lane in graph.lanes.values()
            for s in lane
            if s.name == "wait" and s.category == "wait"
        )
        # Hidden comm: the part of each comm-stream transfer its rank's
        # compute clock never blocked on.  The engine links a transfer to
        # its exposed tail with a "wait" edge, so hidden time is exactly
        # the transfer interval minus the linked tail's overlap with it
        # (no tail → the transfer finished entirely under compute).
        # Reported as a per-rank mean, matching the runtime accounting.
        tails: dict[int, object] = {}
        by_id = {
            s.id: s for lane in graph.lanes.values() for s in lane if s.id >= 0
        }
        for edge in graph.edges:
            if edge.kind == "wait" and edge.dst in by_id:
                tails[edge.src] = by_id[edge.dst]
        hidden_total = 0.0
        for lane in graph.comm_lanes.values():
            for t_span in lane:
                a = max(t_span.start, graph.t0)
                b = min(t_span.end, graph.t1)
                if b <= a:
                    continue
                tail = tails.get(t_span.id)
                covered = (
                    max(min(tail.end, b) - max(tail.start, a), 0.0)
                    if tail is not None
                    else 0.0
                )
                hidden_total += max((b - a) - covered, 0.0)
        hidden = hidden_total / n_lanes
        top = sorted(
            segments, key=lambda s: (-s.seconds, s.start, str(s.rank), s.name)
        )[:_TOP_SEGMENTS]
        return {
            "step": int(step),
            "elapsed_s": graph.elapsed,
            "critpath_s": critpath,
            "exposed_comm_s": exposed_comm,
            "hidden_comm_s": hidden,
            "wait_s": wait,
            "untraced_s": untraced,
            "straggler_rank": straggler_rank,
            "straggler_skew_s": skew / n_lanes,
            "by_category": {k: by_category[k] for k in sorted(by_category)},
            "by_phase": {k: by_phase[k] for k in sorted(by_phase)},
            "by_rank": {k: by_rank[k] for k in sorted(by_rank)},
            "comm_categories": sorted(comm_categories),
            "top_segments": [s.to_dict() for s in top],
        }

    # -- end-of-run summary ----------------------------------------------------

    def report(self) -> dict | None:
        """Totals across all analysed steps (``None`` if nothing ran)."""
        if not self.records:
            return None
        by_category: dict[str, float] = {}
        rank_totals: dict[str, float] = {}
        totals = {
            "steps": len(self.records),
            "critpath_s": 0.0,
            "exposed_comm_s": 0.0,
            "hidden_comm_s": 0.0,
            "wait_s": 0.0,
            "untraced_s": 0.0,
            "straggler_skew_s": 0.0,
        }
        for r in self.records:
            totals["critpath_s"] += r["critpath_s"]
            totals["exposed_comm_s"] += r["exposed_comm_s"]
            totals["hidden_comm_s"] += r["hidden_comm_s"]
            totals["wait_s"] += r["wait_s"]
            totals["untraced_s"] += r["untraced_s"]
            totals["straggler_skew_s"] += r["straggler_skew_s"]
            for cat, s in r["by_category"].items():
                by_category[cat] = by_category.get(cat, 0.0) + s
            for rank, s in r["by_rank"].items():
                rank_totals[rank] = rank_totals.get(rank, 0.0) + s
        top_rank = None
        if rank_totals:
            best = max(rank_totals.values())
            top_rank = min(r for r, s in rank_totals.items() if s == best)
        totals["top_straggler_rank"] = top_rank
        totals["by_category"] = {k: by_category[k] for k in sorted(by_category)}
        return totals
