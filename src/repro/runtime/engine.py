"""Event-driven execution engine: nonblocking collectives on comm streams.

:class:`StreamRuntime` layers an asynchronous execution model over a
:class:`~repro.distributed.cluster.SimCluster`.  Where every SimCluster
collective is a barrier (synchronise all clocks, advance together), the
runtime gives each rank ``n_comm_streams`` communication streams next to
its compute stream (the rank's :class:`SimClock`):

* ``iallreduce`` / ``iallgather`` / ``ibroadcast`` / ``ireduce_scatter``
  ask the cluster for the operation's *plan* — the data already moved
  (eagerly, at issue), sized, priced and counted by the one function
  that also serves the blocking collective, so an overlapped run is
  bit-identical to a blocking run — and return a
  :class:`CollectiveHandle` instead of advancing any clock.  This
  module holds no payload, size or price logic of its own (DESIGN.md
  decision 18);
* the transfer occupies the least-busy comm stream of every participant
  from ``start = max(issue clocks, stream availability)`` for the
  alpha-beta duration of the collective;
* :meth:`CollectiveHandle.wait` advances each rank's compute clock only
  over the *exposed* tail of the transfer — communication that finished
  under subsequent compute costs nothing, and the hidden/exposed split
  is accumulated per category (:meth:`StreamRuntime.overlap_stats`), the
  measured replacement for the hand-waved ``overlap_fraction`` constants
  in :mod:`repro.kfac_dist.timing`.

Fault composition: injection happens at wait time — receiver-side
corruption is applied when the handle completes, and straggler/jitter
extras stretch the completion before the clocks are charged.  Telemetry:
every transfer is recorded as a span on its comm stream's own trace lane
(``stream >= 1``), while the compute-lane spans (``stream == 0``) keep
mirroring every clock mutation exactly, preserving the
``SimCluster.breakdown()`` reconciliation invariant.

Deadlock/mismatch detection: collectives are matched through per-rank
posting queues.  Conflicting heads raise
:class:`~repro.runtime.errors.UnmatchedCollectiveError` immediately;
:meth:`StreamRuntime.assert_quiesced` raises (with a per-rank pending-op
report) if posted ops were never joined by every rank or handles were
never waited.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.runtime.compute import ComputeModel
from repro.runtime.errors import DeadlockError, UnmatchedCollectiveError
from repro.telemetry import SIM_TRACK, get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.cluster import SimCluster, _Plan

__all__ = ["CollectiveHandle", "StreamRuntime"]

#: (op name, category, rounded wire bytes) — what must agree across ranks.
_Sig = tuple[str, str, int]


class CollectiveHandle:
    """Wait handle for one in-flight (or completed) collective.

    ``wait()`` is idempotent: the first call settles clocks and returns
    the per-rank results; every later call returns the same object with
    no further clock movement.  Handles may be waited in any order.
    """

    __slots__ = (
        "op",
        "category",
        "seconds",
        "start",
        "seq",
        "attrs",
        "_engine",
        "_streams",
        "_finalize",
        "_results",
        "_completed",
    )

    def __init__(
        self,
        engine: "StreamRuntime | None",
        op: str,
        category: str,
        seconds: float,
        start: float,
        seq: int,
        streams: dict[int, int],
        finalize: Callable[[], list],
        attrs: dict,
    ):
        self._engine = engine
        self.op = op
        self.category = category
        self.seconds = seconds
        self.start = start
        self.seq = seq
        self.attrs = attrs
        self._streams = streams
        self._finalize = finalize
        self._results: list | None = None
        self._completed = False

    @classmethod
    def completed(cls, op: str, category: str, results: list) -> "CollectiveHandle":
        """An already-finished handle (the blocking execution mode)."""
        h = cls(None, op, category, 0.0, 0.0, -1, {}, lambda: results, {})
        h._results = results
        h._completed = True
        return h

    @property
    def done(self) -> bool:
        """Whether this handle has been waited (results materialised)."""
        return self._completed

    def wait(self) -> list:
        """Settle the transfer: charge exposed time, return per-rank results."""
        if self._completed:
            return self._results
        return self._engine._wait(self)

    def describe(self) -> str:
        return f"#{self.seq} {self.op} ({self.category}, {self.seconds * 1e6:.1f}us)"


class StreamRuntime:
    """Nonblocking-collective scheduler over a :class:`SimCluster`.

    Every ``i*`` collective is the cluster's plan for that operation,
    settled by :meth:`_run`.  With ``overlap=False`` the plan is settled
    as the cluster's own barrier and the handle comes back already
    completed — trainers are written against one API and the flag
    selects only how a plan's seconds reach the clocks, which is what
    the bit-identical equivalence guarantee rests on.
    """

    #: Size of a gradient bucket and of a coalesced factor message.
    bucket_bytes = 1 << 22

    def __init__(
        self,
        cluster: "SimCluster",
        *,
        overlap: bool = True,
        n_comm_streams: int = 2,
        compute: ComputeModel | None = None,
    ):
        if n_comm_streams < 1:
            raise ValueError(f"need at least one comm stream, got {n_comm_streams}")
        self.cluster = cluster
        self.overlap = overlap
        self.n_comm_streams = int(n_comm_streams)
        self.compute = compute
        #: (rank id, stream index >= 1) -> busy-until time.
        self._busy: dict[tuple[int, int], float] = {}
        #: Per-rank queues of posted-but-unmatched collective signatures.
        self._posted: dict[int, list[_Sig]] = {}
        self._pending: list[CollectiveHandle] = []
        self._seq = 0
        # Measured hidden/exposed comm seconds per category (per-rank mean).
        self._hidden: dict[str, float] = {}
        self._exposed: dict[str, float] = {}

    # -- posting / matching --------------------------------------------------

    def _post_all(self, sig: _Sig) -> None:
        for r in self.cluster.ranks:
            self._posted.setdefault(r.rank, []).append(sig)
        self._match()

    def _match(self) -> None:
        """Pop matched collective signatures off every live rank's queue."""
        live = [r.rank for r in self.cluster.ranks]
        queues = [self._posted.get(rank, []) for rank in live]
        while queues and all(queues):
            heads = {q[0] for q in queues}
            if len(heads) > 1:
                raise UnmatchedCollectiveError(
                    "collective mismatch: live ranks posted conflicting operations\n"
                    + self.pending_report()
                )
            for q in queues:
                q.pop(0)

    def pending_report(self) -> str:
        """Per-rank report of unmatched postings and un-waited handles."""
        lines = []
        ranks = sorted({r.rank for r in self.cluster.ranks} | set(self._posted))
        unwaited = [h for h in self._pending if not h.done]
        for rank in ranks:
            posted = ", ".join(
                f"{op}[{cat}, {nbytes}B]" for op, cat, nbytes in self._posted.get(rank, [])
            )
            awaiting = ", ".join(h.describe() for h in unwaited if rank in h._streams)
            lines.append(
                f"  rank {rank}: posted=[{posted or '-'}] awaiting-wait=[{awaiting or '-'}]"
            )
        return "\n".join(lines) or "  (no ranks)"

    def assert_quiesced(self) -> None:
        """Raise unless every collective was matched and waited.

        Call at iteration boundaries: it is the simulator's stand-in for
        a collective watchdog, turning a would-be hang into a diagnostic.
        """
        if any(q for q in self._posted.values()):
            raise UnmatchedCollectiveError(
                "unmatched collectives at quiesce: some ranks posted operations "
                "the rest never joined\n" + self.pending_report()
            )
        unwaited = [h for h in self._pending if not h.done]
        if unwaited:
            raise DeadlockError(
                f"{len(unwaited)} collective(s) issued but never waited\n"
                + self.pending_report()
            )
        self._pending.clear()

    # -- scheduling core -----------------------------------------------------

    def _issue(self, plan: "_Plan", category: str) -> CollectiveHandle:
        """Put a planned collective's transfer on a comm stream of every rank."""
        live = list(self.cluster.ranks)
        self._post_all((plan.op, category, int(round(plan.wire))))
        # Least-busy comm stream per rank (ties -> lowest index): the
        # deterministic equivalent of a round-robin stream pool.
        streams: dict[int, int] = {}
        start = 0.0
        for r in live:
            idx = min(
                range(1, self.n_comm_streams + 1),
                key=lambda i: (self._busy.get((r.rank, i), 0.0), i),
            )
            streams[r.rank] = idx
            start = max(start, r.clock.now, self._busy.get((r.rank, idx), 0.0))
        for r in live:
            self._busy[(r.rank, streams[r.rank])] = start + plan.seconds
        self._seq += 1
        handle = CollectiveHandle(
            self, plan.op, category, plan.seconds, start, self._seq, streams,
            plan.finalize, plan.attrs,
        )
        self._pending.append(handle)
        return handle

    def _wait(self, handle: CollectiveHandle) -> list:
        cluster = self.cluster
        extras = cluster._fault_extras(handle.op, handle.seconds)
        tracer = get_tracer()
        world = max(len(cluster.ranks), 1)
        transfer_spans = []  # per-rank comm-stream legs, rank order
        for r in cluster.ranks:
            done = handle.start + handle.seconds + extras.get(r.rank, 0.0)
            stream = handle._streams.get(r.rank, 1)
            key = (r.rank, stream)
            if done > self._busy.get(key, 0.0):
                self._busy[key] = done
            duration = done - handle.start
            transfer = None
            if tracer.enabled and duration > 0.0:
                transfer = tracer.add_span(
                    handle.op,
                    handle.category,
                    duration,
                    start=handle.start,
                    track=SIM_TRACK,
                    rank=r.rank,
                    stream=stream,
                    **handle.attrs,
                )
                transfer_spans.append(transfer)
            now = r.clock.now
            hidden = min(max(now - handle.start, 0.0), duration)
            self._hidden[handle.category] = (
                self._hidden.get(handle.category, 0.0) + hidden / world
            )
            self._exposed[handle.category] = (
                self._exposed.get(handle.category, 0.0) + (duration - hidden) / world
            )
            if done > now:
                # The exposed tail (plus any idle gap waiting for the
                # transfer to even start) lands on the compute clock under
                # the collective's category; the stream-0 span mirrors the
                # clock mutation exactly, keeping breakdown reconciliation.
                if tracer.enabled:
                    exposed = tracer.add_span(
                        handle.op,
                        handle.category,
                        done - now,
                        start=now,
                        track=SIM_TRACK,
                        rank=r.rank,
                        **handle.attrs,
                    )
                    if transfer is not None:
                        # The compute stream blocked on this comm-stream leg.
                        tracer.add_edge(transfer.id, exposed.id, "wait")
                r.clock.sync_to(done, handle.category)
        # One collective couples all participating ranks: chain the
        # per-rank comm-stream legs in ascending rank order.
        for a, b in zip(transfer_spans, transfer_spans[1:]):
            tracer.add_edge(a.id, b.id, "collective")
        handle._results = handle._finalize()
        handle._completed = True
        return handle._results

    # -- overlap measurement -------------------------------------------------

    def overlap_stats(self) -> dict[str, dict[str, float]]:
        """Measured hidden/exposed comm seconds per category (per-rank mean)."""
        out: dict[str, dict[str, float]] = {}
        for cat in sorted(set(self._hidden) | set(self._exposed)):
            hidden = self._hidden.get(cat, 0.0)
            exposed = self._exposed.get(cat, 0.0)
            out[cat] = {"hidden": hidden, "exposed": exposed, "total": hidden + exposed}
        return out

    def hidden_comm_seconds(self) -> float:
        return sum(self._hidden.values())

    def exposed_comm_seconds(self) -> float:
        return sum(self._exposed.values())

    def hidden_fraction(self) -> float:
        """Share of issued comm time that hid under other work — the
        executed counterpart of :meth:`IterationBreakdown.overlapped_total`'s
        assumed overlap."""
        total = self.hidden_comm_seconds() + self.exposed_comm_seconds()
        return self.hidden_comm_seconds() / total if total > 0 else 0.0

    # -- nonblocking collectives ---------------------------------------------

    def _run(self, plan: "_Plan", category: str) -> CollectiveHandle:
        """Settle one planned collective on this runtime's schedule.

        ``overlap=False``: the cluster's barrier, here and now — nothing
        is posted and nothing stays pending.  Otherwise the transfer goes
        onto a comm stream and the clocks are charged at ``wait``.
        """
        if not self.overlap:
            return CollectiveHandle.completed(
                plan.op, category, self.cluster._settle(plan, category)
            )
        return self._issue(plan, category)

    def iallreduce(
        self,
        arrays: list[np.ndarray],
        *,
        average: bool = False,
        category: str = "allreduce",
        nbytes: float | None = None,
    ) -> CollectiveHandle:
        """Nonblocking :meth:`SimCluster.allreduce`; same data, deferred time."""
        return self._run(
            self.cluster._plan_allreduce(arrays, average=average, nbytes=nbytes), category
        )

    def iallgather(
        self,
        objects: list[object],
        *,
        nbytes_per_rank: float | None = None,
        category: str = "allgather",
    ) -> CollectiveHandle:
        """Nonblocking :meth:`SimCluster.allgather` (corruption at wait)."""
        return self._run(
            self.cluster._plan_allgather(objects, nbytes_per_rank=nbytes_per_rank), category
        )

    def ibroadcast(
        self,
        obj: object,
        root: int = 0,
        *,
        nbytes: float | None = None,
        category: str = "broadcast",
    ) -> CollectiveHandle:
        """Nonblocking :meth:`SimCluster.broadcast` (corruption at wait)."""
        return self._run(self.cluster._plan_broadcast(obj, root, nbytes=nbytes), category)

    def ireduce_scatter(
        self,
        arrays: list[np.ndarray],
        *,
        category: str = "reduce_scatter",
        nbytes: float | None = None,
    ) -> CollectiveHandle:
        """Nonblocking :meth:`SimCluster.reduce_scatter`."""
        return self._run(self.cluster._plan_reduce_scatter(arrays, nbytes=nbytes), category)
