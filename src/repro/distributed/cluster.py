"""In-process simulated GPU cluster.

The data plane is real: collectives move actual NumPy arrays between the
per-rank slots, so distributed training in this simulator is numerically
identical to MPI data-parallel training (including the exact bytes a
compressor puts on the wire).  The time plane is modelled: every
collective advances all participating ranks' :class:`SimClock`s by the
alpha-beta cost of the operation, after synchronising them (collectives
are barriers).

All collectives take *per-rank lists* (index = rank) because ranks
execute sequentially in one process.  This mirrors mpi4py's buffer
semantics — ``allreduce(sendbufs) -> recvbufs`` — without real processes.

With a :class:`~repro.faults.plan.FaultPlan` attached, the cluster
consults its :class:`~repro.faults.controller.FaultController` on every
collective: stragglers and jitter stretch individual rank clocks (other
ranks pay at the next barrier), link-degradation windows scale the
alpha-beta network parameters, payload copies can be bit-flipped or
dropped, and scheduled rank failures shrink the active world at
iteration boundaries.  Without a plan (or with an empty one) every code
path is bit-identical to the fault-free build.

Two tracks (DESIGN.md decision 8):

* ``track="convergence"`` (the default) — the behaviour described above,
  bit-identical to the seed: full per-rank payloads, one
  :class:`SimClock` per rank.
* ``track="timing"`` — the representative-rank scheme behind
  :mod:`repro.fleet`: per-rank payloads are assumed identical (the
  trainers' data-parallel symmetry), so collectives compute time from
  ONE real payload and hand back a :class:`~repro.distributed.plane.RepView`;
  clocks live in a shared :class:`VirtualClockPlane`.  Payload memory
  and per-collective CPU are O(1) in world size, while every modelled
  second is computed by the exact same alpha-beta formulas as the
  convergence track.  Fault support is per plane (``TRACK_PLANES``):
  time-plane faults (stragglers, jitter, degradation) and
  availability-plane faults (rank/node failures, job crashes) compose
  normally, while data-plane faults (payload corruption, dropped
  contributions) are rejected — they are per-rank by nature and have no
  representative payload to touch.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

import numpy as np

from repro.distributed.clock import SimClock, VirtualClock, VirtualClockPlane
from repro.distributed.collectives import COLLECTIVE_COSTS
from repro.distributed.network import PLATFORM1, NetworkSpec
from repro.distributed.plane import RepView, payload_nbytes
from repro.faults.controller import FaultController
from repro.faults.plan import FailureEvent, FaultPlan
from repro.telemetry import SIM_TRACK, get_metrics, get_tracer
from repro.util.seeding import rng_for_rank

__all__ = ["SimRank", "SimCluster", "TRACK_PLANES"]

#: Fault planes each track can honor (DESIGN.md decision 9).  The timing
#: track shares one representative payload across all ranks, so per-rank
#: data-plane faults (corruption, drops) have nothing to corrupt — but
#: time-plane faults stretch the VirtualClockPlane and availability-plane
#: faults shrink the world, both of which representative runs model
#: exactly.
TRACK_PLANES = {
    "convergence": frozenset({"time", "data", "availability"}),
    "timing": frozenset({"time", "availability"}),
}


def _require_positive_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class _Plan(NamedTuple):
    """One collective, planned: its data already moved, sized, priced and
    counted.  A schedule charges ``seconds`` to clocks its own way (the
    blocking barrier, or a comm stream) and then calls ``finalize``."""

    op: str
    seconds: float
    #: Modelled bytes on the wire (what the runtime's posting queues match on).
    wire: float
    #: Span attributes, in the order the Chrome export serialises them.
    attrs: dict
    #: Receiver-side completion: per-rank copies, then data-plane faults.
    finalize: Callable[[], list]


class SimRank:
    """One simulated GPU worker.

    The per-rank RNG is created lazily: a 16k-rank timing cluster never
    draws per-rank randomness, so spawning 16k generators up front would
    be pure construction overhead.
    """

    __slots__ = ("rank", "node", "clock", "_rng", "_seed")

    def __init__(self, rank: int, node: int, clock, *, seed: int = 0):
        self.rank = rank
        self.node = node
        self.clock = clock
        self._rng: np.random.Generator | None = None
        self._seed = seed

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = rng_for_rank(self._seed, self.rank)
        return self._rng


class SimCluster:
    """A set of simulated ranks sharing a modelled network."""

    def __init__(
        self,
        n_nodes: int,
        gpus_per_node: int = 4,
        *,
        network: NetworkSpec | None = None,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        track: str = "convergence",
    ):
        _require_positive_int("n_nodes", n_nodes)
        _require_positive_int("gpus_per_node", gpus_per_node)
        if track not in ("convergence", "timing"):
            raise ValueError(f"track must be 'convergence' or 'timing', got {track!r}")
        self._network = network if network is not None else PLATFORM1.network
        self.n_nodes = n_nodes
        self.gpus_per_node = gpus_per_node
        self.track = track
        world = n_nodes * gpus_per_node
        self._plane: VirtualClockPlane | None = (
            VirtualClockPlane(world) if track == "timing" else None
        )
        if self._plane is not None:
            self.ranks = [
                SimRank(r, r // gpus_per_node, VirtualClock(self._plane, r), seed=seed)
                for r in range(world)
            ]
        else:
            self.ranks = [
                SimRank(r, r // gpus_per_node, SimClock(), seed=seed) for r in range(world)
            ]
        #: Ranks permanently lost to scheduled failures (clocks frozen).
        self.lost_ranks: list[SimRank] = []
        #: Optional fabric-contention hook ``(op, start, seconds) -> seconds``;
        #: the fleet scheduler installs one so concurrent jobs slow each
        #: other's collectives.  ``None`` (the default) is bit-identical
        #: to the uncontended cluster.
        self.contention = None
        #: Largest payload set (bytes) any single collective materialised —
        #: per-rank buffers on the full-payload path, one buffer on the
        #: representative path.  The fleet CI asserts this stays flat as
        #: the timing-track world grows.
        self.peak_payload_bytes = 0.0
        #: Critical-path sim seconds added by time-plane faults (the max
        #: per-rank straggler/jitter stall of each collective) — the part
        #: of :attr:`time` the fleet's goodput accounting treats as lost
        #: rather than useful work.
        self.fault_delay_seconds = 0.0
        # An empty plan must behave exactly like no plan, so it is
        # discarded here rather than special-cased on every hot path.
        # (A crashes-only plan is empty *for the cluster*: job crashes are
        # interpreted by the fleet scheduler, one layer up.)
        self.faults: FaultController | None = None
        if fault_plan is not None and not fault_plan.is_empty_for_cluster():
            for entry in fault_plan.entries():
                if entry.plane not in TRACK_PLANES[track]:
                    supported = sorted(
                        t for t, planes in TRACK_PLANES.items() if entry.plane in planes
                    )
                    raise ValueError(
                        f"{type(entry).__name__} is a {entry.plane}-plane fault, which "
                        f"the {track!r} track cannot honor (its representative payload "
                        f"is shared by all ranks); tracks supporting it: "
                        f"{', '.join(supported)}"
                    )
            self.faults = FaultController(fault_plan, world)

    @property
    def world_size(self) -> int:
        """Number of *live* ranks (shrinks when scheduled failures fire)."""
        return len(self.ranks)

    @property
    def is_timing(self) -> bool:
        """True on the representative-rank timing track."""
        return self.track == "timing"

    @property
    def network(self) -> NetworkSpec:
        """The fabric spec, degraded while a degradation window is active."""
        if self.faults is not None:
            return self.faults.effective_network(self._network)
        return self._network

    @network.setter
    def network(self, spec: NetworkSpec) -> None:
        self._network = spec

    # -- fault plane ---------------------------------------------------------

    def begin_iteration(self, iteration: int) -> list[FailureEvent]:
        """Advance the fault schedule to ``iteration``; apply due failures.

        Returns one :class:`FailureEvent` per newly dead rank, carrying
        the rank's position in the *pre-removal* active list so callers
        can fix up position-indexed state (layer ownership tables).
        Without a fault plan this is free and returns nothing.
        """
        if self.faults is None:
            return []
        due = self.faults.begin_iteration(iteration)
        events = [
            FailureEvent(f.rank, pos, iteration, f.recoverable)
            for f in due
            for pos in [self._position_of(f.rank)]
            if pos is not None
        ]
        if events:
            dead = {e.rank for e in events}
            if len(dead) >= len(self.ranks):
                raise RuntimeError("fault plan killed every remaining rank")
            tracer = get_tracer()
            for r in self.ranks:
                if r.rank in dead:
                    self.lost_ranks.append(r)
                    if tracer.enabled:
                        tracer.add_span(
                            "rank_failure",
                            "fault_event",
                            0.0,
                            start=r.clock.now,
                            track=SIM_TRACK,
                            rank=r.rank,
                        )
            self.ranks = [r for r in self.ranks if r.rank not in dead]
            m = get_metrics()
            if m.enabled:
                m.gauge("faults.world_size").set(self.world_size)
        return events

    def _position_of(self, rank_id: int) -> int | None:
        for i, r in enumerate(self.ranks):
            if r.rank == rank_id:
                return i
        return None

    # -- time plane helpers --------------------------------------------------

    def _fault_extras(self, op: str, seconds: float) -> dict[int, float]:
        """Per-rank straggler/jitter stalls drawn for one collective.

        The worst stall is charged to :attr:`fault_delay_seconds`; the
        caller stretches the clocks.
        """
        if self.faults is None:
            return {}
        extras = self.faults.collective_extras(op, seconds, [r.rank for r in self.ranks])
        if extras:
            self.fault_delay_seconds += max(extras.values())
        return extras

    def _barrier_and_advance(
        self, seconds: float, category: str, *, op: str | None = None, **attrs
    ) -> None:
        """Synchronise all clocks to the latest rank, then advance together.

        With tracing enabled, every clock mutation becomes a sim-track
        span: a ``wait`` span per rank that blocks at the barrier, then
        one ``op`` span per rank for the collective itself — so per-rank
        span totals reconcile exactly with :meth:`breakdown`.

        Active stragglers/jitter add per-rank ``fault_delay`` time on top
        of the collective; the slowed rank pays immediately and everyone
        else pays at the next barrier, exactly like a real straggler.

        Timing track: the same barrier semantics run through the sparse
        :class:`VirtualClockPlane` in O(#skewed ranks), and tracing emits
        one span per collective instead of one per rank (the per-rank
        span-reconciliation invariant is a convergence-track guarantee).
        """
        tracer = get_tracer()
        extras = self._fault_extras(op or category, seconds)
        if self._plane is not None:
            plane = self._plane
            start = plane.max_now
            plane.barrier("wait")
            plane.advance_all(seconds, category)
            if tracer.enabled:
                tracer.add_span(
                    op or category,
                    category,
                    seconds,
                    start=start,
                    track=SIM_TRACK,
                    rank="*",
                    **attrs,
                )
            for rank_id, extra in extras.items():
                if extra > 0.0:
                    plane.advance_rank(rank_id, extra, "fault_delay")
                    if tracer.enabled:
                        tracer.add_span(
                            "fault_delay",
                            "fault_delay",
                            extra,
                            start=start + seconds,
                            track=SIM_TRACK,
                            rank=rank_id,
                            op=op or category,
                        )
            return
        t = max(r.clock.now for r in self.ranks)
        op_spans = []  # per-rank collective legs, rank order
        for r in self.ranks:
            wait_span = None
            if tracer.enabled and t > r.clock.now:
                wait_span = tracer.add_span(
                    "wait",
                    "wait",
                    t - r.clock.now,
                    start=r.clock.now,
                    track=SIM_TRACK,
                    rank=r.rank,
                    op=op or category,
                )
            r.clock.sync_to(t)
            r.clock.advance(seconds, category)
            if tracer.enabled:
                op_span = tracer.add_span(
                    op or category,
                    category,
                    seconds,
                    start=t,
                    track=SIM_TRACK,
                    rank=r.rank,
                    **attrs,
                )
                op_spans.append(op_span)
                if wait_span is not None:
                    # The barrier wait releases into this rank's leg of
                    # the collective.
                    tracer.add_edge(wait_span.id, op_span.id, "wait")
            extra = extras.get(r.rank, 0.0)
            if extra > 0.0:
                r.clock.advance(extra, "fault_delay")
                if tracer.enabled:
                    tracer.add_span(
                        "fault_delay",
                        "fault_delay",
                        extra,
                        start=t + seconds,
                        track=SIM_TRACK,
                        rank=r.rank,
                        op=op or category,
                    )
        # Chain the per-rank legs of this collective in ascending rank
        # order — one coupled operation, not world_size independent ones.
        for a, b in zip(op_spans, op_spans[1:]):
            tracer.add_edge(a.id, b.id, "collective")

    def _record_collective(
        self, op: str, seconds: float, raw_nbytes: float, wire_nbytes: float
    ) -> None:
        """Counters/histograms for one collective across the whole cluster."""
        m = get_metrics()
        if not m.enabled:
            return
        m.counter("comm.calls", op=op).inc()
        m.counter("comm.raw_bytes", op=op).inc(raw_nbytes)
        m.counter("comm.wire_bytes", op=op).inc(wire_nbytes)
        m.histogram("comm.seconds", op=op).observe(seconds)

    def advance_all(self, seconds: float, category: str) -> None:
        """Advance every rank's clock (e.g. perfectly parallel compute)."""
        tracer = get_tracer()
        if self._plane is not None:
            start = self._plane.base
            self._plane.advance_all(seconds, category)
            if tracer.enabled:
                tracer.add_span(
                    category, category, seconds, start=start, track=SIM_TRACK, rank="*"
                )
            return
        for r in self.ranks:
            if tracer.enabled:
                tracer.add_span(
                    category, category, seconds, start=r.clock.now, track=SIM_TRACK, rank=r.rank
                )
            r.clock.advance(seconds, category)

    def advance_rank(self, rank: int, seconds: float, category: str) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                category,
                category,
                seconds,
                start=self.ranks[rank].clock.now,
                track=SIM_TRACK,
                rank=rank,
            )
        self.ranks[rank].clock.advance(seconds, category)

    @property
    def time(self) -> float:
        """Simulated wall-clock: the slowest rank's time."""
        if self._plane is not None:
            return self._plane.max_now
        return max(r.clock.now for r in self.ranks)

    def breakdown(self) -> dict[str, float]:
        """Mean per-rank time per category (ranks are near-symmetric)."""
        if self._plane is not None:
            return self._plane.breakdown()
        out: dict[str, float] = {}
        for r in self.ranks:
            for cat, t in r.clock.breakdown().items():
                out[cat] = out.get(cat, 0.0) + t / self.world_size
        return out

    # -- collective pricing ---------------------------------------------------

    def collective_seconds(self, op: str, nbytes: float) -> float:
        """Alpha-beta seconds for one collective on the current fabric.

        The single pricing point: every plan calls it, whichever schedule
        settles the plan — which is what keeps blocking and overlapped
        execution bit-identical in modelled time, and gives the fleet's
        contention hook one place to stretch transfers.
        """
        seconds = COLLECTIVE_COSTS[op](
            self.network, self.world_size, nbytes, self.gpus_per_node
        )
        if self.contention is not None and seconds > 0.0:
            seconds = self.contention(op, self.time, seconds)
        return seconds

    # -- data-plane collectives ----------------------------------------------
    #
    # Each collective is described once, by its ``_plan_<op>``: check the
    # input, move the data (``_*_data``), size it, price it
    # (``collective_seconds``), count it (``_record_collective``) and hand
    # back a :class:`_Plan`.  The rest is a schedule's: the blocking methods
    # settle a plan as a barrier (``_settle``), :mod:`repro.runtime` settles
    # the same plan on a comm stream — so the two are bit-identical in data,
    # bytes and priced seconds, and only the clocks differ (DESIGN.md
    # decision 18).

    def _settle(self, plan: _Plan, category: str) -> list:
        """The blocking schedule of a plan: barrier, charge, complete."""
        self._barrier_and_advance(plan.seconds, category, op=plan.op, **plan.attrs)
        return plan.finalize()

    def _check(self, arrays) -> None:
        if len(arrays) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank arrays, got {len(arrays)}"
            )

    def _note_payload(self, nbytes: float) -> None:
        if nbytes > self.peak_payload_bytes:
            self.peak_payload_bytes = nbytes

    def replicate(self, value, *, copy: bool = True):
        """Per-rank view of one representative value.

        Representative payloads: an O(1) :class:`RepView`.  Full
        payloads: a real per-rank list (``copy=True`` hands each rank an
        independent array buffer, matching what per-rank computation
        would have produced).
        """
        if self.is_timing:
            return RepView(value, self.world_size)
        if copy and isinstance(value, np.ndarray):
            return [value.copy() for _ in range(self.world_size)]
        return [value for _ in range(self.world_size)]

    def _replicate_result(self, result: np.ndarray):
        """Per-rank copies of a collective's result (shared view when
        representative); also the output half of payload accounting."""
        if self.is_timing:
            self._note_payload(result.nbytes)
            return RepView(result, self.world_size)
        self._note_payload(result.nbytes * self.world_size)
        return [result.copy() for _ in range(self.world_size)]

    def _reduce_data(self, arrays, op: str, *, average: bool) -> np.ndarray:
        """Shared reduction math for (i)allreduce / (i)reduce_scatter.

        A rank hit by a :class:`~repro.faults.plan.DroppedContribution`
        fault is excluded from the sum and the averaging denominator —
        the collective gracefully degrades to the surviving contributors.

        Timing track: per-rank payloads are identical by contract, so
        the average IS payload 0 and the sum is payload 0 scaled by the
        contributor count — both exact in floating point, which is what
        makes the "full" and "representative" payload modes bit-equal
        (a loop-sum of ``w`` identical floats divided by ``w`` is not).
        """
        self._check(arrays)
        self._note_payload(payload_nbytes(arrays))
        if self.is_timing:
            base = np.asarray(arrays[0], dtype=np.float64)
            return base.copy() if average else base * float(self.world_size)
        skip: set[int] = set()
        if self.faults is not None:
            dropped = self.faults.dropped_ranks(op, [r.rank for r in self.ranks])
            skip = {i for i, r in enumerate(self.ranks) if r.rank in dropped}
        total = np.zeros_like(np.asarray(arrays[0], dtype=np.float64))
        for i, a in enumerate(arrays):
            if i not in skip:
                total += a
        if average:
            total /= self.world_size - len(skip)
        return total

    def _plan_allreduce(self, arrays, *, average: bool, nbytes: float | None) -> _Plan:
        """Reduce now; completion hands every rank its copy of the result."""
        total = self._reduce_data(arrays, "allreduce", average=average)
        result = total.astype(np.asarray(arrays[0]).dtype)
        wire = result.nbytes if nbytes is None else nbytes
        seconds = self.collective_seconds("allreduce", wire)
        self._record_collective("allreduce", seconds, result.nbytes, wire)
        attrs = {"nbytes_raw": result.nbytes, "nbytes_wire": wire}
        return _Plan("allreduce", seconds, wire, attrs, lambda: self._replicate_result(result))

    def allreduce(
        self,
        arrays: list[np.ndarray],
        *,
        average: bool = False,
        category: str = "allreduce",
        nbytes: float | None = None,
    ) -> list[np.ndarray]:
        """Sum (or average) per-rank arrays; every rank gets the result.

        ``nbytes`` overrides the modelled wire size (used when the
        payload travels compressed, e.g. factor compression).
        """
        return self._settle(
            self._plan_allreduce(arrays, average=average, nbytes=nbytes), category
        )

    def _plan_allgather(self, objects, *, nbytes_per_rank: float | None) -> _Plan:
        """Gather now; completion is the receiver-side corruption pass."""
        self._check(objects)
        distinct = [objects.payload] if isinstance(objects, RepView) else objects
        raw_sizes = [o.nbytes for o in distinct if isinstance(o, np.ndarray)]
        if nbytes_per_rank is None:
            nbytes_per_rank = max(raw_sizes) if raw_sizes else 0.0
        seconds = self.collective_seconds("allgather", nbytes_per_rank)
        raw = max(raw_sizes) if raw_sizes else nbytes_per_rank
        self._record_collective(
            "allgather", seconds, raw * self.world_size, nbytes_per_rank * self.world_size
        )
        data = self._allgather_data(objects)  # sender buffers are copied now
        attrs = {"nbytes_raw": raw, "nbytes_wire": nbytes_per_rank}
        return _Plan(
            "allgather", seconds, nbytes_per_rank, attrs,
            lambda: self._inject_allgather_faults(data),
        )

    def allgather(
        self,
        objects: list[object],
        *,
        nbytes_per_rank: float | None = None,
        category: str = "allgather",
    ) -> list[list[object]]:
        """Each rank receives the full list of per-rank objects.

        ``nbytes_per_rank`` overrides the modelled payload size (used when
        gathering compressed blobs whose wire size differs from the Python
        object size); defaults to the max ``nbytes`` of NumPy payloads.
        """
        return self._settle(
            self._plan_allgather(objects, nbytes_per_rank=nbytes_per_rank), category
        )

    def _allgather_data(self, objects):
        # Real MPI allgather copies every contribution into each rank's
        # recvbuf; hand out per-rank copies of array payloads so an
        # in-place mutation on one simulated rank cannot leak into others.
        if self.is_timing:
            # One gathered row stands in for every rank's recvbuf; the
            # row itself is O(1) when the contributions were identical.
            first = objects.payload if isinstance(objects, RepView) else objects[0]
            self._note_payload(float(getattr(first, "nbytes", 0.0)))
            row = objects if isinstance(objects, RepView) else RepView(first, self.world_size)
            return RepView(row, self.world_size)
        self._note_payload(payload_nbytes(objects) * self.world_size)
        return [
            [o.copy() if isinstance(o, np.ndarray) else o for o in objects]
            for _ in self.ranks
        ]

    def _inject_allgather_faults(self, out):
        """Receiver-side corruption pass over freshly gathered copies.

        Skipped on the timing track: corruption plans are rejected at
        construction there, so the pass would be a per-rank no-op loop.
        """
        if self.faults is not None and not self.is_timing:
            for pos, receiver in enumerate(self.ranks):
                copies = out[pos]
                for src in range(len(copies)):
                    if src == pos:
                        continue  # a rank's own contribution never hits the wire
                    copies[src] = self._maybe_corrupt(copies[src], receiver, "allgather")
        return out

    def _maybe_corrupt(self, obj: object, receiver: SimRank, op: str) -> object:
        """Receiver-side data-plane injection for one payload copy."""
        corrupted, hit = self.faults.maybe_corrupt(obj, rank=receiver.rank, op=op)
        if hit:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.add_span(
                    "corruption",
                    "fault_event",
                    0.0,
                    start=receiver.clock.now,
                    track=SIM_TRACK,
                    rank=receiver.rank,
                    op=op,
                )
        return corrupted

    def _plan_broadcast(self, obj: object, root: int, *, nbytes: float | None) -> _Plan:
        """Copy to every non-root now; completion is the corruption pass."""
        # A root outside the live world (a stale owner index after an
        # elastic shrink, say) would make every rank a receiver: no sender
        # keeps its buffer and corruption may touch what should be it.
        try:
            sender = operator.index(root)
        except TypeError:
            sender = -1  # not an integer at all
        if isinstance(root, (bool, np.bool_)) or not 0 <= sender < self.world_size:
            raise ValueError(
                f"broadcast root {root!r} is not a rank position of the live world: "
                f"need an integer in [0, {self.world_size})"
            )
        raw = obj.nbytes if isinstance(obj, np.ndarray) else 0.0
        if nbytes is None:
            nbytes = raw
        seconds = self.collective_seconds("broadcast", nbytes)
        self._record_collective("broadcast", seconds, raw, nbytes)
        data = self._broadcast_data(obj, root)
        attrs = {"root": root, "nbytes_raw": raw, "nbytes_wire": nbytes}
        return _Plan(
            "broadcast", seconds, nbytes, attrs, lambda: self._inject_broadcast_faults(data, root)
        )

    def broadcast(
        self, obj: object, root: int = 0, *, nbytes: float | None = None, category: str = "broadcast"
    ) -> list[object]:
        """Send ``obj`` from ``root`` to every rank."""
        return self._settle(self._plan_broadcast(obj, root, nbytes=nbytes), category)

    def _broadcast_data(self, obj: object, root: int):
        # The root keeps its own buffer (MPI semantics); every other rank
        # receives a private copy of array payloads, so in-place edits on
        # one simulated rank cannot alias into the rest.
        if self.is_timing:
            self._note_payload(float(getattr(obj, "nbytes", 0.0)))
            return RepView(obj, self.world_size)
        self._note_payload(float(getattr(obj, "nbytes", 0.0)) * self.world_size)
        return [
            obj if r == root or not isinstance(obj, np.ndarray) else obj.copy()
            for r in range(self.world_size)
        ]

    def _inject_broadcast_faults(self, out, root: int):
        """Receiver-side corruption pass over freshly broadcast copies.

        Skipped on the timing track (corruption plans are rejected there).
        """
        if self.faults is not None and not self.is_timing:
            for pos, receiver in enumerate(self.ranks):
                if pos == root:
                    continue  # the sender's buffer never crosses the wire
                out[pos] = self._maybe_corrupt(out[pos], receiver, "broadcast")
        return out

    def _plan_reduce_scatter(self, arrays, *, nbytes: float | None) -> _Plan:
        """Reduce and split now; completion casts each rank's chunk."""
        total = self._reduce_data(arrays, "reduce_scatter", average=False)
        chunks = np.array_split(total.ravel(), self.world_size)
        dtype = np.asarray(arrays[0]).dtype
        wire = total.nbytes if nbytes is None else nbytes
        seconds = self.collective_seconds("reduce_scatter", wire)
        self._record_collective("reduce_scatter", seconds, total.nbytes, wire)
        attrs = {"nbytes_raw": total.nbytes, "nbytes_wire": wire}
        return _Plan(
            "reduce_scatter", seconds, wire, attrs, lambda: [c.astype(dtype).copy() for c in chunks]
        )

    def reduce_scatter(
        self,
        arrays: list[np.ndarray],
        *,
        category: str = "reduce_scatter",
        nbytes: float | None = None,
    ) -> list[np.ndarray]:
        """Sum per-rank arrays, then scatter equal chunks back.

        ``nbytes`` overrides the modelled wire size, like ``allreduce``'s
        — required to cost compressed payloads through this collective.
        """
        return self._settle(self._plan_reduce_scatter(arrays, nbytes=nbytes), category)
