"""Declarative, seeded fault schedules for the simulated cluster.

A :class:`FaultPlan` is the single source of truth for *what goes wrong
and when* in a simulated run.  It mixes two kinds of entries:

* **deterministic schedule** — dataclass records pinned to iteration
  windows (stragglers, link degradation, dropped contributions, rank
  failures);
* **random models** — probabilistic faults (payload corruption, network
  jitter) whose draws come from generators derived from the plan's seed,
  so the same ``(seed, plan)`` always produces bit-identical fault
  schedules.

The plan itself is passive data; :class:`repro.faults.controller.
FaultController` interprets it at run time.  An *empty* plan is
indistinguishable from no plan at all: ``SimCluster`` discards it, so
fault-free runs stay bit-identical to a build without this subsystem.

Iteration windows are half-open ``[start, stop)``; ``stop=None`` means
"until the end of the run".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

__all__ = [
    "Straggler",
    "LinkDegradation",
    "Jitter",
    "PayloadCorruption",
    "DroppedContribution",
    "RankFailure",
    "JobCrash",
    "BitRot",
    "TornWrite",
    "SaveCrash",
    "FailureEvent",
    "FaultPlan",
]


def window_active(start: int, stop: int | None, iteration: int) -> bool:
    """True when ``iteration`` falls inside the half-open window."""
    return iteration >= start and (stop is None or iteration < stop)


@dataclass(frozen=True)
class Straggler:
    """One rank runs ``slowdown``x slower on every collective in a window."""

    #: Fault plane: "time" faults stretch clocks, "data" faults touch
    #: payload bytes, "availability" faults remove capacity.  The cluster
    #: uses this to decide which fault classes each track can honor.
    plane: ClassVar[str] = "time"

    rank: int
    start: int
    stop: int | None = None
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")


@dataclass(frozen=True)
class LinkDegradation:
    """Fabric-wide latency/bandwidth degradation inside a window.

    ``latency_factor`` multiplies the alpha term; ``bandwidth_factor``
    divides the beta (bandwidth) term.  Both default to "no change".
    """

    plane: ClassVar[str] = "time"

    start: int
    stop: int | None = None
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.latency_factor < 1.0 or self.bandwidth_factor < 1.0:
            raise ValueError("degradation factors must be >= 1")


@dataclass(frozen=True)
class Jitter:
    """Random extra per-collective delay (exponential with mean ``sigma``).

    ``rank=None`` applies independent jitter to every rank.
    """

    plane: ClassVar[str] = "time"

    sigma: float
    start: int = 0
    stop: int | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError(f"jitter sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class PayloadCorruption:
    """Bit-flip corruption of object payloads in transit.

    Each *receiving* rank's copy is independently corrupted with
    ``probability`` per collective while the window is active.  Only the
    listed collective ops are affected — by default the object-moving
    ones (``broadcast``/``allgather``), which is where compressed blobs
    travel.
    """

    plane: ClassVar[str] = "data"

    probability: float
    start: int = 0
    stop: int | None = None
    n_bits: int = 1
    ops: tuple[str, ...] = ("broadcast", "allgather")

    def __post_init__(self) -> None:
        if not 0 < self.probability <= 1:
            raise ValueError(f"corruption probability must be in (0, 1], got {self.probability}")
        if self.n_bits < 1:
            raise ValueError("n_bits must be >= 1")


@dataclass(frozen=True)
class DroppedContribution:
    """A rank's contributions to reducing collectives are lost for one
    iteration (the remaining ranks' average gracefully degrades)."""

    plane: ClassVar[str] = "data"

    rank: int
    iteration: int
    op: str = "allreduce"


@dataclass(frozen=True)
class RankFailure:
    """Permanent loss of a rank at the start of iteration ``iteration``.

    ``recoverable=True`` models a clean failure: replicated state (model,
    running factors) survives and only the dead rank's layer ownership
    must be reassigned.  ``recoverable=False`` is a hard failure that
    poisons live state — the trainer must restore from its latest
    checkpoint (if one exists) before continuing.
    """

    plane: ClassVar[str] = "availability"

    rank: int
    iteration: int
    recoverable: bool = True


@dataclass(frozen=True)
class JobCrash:
    """The whole job process crashes at the start of ``iteration``.

    Unlike :class:`RankFailure` (one rank dies, the survivors continue
    elastically), a crash kills the entire run: all in-memory state is
    lost and the job must be restarted from its last checkpoint.  The
    cluster itself ignores crashes — they are interpreted by the layer
    that owns the job lifecycle (:class:`repro.fleet.FleetScheduler`),
    which detects the crash, requeues the job with backoff, and restores
    from the checkpointed step.
    """

    plane: ClassVar[str] = "availability"

    iteration: int

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError(f"crash iteration must be >= 0, got {self.iteration}")


@dataclass(frozen=True)
class BitRot:
    """At-rest corruption of the ``save_index``-th durable-state save.

    After the save sequence completes (archive *and* store manifest in
    place), ``n_bytes`` bytes of the written archive are flipped at
    positions drawn from the plan's seeded RNG — the classic silent disk
    corruption a sealed store must detect on the next load and survive
    by falling back to an older verified generation.
    """

    plane: ClassVar[str] = "storage"

    save_index: int
    n_bytes: int = 1

    def __post_init__(self) -> None:
        if self.save_index < 0:
            raise ValueError(f"save_index must be >= 0, got {self.save_index}")
        if self.n_bytes < 1:
            raise ValueError(f"n_bytes must be >= 1, got {self.n_bytes}")


@dataclass(frozen=True)
class TornWrite:
    """The ``save_index``-th save's temp file is torn before publish.

    Truncates the in-flight temp archive at the ``save:tmp_written``
    injection point, *before* ``os.replace`` — modelling a kernel/disk
    that acknowledged buffered writes it never persisted.  The atomic
    rename then publishes a corrupt archive whose seal cannot verify.
    """

    plane: ClassVar[str] = "storage"

    save_index: int
    keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.save_index < 0:
            raise ValueError(f"save_index must be >= 0, got {self.save_index}")
        if not 0.0 <= self.keep_fraction < 1.0:
            raise ValueError(
                f"keep_fraction must be in [0, 1), got {self.keep_fraction}"
            )


@dataclass(frozen=True)
class SaveCrash:
    """The process dies at injection point ``point`` of save ``save_index``.

    ``point`` is one of the store save sequence's enumerated injection
    points (:data:`repro.store.STORE_SAVE_POINTS` — archive temp write,
    publish, manifest temp write, manifest publish, ...), raising
    :class:`~repro.faults.storage.StorageCrash` there.  Sweeping every
    point is how "kill at any moment during save" becomes a
    deterministic, enumerable test.
    """

    plane: ClassVar[str] = "storage"

    save_index: int
    point: str

    def __post_init__(self) -> None:
        if self.save_index < 0:
            raise ValueError(f"save_index must be >= 0, got {self.save_index}")
        if not self.point:
            raise ValueError("point must be a non-empty injection-point name")


@dataclass(frozen=True)
class FailureEvent:
    """A rank failure as observed by the cluster when it is applied.

    ``index`` is the rank's position in the *pre-removal* active rank
    list — the coordinate layer-ownership tables are expressed in.
    """

    rank: int
    index: int
    iteration: int
    recoverable: bool


@dataclass
class FaultPlan:
    """A seeded schedule of time-, data-, and availability-plane faults."""

    seed: int = 0
    stragglers: list[Straggler] = field(default_factory=list)
    degradations: list[LinkDegradation] = field(default_factory=list)
    jitters: list[Jitter] = field(default_factory=list)
    corruptions: list[PayloadCorruption] = field(default_factory=list)
    drops: list[DroppedContribution] = field(default_factory=list)
    failures: list[RankFailure] = field(default_factory=list)
    crashes: list[JobCrash] = field(default_factory=list)
    #: Storage-plane faults, interpreted by the durable-state layer
    #: (:class:`repro.store.CheckpointStore` via
    #: :class:`repro.faults.storage.StorageFaultController`), never by
    #: the cluster.
    storage: list = field(default_factory=list)

    # -- builder API ---------------------------------------------------------

    def add_straggler(
        self, rank: int, *, start: int, stop: int | None = None, slowdown: float = 2.0
    ) -> "FaultPlan":
        self.stragglers.append(Straggler(rank, start, stop, slowdown))
        return self

    def add_link_degradation(
        self,
        *,
        start: int,
        stop: int | None = None,
        latency_factor: float = 1.0,
        bandwidth_factor: float = 1.0,
    ) -> "FaultPlan":
        self.degradations.append(LinkDegradation(start, stop, latency_factor, bandwidth_factor))
        return self

    def add_jitter(self, sigma: float, *, start: int = 0) -> "FaultPlan":
        """Jitter every rank from ``start`` on."""
        self.jitters.append(Jitter(sigma, start))
        return self

    def add_corruption(
        self,
        probability: float,
        *,
        start: int = 0,
        stop: int | None = None,
        n_bits: int = 1,
        ops: tuple[str, ...] = ("broadcast", "allgather"),
    ) -> "FaultPlan":
        self.corruptions.append(PayloadCorruption(probability, start, stop, n_bits, ops))
        return self

    def add_drop(self, rank: int, *, iteration: int) -> "FaultPlan":
        """Drop ``rank``'s contribution to the allreduces of ``iteration``."""
        self.drops.append(DroppedContribution(rank, iteration))
        return self

    def add_failure(
        self, rank: int, *, iteration: int, recoverable: bool = True
    ) -> "FaultPlan":
        self.failures.append(RankFailure(rank, iteration, recoverable))
        return self

    def add_node_failure(
        self, node: int, *, iteration: int, gpus_per_node: int, recoverable: bool = True
    ) -> "FaultPlan":
        """Fail every rank of one node at once."""
        for r in range(node * gpus_per_node, (node + 1) * gpus_per_node):
            self.add_failure(r, iteration=iteration, recoverable=recoverable)
        return self

    def add_crash(self, *, iteration: int) -> "FaultPlan":
        """Crash the whole job at the start of ``iteration`` (fleet-level)."""
        self.crashes.append(JobCrash(iteration))
        return self

    def add_bit_rot(self, *, save_index: int) -> "FaultPlan":
        """Flip a byte in the ``save_index``-th durable save, at rest."""
        self.storage.append(BitRot(save_index))
        return self

    def add_torn_write(self, *, save_index: int) -> "FaultPlan":
        """Tear the ``save_index``-th save's temp file before publish."""
        self.storage.append(TornWrite(save_index))
        return self

    def add_save_crash(self, *, save_index: int, point: str) -> "FaultPlan":
        """Kill the process at injection point ``point`` of a save."""
        self.storage.append(SaveCrash(save_index, point))
        return self

    # -- introspection -------------------------------------------------------

    def entries(self):
        """All scheduled fault records, grouped order, for capability checks."""
        for group in (
            self.stragglers,
            self.degradations,
            self.jitters,
            self.corruptions,
            self.drops,
            self.failures,
            self.crashes,
            self.storage,
        ):
            yield from group

    def is_empty(self) -> bool:
        return not (
            self.stragglers
            or self.degradations
            or self.jitters
            or self.corruptions
            or self.drops
            or self.failures
            or self.crashes
            or self.storage
        )

    def is_empty_for_cluster(self) -> bool:
        """True when nothing in the plan is interpreted *inside* a cluster.

        Job crashes are fleet-level (the scheduler kills and restarts the
        whole run) and storage faults live in the durable-state layer
        (the checkpoint store's save/load path); a plan carrying only
        those must leave the cluster's hot paths bit-identical to a
        faultless one, so ``SimCluster`` discards it.
        """
        return not (
            self.stragglers
            or self.degradations
            or self.jitters
            or self.corruptions
            or self.drops
            or self.failures
        )

    def validate(self, world_size: int) -> None:
        """Reject plans referencing ranks outside the cluster, or plans
        that would eventually kill every rank."""
        for group in (self.stragglers, self.drops, self.failures):
            for entry in group:
                if not 0 <= entry.rank < world_size:
                    raise ValueError(
                        f"{type(entry).__name__} targets rank {entry.rank}, "
                        f"but the cluster has ranks 0..{world_size - 1}"
                    )
        for j in self.jitters:
            if j.rank is not None and not 0 <= j.rank < world_size:
                raise ValueError(f"Jitter targets rank {j.rank} outside 0..{world_size - 1}")
        if len({f.rank for f in self.failures}) >= world_size:
            raise ValueError("plan fails every rank; at least one must survive")

    def describe(self) -> str:
        """Human-readable one-line-per-fault summary."""
        lines = [f"FaultPlan(seed={self.seed})"]
        lines.extend(f"  {entry}" for entry in self.entries())
        return "\n".join(lines)
