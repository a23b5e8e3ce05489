"""Shared-fabric contention model for multi-job fleets.

Tens of jobs time-share one interconnect.  Each job registers with a
weight (its scheduling priority); when a job's collective would occupy
the fabric for ``seconds``, the fabric looks at every other job's
recorded transfer windows overlapping that interval and stretches the
transfer by the weighted-fair-sharing factor

    factor = (own_weight + sum_j other_weight_j * overlap_fraction_j) / own_weight

so a transfer that fully overlaps one equal-weight competitor takes 2x
as long, and a high-priority job is slowed less than the low-priority
jobs contending with it.  An uncontended fabric prices every transfer
at exactly its nominal alpha-beta cost — a single-job fleet is
bit-identical to running the job alone.

Windows are recorded in *fleet* time (job arrival offset + job-local
sim time) and pruned once every live job's clock has moved past them,
keeping the window list bounded by the number of in-flight transfers
rather than the length of the run.  The windows are kept sorted by end:
a transfer visits only those that end after it starts, and a prune cuts
the expired ones off the front.  The overlapping windows are summed in
the order they were recorded, so every stretched duration is the float
a scan of all windows in that order gives.

The fabric can also carry *degradation windows* (``degrade``): fleet-time
intervals during which the whole interconnect runs ``factor``x slower —
the chaos harness uses these to model spine-link brownouts that slow
every job at once, on top of each job's own fault plan.  A transfer
overlapping a degradation window is stretched by the overlapped fraction
before contention is priced, so degradation and fair sharing compose.
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["SharedFabric"]


class SharedFabric:
    """Weighted fair-sharing interconnect shared by fleet jobs."""

    def __init__(self):
        self._weights: dict[str, float] = {}
        # (end, start, seq, name, weight) transfer windows in fleet time,
        # sorted by end (and _ends, their ends, with them); seq is the
        # recording order.
        self._windows: list[tuple[float, float, int, str, float]] = []
        self._ends: list[float] = []
        #: Extra seconds each job spent waiting on contention.
        self.contended_seconds: dict[str, float] = {}
        #: Nominal (uncontended) seconds each job put on the wire.
        self.nominal_seconds: dict[str, float] = {}
        #: Extra seconds each job lost to fabric degradation windows.
        self.degraded_seconds: dict[str, float] = {}
        # (start, stop, factor) fleet-time windows of fabric slowdown.
        self._degradations: list[tuple[float, float, float]] = []
        #: Total transfers priced.
        self.acquisitions = 0

    def register(self, name: str, weight: float = 1.0) -> None:
        """Add a job to the fabric; ``weight`` is its fair-share priority."""
        if not name:
            raise ValueError("fabric job name must be non-empty")
        if name in self._weights:
            raise ValueError(f"job {name!r} already registered on fabric")
        weight = float(weight)
        if weight <= 0.0:
            raise ValueError(f"fabric weight must be positive, got {weight}")
        self._weights[name] = weight
        self.contended_seconds[name] = 0.0
        self.nominal_seconds[name] = 0.0
        self.degraded_seconds[name] = 0.0

    def degrade(self, start: float, stop: float, factor: float) -> None:
        """Slow the whole fabric ``factor``x inside ``[start, stop)``."""
        if stop <= start:
            raise ValueError(f"degradation window [{start}, {stop}) is empty")
        if factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {factor}")
        self._degradations.append((float(start), float(stop), float(factor)))

    def acquire(self, name: str, op: str, start: float, seconds: float) -> float:
        """Price one transfer: returns the contention-stretched duration
        and records the job's occupancy window for later arrivals."""
        if name not in self._weights:
            raise KeyError(f"job {name!r} is not registered on fabric")
        if seconds <= 0.0:
            return seconds
        own = self._weights[name]
        # Fabric degradation first: the overlapped fraction of the
        # transfer runs factor-x slower, stretching the window that
        # contention is then priced over.
        degraded = seconds
        for d_start, d_stop, d_factor in self._degradations:
            overlap = min(start + seconds, d_stop) - max(start, d_start)
            if overlap > 0.0:
                degraded += (d_factor - 1.0) * overlap
        end = start + degraded
        load = own
        first = bisect_right(self._ends, start)  # windows ending by ``start`` cannot overlap
        overlapping = [
            (seq, w_weight, overlap)
            for w_end, w_start, seq, w_name, w_weight in self._windows[first:]
            if w_start < end and w_name != name
            and (overlap := min(end, w_end) - max(start, w_start)) > 0.0
        ]
        for _, w_weight, overlap in sorted(overlapping):
            load += w_weight * (overlap / degraded)
        slowed = degraded * (load / own)
        at = bisect_right(self._ends, start + slowed)
        self._ends.insert(at, start + slowed)
        self._windows.insert(at, (start + slowed, start, self.acquisitions, name, own))
        self.nominal_seconds[name] += seconds
        self.degraded_seconds[name] += degraded - seconds
        self.contended_seconds[name] += slowed - degraded
        self.acquisitions += 1
        return slowed

    def slowdown(self, name: str) -> float:
        """Mean contention stretch for ``name`` (1.0 = never contended)."""
        nominal = self.nominal_seconds.get(name, 0.0)
        if nominal <= 0.0:
            return 1.0
        return 1.0 + self.contended_seconds[name] / nominal

    def prune(self, frontier: float) -> int:
        """Drop windows ending before ``frontier`` (every live job's
        clock has passed them); returns how many were dropped."""
        expired = bisect_right(self._ends, frontier)
        del self._windows[:expired], self._ends[:expired]
        self._degradations = [d for d in self._degradations if d[1] > frontier]
        return expired
