"""Runtime interpreter of a :class:`~repro.faults.plan.FaultPlan`.

``SimCluster`` owns one controller per faulted run and consults it on
every collective: time-plane faults stretch per-rank clocks, data-plane
faults corrupt or drop payload copies, and scheduled failures surface at
iteration boundaries.  Every injected fault is appended to
:attr:`FaultController.events` (the materialised fault schedule — two
runs with the same seed and plan produce identical logs) and counted on
the active metrics registry under ``faults.injected``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.faults.injection import corrupt_payload
from repro.faults.plan import FaultPlan, RankFailure, window_active
from repro.telemetry import get_metrics
from repro.util.seeding import spawn_rng

__all__ = ["FaultController"]

#: Spawn keys for the controller's independent random streams.
_JITTER_STREAM = 7001
_CORRUPTION_STREAM = 7002


class FaultController:
    """Stateful fault-plan executor for one simulated run."""

    def __init__(self, plan: FaultPlan, world_size: int):
        plan.validate(world_size)
        self.plan = plan
        self.world_size = world_size
        self.iteration = 0
        #: Materialised fault schedule: one dict per injected fault.
        self.events: list[dict] = []
        self._failed: set[int] = set()
        self._jitter_rng = spawn_rng(plan.seed, _JITTER_STREAM)
        self._corrupt_rng = spawn_rng(plan.seed, _CORRUPTION_STREAM)
        self._network_cache: tuple[tuple[float, float], object, object] | None = None

    # -- bookkeeping ---------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        self.events.append({"kind": kind, "iteration": self.iteration, **fields})
        m = get_metrics()
        if m.enabled:
            m.counter("faults.injected", kind=kind).inc()

    # -- iteration boundary --------------------------------------------------

    def begin_iteration(self, iteration: int) -> list[RankFailure]:
        """Advance the fault clock; return failures due but not yet applied."""
        self.iteration = int(iteration)
        due = [
            f
            for f in self.plan.failures
            if f.iteration <= self.iteration and f.rank not in self._failed
        ]
        for f in due:
            self._failed.add(f.rank)
            self.record("rank_failure", rank=f.rank, recoverable=f.recoverable)
        lat, bw = self.network_factors()
        if (lat, bw) != (1.0, 1.0):
            # One event per degraded iteration (per-collective recording
            # would swamp the log without adding information).
            self.record("link_degradation", latency_factor=lat, bandwidth_factor=bw)
        return due

    # -- time plane ----------------------------------------------------------

    def straggler_factor(self, rank: int) -> float:
        factor = 1.0
        for s in self.plan.stragglers:
            if s.rank == rank and window_active(s.start, s.stop, self.iteration):
                factor *= s.slowdown
        return factor

    def jitter_seconds(self, rank: int) -> float:
        extra = 0.0
        for j in self.plan.jitters:
            if window_active(j.start, j.stop, self.iteration) and (
                j.rank is None or j.rank == rank
            ):
                extra += float(self._jitter_rng.exponential(j.sigma))
        return extra

    def collective_extras(
        self, op: str, base_seconds: float, rank_ids: list[int]
    ) -> dict[int, float]:
        """Per-rank extra seconds this collective costs under active faults.

        The draw order is the rank order of ``rank_ids``, which the
        cluster keeps stable, so schedules are reproducible.

        Fast path for fleet-scale worlds: when no jitter window is active
        (so no randomness would be consumed anyway), only ranks with an
        active straggler are visited — a 4096-rank collective with one
        straggler touches one rank, not 4096.
        """
        extras: dict[int, float] = {}
        if not any(
            window_active(j.start, j.stop, self.iteration) for j in self.plan.jitters
        ):
            active = {
                s.rank
                for s in self.plan.stragglers
                if window_active(s.start, s.stop, self.iteration)
            }
            if not active:
                return extras
            rank_ids = [r for r in rank_ids if r in active]
        for rank in rank_ids:
            extra = (self.straggler_factor(rank) - 1.0) * base_seconds
            if extra > 0.0:
                self.record("straggler", rank=rank, op=op, seconds=extra)
            jitter = self.jitter_seconds(rank)
            if jitter > 0.0:
                self.record("jitter", rank=rank, op=op, seconds=jitter)
                extra += jitter
            if extra > 0.0:
                extras[rank] = extra
        return extras

    def network_factors(self) -> tuple[float, float]:
        """(latency multiplier, bandwidth divisor) for the current iteration."""
        lat = 1.0
        bw = 1.0
        for d in self.plan.degradations:
            if window_active(d.start, d.stop, self.iteration):
                lat *= d.latency_factor
                bw *= d.bandwidth_factor
        return lat, bw

    def effective_network(self, base):
        """``base`` NetworkSpec with any active degradation applied."""
        factors = self.network_factors()
        if factors == (1.0, 1.0):
            return base
        cached = self._network_cache
        if cached is not None and cached[0] == factors and cached[1] is base:
            return cached[2]
        lat, bw = factors
        degraded = replace(
            base,
            name=f"{base.name}-degraded",
            inter_bw=base.inter_bw / bw,
            inter_lat=base.inter_lat * lat,
            intra_bw=base.intra_bw / bw,
            intra_lat=base.intra_lat * lat,
        )
        self._network_cache = (factors, base, degraded)
        return degraded

    # -- data plane ----------------------------------------------------------

    def _corruption_probability(self, op: str) -> float:
        p_clean = 1.0
        for c in self.plan.corruptions:
            if op in c.ops and window_active(c.start, c.stop, self.iteration):
                p_clean *= 1.0 - c.probability
        return 1.0 - p_clean

    def maybe_corrupt(self, obj: object, *, rank: int, op: str) -> tuple[object, bool]:
        """Independently corrupt one receiver's payload copy.

        Consumes randomness only while a corruption window is active, so
        runs without corruption stay bit-identical regardless of other
        plan entries.
        """
        p = self._corruption_probability(op)
        if p <= 0.0:
            return obj, False
        if float(self._corrupt_rng.random()) >= p:
            return obj, False
        n_bits = max(
            (
                c.n_bits
                for c in self.plan.corruptions
                if op in c.ops and window_active(c.start, c.stop, self.iteration)
            ),
            default=1,
        )
        self.record("corruption", rank=rank, op=op, n_bits=n_bits)
        return corrupt_payload(obj, self._corrupt_rng, n_bits), True

    def dropped_ranks(self, op: str, rank_ids: list[int]) -> set[int]:
        """Ranks whose contribution to this reducing collective is lost."""
        dropped = {
            d.rank
            for d in self.plan.drops
            if d.iteration == self.iteration and d.op == op and d.rank in rank_ids
        }
        # Never drop everyone: a collective with zero contributors is a
        # hang, not a degraded average.
        if len(dropped) >= len(rank_ids):
            dropped = set(sorted(dropped)[: len(rank_ids) - 1])
        for rank in sorted(dropped):
            self.record("drop", rank=rank, op=op)
        return dropped
