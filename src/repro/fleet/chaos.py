"""Seeded chaos harness for fleet runs (``repro fleet --chaos``).

Builds per-job :class:`~repro.faults.plan.FaultPlan`s for an arbitrary
spec list from one RNG seeded by ``(seed, job index)`` — the same
``(specs, rate, seed)`` always yields the same fault schedule, so chaos
fleets are byte-reproducible.  ``rate`` scales every fault probability:
``rate=0`` attaches nothing (the specs are returned unchanged, so the
run is bit-identical to a faultless fleet), ``rate=1`` is the nominal
chaos level, and larger values push toward every-job-faulted.

Only time-plane and availability-plane faults are drawn — stragglers,
fabric link degradation, recoverable node failures, and whole-job
crashes — because fleet jobs run on the timing track, which rejects
data-plane faults (DESIGN.md decision 9).  Per-rank jitter is
deliberately excluded: it costs O(world) RNG draws per collective,
which at 1k–4k ranks would dominate the harness.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.plan import FaultPlan
from repro.fleet.job import GPUS_PER_NODE, JobSpec
from repro.util.seeding import spawn_rng

__all__ = ["chaos_plan", "apply_chaos", "fabric_degradations"]

#: Spawn-key base for per-job chaos streams (offset by job index).
_CHAOS_STREAM = 7300

#: Nominal per-job fault probabilities at ``rate=1.0``.
P_STRAGGLER = 0.6
P_DEGRADATION = 0.5
P_NODE_FAILURE = 0.35
P_CRASH = 0.5


def _p(base: float, rate: float) -> float:
    return min(base * rate, 1.0)


def chaos_plan(spec: JobSpec, index: int, *, rate: float, seed: int) -> FaultPlan | None:
    """Draw one job's fault plan; ``None`` when nothing was drawn.

    The drawn schedule only references iterations/ranks the job actually
    has, so any ``JobSpec`` (any world size, any length) can be chaosed.
    """
    if rate < 0.0:
        raise ValueError(f"chaos rate must be >= 0, got {rate}")
    if rate == 0.0:
        return None
    rng = spawn_rng(seed, _CHAOS_STREAM + index)
    plan = FaultPlan(seed=seed + index)
    iters = spec.iterations
    if rng.random() < _p(P_STRAGGLER, rate):
        rank = int(rng.integers(0, spec.world_size))
        start = int(rng.integers(0, iters))
        plan.add_straggler(
            rank,
            start=start,
            stop=min(start + 1 + int(rng.integers(0, 2)), iters),
            slowdown=2.0 + 2.0 * float(rng.random()),
        )
    if rng.random() < _p(P_DEGRADATION, rate):
        start = int(rng.integers(0, iters))
        plan.add_link_degradation(
            start=start,
            stop=min(start + 1, iters),
            bandwidth_factor=1.5 + float(rng.random()),
        )
    # Node failures need a surviving remainder and a node to lose.
    n_nodes = spec.world_size // GPUS_PER_NODE
    if n_nodes > 1 and rng.random() < _p(P_NODE_FAILURE, rate):
        plan.add_node_failure(
            int(rng.integers(0, n_nodes)),
            iteration=int(rng.integers(0, iters)),
            gpus_per_node=GPUS_PER_NODE,
            recoverable=True,
        )
    if iters > 1 and rng.random() < _p(P_CRASH, rate):
        plan.add_crash(iteration=int(rng.integers(1, iters)))
    return None if plan.is_empty() else plan


def apply_chaos(
    specs: list[JobSpec], *, rate: float = 1.0, seed: int = 0
) -> list[JobSpec]:
    """Return ``specs`` with seeded chaos plans attached.

    A spec that already carries a fault plan keeps it (hand-authored
    schedules win over drawn ones).  ``rate=0`` returns the specs
    unchanged, guaranteeing bit-identity with the faultless fleet.
    """
    out: list[JobSpec] = []
    for i, spec in enumerate(specs):
        if spec.fault_plan is not None or rate == 0.0:
            out.append(spec)
            continue
        plan = chaos_plan(spec, i, rate=rate, seed=seed)
        out.append(spec if plan is None else replace(spec, fault_plan=plan))
    return out


def fabric_degradations(
    specs: list[JobSpec], *, rate: float = 1.0, seed: int = 0
) -> list[tuple[float, float, float]]:
    """Fleet-time spine brownout windows for ``FleetScheduler``.

    Windows are drawn inside the fleet's arrival span so they actually
    overlap early transfers; each slows the whole fabric for every job.
    """
    if rate <= 0.0:
        return []
    rng = spawn_rng(seed, _CHAOS_STREAM - 1)
    horizon = max((s.arrival for s in specs), default=0.0) + 0.01
    windows: list[tuple[float, float, float]] = []
    n = int(rng.integers(0, 1 + max(1, round(rate))))
    for _ in range(n):
        start = float(rng.random()) * horizon
        width = (0.2 + 0.8 * float(rng.random())) * horizon * 0.5
        windows.append((start, start + width, 1.5 + float(rng.random())))
    return windows
