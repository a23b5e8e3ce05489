"""Multi-job fleet simulation on the representative-rank timing track.

A :class:`FleetScheduler` time-shares one simulated interconnect
(:class:`SharedFabric`, weighted fair sharing) between tens of
concurrent training jobs at 1k–16k ranks each, with per-job priorities,
arrivals, and observability ledgers.  Jobs run on the timing track's
representative-rank data plane, so payload memory is O(1) in world
size — the whole fleet fits on a laptop-class host.

Fleets are resilient: jobs checkpoint periodically and the scheduler
restarts crashed jobs from their checkpoint with capped exponential
backoff (up to a retry budget), preempts lower-priority jobs when a
concurrency cap binds, and accounts per-job SLOs, restarts, and goodput
in each :class:`JobReport`.  The seeded chaos harness
(:mod:`repro.fleet.chaos`, ``repro fleet --chaos``) attaches
deterministic fault plans to any spec list.  The named job mixes
``repro fleet --preset`` runs are ``repro.scenarios.FLEETS``.
"""

from repro.fleet.chaos import apply_chaos, chaos_plan, fabric_degradations
from repro.fleet.fabric import SharedFabric
from repro.fleet.job import FleetJob, JobCrashed, JobSpec
from repro.fleet.scheduler import FleetResult, FleetScheduler, JobReport

__all__ = [
    "SharedFabric",
    "FleetJob",
    "JobCrashed",
    "JobSpec",
    "FleetScheduler",
    "FleetResult",
    "JobReport",
    "apply_chaos",
    "chaos_plan",
    "fabric_degradations",
]
