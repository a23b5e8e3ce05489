"""Fleet scheduler: interleave many jobs over one shared fabric.

Discrete-event style: among live jobs, always advance the one whose
fleet clock (a running job's ``offset + sim time``, a waiting job's
ready time) is furthest behind.  By the time a job prices a collective,
every job that could overlap it in fleet time has already recorded its
transfer windows, so the fabric's weighted fair sharing sees the true
concurrent load.  After each step the fabric prunes windows behind the
slowest live job — memory stays bounded by in-flight transfers, not run
length.

**Determinism.** The event ordering key is the tuple
``(fleet_time, -priority, name)``: ties on the fleet clock go to the
higher-priority job, then lexicographically by name.  Every component
is a float or a str with version-independent comparison semantics, and
``min`` over a list is stable, so two runs of the same spec set produce
byte-identical ledgers on any Python version.

**Failure lifecycle.** Jobs checkpoint periodically (exact-resume).  A
scheduled :class:`~repro.faults.plan.JobCrash` raises out of the job's
step; the scheduler rolls the job back to its checkpoint and requeues
it with capped exponential backoff (``min(base * 2**restarts, cap)``)
until the retry budget is exhausted, at which point the job is marked
``failed``.  When ``max_concurrent`` caps running jobs, an arriving
higher-priority job preempts the lowest-priority running one
(checkpoint first — preemption costs queue position, not work);
preemptions never charge the retry budget, so a preempted job cannot be
starved past it.  Rank/node failures inside a job are invisible here:
the trainer's elastic continuation handles them mid-run.

Because every job runs on a representative-rank timing cluster, payload
memory per job is O(1) in world size: a fleet of tens of 1k–16k-rank
jobs fits on a laptop-class host.
"""

from __future__ import annotations

import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.fleet.fabric import SharedFabric
from repro.fleet.job import FleetJob, JobCrashed, JobSpec

__all__ = ["JobReport", "FleetResult", "FleetScheduler"]


@dataclass(frozen=True)
class JobReport:
    """Per-job outcome of one fleet run."""

    name: str
    world_size: int
    priority: float
    arrival: float
    steps: int
    #: Job-local simulated seconds priced across all segments (its own
    #: wallclock, including work later rolled back by crashes).
    sim_time: float
    #: Fleet time at which the job finished (or permanently failed).
    fleet_end: float
    final_loss: float
    #: Extra seconds lost to fabric contention.
    contended_seconds: float
    #: Mean contention stretch on this job's transfers (1.0 = alone).
    slowdown: float
    #: Largest per-collective payload residency (bytes) — flat in
    #: world size on the representative path.
    peak_payload_bytes: float
    ledger: str | None
    #: Terminal lifecycle state: "done" or "failed".
    state: str = "done"
    restarts: int = 0
    preemptions: int = 0
    #: Sim seconds rolled back by crashes plus fleet seconds of backoff.
    time_lost_s: float = 0.0
    #: Useful sim seconds per fleet second of residency (1.0 = solo
    #: faultless job).
    goodput: float = 1.0
    #: Latency SLO relative to arrival; None = no SLO.
    deadline: float | None = None
    #: Whether the job finished inside its deadline (None = no SLO).
    slo_met: bool | None = None
    #: Durable-state events (all zero with a healthy store): restores
    #: that fell back past a damaged newest generation, files quarantined
    #: (or found missing), and repairs (manifest rebuilds; orphan
    #: adoption is ``repro fsck``'s alone and is not counted).
    store_fallbacks: int = 0
    store_quarantined: int = 0
    store_repairs: int = 0
    #: Critical-path summary (xray-lite for the timing track): on a
    #: virtual-clock plane the elapsed work time *is* the critical path,
    #: and barrier accounting names the rank the others waited on most.
    critpath_s: float = 0.0
    straggler_skew_s: float = 0.0
    top_straggler_rank: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FleetResult:
    """Outcome of a whole fleet run."""

    reports: tuple[JobReport, ...]
    #: Fleet time at which the last job finished.
    makespan: float
    total_contended_seconds: float
    total_restarts: int = 0
    total_preemptions: int = 0
    jobs_failed: int = 0
    #: Jobs with an SLO that missed it (failed jobs count as misses).
    slo_missed: int = 0

    def by_name(self, name: str) -> JobReport:
        for report in self.reports:
            if report.name == name:
                return report
        raise KeyError(f"no job named {name!r} in fleet result")

    def to_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "total_contended_seconds": self.total_contended_seconds,
            "total_restarts": self.total_restarts,
            "total_preemptions": self.total_preemptions,
            "jobs_failed": self.jobs_failed,
            "slo_missed": self.slo_missed,
            "jobs": [r.to_dict() for r in self.reports],
        }


class FleetScheduler:
    """Run a set of :class:`JobSpec` jobs over one shared fabric."""

    #: Restart backoff after a crash: ``min(base * 2**restarts, cap)``
    #: fleet seconds.
    backoff_base = 1e-3
    backoff_cap = 8e-3

    def __init__(
        self,
        specs: list[JobSpec],
        *,
        ledger_dir: str | Path | None = None,
        # Ignored; perfbench's fleet_scale passes it until ROADMAP.md item 4 drops both.
        checkpoint_dir: str | Path | None = None,
        store_dir: str | Path | None = None,
        max_concurrent: int | None = None,
        retry_budget: int = 3,
        fabric_degradations: list[tuple[float, float, float]] | None = None,
    ):
        if not specs:
            raise ValueError("fleet needs at least one job")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names in fleet: {sorted(names)}")
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        self.max_concurrent = max_concurrent
        self.retry_budget = retry_budget
        self.fabric = SharedFabric()
        for start, stop, factor in fabric_degradations or []:
            self.fabric.degrade(start, stop, factor)
        self.ledger_dir = Path(ledger_dir) if ledger_dir is not None else None
        if self.ledger_dir is not None:
            self.ledger_dir.mkdir(parents=True, exist_ok=True)
        # Each job checkpoints into a sealed versioned CheckpointStore
        # under ``store_dir/<job name>``, which the restart/preemption
        # machinery and the jobs' storage-plane faults need; without a
        # caller-provided directory the stores live in a temp dir tied to
        # the scheduler's lifetime.
        self._tmpdir = None
        if store_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="fleet-store-")
            store_dir = self._tmpdir.name
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = [
            FleetJob(
                spec,
                self.fabric,
                store_dir=self.store_dir,
                ledger_path=(
                    self.ledger_dir / f"{spec.name}.ledger"
                    if self.ledger_dir is not None
                    else None
                ),
            )
            for spec in specs
        ]

    # -- event loop -----------------------------------------------------------

    def _key(self, job: FleetJob):
        """Deterministic event order: fleet time, then priority, then name."""
        t = job.ready_time if job.state == "waiting" else job.now
        return (t, -job.spec.priority, job.spec.name)

    def run(self) -> FleetResult:
        """Advance jobs in least-fleet-time-first order until none are live."""
        while True:
            live = [j for j in self.jobs if j.state in ("waiting", "running")]
            if not live:
                break
            job = min(live, key=self._key)
            if job.state == "waiting":
                if self._admit(job, job.ready_time):
                    continue
                # Blocked on capacity: wake when a running job passes this
                # ready time; if none is ahead, step the furthest-behind
                # running job so fleet time makes progress.
                running = [j for j in self.jobs if j.state == "running"]
                ahead = [r.now for r in running if r.now > job.ready_time]
                if ahead:
                    job.ready_time = min(ahead)
                    continue
                job = min(running, key=self._key)
            self._step(job)
            live = [j for j in self.jobs if j.state in ("waiting", "running")]
            if live:
                self.fabric.prune(min(self._key(j)[0] for j in live))
        reports = tuple(self._report(job) for job in self.jobs)
        return FleetResult(
            reports=reports,
            makespan=max(r.fleet_end for r in reports),
            total_contended_seconds=sum(r.contended_seconds for r in reports),
            total_restarts=sum(r.restarts for r in reports),
            total_preemptions=sum(r.preemptions for r in reports),
            jobs_failed=sum(1 for r in reports if r.state == "failed"),
            slo_missed=sum(1 for r in reports if r.slo_met is False),
        )

    def _admit(self, job: FleetJob, now: float) -> bool:
        """Start a waiting job, preempting a lower-priority one if the
        concurrency cap is reached.  Victim choice is deterministic:
        lowest priority, then name."""
        running = [j for j in self.jobs if j.state == "running"]
        if self.max_concurrent is None or len(running) < self.max_concurrent:
            job.resume(now)
            return True
        victim = min(running, key=lambda j: (j.spec.priority, j.spec.name))
        if victim.spec.priority < job.spec.priority:
            victim.preempt()
            job.resume(now)
            return True
        return False

    def _step(self, job: FleetJob) -> None:
        """Run one step; on a crash, roll back and requeue with backoff."""
        try:
            job.step()
        except JobCrashed:
            at = job.now
            job.crash_rollback()
            if job.restarts >= self.retry_budget:
                job.mark_failed(at)
                return
            backoff = min(self.backoff_base * (2.0 ** job.restarts), self.backoff_cap)
            job.restarts += 1
            job.backoff_total += backoff
            job.ready_time = at + backoff

    def _report(self, job: FleetJob) -> JobReport:
        spec = job.spec
        store = job.store.summary()
        straggler = job.top_straggler()
        return JobReport(
            name=spec.name,
            world_size=spec.world_size,
            priority=spec.priority,
            arrival=spec.arrival,
            steps=job.steps_done,
            sim_time=job.work_time,
            fleet_end=job.end if job.end is not None else job.now,
            final_loss=job.final_loss,
            contended_seconds=self.fabric.contended_seconds[spec.name],
            slowdown=self.fabric.slowdown(spec.name),
            peak_payload_bytes=job.cluster.peak_payload_bytes,
            ledger=str(job.ledger_path) if job.ledger_path is not None else None,
            state=job.state,
            restarts=job.restarts,
            preemptions=job.preemptions,
            time_lost_s=job.lost_work + job.backoff_total,
            goodput=job.goodput(),
            deadline=spec.deadline,
            slo_met=job.slo_met(),
            store_fallbacks=store["fallbacks"],
            store_quarantined=store["quarantined"],
            store_repairs=store["repairs"],
            critpath_s=job.critpath_s,
            straggler_skew_s=job.straggler_skew_s,
            top_straggler_rank=straggler[0] if straggler is not None else None,
        )
