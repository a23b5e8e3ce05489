"""One fleet job: a timing-track COMPSO training run on shared fabric.

A :class:`FleetJob` trains the ``repro.scenarios`` run its spec
describes, on a representative-rank timing cluster (O(1) payload memory
in world size — a 16k-rank job costs the same RAM as a 4-rank one), wires the
cluster's contention hook to the shared :class:`SharedFabric`, and
exposes single-step execution so the scheduler can interleave tens of
jobs in simulated-time order.

Jobs have a failure lifecycle (``waiting -> running -> done``, with
crash/preempt excursions back to ``waiting`` and a terminal ``failed``):

* the job checkpoints after every completed step via the trainer's
  atomic exact-resume checkpoint (model, K-FAC eigen state, momentum,
  adaptive bounds, SR RNG);
* a :class:`~repro.faults.plan.JobCrash` in the job's fault plan raises
  :class:`JobCrashed` at the scheduled iteration — the scheduler rolls
  the job back to its checkpoint and requeues it with backoff;
* preemption checkpoints at the *current* step, so a preempted job
  loses queue position but no work;
* rank/node failures inside the plan never reach the scheduler — the
  trainer's elastic continuation (``repro.faults.recovery`` semantics)
  shrinks the world and reassigns layer ownership mid-run.

Fleet-time bookkeeping: ``offset`` is the fleet time at which the
current segment's cluster clock started (the arrival for the first
segment, the resume time after a crash or preemption), so ``now =
offset + cluster.time`` is always the job's true position on the fleet
clock, and fabric windows from rolled-back segments stay priced — the
lost work really did occupy the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plan import FaultPlan
from repro.faults.storage import StorageCrash, StorageFaultController
from repro.fleet.fabric import SharedFabric
from repro.store import CheckpointStore

__all__ = ["JobSpec", "FleetJob", "JobCrashed"]

#: Every fleet job runs on nodes of this many GPUs (a smaller world is
#: one partial node).
GPUS_PER_NODE = 4


class JobCrashed(RuntimeError):
    """Raised by :meth:`FleetJob.step` when a scheduled crash fires."""

    def __init__(self, name: str, iteration: int):
        super().__init__(f"job {name!r} crashed at iteration {iteration}")
        self.name = name
        self.iteration = iteration


@dataclass(frozen=True)
class JobSpec:
    """Static description of one job submitted to the fleet."""

    name: str
    world_size: int
    iterations: int
    batch_size: int = 64
    #: Fair-share weight on the fabric (higher = slowed less) and the
    #: scheduler's preemption rank (higher priority can preempt lower).
    priority: float = 1.0
    seed: int = 0
    #: Fleet time at which the job starts (seconds).
    arrival: float = 0.0
    #: Latency SLO: the job should finish within ``deadline`` fleet
    #: seconds of its arrival.  ``None`` means no SLO.
    deadline: float | None = None
    #: Per-job fault schedule.  Crashes are interpreted by the fleet
    #: scheduler; everything else by the job's own SimCluster (which
    #: rejects data-plane faults on the timing track).
    fault_plan: FaultPlan | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("job name must be a non-empty string")
        if self.iterations < 1:
            raise ValueError(f"job {self.name!r}: iterations must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"job {self.name!r}: batch_size must be >= 1")
        if self.world_size < 1:
            raise ValueError(f"job {self.name!r}: world_size must be >= 1")
        if self.world_size % min(self.world_size, GPUS_PER_NODE):
            raise ValueError(
                f"job {self.name!r}: world_size {self.world_size} does not divide into "
                f"{GPUS_PER_NODE}-GPU nodes"
            )
        if self.priority <= 0.0:
            raise ValueError(
                f"job {self.name!r}: priority must be > 0, got {self.priority!r}"
            )
        if self.arrival < 0.0:
            raise ValueError(f"job {self.name!r}: arrival must be >= 0")
        if self.deadline is not None and self.deadline <= 0.0:
            raise ValueError(
                f"job {self.name!r}: deadline must be > 0 seconds past arrival"
            )


class FleetJob:
    """A job's live state: cluster, trainer, batch cursor, lifecycle."""

    def __init__(
        self,
        spec: JobSpec,
        fabric: SharedFabric,
        *,
        store_dir: str | Path,
        ledger_path: str | Path | None = None,
    ):
        self.spec = spec
        self.fabric = fabric
        fabric.register(spec.name, spec.priority)
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        # Durable state: the job checkpoints into a sealed, versioned
        # CheckpointStore (its own subdirectory of ``store_dir``) and
        # restores fall back across generations on damage.  The store —
        # and the storage fault controller interpreting the spec's
        # storage-plane faults against it — persist across segment
        # rebuilds: a restarted job keeps its generation lineage, and
        # each scheduled fault fires exactly once per job lifetime.
        hooks_factory = None
        if spec.fault_plan is not None and spec.fault_plan.storage:
            hooks_factory = StorageFaultController(spec.fault_plan).hooks_for
        self.store = CheckpointStore(Path(store_dir) / spec.name, hooks_factory=hooks_factory)
        # -- lifecycle state --------------------------------------------------
        self.state = "waiting"
        #: Fleet time at which the job can (re)start.
        self.ready_time = spec.arrival
        #: Fleet time at which the current segment's cluster clock started.
        self.offset = spec.arrival
        #: Fleet time at which the job finished or permanently failed.
        self.end: float | None = None
        self.restarts = 0
        self.preemptions = 0
        #: Sim seconds of work rolled back by crashes.
        self.lost_work = 0.0
        #: Fleet seconds spent waiting out restart backoff.
        self.backoff_total = 0.0
        #: Priced sim seconds of earlier (crashed or preempted) segments.
        self.sim_time_past = 0.0
        #: Fault-injected collective stall from earlier segments.
        self._fault_delay_past = 0.0
        self.checkpoint_step = 0
        self._ckpt_sim_time = 0.0
        self._pending_restore = False
        #: Crash iterations that already fired — a crash happens once,
        #: so the restarted job runs past it.
        self._crashes_fired: set[int] = set()
        self._crash_iters = (
            {c.iteration for c in spec.fault_plan.crashes}
            if spec.fault_plan is not None
            else set()
        )
        self.steps_done = 0
        self._build()

    def _build(self) -> None:
        """(Re)construct cluster, trainer, and ledger for one segment."""
        from repro.data.loaders import batch_indices
        from repro.scenarios import Scenario, build, compso

        spec = self.spec
        gpus = min(spec.world_size, GPUS_PER_NODE)
        self.trainer = build(
            Scenario(
                name=spec.name, nodes=spec.world_size // gpus, gpus_per_node=gpus,
                iterations=spec.iterations, batch_size=spec.batch_size,
                seed=spec.seed, job_seed=spec.seed, compressor=compso,
                faults=spec.fault_plan, track="timing", note="fleet job={name}",
            ),
            self.ledger_path,
            self.store,
        )
        self.cluster = self.trainer.cluster
        # Every collective this cluster prices goes through the shared
        # fabric, translated from job-local to fleet time.
        self.cluster.contention = self._price
        if self.trainer.obsv is not None:
            self.trainer.obsv.update_manifest(
                seed=spec.seed,
                iterations=spec.iterations,
                batch_size=spec.batch_size,
                fleet=self._fleet_manifest(),
            )
        self._batches = list(
            batch_indices(
                self.trainer.task.n, spec.batch_size, iterations=spec.iterations, seed=spec.seed
            )
        )

    def _price(self, op: str, start: float, seconds: float) -> float:
        return self.fabric.acquire(self.spec.name, op, self.offset + start, seconds)

    # -- clocks & accounting --------------------------------------------------

    @property
    def done(self) -> bool:
        return self.steps_done >= len(self._batches)

    @property
    def now(self) -> float:
        """The job's position on the fleet clock."""
        return self.offset + self.cluster.time

    @property
    def work_time(self) -> float:
        """Sim seconds priced across all segments (including lost work)."""
        return self.sim_time_past + self.cluster.time

    @property
    def fault_delay_time(self) -> float:
        """Critical-path sim seconds lost to straggler/jitter stalls."""
        return self._fault_delay_past + self.cluster.fault_delay_seconds

    @property
    def critpath_s(self) -> float:
        """Critical-path sim seconds: on the timing track the shared
        clock plane *is* the critical path (every barrier folds the
        slowest rank into the base), so elapsed work time is exact."""
        return self.work_time

    @property
    def straggler_skew_s(self) -> float:
        """Mean per-rank barrier-wait seconds in the current segment
        (the plane's straggler accounting resets when a crash or
        preemption rebuilds the cluster)."""
        return self.cluster._plane.barrier_wait_s

    def top_straggler(self) -> tuple[int, float] | None:
        """The rank that led the most barrier time, with its seconds."""
        return self.cluster._plane.top_straggler()

    @property
    def useful_time(self) -> float:
        """Sim seconds of surviving work, net of fabric and fault stretch.

        Work rolled back by crashes, seconds spent waiting on fabric
        contention or degradation windows, and straggler/jitter stalls
        are not useful (waste inside a later-rolled-back segment is
        subtracted once under each heading — a conservative
        approximation).
        """
        waste = (
            self.lost_work
            + self.fault_delay_time
            + self.fabric.contended_seconds.get(self.spec.name, 0.0)
            + self.fabric.degraded_seconds.get(self.spec.name, 0.0)
        )
        return max(self.work_time - waste, 0.0)

    def goodput(self) -> float:
        """Useful sim seconds per fleet second of residency (1.0 = a solo
        faultless job; crashes, backoff, queueing, contention, and fabric
        degradation all lower it)."""
        end = self.end if self.end is not None else self.now
        residency = end - self.spec.arrival
        if residency <= 0.0:
            return 1.0
        return self.useful_time / residency

    def slo_met(self) -> bool | None:
        """Whether the job finished inside its deadline (None = no SLO)."""
        if self.spec.deadline is None:
            return None
        if self.state != "done" or self.end is None:
            return False
        return self.end - self.spec.arrival <= self.spec.deadline

    # -- lifecycle ------------------------------------------------------------

    def resume(self, at: float) -> None:
        """Admit (or re-admit) the job at fleet time ``at``.

        After a crash or preemption the cluster/trainer are rebuilt from
        scratch and the exact-resume checkpoint is restored, so the
        continued trajectory is bit-identical to one that never stopped.
        """
        if self.state != "waiting":
            raise RuntimeError(f"job {self.spec.name!r} is {self.state}, not waiting")
        if self._pending_restore:
            self._build()
            # Newest *verified* generation wins: a corrupt newest
            # checkpoint is quarantined and the job resumes from the
            # generation before it (replaying the steps in between
            # bit-identically) instead of failing the restart.
            gen = self.trainer.restore_latest()
            self.steps_done = gen.step if gen is not None else 0
            self.checkpoint_step = self.steps_done
            self._ckpt_sim_time = 0.0
            self._pending_restore = False
        self.offset = at
        self.state = "running"

    def checkpoint(self) -> None:
        """Lightweight exact-resume checkpoint of the current step.

        Commits a sealed store generation; a storage-plane
        :class:`~repro.faults.storage.StorageCrash` scheduled inside the
        save sequence surfaces as :class:`JobCrashed` — the process died
        mid-save, and the scheduler's crash machinery takes over (the
        store guarantees the previous committed generation survives).
        """
        try:
            self.trainer.save_state()
        except StorageCrash as exc:
            raise JobCrashed(self.spec.name, self.steps_done) from exc
        self.checkpoint_step = self.steps_done
        self._ckpt_sim_time = self.cluster.time

    def crash_rollback(self) -> float:
        """Account a crash: everything past the checkpoint is lost work.

        Returns the sim seconds rolled back.  The segment's fabric
        windows stay recorded — the lost work really occupied the wire.
        """
        lost = self.cluster.time - self._ckpt_sim_time
        self.sim_time_past += self.cluster.time
        self._fault_delay_past += self.cluster.fault_delay_seconds
        self.lost_work += lost
        self._pending_restore = True
        self.state = "waiting"
        return lost

    def preempt(self) -> None:
        """Suspend the job at its current step (checkpoint first, so a
        preemption costs queue position but zero work)."""
        if self.state != "running":
            raise RuntimeError(f"job {self.spec.name!r} is {self.state}, not running")
        try:
            self.checkpoint()
        except JobCrashed:
            # The process died while checkpointing for preemption: the
            # preemption becomes a crash rollback (work past the last
            # committed generation is lost) but charges no retry budget.
            self.preemptions += 1
            self.crash_rollback()
            self.ready_time = self.now
            return
        self.sim_time_past += self.cluster.time
        self._fault_delay_past += self.cluster.fault_delay_seconds
        self.preemptions += 1
        self._pending_restore = True
        self.state = "waiting"
        self.ready_time = self.now

    def mark_failed(self, at: float) -> None:
        """Terminal failure: retry budget exhausted."""
        self.state = "failed"
        self.end = at
        self._finalize_ledger()

    def step(self) -> float:
        """Run one training iteration; closes the ledger on the last.

        Raises :class:`JobCrashed` when the fault plan schedules a whole-
        job crash at this iteration (each crash fires exactly once)."""
        if self.state != "running":
            raise RuntimeError(f"job {self.spec.name!r} is {self.state}, not running")
        nxt = self.steps_done
        if nxt in self._crash_iters and nxt not in self._crashes_fired:
            self._crashes_fired.add(nxt)
            raise JobCrashed(self.spec.name, nxt)
        loss = self.trainer.step(self._batches[nxt])
        self.steps_done += 1
        if self.done:
            self.state = "done"
            self.end = self.now
            self._finalize_ledger()
        else:
            self.checkpoint()
        return loss

    # -- reporting ------------------------------------------------------------

    def _fleet_manifest(self) -> dict:
        return {
            "job": self.spec.name,
            "priority": self.spec.priority,
            "world_size": self.spec.world_size,
            "arrival": self.spec.arrival,
            "state": self.state,
            "restarts": self.restarts,
            "preemptions": self.preemptions,
            "time_lost_s": self.lost_work + self.backoff_total,
            "goodput": self.goodput(),
            "deadline": self.spec.deadline,
            "slo_met": self.slo_met(),
        }

    def _finalize_ledger(self) -> None:
        obsv = self.trainer.obsv
        if obsv is None:
            return
        obsv.update_manifest(fleet=self._fleet_manifest())
        self.trainer.close_ledger()

    @property
    def final_loss(self) -> float:
        losses = self.trainer.history.losses
        return losses[-1] if losses else float("nan")
