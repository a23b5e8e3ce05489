"""The registry of named runs: what ``smoke``, ``mixed`` or ``autotuned-degraded`` *is*.

Everything this reproduction reports is a handful of named
configurations of a few small proxy jobs, and this module owns them
(DESIGN.md decision 16): a :class:`Scenario` is one training run as
frozen data, :data:`MODELS` the proxy workloads it can train,
:data:`SCENARIOS` the registered runs, :func:`build` the
``DistributedKfacTrainer`` every ``repro`` command, fleet job, bench and
example trains (only perfbench's ``kfac_train`` constructs its own),
:data:`FAULT_PLANS` the fault plans a scenario can name, and
:data:`FLEETS` the job mixes ``repro fleet`` runs.
A command-line flag is ``dataclasses.replace`` on a registered entry; a
committed ``benchmarks/out/baselines/<baseline>.ledger`` is named by the
entry that must reproduce it; two runs that differ in one stated thing
are two entries that differ in one field.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.faults.plan import FaultPlan
from repro.fleet.job import JobSpec

if TYPE_CHECKING:
    from repro.distributed import NetworkSpec

__all__ = [
    "Proxy", "MODELS", "Scenario", "SCENARIOS", "FAULT_PLANS", "fault_plan", "build", "run",
    "measure", "Fleet", "FLEETS",
]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One named training run.  A field exists because a ``repro`` flag
    writes it or because two registered entries differ in it; whatever
    every run shares is a constant inside :func:`build`."""

    name: str
    nodes: int = 2
    gpus_per_node: int = 2
    iterations: int
    batch_size: int = 32
    #: Batch order and the autotune controller: all ``record/autotune
    #: --seed`` reseed.  ``chaos/guard --seed`` write ``job_seed`` too —
    #: dataset, model init, cluster, compressor, fault plan.  Kept apart
    #: because no pin at seed 0 can tell the two conventions apart.
    seed: int = 0
    job_seed: int = 0
    model: str = "mini-resnet"
    channels: int = 8
    samples: int = 256
    n_classes: int = 5
    noise: float = 0.5
    inv_update_freq: int = 2
    #: Evaluate the task metric after the last iteration (it lands in
    #: ``history.final_metric()`` and so in the ledger's final record).
    evaluate: bool = False
    #: ``None`` trains dense, else a factory called with the resolved
    #: scenario (a flag that moves ``eb`` moves the compressor with it).
    compressor: Callable[[Scenario], object] | None = None
    eb: float = 4e-3
    #: A key of FAULT_PLANS, or a plan built elsewhere (a fleet job's);
    #: the three below are the knobs flags reach into a keyed plan.
    faults: str | FaultPlan | None = None
    latency_factor: float = 4.0
    bandwidth_factor: float = 8.0
    corruption: float = 0.6
    #: ``False`` declines the checksummed channel, so injected corruption
    #: reaches ``decompress`` (the regime the guard exists for).
    reliable_channel: bool = True
    #: ``None`` (no runtime), ``"blocking"`` or ``"overlapped"``.
    schedule: str | None = None
    #: ``None`` is ``SimCluster``'s default fabric, Slingshot-10.
    network: NetworkSpec | None = None
    #: ``"timing"`` trains one representative rank per collective
    #: (``SimCluster(track=)``): a 4k-rank world in a 4-rank's memory.
    track: str = "convergence"
    #: The iteration at which the learning rate drops tenfold (``None``:
    #: it never does).
    lr_drop: int | None = None
    #: Like ``compressor``, for the factor allreduce payload.
    factor_compressor: Callable[[Scenario], object] | None = None
    streams: int = 2
    train_flops: float = 5e7
    guard: bool = False
    xray: bool = False
    autotune: bool = False
    warmup: int = 2
    min_dwell: int = 2
    checkpoint_every: int = 0
    #: ``LedgerConfig.note`` template over ``{name}`` and ``{eb}``.  The
    #: note is in the manifest and so in the digest: it belongs to the
    #: run, not to the command line that started it.
    note: str = ""
    #: Stem of the committed ``benchmarks/out/baselines/*.ledger`` this
    #: run must reproduce digest for digest.
    baseline: str | None = None

    @property
    def world(self) -> int:
        return self.nodes * self.gpus_per_node


# -- proxy workloads -----------------------------------------------------------
# Each draws its dataset from ``job_seed`` and its model from a fixed offset
# of it.  A shape a Scenario field names (samples, classes, noise, width)
# comes from the scenario; every other shape is the entry's own constant.


@dataclass(frozen=True)
class Proxy:
    """A proxy workload: ``make(s)`` is its ``(task, model)`` at the
    scenario's shape and seeds, ``lr`` the rate K-FAC trains it at."""

    make: Callable[[Scenario], tuple]
    lr: float


def _resnet(s: Scenario):
    from repro.data import make_image_data
    from repro.models import resnet_proxy
    from repro.train import ClassificationTask

    data = make_image_data(
        s.samples, n_classes=s.n_classes, size=8, noise=s.noise, seed=s.job_seed
    )
    model = resnet_proxy(n_classes=s.n_classes, channels=s.channels, rng=s.job_seed + 3)
    return ClassificationTask(data), model


def _detection(s: Scenario):
    from repro.data import make_detection_data
    from repro.models import maskrcnn_proxy
    from repro.train import DetectionTask

    data = make_detection_data(
        s.samples, n_classes=s.n_classes, n_boxes=2, size=16, noise=s.noise, seed=s.job_seed
    )
    model = maskrcnn_proxy(n_classes=s.n_classes, n_boxes=2, rng=s.job_seed + 3)
    return DetectionTask(data), model


def _gpt(s: Scenario):
    from repro.data import make_lm_data
    from repro.models import gpt_proxy
    from repro.train import LmTask

    data = make_lm_data(s.samples, seq=9, vocab=24, concentration=0.05, seed=s.job_seed)
    model = gpt_proxy(vocab=24, dim=16, n_layers=1, max_seq=8, rng=s.job_seed + 3)
    return LmTask(data), model


def _bert(s: Scenario):
    from repro.data import make_lm_data, make_mlm_batches
    from repro.models import bert_proxy
    from repro.train import MlmTask

    lm = make_lm_data(s.samples, seq=12, vocab=24, concentration=0.05, seed=s.job_seed)
    model = bert_proxy(vocab=24, dim=16, n_layers=1, max_seq=12, rng=s.job_seed + 3)
    return MlmTask(make_mlm_batches(lm, seed=s.job_seed + 1)), model


def _squad(s: Scenario):
    from repro.data import make_squad_data
    from repro.models.squad import SpanQaModel
    from repro.train import SquadTask

    data = make_squad_data(s.samples, seq=16, vocab=24, seed=s.job_seed)
    model = SpanQaModel(vocab=24, dim=24, n_layers=2, max_seq=16, rng=s.job_seed + 1)
    return SquadTask(data), model


#: Proxy workloads small enough to train in seconds, by ``Scenario.model``.
MODELS: dict[str, Proxy] = {
    "mini-resnet": Proxy(_resnet, lr=0.05),
    "mini-detection": Proxy(_detection, lr=0.05),
    "mini-gpt": Proxy(_gpt, lr=0.1),
    "mini-bert": Proxy(_bert, lr=0.1),
    "mini-squad": Proxy(_squad, lr=0.1),
}


# -- compressors ---------------------------------------------------------------


def compso(s: Scenario):
    """COMPSO with the scenario's bound on both the filter and the quantiser."""
    from repro.core import CompsoCompressor

    return CompsoCompressor(s.eb, s.eb, seed=s.job_seed)


def _adaptive(first_lr_drop: Callable[[Scenario], int]):
    """AdaptiveCompso, aggressive until the iteration ``first_lr_drop(s)``."""

    def compressor(s: Scenario):
        from repro.core import AdaptiveCompso, StepLrSchedule

        return AdaptiveCompso(StepLrSchedule(first_lr_drop(s)), seed=s.job_seed)

    return compressor


# -- fault plans ---------------------------------------------------------------
# Each builder adds its faults to a fresh plan seeded with ``job_seed``;
# ``third`` is a third of the run, at least one iteration.


def _degrade(plan: FaultPlan, s: Scenario, start: int, stop: int) -> None:
    plan.add_link_degradation(
        start=start, stop=stop, latency_factor=s.latency_factor, bandwidth_factor=s.bandwidth_factor
    )


def _stragglers(plan: FaultPlan, s: Scenario, third: int) -> None:
    plan.add_straggler(1, start=third, stop=2 * third, slowdown=3.0)
    plan.add_straggler(s.world - 1, start=2 * third, slowdown=1.8)
    plan.add_jitter(2e-5, start=0)


def _rank_loss(plan: FaultPlan, s: Scenario, third: int) -> None:
    plan.add_drop(1, iteration=max(third - 1, 0))
    plan.add_failure(s.world - 1, iteration=s.iterations // 2)


def _mixed(plan: FaultPlan, s: Scenario, third: int) -> None:
    plan.add_straggler(1, start=third // 2 + 1, stop=2 * third, slowdown=2.5)
    plan.add_corruption(0.3, start=third, stop=s.iterations - third // 2, n_bits=4)
    plan.add_failure(s.world - 1, iteration=s.iterations // 2 + 1)


def _chaos_smoke(plan: FaultPlan, s: Scenario, third: int) -> None:
    """One straggler plus one corruption window: CI-sized."""
    plan.add_straggler(1, start=1, stop=s.iterations, slowdown=2.0)
    plan.add_corruption(0.5, start=1, stop=s.iterations, n_bits=2)


def _guard_plan(plan: FaultPlan, s: Scenario, third: int) -> None:
    """Payload bit-flips over the middle third plus one straggler stall."""
    plan.add_corruption(s.corruption, start=third, stop=2 * third, n_bits=4, ops=("broadcast",))
    plan.add_straggler(1, start=third, stop=2 * third, slowdown=3.0)


def _degraded_window(plan: FaultPlan, s: Scenario, third: int) -> None:
    """The middle third of the run, non-empty even for a one-iteration run."""
    start = s.iterations // 3
    _degrade(plan, s, start, max(2 * s.iterations // 3, start + 1))


#: Fault-plan builders by the name a scenario's ``faults`` field holds.
#: The first six are ``repro chaos``'s scenarios and share their names.
FAULT_PLANS: dict[str, Callable[[FaultPlan, Scenario, int], None]] = {
    "stragglers": _stragglers,
    "degraded-link": lambda plan, s, third: _degrade(plan, s, third, 2 * third),
    "corruption": lambda plan, s, third: plan.add_corruption(
        0.3, start=third, stop=2 * third, n_bits=4
    ),
    "rank-loss": _rank_loss,
    "mixed": _mixed,
    "smoke": _chaos_smoke,
    "guard": _guard_plan,
    # The whole run: every collective pays the factors, so the critical
    # path grows in the comm categories ``diff --attribute`` must name.
    "slow-net": lambda plan, s, third: _degrade(plan, s, 0, s.iterations),
    "degraded-window": _degraded_window,
}


def fault_plan(s: Scenario) -> FaultPlan | None:
    """The scenario's fault plan scaled to its shape, the plan it carries,
    or ``None``."""
    if s.faults is None or isinstance(s.faults, FaultPlan):
        return s.faults
    if s.faults not in FAULT_PLANS:
        raise ValueError(f"unknown fault plan {s.faults!r}; choose from {sorted(FAULT_PLANS)}")
    plan = FaultPlan(seed=s.job_seed)
    FAULT_PLANS[s.faults](plan, s, max(s.iterations // 3, 1))
    plan.validate(s.world)
    return plan


# -- the registered runs -------------------------------------------------------

#: ``repro record``: one honest configuration; one with a deliberately
#: loosened error bound (the regression the diff gate must catch); one on
#: a deliberately slowed fabric (the regression ``diff --attribute`` must
#: *name*); and the honest one with xray attribution folded in.
#: Everything else is shared so the runs stay like-for-like.
_SMOKE = Scenario(
    name="smoke", iterations=6, evaluate=True, compressor=compso, reliable_channel=False,
    schedule="overlapped", guard=True, note="preset={name} eb={eb}",
)

#: ``repro autotune``: record's job, blocking, wider and longer — with a
#: fixed compression config, with the closed-loop controller on a clean
#: fabric, and with the controller under a mid-run link-degradation
#: window (the case it exists for).
_STATIC = replace(
    _SMOKE, name="static", iterations=12, channels=16, schedule=None, bandwidth_factor=64.0,
    note="autotune preset={name}",
)
_AUTOTUNED = replace(_STATIC, name="autotuned", autotune=True)

#: ``repro chaos`` / ``repro guard``: noise=1.6 keeps the final loss
#: around 0.1-0.5 — large enough that a few-percent convergence delta is
#: signal, not minibatch noise.  The bandwidth factor is degraded-link's.
_CHAOS = Scenario(
    name="chaos", iterations=12, samples=300, n_classes=4, noise=1.6, inv_update_freq=5,
    compressor=_adaptive(lambda s: max(s.iterations // 3, 1)), bandwidth_factor=2.5,
)


def _group(*entries: Scenario) -> dict[str, Scenario]:
    return {s.name: s for s in entries}


#: command -> name -> run.  A command with one run registers it under its
#: own name; the others list theirs in the order ``--help`` shows them.
SCENARIOS: dict[str, dict[str, Scenario]] = {
    "record": _group(
        replace(_SMOKE, baseline="smoke"),
        replace(_SMOKE, name="smoke-degraded", eb=0.5),
        replace(_SMOKE, name="smoke-slow-net", faults="slow-net"),
        # Recorded as ``--preset smoke --xray``, and its note says so.
        replace(
            _SMOKE, name="xray-smoke", xray=True, note="preset=smoke eb={eb}", baseline="xray-smoke"
        ),
    ),
    "autotune": _group(
        _AUTOTUNED,
        replace(
            _AUTOTUNED, name="autotuned-degraded", faults="degraded-window",
            baseline="autotune-smoke",
        ),
        _STATIC,
    ),
    "chaos": _group(
        *(
            replace(_CHAOS, name=name, faults=name)
            for name in ("stragglers", "degraded-link", "corruption", "rank-loss", "mixed", "smoke")
        )
    ),
    # The guarded run; ``run_guard_scenario`` derives its clean and
    # unguarded twins from it.
    "guard": _group(
        replace(
            _CHAOS, name="guard", iterations=18, faults="guard", reliable_channel=False,
            guard=True, checkpoint_every=3,
        )
    ),
    # ``train_flops`` is small so the tiny proxy's compute is on the same
    # scale as its communication.
    "overlap": _group(
        Scenario(name="overlap", gpus_per_node=4, iterations=5, schedule="overlapped")
    ),
    "trace": _group(Scenario(name="trace", iterations=5, inv_update_freq=5, compressor=compso)),
    "demo-train": _group(
        Scenario(
            name="demo-train", nodes=1, gpus_per_node=4, iterations=20, batch_size=64,
            samples=500, inv_update_freq=5, evaluate=True,
            compressor=_adaptive(lambda s: s.iterations // 2),
        )
    ),
}


# -- building and running ------------------------------------------------------


def build(s: Scenario, out=None, store=None):
    """Construct the scenario's trainer; ``out`` is its ledger path,
    ``store`` the :class:`~repro.store.CheckpointStore` its checkpoints go to."""
    from repro.autotune import AutotuneConfig
    from repro.distributed import SimCluster
    from repro.guard import GuardConfig
    from repro.kfac_dist import DistributedKfacTrainer
    from repro.obsv import LedgerConfig
    from repro.optim import StepLr
    from repro.runtime import ComputeModel, StreamRuntime

    cluster = SimCluster(
        s.nodes, s.gpus_per_node, network=s.network, seed=s.job_seed,
        fault_plan=fault_plan(s), track=s.track,
    )
    proxy = MODELS[s.model]
    task, model = proxy.make(s)
    runtime = None
    if s.schedule is not None:
        runtime = StreamRuntime(
            cluster,
            overlap=s.schedule == "overlapped",
            n_comm_streams=s.streams,
            compute=ComputeModel(train_flops=s.train_flops),
        )
    autotune = None
    if s.autotune:
        autotune = AutotuneConfig(
            initial="identity", warmup=s.warmup, min_dwell=s.min_dwell, seed=s.seed
        )
    return DistributedKfacTrainer(
        model,
        task,
        cluster,
        lr=proxy.lr,
        lr_schedule=StepLr(proxy.lr, [s.lr_drop], gamma=0.1) if s.lr_drop is not None else None,
        inv_update_freq=s.inv_update_freq,
        compressor=s.compressor(s) if s.compressor is not None else None,
        factor_compressor=s.factor_compressor(s) if s.factor_compressor is not None else None,
        checkpoint_every=s.checkpoint_every,
        checkpoint_store=store,
        runtime=runtime,
        guard=GuardConfig() if s.guard else None,
        reliable_channel=s.reliable_channel,
        obsv=(
            LedgerConfig(out, note=s.note.format(name=s.name, eb=s.eb)) if out is not None else None
        ),
        autotune=autotune,
        xray=s.xray,
    )


def run(s: Scenario, out=None):
    """Train the scenario inside a telemetry session; returns the trainer
    and the (closed, still readable) session."""
    from repro import telemetry
    from repro.store import CheckpointStore

    # Checkpoints (if the scenario takes any) only matter while the run is
    # alive — the guard rolls back to them — so their directory ends with it.
    with tempfile.TemporaryDirectory(prefix="repro-run-") as store_dir:
        trainer = build(s, out, CheckpointStore(store_dir) if s.checkpoint_every else None)
        with telemetry.session() as session:
            trainer.train(
                iterations=s.iterations,
                batch_size=s.batch_size,
                eval_every=s.iterations if s.evaluate else 0,
                seed=s.seed,
            )
    return trainer, session


def _counter_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}[{inner}]"


def measure(s: Scenario) -> dict:
    """Run the scenario (faulted or not) and measure it: full-dataset loss,
    sim time in total and per step, the ``faults.*`` / ``guard.*``
    counters, the final world, the iterations a fault fired in, the steps
    done, and the trainer.  ``repro chaos`` and ``repro guard`` compare
    runs of this."""
    trainer, sess = run(s)
    task, cluster = trainer.task, trainer.cluster
    x, y = task.batch(np.arange(task.n))
    full_loss, _ = task.loss_and_grad(trainer.model(x), y)
    counters = {
        _counter_key(m["name"], m["labels"]): m["value"]
        for m in sess.metrics.snapshot()
        if m["type"] == "counter" and m["name"].startswith(("faults.", "guard."))
    }
    sim_times = [rec["sim_time"] for rec in sess.metrics.steps if "sim_time" in rec]
    fault_iterations = {
        ev.get("iteration") for ev in (cluster.faults.events if cluster.faults else [])
    }
    return {
        "loss": float(full_loss),
        "sim_time": cluster.time,
        "sim_times": sim_times,
        "counters": counters,
        "world_size": cluster.world_size,
        "fault_iterations": fault_iterations,
        "steps_done": len(trainer.history.losses),
        "trainer": trainer,
    }


# -- fleets --------------------------------------------------------------------


@dataclass(frozen=True)
class Fleet:
    """A named job mix for :class:`~repro.fleet.FleetScheduler`."""

    #: Builds the job list afresh (fault plans are mutable).
    jobs: Callable[[], list[JobSpec]]
    #: Scheduler keyword arguments the mix expects (empty = defaults).
    options: Mapping[str, int] = field(default_factory=dict)
    #: Stem of the committed ledger ``job0`` must reproduce.
    baseline: str | None = None


def _smoke_jobs() -> list[JobSpec]:
    """Three small jobs; job0 is the deterministic CI diff anchor."""
    return [
        JobSpec("job0", world_size=32, iterations=3, priority=2.0, seed=0),
        JobSpec("job1", world_size=16, iterations=3, priority=1.0, seed=1, arrival=0.001),
        JobSpec("job2", world_size=8, iterations=2, batch_size=32, seed=2, arrival=0.002),
    ]


def _scale_jobs() -> list[JobSpec]:
    """Ten jobs at 1k–4k ranks, mixed priorities and arrivals."""
    worlds = [1024, 2048, 4096, 1024, 2048, 4096, 1024, 2048, 1024, 4096]
    return [
        JobSpec(
            f"job{i}",
            world_size=w,
            iterations=2,
            priority=2.0 if i % 3 == 0 else 1.0,
            seed=i,
            arrival=0.01 * i,
        )
        for i, w in enumerate(worlds)
    ]


def _chaos_smoke_jobs() -> list[JobSpec]:
    """The smoke fleet under a deterministic fault schedule.

    job0 (the CI diff anchor) crashes once and restarts from its
    checkpoint; job1 runs with a straggler and a link-degradation
    window; job2 loses a whole node mid-run and continues elastically;
    job3 arrives late at high priority and preempts under the
    ``max_concurrent=2`` cap the fleet's options carry.
    """
    job0, job1, job2 = _smoke_jobs()
    shaky = (
        FaultPlan()
        .add_straggler(0, start=0, stop=2, slowdown=3.0)
        .add_link_degradation(start=1, stop=2, bandwidth_factor=2.0)
    )
    failing = FaultPlan().add_node_failure(1, iteration=1, gpus_per_node=4)
    return [
        replace(job0, deadline=0.05, fault_plan=FaultPlan().add_crash(iteration=1)),
        replace(job1, deadline=0.05, fault_plan=shaky),
        replace(job2, fault_plan=failing),
        JobSpec(
            "job3", world_size=8, iterations=2, batch_size=32, priority=4.0,
            seed=3, arrival=0.004, deadline=0.05,
        ),
    ]


def _storage_smoke_jobs() -> list[JobSpec]:
    """The smoke fleet, one step longer, under a deterministic *storage*
    fault schedule.

    Every job checkpoints each step (saves land at save indices 0, 1,
    2, ...):

    * job0: bit rot eats the newest generation at rest (save index 2),
      then the job crashes — restart must fall back one generation and
      replay to a bit-identical finish;
    * job1: a torn write tears the save at index 2 inside the tmp-write
      window; the crash-restart detects the broken content seal,
      quarantines the generation, and falls back;
    * job2: the process dies *inside* the save sequence (crash at the
      ``save:tmp_written`` injection point) — the previous committed
      generation must survive and the restart resume from it.

    All three must end ``done`` with zero failed jobs: storage damage
    costs replayed steps, never a job.
    """
    job0, job1, job2 = _smoke_jobs()
    rotten = FaultPlan().add_crash(iteration=3).add_bit_rot(save_index=2)
    torn = FaultPlan().add_crash(iteration=3).add_torn_write(save_index=2)
    dying = FaultPlan().add_save_crash(save_index=1, point="save:tmp_written")
    return [
        replace(job0, iterations=4, fault_plan=rotten),
        replace(job1, iterations=4, fault_plan=torn),
        replace(job2, iterations=3, fault_plan=dying),
    ]


#: ``repro fleet --preset`` job mixes, in the order ``--help`` lists them.
FLEETS: dict[str, Fleet] = {
    "smoke": Fleet(_smoke_jobs, baseline="fleet-smoke"),
    "scale": Fleet(_scale_jobs),
    "chaos-smoke": Fleet(
        _chaos_smoke_jobs, {"max_concurrent": 2, "retry_budget": 3}, baseline="fleet-chaos"
    ),
    "storage-smoke": Fleet(_storage_smoke_jobs, {"retry_budget": 3}, baseline="storage-smoke"),
}
