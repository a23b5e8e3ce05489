"""Chaos-testing harness: scripted fault scenarios with a clean baseline.

Each scenario builds a :class:`~repro.faults.plan.FaultPlan` scaled to
the requested world size and iteration count, then trains the same tiny
distributed K-FAC + COMPSO workload twice — once fault-free, once under
the plan — with identical seeds.  The result quantifies the cost of the
faults and the effectiveness of the tolerance machinery:

* **convergence delta** — full-dataset loss after the faulted run vs the
  fault-free run at equal iterations (the paper-style "does compression
  + faults hurt training?" number);
* **time-to-recover** — extra simulated seconds spent in iterations
  where fault events fired;
* **recovery counters** — every ``faults.*`` telemetry counter, so CI
  can assert that injection actually happened and recovery actually ran.

This module is imported lazily (by the CLI and the chaos bench), never
from ``repro.faults`` itself, to keep the fault-plan core free of
trainer dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.plan import FaultPlan

__all__ = ["SCENARIOS", "ChaosResult", "make_plan", "run_chaos"]

#: Scenario names accepted by :func:`make_plan` / ``repro chaos``.
#: ``smoke`` is the CI scenario: one straggler plus one corruption
#: window, small enough to finish in seconds.
SCENARIOS = ("stragglers", "degraded-link", "corruption", "rank-loss", "mixed", "smoke")


def make_plan(name: str, world_size: int, iterations: int, seed: int = 0) -> FaultPlan:
    """Build the named scenario's fault plan, scaled to the run shape."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    if world_size < 2:
        raise ValueError("chaos scenarios need world_size >= 2")
    third = max(iterations // 3, 1)
    plan = FaultPlan(seed=seed)
    if name == "stragglers":
        plan.add_straggler(1, start=third, stop=2 * third, slowdown=3.0)
        plan.add_straggler(world_size - 1, start=2 * third, slowdown=1.8)
        plan.add_jitter(2e-5, start=0)
    elif name == "degraded-link":
        plan.add_link_degradation(
            start=third, stop=2 * third, latency_factor=4.0, bandwidth_factor=2.5
        )
    elif name == "corruption":
        plan.add_corruption(0.3, start=third, stop=2 * third, n_bits=4)
    elif name == "rank-loss":
        plan.add_drop(1, iteration=max(third - 1, 0))
        plan.add_failure(world_size - 1, iteration=iterations // 2)
    elif name == "mixed":
        plan.add_straggler(1, start=third // 2 + 1, stop=2 * third, slowdown=2.5)
        plan.add_corruption(0.3, start=third, stop=iterations - third // 2, n_bits=4)
        plan.add_failure(world_size - 1, iteration=iterations // 2 + 1)
    elif name == "smoke":
        plan.add_straggler(1, start=1, stop=iterations, slowdown=2.0)
        plan.add_corruption(0.5, start=1, stop=iterations, n_bits=2)
    plan.validate(world_size)
    return plan


@dataclass
class ChaosResult:
    """Outcome of one scenario: faulted run vs fault-free baseline."""

    scenario: str
    world_size: int
    final_world_size: int
    iterations: int
    completed: bool
    baseline_loss: float
    faulted_loss: float
    loss_delta_pct: float
    baseline_sim_time: float
    faulted_sim_time: float
    sim_time_overhead_pct: float
    time_to_recover_s: float
    counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "world_size": self.world_size,
            "final_world_size": self.final_world_size,
            "iterations": self.iterations,
            "completed": self.completed,
            "baseline_loss": self.baseline_loss,
            "faulted_loss": self.faulted_loss,
            "loss_delta_pct": self.loss_delta_pct,
            "baseline_sim_time": self.baseline_sim_time,
            "faulted_sim_time": self.faulted_sim_time,
            "sim_time_overhead_pct": self.sim_time_overhead_pct,
            "time_to_recover_s": self.time_to_recover_s,
            "counters": dict(self.counters),
        }

    def summary(self) -> str:
        lines = [
            f"scenario           : {self.scenario}",
            f"world size         : {self.world_size} -> {self.final_world_size}",
            f"iterations         : {self.iterations} (completed: {self.completed})",
            f"final loss         : faulted {self.faulted_loss:.4f} "
            f"vs fault-free {self.baseline_loss:.4f} ({self.loss_delta_pct:+.2f}%)",
            f"sim time           : faulted {self.faulted_sim_time * 1e3:.2f} ms "
            f"vs fault-free {self.baseline_sim_time * 1e3:.2f} ms "
            f"({self.sim_time_overhead_pct:+.1f}%)",
            f"time to recover    : {self.time_to_recover_s * 1e3:.3f} ms of extra sim time",
        ]
        if self.counters:
            lines.append("fault counters:")
            lines.extend(f"  {k:40s} {v:g}" for k, v in sorted(self.counters.items()))
        return "\n".join(lines)


def _counter_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}[{inner}]"


def _run_once(plan, *, nodes, gpus_per_node, iterations, batch_size, seed, **trainer_options):
    """One training run of the scenario job (faulted or not); returns its
    measurements.  ``trainer_options`` are the trainer arguments a
    scenario varies: ``guard``, ``reliable_channel``, checkpointing."""
    from repro import telemetry
    from repro.core import AdaptiveCompso, StepLrSchedule
    from repro.data import make_image_data
    from repro.distributed import SimCluster
    from repro.kfac_dist import DistributedKfacTrainer
    from repro.models import resnet_proxy
    from repro.train import ClassificationTask

    # noise=1.6 keeps the final loss around 0.1-0.5: large enough that a
    # few-percent convergence delta is signal, not minibatch noise.
    data = make_image_data(300, n_classes=4, size=8, noise=1.6, seed=seed)
    task = ClassificationTask(data)
    cluster = SimCluster(nodes, gpus_per_node, seed=seed, fault_plan=plan)
    model = resnet_proxy(n_classes=4, channels=8, rng=seed + 3)
    compressor = AdaptiveCompso(StepLrSchedule(max(iterations // 3, 1)), seed=seed)
    trainer = DistributedKfacTrainer(
        model,
        task,
        cluster,
        lr=0.05,
        inv_update_freq=5,
        compressor=compressor,
        **trainer_options,
    )
    with telemetry.session() as sess:
        trainer.train(iterations=iterations, batch_size=batch_size, seed=seed)
        snapshot = sess.metrics.snapshot()
        steps = list(sess.metrics.steps)
    x, y = task.batch(np.arange(task.n))
    full_loss, _ = task.loss_and_grad(trainer.model(x), y)
    counters = {
        _counter_key(m["name"], m["labels"]): m["value"]
        for m in snapshot
        if m["type"] == "counter" and m["name"].startswith(("faults.", "guard."))
    }
    sim_times = [rec["sim_time"] for rec in steps if "sim_time" in rec]
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


def run_chaos(
    scenario: str,
    *,
    nodes: int = 2,
    gpus_per_node: int = 2,
    iterations: int = 12,
    batch_size: int = 32,
    seed: int = 0,
) -> ChaosResult:
    """Run ``scenario`` and its fault-free twin; compare them."""
    world = nodes * gpus_per_node
    plan = make_plan(scenario, world, iterations, seed=seed)
    kwargs = dict(
        nodes=nodes,
        gpus_per_node=gpus_per_node,
        iterations=iterations,
        batch_size=batch_size,
        seed=seed,
    )
    baseline = _run_once(None, **kwargs)
    faulted = _run_once(plan, **kwargs)

    # Extra simulated seconds spent in iterations where a fault fired:
    # the recovery cost the time plane actually paid.
    base_iter = np.diff([0.0, *baseline["sim_times"]])
    fault_iter = np.diff([0.0, *faulted["sim_times"]])
    n = min(len(base_iter), len(fault_iter))
    recover = sum(
        max(float(fault_iter[t] - base_iter[t]), 0.0)
        for t in range(n)
        if t in faulted["fault_iterations"]
    )

    base_loss = baseline["loss"]
    delta = (faulted["loss"] - base_loss) / max(abs(base_loss), 1e-12) * 100.0
    overhead = (
        (faulted["sim_time"] - baseline["sim_time"]) / max(baseline["sim_time"], 1e-12) * 100.0
    )
    return ChaosResult(
        scenario=scenario,
        world_size=world,
        final_world_size=faulted["world_size"],
        iterations=iterations,
        completed=faulted["steps_done"] == iterations,
        baseline_loss=base_loss,
        faulted_loss=faulted["loss"],
        loss_delta_pct=delta,
        baseline_sim_time=baseline["sim_time"],
        faulted_sim_time=faulted["sim_time"],
        sim_time_overhead_pct=overhead,
        time_to_recover_s=recover,
        counters=faulted["counters"],
    )
