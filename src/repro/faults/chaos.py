"""Chaos-testing harness: scripted fault scenarios with a clean baseline.

A chaos scenario is a ``repro.scenarios`` entry whose fault plan scales
to the requested world size and iteration count.  The harness trains
the same tiny distributed K-FAC + COMPSO workload twice — once
fault-free, once under the plan — with identical seeds.  The result
quantifies the cost of the faults and the effectiveness of the
tolerance machinery:

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

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro import scenarios

__all__ = ["ChaosResult", "run_chaos"]


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
        return asdict(self)

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


def run_chaos(s: scenarios.Scenario) -> ChaosResult:
    """Run the scenario and its fault-free twin; compare them."""
    if s.world < 2:
        raise ValueError("chaos scenarios need world_size >= 2")
    baseline = scenarios.measure(replace(s, faults=None))
    faulted = scenarios.measure(s)

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
        scenario=s.name,
        world_size=s.world,
        final_world_size=faulted["world_size"],
        iterations=s.iterations,
        completed=faulted["steps_done"] == s.iterations,
        baseline_loss=base_loss,
        faulted_loss=faulted["loss"],
        loss_delta_pct=delta,
        baseline_sim_time=baseline["sim_time"],
        faulted_sim_time=faulted["sim_time"],
        sim_time_overhead_pct=overhead,
        time_to_recover_s=recover,
        counters=faulted["counters"],
    )
