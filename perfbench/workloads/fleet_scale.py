"""``fleet_scale``: the simulator at scale.

``FleetScheduler`` over the ``scale`` preset's shape — ten jobs at
1 024 / 2 048 / 4 096 ranks on the timing track, mixed priorities,
staggered arrivals — with per-job ledgers and a ``store_dir``, so every
job-step also commits a sealed checkpoint generation.  Checkpoint saves
are the largest share of a job-step and the codec does little: a codec
change must show *no* movement here, a checkpoint or scheduler change
shows fully.

One round is one whole fleet run in fresh directories; every round must
reproduce the first one's makespan and losses exactly.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs as gen
from perfbench.harness import Round

__all__ = ["FleetScaleWorkload"]


@dataclass
class _State:
    specs: list
    workdir: Path
    reference: tuple | None = None
    last: tuple | None = None


class FleetScaleWorkload:
    name = "fleet_scale"
    warmup_rounds = 1
    fixed_rounds = 1
    quick_fixed_rounds = 1

    def make_inputs(self, seed: int, *, quick: bool):
        return {"specs": gen.fleet_specs(seed, quick=quick)}

    def build(self, inputs, workdir) -> _State:
        from repro.fleet import JobSpec

        return _State([JobSpec(**spec) for spec in inputs["specs"]], Path(workdir))

    def round(self, state: _State) -> Round:
        from repro.fleet import FleetScheduler

        root = Path(tempfile.mkdtemp(prefix="fleet-", dir=state.workdir))
        try:
            scheduler = FleetScheduler(
                state.specs,
                ledger_dir=root / "ledgers",
                checkpoint_dir=root / "checkpoints",
                store_dir=root / "store",
            )
            t0 = time.perf_counter()
            result = scheduler.run()
            busy = time.perf_counter() - t0
        finally:
            shutil.rmtree(root, ignore_errors=True)
        planned = sum(spec.iterations for spec in state.specs)
        failed = sum(
            spec.iterations - report.steps
            if report.state == "done" and math.isfinite(report.final_loss)
            else spec.iterations
            for spec, report in zip(state.specs, result.reports)
        )
        outcome = (result.makespan, tuple(r.final_loss for r in result.reports))
        if state.reference is None:
            state.reference = outcome
        elif outcome != state.reference:
            failed = planned
        state.last = (scheduler, result)
        return Round(ops=planned, busy_s=busy, failed=failed)

    def exact(self, state: _State) -> dict:
        scheduler, result = state.last
        trainers = [job.trainer for job in scheduler.jobs]
        original = sum(sum(t.bytes_original) for t in trainers)
        wire = sum(sum(t.bytes_on_wire) for t in trainers)
        losses = [r.final_loss for r in result.reports]
        return {
            "compression_ratio": original / wire,
            "wire_bytes": float(wire),
            "sim_time_s": result.makespan,
            "tail_loss": sum(losses) / len(losses),
            "contended_sim_s": result.total_contended_seconds,
            "rank_steps": sum(r.world_size * r.steps for r in result.reports),
        }

    def layer_exact(self, exact: dict) -> dict:
        return {
            "sim.time_s": exact["sim_time_s"],
            "train.tail_loss": exact["tail_loss"],
            "fleet.contended_sim_s": exact["contended_sim_s"],
        }

    def describe(self, inputs, rounds: list[Round]) -> dict:
        rank_steps = sum(s["world_size"] * s["iterations"] for s in inputs["specs"])
        busy = sum(r.busy_s for r in rounds)
        return {"sim_ranksteps_per_s": rank_steps * len(rounds) / busy}

    def side_runs(self, state: _State, inputs, workdir, *, quick: bool):
        return {}, 0

    def finish(self, state: _State) -> int:
        return 0
