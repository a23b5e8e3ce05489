"""Extension bench: fleet-scale simulation on the representative path.

Two experiments, both on the timing track's representative-rank data
plane (O(1) payload memory in world size, which is what makes 16k-rank
worlds tractable on a laptop-class host):

1. **Fleet sweep** — twelve concurrent K-FAC+COMPSO jobs time-sharing
   one fabric at 1k, 4k, and 16k ranks each: completion, weighted-fair
   contention (priority-2 jobs slowed less than priority-1), and peak
   payload memory *flat* across the three world sizes.
2. **Single-job compression sweep** (fig. 7 / fig. 9 style) —
   compressed vs uncompressed preconditioned-gradient exchange at the
   same world sizes, reporting the kfac_allgather speedup and the
   end-to-end simulated-time speedup.
"""

import time

from benchmarks._common import emit
from repro.util.tables import format_table

WORLDS = [1024, 4096, 16384]
N_JOBS = 12


def _fleet_specs(world: int):
    from repro.fleet import JobSpec

    return [
        JobSpec(
            f"job{i}",
            world_size=world,
            iterations=2,
            priority=2.0 if i % 4 == 0 else 1.0,
            seed=i,
            arrival=0.01 * i,
        )
        for i in range(N_JOBS)
    ]


def _run_fleet(world: int):
    from repro.fleet import FleetScheduler

    start = time.perf_counter()
    result = FleetScheduler(_fleet_specs(world)).run()
    return result, time.perf_counter() - start


def _run_single(world: int, compressed: bool):
    from repro import scenarios

    trainer, _ = scenarios.run(
        scenarios.Scenario(
            name="fleet-single", nodes=world // 4, gpus_per_node=4, iterations=3, batch_size=64,
            compressor=scenarios.compso if compressed else None, track="timing",
        )
    )
    return trainer.cluster


def run_experiment():
    fleets = {w: _run_fleet(w) for w in WORLDS}
    singles = {w: {"comp": _run_single(w, True), "dense": _run_single(w, False)} for w in WORLDS}
    return fleets, singles


def test_ext_fleet(benchmark):
    fleets, singles = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    fleet_rows = []
    fleet_data = {}
    for world, (result, wall) in fleets.items():
        hi = [r.slowdown for r in result.reports if r.priority > 1.0]
        lo = [r.slowdown for r in result.reports if r.priority == 1.0]
        peak = max(r.peak_payload_bytes for r in result.reports)
        fleet_rows.append(
            [
                world,
                len(result.reports),
                result.makespan,
                result.total_contended_seconds,
                sum(hi) / len(hi),
                sum(lo) / len(lo),
                peak / 1024,
                wall,
            ]
        )
        fleet_data[str(world)] = {
            "jobs": len(result.reports),
            "makespan_s": result.makespan,
            "contended_s": result.total_contended_seconds,
            "mean_slowdown_hi_prio": sum(hi) / len(hi),
            "mean_slowdown_lo_prio": sum(lo) / len(lo),
            "peak_payload_bytes": peak,
            "wall_s": wall,
        }
    fleet_table = format_table(
        [
            "ranks/job",
            "jobs",
            "makespan s",
            "contended s",
            "slowdown p2",
            "slowdown p1",
            "peak KiB",
            "wall s",
        ],
        fleet_rows,
        title=f"Fleet sweep — {N_JOBS} concurrent K-FAC+COMPSO jobs on shared fabric",
        floatfmt=".3f",
    )

    sweep_rows = []
    sweep_data = {}
    for world, pair in singles.items():
        comp, dense = pair["comp"], pair["dense"]
        ag_c = comp.breakdown().get("kfac_allgather", 0.0)
        ag_d = dense.breakdown().get("kfac_allgather", 0.0)
        sweep_rows.append(
            [world, ag_d, ag_c, ag_d / ag_c, dense.time, comp.time, dense.time / comp.time]
        )
        sweep_data[str(world)] = {
            "allgather_dense_s": ag_d,
            "allgather_comp_s": ag_c,
            "allgather_speedup": ag_d / ag_c,
            "sim_dense_s": dense.time,
            "sim_comp_s": comp.time,
            "end2end_speedup": dense.time / comp.time,
        }
    sweep_table = format_table(
        [
            "ranks",
            "allgather dense s",
            "allgather comp s",
            "speedup",
            "e2e dense s",
            "e2e comp s",
            "e2e speedup",
        ],
        sweep_rows,
        title="Compression sweep on the representative path (fig. 7 / fig. 9 style)",
        floatfmt=".4f",
    )

    emit("ext_fleet", fleet_table + "\n\n" + sweep_table,
         data={"fleet": fleet_data, "compression_sweep": sweep_data})

    # Every job in every fleet ran to completion.
    for world, (result, _) in fleets.items():
        for report, spec in zip(result.reports, _fleet_specs(world)):
            assert report.steps == spec.iterations, f"{world}: {report.name} incomplete"
        assert result.total_contended_seconds > 0.0, f"{world}: fabric never contended"
        hi = [r.slowdown for r in result.reports if r.priority > 1.0]
        lo = [r.slowdown for r in result.reports if r.priority == 1.0]
        assert sum(hi) / len(hi) < sum(lo) / len(lo), (
            f"{world}: priority-2 jobs should be slowed less than priority-1"
        )
    # The tentpole claim: payload memory independent of world size.
    peaks = {w: fleet_data[str(w)]["peak_payload_bytes"] for w in WORLDS}
    assert len(set(peaks.values())) == 1, f"peak payload varies with world: {peaks}"
    # Compression must pay off at every scale, more at larger worlds.
    for world in WORLDS:
        assert sweep_data[str(world)]["allgather_speedup"] > 1.0
        assert sweep_data[str(world)]["end2end_speedup"] > 1.0
