"""Extension bench: chaos testing of the fault-tolerance subsystem.

Runs every scripted fault scenario (stragglers, degraded links, payload
corruption, rank loss, and the mixed storm) against its fault-free twin
and reports, per scenario:

* final full-dataset loss delta (the convergence cost of the faults
  *after* tolerance machinery — checksummed retransmits, compressor
  degradation, elastic world shrink — has done its job);
* simulated-time overhead and the time-to-recover (extra sim seconds
  spent inside iterations where faults fired);
* the recovery counters, so the table doubles as a telemetry audit.

The acceptance bar mirrors the robustness issue: every scenario must
complete all iterations, and the mixed storm's final loss must land
within 5% of the fault-free run at equal iterations.
"""

from benchmarks._common import emit
from repro.faults.chaos import run_chaos
from repro.scenarios import SCENARIOS
from repro.util.tables import format_table


def run_experiment():
    return {name: run_chaos(scenario) for name, scenario in SCENARIOS["chaos"].items()}


def test_ext_chaos(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, r in results.items():
        recov = sum(v for k, v in r.counters.items() if k.startswith("faults.recovered"))
        rows.append(
            [
                name,
                f"{r.world_size}->{r.final_world_size}",
                r.faulted_loss,
                r.baseline_loss,
                r.loss_delta_pct,
                r.sim_time_overhead_pct,
                r.time_to_recover_s * 1e3,
                int(recov),
            ]
        )
    out = format_table(
        [
            "scenario",
            "world",
            "loss",
            "fault-free",
            "delta %",
            "sim overhead %",
            "recover ms",
            "recoveries",
        ],
        rows,
        title="Chaos scenarios — convergence and recovery vs fault-free baseline",
        floatfmt=".3f",
    )
    emit(
        "ext_chaos",
        out,
        data={
            r[0]: {
                "world": r[1],
                "loss": r[2],
                "baseline_loss": r[3],
                "loss_delta_pct": r[4],
                "sim_overhead_pct": r[5],
                "recover_ms": r[6],
                "recoveries": r[7],
            }
            for r in rows
        },
    )

    for name, r in results.items():
        # Every scenario must run to completion under fault injection.
        assert r.completed, f"{name}: faulted run did not complete"
        injected = sum(v for k, v in r.counters.items() if k.startswith("faults.injected"))
        assert injected > 0, f"{name}: no faults were injected"
    mixed = results["mixed"]
    assert abs(mixed.loss_delta_pct) < 5.0, f"mixed storm delta {mixed.loss_delta_pct:.2f}%"
    assert mixed.final_world_size == mixed.world_size - 1
    # Corruption must be caught by the checksum layer, and every caught
    # corruption answered by a retransmit or a lossless fallback.
    corr = results["corruption"]
    assert corr.counters.get("faults.detected[kind=corruption]", 0) > 0
    assert (
        corr.counters.get("faults.retransmits", 0) > 0
        or corr.counters.get("faults.recovered[kind=lossless_fallback]", 0) > 0
    )
    # Time-plane faults cost simulated time but never convergence.
    assert results["stragglers"].sim_time_overhead_pct > 5.0
    assert results["degraded-link"].sim_time_overhead_pct > 5.0
