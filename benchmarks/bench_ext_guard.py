"""Extension bench: guarded vs unguarded training under payload corruption.

Runs the ``repro.guard`` demonstration scenario: the same distributed
K-FAC + COMPSO workload three times with identical seeds — a fault-free
reference, a guarded run under a seeded fault plan (compressed-payload
bit flips plus a straggler), and the same faulted plan with no guard.
Both faulted runs decline the checksummed ReliableChannel, so corruption
reaches ``decompress`` directly.

The acceptance bar mirrors the robustness issue:

* the guarded run completes every iteration with a finite loss near the
  clean reference, while the unguarded twin crashes or diverges;
* the circuit breaker trips during the fault window and *recovers*
  (half-open probe passes, compression re-enabled) before the end;
* the remediation timeline is non-empty and reconciles with the
  ``guard.remediations`` telemetry counters.

``benchmarks/out/BENCH_ext_guard.json`` carries the full machine-readable
result, including the remediation timeline and breaker transitions.
"""

import math

from benchmarks._common import emit
from repro.guard.scenario import run_guard_scenario
from repro.scenarios import SCENARIOS
from repro.util.tables import format_table


def run_experiment():
    return run_guard_scenario(SCENARIOS["guard"]["guard"])


def test_ext_guard(benchmark):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    unguarded = (
        f"raised: {r.unguarded_error}" if r.unguarded_raised else f"{r.unguarded_loss:.4f}"
    )
    rows = [
        ["clean (no faults)", f"{r.clean_loss:.4f}", "completed", "-"],
        [
            "guarded + faults",
            f"{r.guarded_loss:.4f}",
            "completed" if r.guarded_completed else "DNF",
            f"{r.breaker_trips} trip(s), recovered={r.breaker_recovered}",
        ],
        ["unguarded + faults", unguarded, "crashed" if r.unguarded_raised else "completed", "-"],
    ]
    out = format_table(
        ["run", "final loss", "outcome", "breaker"],
        rows,
        title=f"Guarded vs unguarded K-FAC under corruption (world={r.world_size}, "
        f"iters={r.iterations})",
    )
    timeline = "\n".join(
        f"  iter {e['iteration']:>3}  {e['verdict']:<20} -> {e['action']}"
        for e in r.timeline
    )
    out += "\nremediation timeline:\n" + timeline
    emit("ext_guard", out, data=r.to_dict())

    # The guard keeps the run alive and near the clean trajectory...
    assert r.guarded_completed, "guarded run did not finish all iterations"
    assert math.isfinite(r.guarded_loss)
    assert r.guarded_loss < 5.0 * max(r.clean_loss, 1e-6), (
        f"guarded loss {r.guarded_loss} strayed too far from clean {r.clean_loss}"
    )
    # ...while the unguarded twin crashes or degrades under the same plan.
    assert r.unguarded_raised or not math.isfinite(r.unguarded_loss) or (
        r.unguarded_loss > 2.0 * r.guarded_loss
    ), "unguarded run was unaffected — fault plan too weak to demonstrate the guard"
    # The breaker must trip during the fault window and re-close after it.
    assert r.breaker_trips >= 1
    assert r.breaker_recovered, "breaker never passed its half-open probe"
    # The timeline is populated and reconciles with the telemetry counters.
    assert r.timeline, "no remediation was ever applied"
    counted = sum(v for k, v in r.counters.items() if k.startswith("guard.remediations"))
    assert counted == len(r.timeline)
    verdicts = sum(v for k, v in r.counters.items() if k.startswith("guard.verdicts"))
    assert verdicts == sum(r.verdicts.values()) > 0
