"""Extension bench: xray critical-path attribution on seeded workloads.

Runs the same seeded distributed K-FAC + COMPSO workload three ways —
blocking, comm/compute overlapped, and blocking over a degraded link
(latency 4x, bandwidth /8 for the whole run) — with the ``repro.xray``
analyzer attached, and checks the subsystem's three load-bearing
claims:

* **identity** — on every run, every step's critical-path seconds equal
  the step's simulated elapsed time to < 1e-9 (the telescoping-walk
  construction, not a tolerance band);
* **overlap accounting** — on the overlapped run the per-step hidden
  comm totals reconcile with the runtime's own hidden/exposed split;
* **attribution** — ``attribute_regression`` between the clean and the
  degraded ledgers names a *comm* category as the regressing segment,
  i.e. the tool points at the subsystem that was actually sabotaged.

``benchmarks/out/BENCH_ext_xray.json`` carries the per-run identity
errors, the on-path category split, and the attribution verdict.
"""

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from benchmarks._common import emit
from repro.obsv import load_ledger, xray_timeline
from repro.scenarios import SCENARIOS, run
from repro.util.tables import format_table
from repro.xray import attribute_regression

ITERATIONS = 8

#: ``repro record --preset smoke-slow-net --xray`` at bench size: a
#: smaller proxy for more iterations, unguarded, no final evaluation.
SLOW_NET = replace(
    SCENARIOS["record"]["smoke-slow-net"],
    samples=160,
    n_classes=4,
    channels=4,
    iterations=ITERATIONS,
    guard=False,
    evaluate=False,
    xray=True,
)


def _run(ledger_path, *, overlap=False, slow_net=False):
    """One seeded K-FAC run with the xray analyzer attached."""
    scenario = replace(
        SLOW_NET,
        schedule="overlapped" if overlap else None,
        faults=SLOW_NET.faults if slow_net else None,
    )
    trainer, _ = run(scenario, ledger_path)
    return trainer


def run_experiment():
    workdir = Path(tempfile.mkdtemp(prefix="bench_xray_"))
    runs = {}
    trainers = {}
    for name, kwargs in (
        ("blocking", {}),
        ("overlapped", {"overlap": True}),
        ("slow-net", {"slow_net": True}),
    ):
        path = workdir / f"{name}.ledger"
        trainers[name] = _run(path, **kwargs)
        records = xray_timeline(load_ledger(path))
        runs[name] = {
            "path": path,
            "records": records,
            "identity_err": max(
                abs(r["critpath_s"] - r["elapsed_s"]) for r in records
            ),
            "critpath_s": sum(r["critpath_s"] for r in records),
            "exposed_comm_s": sum(r["exposed_comm_s"] for r in records),
            "hidden_comm_s": sum(r["hidden_comm_s"] for r in records),
        }
    runs["overlapped"]["runtime_hidden_s"] = trainers[
        "overlapped"
    ].runtime.hidden_comm_seconds()
    verdict = attribute_regression(
        load_ledger(runs["blocking"]["path"]), load_ledger(runs["slow-net"]["path"])
    )
    shutil.rmtree(workdir, ignore_errors=True)
    for r in runs.values():
        r.pop("path")
    return runs, verdict


def test_ext_xray(benchmark):
    runs, verdict = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    rows = [
        [
            name,
            f"{r['critpath_s'] * 1e3:.4f}",
            f"{r['exposed_comm_s'] * 1e3:.4f}",
            f"{r['hidden_comm_s'] * 1e3:.4f}",
            f"{r['identity_err']:.2e}",
        ]
        for name, r in runs.items()
    ]
    table = format_table(
        ["run", "critpath ms", "exposed comm ms", "hidden comm ms", "identity err s"],
        rows,
        title=f"xray critical-path attribution — {ITERATIONS} seeded K-FAC steps",
    )
    verdict_line = (
        f"attribution clean -> slow-net: segment `{verdict['segment']}` "
        f"({verdict['kind']}) +{verdict['delta_s'] * 1e3:.4f} ms "
        f"of +{verdict['total_delta_s'] * 1e3:.4f} ms total"
    )
    emit(
        "ext_xray",
        f"{table}\n\n{verdict_line}",
        data={
            "runs": {
                name: {k: v for k, v in r.items() if k != "records"}
                for name, r in runs.items()
            },
            "attribution": verdict,
        },
    )

    # The telescoping identity holds on every run, step by step.
    for name, r in runs.items():
        assert r["identity_err"] < 1e-9, name
    # Overlap genuinely hides comm, and the xray accounting reconciles
    # with the runtime's own hidden/exposed split.
    assert runs["blocking"]["hidden_comm_s"] == 0.0
    assert runs["overlapped"]["hidden_comm_s"] > 0.0
    assert abs(
        runs["overlapped"]["hidden_comm_s"] - runs["overlapped"]["runtime_hidden_s"]
    ) < 1e-9
    # The degraded link slows the run, and attribution names comm.
    assert runs["slow-net"]["critpath_s"] > runs["blocking"]["critpath_s"]
    assert verdict["kind"] == "comm"
    assert verdict["delta_s"] > 0.0
