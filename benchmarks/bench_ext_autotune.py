"""Extension bench: closed-loop autotuning vs every static config.

Runs the same seeded distributed K-FAC + COMPSO workload once per
static menu configuration and once with the ``repro.autotune``
closed-loop controller, all under an identical mid-run link-degradation
window (iterations [4, 8): latency 4x, bandwidth /64).  Runs are scored
on **modelled end-to-end time**: the simulated clock's charge plus the
modelled codec-minus-aggregation seconds the clock does not price
(:func:`repro.autotune.replay_extra_seconds` for the static runs, the
controller's live accumulator for the closed loop) — the same
accounting on both sides.

The acceptance bar mirrors the autotune issue:

* the closed loop beats **every** static ``{compressor, encoder,
  aggregation}`` config in its menu on modelled end-to-end time —
  static dense pays the degraded window at full width, static COMPSO
  pays codec on every clean step, the controller pays neither;
* fidelity is equal or better: the closed-loop final loss stays within
  tolerance of the best static loss (it compresses only the degraded
  phase, and only within its ``max_error`` gate);
* the ledger records >= 1 mid-run reconfiguration, with the first
  retune landing *inside* the degradation window and trading fidelity
  for compression (identity -> a COMPSO candidate).

``benchmarks/out/BENCH_ext_autotune.json`` carries the per-config
table, the decision timeline, and the closed-loop ledger's file name;
the ledgers themselves are scratch and live in a temporary directory.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from benchmarks._common import emit
from repro.autotune import DEFAULT_MENU, AlphaBetaEstimator, replay_extra_seconds
from repro.core import CompsoCompressor
from repro.obsv import autotune_timeline, load_ledger
from repro.scenarios import SCENARIOS, fault_plan, run
from repro.util.tables import format_table

#: The closed loop is the registered run; every static config is that
#: run with the controller off and the candidate's compressor.
CLOSED_LOOP = SCENARIOS["autotune"]["autotuned-degraded"]
ITERATIONS = CLOSED_LOOP.iterations
_DEGRADED = fault_plan(CLOSED_LOOP).degradations[0]
WINDOW = (_DEGRADED.start, _DEGRADED.stop)
ALPHA0 = AlphaBetaEstimator().alpha0


def _static(cand):
    """The registered run with the controller off, holding ``cand``."""

    def compressor(s):
        return CompsoCompressor(cand.eb_f, cand.eb_q, encoder=cand.encoder, seed=s.job_seed)

    return replace(
        CLOSED_LOOP, compressor=None if cand.is_identity else compressor, autotune=False
    )


def run_experiment():
    with tempfile.TemporaryDirectory(prefix="autotune-") as ledger_dir:
        return _run_experiment(Path(ledger_dir))


def _run_experiment(ledger_dir):
    results = {}
    # Every static config in the controller's menu, held the whole run.
    # Aggregation is modelled-only (DESIGN.md decision 10), so a static
    # candidate's data plane is its compressor and its aggregation shows
    # up in the replayed extra-seconds term — identical accounting to
    # the controller's live accumulator.
    for cand in DEFAULT_MENU:
        path = ledger_dir / f"autotune_static_{cand.name}.ledger"
        trainer, _ = run(_static(cand), path)
        cluster = trainer.cluster
        extra = replay_extra_seconds(load_ledger(str(path)).steps, cand, alpha=ALPHA0)
        results[f"static:{cand.name}"] = {
            "sim_time": cluster.time,
            "extra_seconds": extra,
            "end_to_end": cluster.time + extra,
            "final_loss": trainer.history.losses[-1],
            "retunes": 0,
        }
    closed_path = ledger_dir / "autotune_closed_loop.ledger"
    trainer, _ = run(CLOSED_LOOP, closed_path)
    cluster = trainer.cluster
    controller = trainer.autotune
    decisions = autotune_timeline(load_ledger(str(closed_path)))
    results["closed-loop"] = {
        "sim_time": cluster.time,
        "extra_seconds": controller.modelled_extra_seconds,
        "end_to_end": cluster.time + controller.modelled_extra_seconds,
        "final_loss": trainer.history.losses[-1],
        "retunes": sum(1 for d in decisions if d["kind"] == "retune"),
    }
    return results, decisions, closed_path.name


def test_ext_autotune(benchmark):
    results, decisions, closed_name = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    rows = [
        [
            name,
            f"{r['sim_time'] * 1e3:.3f}",
            f"{r['extra_seconds'] * 1e3:.3f}",
            f"{r['end_to_end'] * 1e3:.3f}",
            f"{r['final_loss']:.4f}",
            r["retunes"],
        ]
        for name, r in sorted(results.items(), key=lambda kv: kv[1]["end_to_end"])
    ]
    out = format_table(
        ["config", "sim ms", "modelled extra ms", "end-to-end ms", "final loss", "retunes"],
        rows,
        title=f"Closed-loop autotune vs static configs (degraded window "
        f"[{WINDOW[0]}, {WINDOW[1]}) of {ITERATIONS} iters: "
        f"lat {CLOSED_LOOP.latency_factor:g}x, bw /{CLOSED_LOOP.bandwidth_factor:g})",
    )
    timeline = "\n".join(
        f"  step {d['step']:>3}  {d['kind']:<7} {d['from']} -> {d['to']}"
        for d in decisions
    )
    out += "\ndecision timeline:\n" + (timeline or "  (none)")
    emit(
        "ext_autotune",
        out,
        data={"results": results, "decisions": decisions, "ledger": closed_name},
    )

    closed = results["closed-loop"]
    statics = {k: v for k, v in results.items() if k.startswith("static:")}
    # The closed loop strictly beats every static config end-to-end...
    for name, r in statics.items():
        assert closed["end_to_end"] < r["end_to_end"], (
            f"closed loop ({closed['end_to_end']:.6f}s) did not beat "
            f"{name} ({r['end_to_end']:.6f}s)"
        )
    # ...at equal-or-better fidelity (within noise of the best static).
    best_static_loss = min(r["final_loss"] for r in statics.values())
    assert closed["final_loss"] <= best_static_loss * 1.10 + 1e-6, (
        f"closed-loop loss {closed['final_loss']} strayed from best static "
        f"{best_static_loss}"
    )
    # The ledger shows the controller reconfiguring mid-run, entering a
    # COMPSO config inside the degradation window.
    retunes = [d for d in decisions if d["kind"] == "retune"]
    assert retunes, "no mid-run reconfiguration in the ledger"
    first = retunes[0]
    assert WINDOW[0] <= first["step"] < WINDOW[1], (
        f"first retune at step {first['step']} missed window {WINDOW}"
    )
    assert first["from"] == "identity" and first["to"] != "identity", (
        "degraded link should trade fidelity for compression ratio"
    )
