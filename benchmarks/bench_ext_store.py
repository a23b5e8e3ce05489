"""Extension bench: durable-state crash consistency and storage chaos.

Two sweeps over the sealed checkpoint store (:mod:`repro.store`):

* **Crash-consistency sweep** — a simulated process death
  (:class:`~repro.faults.storage.StorageCrash`) is injected at *every*
  enumerated injection point of the store's save sequence
  (:data:`repro.store.STORE_SAVE_POINTS`).  After each crash a fresh
  store over the same directory must restore a *verified* generation:
  the previous committed one when the crash lands before the manifest
  commit, the new one at or after it.  Replaying the remaining steps
  from the restored generation must reach a final parameter vector
  bit-identical to the uninterrupted run — crashes cost replayed
  steps, never bits.

* **Storage-smoke fleet** — the ``storage-smoke`` preset (bit rot at
  rest, a torn write, a crash inside the save sequence, spread over
  three jobs) runs against stores under a given ``store_dir``.
  Generation fallbacks must fire, the damaged archives must be
  quarantined, no job may fail, and every job's final loss must match
  the same fleet run clean (no faults; its stores in the scheduler's
  temporary directory) exactly.

Emits ``BENCH_ext_store.json`` with both sweeps.
"""

import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from benchmarks._common import OUT_DIR, emit
from repro import scenarios
from repro.core import AdaptiveCompso, StepLrSchedule
from repro.scenarios import Scenario
from repro.util.tables import format_table

#: Steps of the direct-trainer scenario; saves land after steps 2 and 4
#: (save indices 0 and 1), the injected crash hits the second save.
TOTAL_STEPS = 6
SAVE_AT = (2, 4)
CRASH_SAVE_INDEX = 1

#: Injection points where the crash lands *before* the manifest commit:
#: the restart must restore the previous generation (step 2).  At
#: ``manifest:replaced`` and later the new generation is committed and
#: the restart restores it (step 4).
_PRE_COMMIT_POINTS = frozenset(
    {
        "save:begin",
        "save:tmp_written",
        "save:replaced",
        "manifest:begin",
        "manifest:tmp_written",
    }
)


#: The direct-trainer run every sweep replays, step by step.
RUN = Scenario(
    name="store-sweep", nodes=1, gpus_per_node=2, iterations=TOTAL_STEPS, batch_size=16,
    samples=200, n_classes=4, noise=0.6, inv_update_freq=3,
    compressor=lambda s: AdaptiveCompso(StepLrSchedule(4), seed=s.job_seed),
)


def _batches():
    from repro.data.loaders import batch_indices

    return list(
        batch_indices(RUN.samples, RUN.batch_size, iterations=RUN.iterations, seed=RUN.seed)
    )


def _params(model) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def _baseline(root: Path) -> np.ndarray:
    """The uninterrupted run: same step/save cadence, no faults."""
    from repro.store import CheckpointStore

    tr = scenarios.build(RUN, store=CheckpointStore(root))
    for i, idx in enumerate(_batches(), start=1):
        tr.step(idx)
        if i in SAVE_AT:
            tr.save_state()
    return _params(tr.model)


def _crash_at(root: Path, point: str):
    """Crash the second save at ``point``, restart, replay to the end.

    Returns ``(restored_step, final_params)`` of the post-restart run.
    """
    from repro.faults.plan import FaultPlan
    from repro.faults.storage import StorageCrash, StorageFaultController
    from repro.store import CheckpointStore

    plan = FaultPlan().add_save_crash(save_index=CRASH_SAVE_INDEX, point=point)
    controller = StorageFaultController(plan)
    store = CheckpointStore(root, hooks_factory=controller.hooks_for)
    tr = scenarios.build(RUN, store=store)
    batches = _batches()
    crashed = False
    for i, idx in enumerate(batches, start=1):
        tr.step(idx)
        if i in SAVE_AT:
            try:
                tr.save_state()
            except StorageCrash:
                crashed = True
                break
    assert crashed, f"SaveCrash at {point!r} never fired"

    # The "restart": a fresh store and trainer over the same directory,
    # as a rebooted process would see it.
    store2 = CheckpointStore(root)
    tr2 = scenarios.build(RUN, store=store2)
    gen = tr2.restore_latest()
    restored = gen.step if gen is not None else 0
    for i, idx in enumerate(batches, start=1):
        if i <= restored:
            continue
        tr2.step(idx)
    return restored, _params(tr2.model)


def _crash_sweep(workdir: Path):
    from repro.store import STORE_SAVE_POINTS

    base = _baseline(workdir / "baseline")
    results = {}
    for point in STORE_SAVE_POINTS:
        slug = point.replace(":", "_")
        restored, params = _crash_at(workdir / f"crash-{slug}", point)
        expected = SAVE_AT[0] if point in _PRE_COMMIT_POINTS else SAVE_AT[1]
        results[point] = {
            "restored_step": restored,
            "expected_step": expected,
            "bit_identical": bool(np.array_equal(params, base)),
        }
    return results


def _storage_fleet(workdir: Path):
    from repro.fleet import FleetScheduler
    from repro.scenarios import FLEETS

    fleet = FLEETS["storage-smoke"]
    chaotic = FleetScheduler(fleet.jobs(), store_dir=workdir / "store", **fleet.options).run()
    # The clean control: identical specs with the fault plans stripped,
    # healthy stores in the scheduler's temporary directory — the
    # bit-identity reference for every final loss.
    clean = FleetScheduler(
        [replace(s, fault_plan=None) for s in fleet.jobs()], **fleet.options
    ).run()
    return chaotic, clean


def run_experiment():
    workdir = OUT_DIR / "store-bench"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    sweep = _crash_sweep(workdir / "crash")
    chaotic, clean = _storage_fleet(workdir / "fleet")
    wall = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    return sweep, chaotic, clean, wall


def test_ext_store(benchmark):
    sweep, chaotic, clean, wall = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    crash_rows = [
        [point, r["expected_step"], r["restored_step"], str(r["bit_identical"])]
        for point, r in sweep.items()
    ]
    crash_table = format_table(
        ["crash point", "expect step", "restored step", "bit-identical"],
        crash_rows,
        title=(
            f"Crash-consistency sweep — SaveCrash at every injection point, "
            f"{TOTAL_STEPS} steps, saves at {list(SAVE_AT)}"
        ),
        floatfmt=".0f",
    )

    clean_by_name = {r.name: r for r in clean.reports}
    fleet_rows = []
    fleet_data = {}
    for report in chaotic.reports:
        match = report.final_loss == clean_by_name[report.name].final_loss
        fleet_rows.append(
            [
                report.name,
                report.world_size,
                report.steps,
                report.restarts,
                report.store_fallbacks,
                report.store_quarantined,
                report.state,
                report.final_loss,
                str(match),
            ]
        )
        fleet_data[report.name] = {
            "steps": report.steps,
            "restarts": report.restarts,
            "store_fallbacks": report.store_fallbacks,
            "store_quarantined": report.store_quarantined,
            "store_repairs": report.store_repairs,
            "state": report.state,
            "final_loss": report.final_loss,
            "clean_final_loss": clean_by_name[report.name].final_loss,
            "loss_matches_clean": match,
        }
    fleet_table = format_table(
        [
            "job",
            "world",
            "steps",
            "restarts",
            "fallbacks",
            "quarantined",
            "state",
            "final loss",
            "loss == clean",
        ],
        fleet_rows,
        title="storage-smoke fleet — bit rot / torn write / save crash vs clean control",
        floatfmt=".6f",
    )

    emit(
        "ext_store",
        f"{crash_table}\n\n{fleet_table}",
        data={"crash_sweep": sweep, "fleet": fleet_data, "wall_s": wall},
    )

    # Every crash point restores exactly the expected committed
    # generation and replays to a bit-identical finish.
    for point, r in sweep.items():
        assert r["restored_step"] == r["expected_step"], point
        assert r["bit_identical"], f"{point}: replay diverged from uninterrupted run"
    # The fleet survives the storage chaos: fallbacks fired, damage was
    # quarantined, nothing failed, and no job lost a bit.
    assert chaotic.jobs_failed == 0
    assert sum(d["store_fallbacks"] for d in fleet_data.values()) >= 2
    assert sum(d["store_quarantined"] for d in fleet_data.values()) >= 2
    for name, d in fleet_data.items():
        assert d["state"] == "done", name
        assert d["loss_matches_clean"], f"{name}: storage chaos changed the final loss"
