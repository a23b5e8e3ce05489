"""Ablation: iteration-wise adaptive error bounds vs fixed bounds.

Two parts:

* **Accuracy** — ResNet proxy trained with distributed K-FAC under the
  adaptive schedule vs fixed-aggressive / fixed-conservative bounds: all
  must track the no-compression baseline (proxy layers are tiny, so this
  part is about convergence, not ratio).
* **Ratio** — the schedule's bounds applied to catalog-sized
  K-FAC-gradient data: the aggressive (filter+SR) stage compresses far
  more than the conservative (SR-only) stage, so adapting by iteration
  buys a higher *average* CR than conservative-everywhere while ending
  training at the accuracy-safe setting.
"""

from dataclasses import replace

import numpy as np

from benchmarks._common import HARD_RESNET, emit
from repro import scenarios
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.data.synthetic import kfac_like_gradient
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

ITERS = 24
PIVOT = 12


def _train(compressor):
    trainer, _ = scenarios.run(
        replace(HARD_RESNET, iterations=ITERS, lr_drop=PIVOT, compressor=compressor)
    )
    return trainer.history.final_metric()


def run_experiment():
    acc_rows = [
        ["no compression", _train(None)],
        [
            "adaptive (filter->SR @ LR drop)",
            _train(lambda s: AdaptiveCompso(StepLrSchedule(s.lr_drop))),
        ],
        ["fixed aggressive (filter+SR)", _train(lambda s: CompsoCompressor(4e-3, 4e-3))],
        ["fixed conservative (SR only)", _train(lambda s: CompsoCompressor(0.0, 4e-3))],
    ]
    # Stage-wise CR of the schedule on catalog-sized gradients.
    x = kfac_like_gradient(spawn_rng(11), 500_000)
    adaptive = AdaptiveCompso(StepLrSchedule(PIVOT))
    crs = []
    for t in range(ITERS):
        crs.append(x.nbytes / adaptive.compress(x).nbytes)
        adaptive.step()
    aggressive_cr = float(np.mean(crs[:PIVOT]))
    conservative_cr = float(np.mean(crs[PIVOT:]))
    mean_adaptive_cr = float(np.mean(crs))
    cr_rows = [
        ["aggressive stage (filter+SR, iters 0-11)", aggressive_cr],
        ["conservative stage (SR only, iters 12-23)", conservative_cr],
        ["adaptive schedule, whole-run mean", mean_adaptive_cr],
        ["conservative everywhere (no mechanism)", conservative_cr],
    ]
    return acc_rows, cr_rows


def test_ablation_adaptive_bounds(benchmark):
    acc_rows, cr_rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    out = format_table(
        ["configuration", "final acc%"],
        acc_rows,
        title="Ablation — adaptive bounds: proxy accuracy (StepLR pivot)",
    )
    out += "\n\n" + format_table(
        ["configuration", "CR on catalog-size gradients"],
        cr_rows,
        title="Ablation — adaptive bounds: compression ratio by stage",
    )
    emit(
        "ablation_adaptive",
        out,
        data={
            "accuracy": {r[0]: r[1] for r in acc_rows},
            "compression_ratio": {r[0]: r[1] for r in cr_rows},
        },
    )
    acc = {r[0]: r[1] for r in acc_rows}
    assert acc["adaptive (filter->SR @ LR drop)"] >= acc["no compression"] - 4.0
    cr = {r[0]: r[1] for r in cr_rows}
    # The mechanism's value: the adaptive mean beats conservative-everywhere.
    assert cr["adaptive schedule, whole-run mean"] > 1.3 * cr["conservative everywhere (no mechanism)"]
    assert cr["aggressive stage (filter+SR, iters 0-11)"] > cr["conservative stage (SR only, iters 12-23)"]
