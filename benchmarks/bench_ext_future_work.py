"""Extension bench: the paper's section 7 future-work directions.

1. **Auto-tuned error bounds** — replace the empirical 4E-3 setting with
   bounds searched under a gradient-fidelity budget; report the ratio
   gain at matched fidelity.
2. **Factor (A/G) compression** — compress the factor-allreduce payload
   too; report the measured factor CR from a real training run, the
   additional modelled end-to-end speedup, and the accuracy check.
"""

from dataclasses import replace

import numpy as np

from benchmarks._common import emit
from repro import scenarios
from repro.autotune import FidelityBudget, autotune_bounds
from repro.core import CompsoCompressor, FactorCompressor
from repro.data.synthetic import kfac_like_gradient
from repro.distributed import PLATFORM1
from repro.kfac_dist import CompressionSpec, KfacIterationModel, MODEL_TIMING_PROFILES
from repro.models.catalogs import MODEL_CATALOGS
from repro.scenarios import Scenario
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table


#: The accuracy run factor compression is judged on, with and without it.
FACTOR_RUN = Scenario(
    name="factor-compression", nodes=1, gpus_per_node=4, iterations=18, batch_size=64,
    samples=400, noise=0.45, inv_update_freq=5, evaluate=True, compressor=scenarios.compso,
)


def autotune_part():
    grads = [kfac_like_gradient(spawn_rng(s), 300_000) for s in (1, 2)]
    default = CompsoCompressor(4e-3, 4e-3)
    default_cr = sum(g.nbytes for g in grads) / sum(default.compress(g).nbytes for g in grads)
    rows = []
    for budget_name, budget in [
        ("strict (cos 0.9999, l2 1%)", FidelityBudget(0.9999, 0.01)),
        ("paper-like (cos 0.999, l2 5%)", FidelityBudget(0.999, 0.05)),
        ("relaxed (cos 0.995, l2 10%)", FidelityBudget(0.995, 0.10)),
    ]:
        res = autotune_bounds(grads, budget=budget)
        rows.append([budget_name, res.eb_f, res.eb_q, res.ratio, res.ratio / default_cr])
    return rows, default_cr


def factor_part():
    # Real training with factor compression: accuracy + measured factor CR.
    def train(factor_comp):
        trainer, _ = scenarios.run(replace(FACTOR_RUN, factor_compressor=factor_comp))
        return trainer.history.final_metric(), trainer

    acc_base, _ = train(None)
    acc_fc, tr_fc = train(lambda s: FactorCompressor(1e-3))
    factor_cr = float(np.mean(tr_fc.factor_ratios))
    # Modelled end-to-end effect per model.
    rows = []
    for name, catalog_fn in MODEL_CATALOGS.items():
        m = KfacIterationModel(
            catalog_fn(), PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[name]
        )
        spec = CompressionSpec.compso(22.0)
        rows.append(
            [
                name,
                m.end_to_end_speedup(spec),
                m.end_to_end_speedup(spec, factor_ratio=factor_cr),
            ]
        )
    return acc_base, acc_fc, factor_cr, rows


def run_experiment():
    return autotune_part(), factor_part()


def test_ext_future_work(benchmark):
    (tune_rows, default_cr), (acc_base, acc_fc, factor_cr, e2e_rows) = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    out = format_table(
        ["fidelity budget", "eb_f", "eb_q", "CR", "vs default 4E-3"],
        tune_rows,
        title=f"Future work 1 — auto-tuned bounds (default 4E-3/4E-3 CR = {default_cr:.1f})",
        floatfmt=".4f",
    )
    out += "\n\n" + format_table(
        ["model", "e2e speedup (grad only)", "e2e (+factor compression)"],
        e2e_rows,
        title=(
            f"Future work 2 — factor compression: measured factor CR {factor_cr:.1f}x, "
            f"proxy accuracy {acc_base:.1f}% -> {acc_fc:.1f}%"
        ),
    )
    emit(
        "ext_future_work",
        out,
        data={
            "autotune": {
                "default_cr": default_cr,
                "rows": [
                    {
                        "budget": r[0],
                        "eb_f": r[1],
                        "eb_q": r[2],
                        "cr": r[3],
                        "vs_default": r[4],
                    }
                    for r in tune_rows
                ],
            },
            "factor_compression": {
                "acc_base": acc_base,
                "acc_with_factor": acc_fc,
                "factor_cr": factor_cr,
                "end_to_end": [
                    {"model": r[0], "grad_only": r[1], "with_factor": r[2]}
                    for r in e2e_rows
                ],
            },
        },
    )
    # Relaxed budgets must out-compress the default empirical setting.
    assert tune_rows[-1][3] > default_cr
    # Factor compression must not hurt accuracy and must add e2e speedup.
    assert acc_fc >= acc_base - 5.0
    assert factor_cr > 1.5
    for _, base, with_fc in e2e_rows:
        assert with_fc > base
