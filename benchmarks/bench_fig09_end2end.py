"""Figure 9 + section 5.4: end-to-end training performance gain.

For all four models, both platforms and 2-16 nodes, computes the
iteration-time speedup over no-compression K-FAC for cuSZ, QSGD,
CocktailSGD, COMPSO-f (fixed aggregation m=4) and COMPSO-p (aggregation
chosen by the performance model), then derives the section 5.4
training-hour table, including the SGD+CocktailSGD comparison via the
paper's iteration-count ratios.

Paper claims reproduced: COMPSO up to ~1.9x (avg ~1.3x); COMPSO-p >=
COMPSO-f; gains grow with GPU count; KFAC+COMPSO beats SGD+CocktailSGD
by ~1.8x average including the iteration-count advantage.
"""

import zlib

import numpy as np

from benchmarks._common import emit
from repro.core import CompsoCompressor, PerformanceModel
from repro.data.synthetic import catalog_gradients
from repro.distributed import PLATFORM1, PLATFORM2
from repro.gpusim import PIPELINES
from repro.kfac_dist import CompressionSpec, KfacIterationModel, MODEL_TIMING_PROFILES
from repro.models.catalogs import MODEL_CATALOGS
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

#: Measured aggressive-stage ratios (bench_fig07 regenerates these; the
#: values here are the means across models, used for the baselines).
RATIOS = {"cusz": 19.0, "qsgd": 14.0, "cocktail": 28.0, "compso": 27.0}
PIPE = {
    "cusz": "sz-cuda",
    "qsgd": "qsgd-cuda",
    "cocktail": "cocktail-pytorch",
    "compso": "compso-cuda",
}

#: Iterations-to-convergence: KFAC vs SGD (paper section 5.1: 40 vs 60
#: epochs, 1000 vs 1800, 1000 vs 1563, 3000 vs 5000).
SGD_ITER_RATIO = {
    "resnet50": 60 / 40,
    "maskrcnn": 1800 / 1000,
    "bert-large": 1563 / 1000,
    "gpt-neo-125m": 5000 / 3000,
}

NODE_COUNTS = (2, 4, 8, 16)


def _choose_aggregation(model_name, catalog, platform, world):
    """COMPSO-p: run the performance model's aggregation decision on
    catalog-sized synthetic gradients, over the row's platform network."""
    rng = spawn_rng(0, zlib.crc32(model_name.encode()) % 997)
    grads = catalog_gradients(rng, catalog, 16, 100_000)
    pm = PerformanceModel(platform.network, world_size=world)
    m, _ = pm.choose_aggregation(grads, CompsoCompressor(4e-3, 4e-3), r=0.45)
    return m


def run_experiment():
    rows = []
    for model, catalog_fn in MODEL_CATALOGS.items():
        catalog = catalog_fn()
        prof = MODEL_TIMING_PROFILES[model]
        for pname, plat in (("P1", PLATFORM1), ("P2", PLATFORM2)):
            for nodes in NODE_COUNTS:
                m = KfacIterationModel(catalog, plat, nodes, profile=prof)
                row = [model, pname, nodes * plat.gpus_per_node]
                for cname in ("cusz", "qsgd", "cocktail"):
                    spec = CompressionSpec(RATIOS[cname], PIPELINES[PIPE[cname]], 1)
                    row.append(m.end_to_end_speedup(spec))
                row.append(
                    m.end_to_end_speedup(
                        CompressionSpec(RATIOS["compso"], PIPELINES["compso-cuda"], 4)
                    )
                )
                m_p = _choose_aggregation(model, catalog, plat, m.world)
                row.append(
                    m.end_to_end_speedup(
                        CompressionSpec(RATIOS["compso"], PIPELINES["compso-cuda"], m_p)
                    )
                )
                rows.append(row)
    return rows


def hours_table(rows):
    """Section 5.4: training hours at 8 GPUs, P1, before/after COMPSO and
    vs SGD+CocktailSGD."""
    base_hours = {"resnet50": 5.0, "maskrcnn": 1.0, "bert-large": 54.0, "gpt-neo-125m": 1.0}
    out = []
    for model in MODEL_CATALOGS:
        r = next(r for r in rows if r[0] == model and r[1] == "P1" and r[2] == 8)
        compso_p = r[7]
        kfac_hours = base_hours[model]
        compso_hours = kfac_hours / compso_p
        sgd_hours = kfac_hours * SGD_ITER_RATIO[model]  # SGD needs more iterations
        out.append(
            [model, sgd_hours, kfac_hours, compso_hours, sgd_hours / compso_hours]
        )
    return out


def test_fig9_end_to_end(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_table(
        ["model", "platform", "gpus", "cusz", "qsgd", "cocktail", "COMPSO-f", "COMPSO-p"],
        rows,
        title="Figure 9 — end-to-end speedup over no-compression K-FAC",
        floatfmt=".2f",
    )
    hrs = hours_table(rows)
    hrs_table = format_table(
        ["model", "SGD+cocktail h", "KFAC h", "KFAC+COMPSO h", "vs SGD+cocktail"],
        hrs,
        title="Section 5.4 — training-hours comparison (8 GPUs, Platform 1)",
    )
    emit(
        "fig09_end2end",
        table + "\n\n" + hrs_table,
        data={
            "speedups": [
                {
                    "model": r[0],
                    "platform": r[1],
                    "gpus": r[2],
                    "cusz": r[3],
                    "qsgd": r[4],
                    "cocktail": r[5],
                    "compso_f": r[6],
                    "compso_p": r[7],
                }
                for r in rows
            ],
            "training_hours": [
                {
                    "model": h[0],
                    "sgd_cocktail_h": h[1],
                    "kfac_h": h[2],
                    "kfac_compso_h": h[3],
                    "vs_sgd_cocktail": h[4],
                }
                for h in hrs
            ],
        },
    )

    f_col, p_col = 6, 7
    compso_f = [r[f_col] for r in rows]
    compso_p = [r[p_col] for r in rows]
    # Paper: up to 1.9x, average ~1.3-1.5x; the perf model never hurts.
    assert 1.0 < min(compso_f)
    assert max(compso_p) < 2.0
    assert 1.2 < float(np.mean(compso_p)) < 1.6
    assert all(p >= f - 1e-9 for f, p in zip(compso_f, compso_p))
    # COMPSO beats every baseline configuration.
    for r in rows:
        assert r[p_col] >= max(r[3], r[4], r[5]) - 1e-9, r
    # Gains grow (weakly) with GPU count per model/platform.
    for model in MODEL_CATALOGS:
        for plat in ("P1", "P2"):
            series = [r[p_col] for r in rows if r[0] == model and r[1] == plat]
            assert series[-1] >= series[0] - 0.05
    # Section 5.4: ~1.8x average over SGD+CocktailSGD.
    vs_sgd = [row[4] for row in hours_table(rows)]
    assert 1.5 < float(np.mean(vs_sgd)) < 2.6
