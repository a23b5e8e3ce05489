"""Ablation: layer-aggregation factor sweep (section 4.4).

Sweeps m over {1, 2, 4, 8, 16, 32} for every model at 16 nodes on both
platforms and compares the best fixed m against the performance model's
choice.  The paper's claim: a fixed factor can be too small (kernel and
message overheads dominate) or too large for optimal end-to-end speedup;
the model-chosen factor matches the sweep's optimum.
"""

import zlib

from benchmarks._common import emit
from repro.core import CompsoCompressor, PerformanceModel
from repro.data.synthetic import catalog_gradients
from repro.distributed import PLATFORM1
from repro.kfac_dist import CompressionSpec, KfacIterationModel, MODEL_TIMING_PROFILES
from repro.models.catalogs import MODEL_CATALOGS
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

M_CANDIDATES = (1, 2, 4, 8, 16, 32)


def run_experiment():
    rows = []
    chosen = {}
    for model, catalog_fn in MODEL_CATALOGS.items():
        catalog = catalog_fn()
        m_iter = KfacIterationModel(
            catalog, PLATFORM1, 16, profile=MODEL_TIMING_PROFILES[model]
        )
        speedups = [
            m_iter.end_to_end_speedup(CompressionSpec.compso(22.0, aggregation=m))
            for m in M_CANDIDATES
        ]
        rows.append([model, *speedups])
        # Performance-model decision on catalog-sized gradients.
        rng = spawn_rng(0, zlib.crc32(model.encode()) % 991)
        grads = catalog_gradients(rng, catalog, 16, 100_000)
        pm = PerformanceModel(PLATFORM1.network, world_size=64)
        m_choice, _ = pm.choose_aggregation(
            grads, CompsoCompressor(4e-3, 4e-3), r=0.45, candidates=M_CANDIDATES
        )
        chosen[model] = m_choice
    return rows, chosen


def test_ablation_aggregation_sweep(benchmark):
    rows, chosen = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_table(
        ["model", *[f"m={m}" for m in M_CANDIDATES]],
        rows,
        title="Ablation — end-to-end speedup vs aggregation factor (P1, 16 nodes)",
    )
    table += "\n\nperformance-model choices: " + str(chosen)
    emit(
        "ablation_aggregation",
        table,
        data={
            "sweep": [
                {"model": r[0], **{f"m{m}": s for m, s in zip(M_CANDIDATES, r[1:])}}
                for r in rows
            ],
            "model_choice": chosen,
        },
    )
    for row in rows:
        speedups = dict(zip(M_CANDIDATES, row[1:]))
        # m=1 (no aggregation) is never optimal: overheads dominate.
        assert max(speedups.values()) > speedups[1]
        # The model's pick lands within 2% of the sweep optimum.
        model_pick = chosen[row[0]]
        nearest = min(M_CANDIDATES, key=lambda m: abs(m - model_pick))
        assert speedups[nearest] >= max(speedups.values()) * 0.98
