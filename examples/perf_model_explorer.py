"""Explore the COMPSO performance model (paper section 4.4, Eq. 5).

Builds the offline communication lookup table for both platforms,
profiles COMPSO on BERT-large-sized gradients, sweeps the layer
aggregation factor, runs online encoder selection, and predicts the
end-to-end speedup across cluster scales.

Run with:  python examples/perf_model_explorer.py
"""

import numpy as np

from repro.core import CompsoCompressor, PerformanceModel
from repro.data.synthetic import catalog_gradients
from repro.distributed import PLATFORM1, PLATFORM2
from repro.kfac_dist import CompressionSpec, KfacIterationModel, MODEL_TIMING_PROFILES
from repro.models.catalogs import bert_large_catalog
from repro.util.tables import format_table

# --- synthetic K-FAC gradients at BERT-large layer sizes --------------------
catalog = bert_large_catalog()
grads = catalog_gradients(np.random.default_rng(0), catalog, 24, 150_000)

compso = CompsoCompressor(4e-3, 4e-3)

for platform in (PLATFORM1, PLATFORM2):
    pm = PerformanceModel(platform.network, world_size=64)
    print(f"\n===== {platform.name} ({platform.network.name}) =====")

    # Offline lookup table sample.
    rows = [[f"{s / 1e6:.1f} MB", pm.lookup.throughput(64, s) / 1e9] for s in (1e6, 1e7, 1e8, 1e9)]
    print(format_table(["message", "allgather GB/s"], rows,
                       title="offline lookup table (64 GPUs)", floatfmt=".2f"))

    # Aggregation-factor decision.
    m, scores = pm.choose_aggregation(grads, compso, r=0.45)
    print(f"\naggregation sweep: " + ", ".join(f"m={k}: {v:.3f}x" for k, v in scores.items()))
    print(f"chosen m = {m}")

    # Encoder selection.
    best, results = pm.choose_encoder(grads, compso, aggregation=m)
    print(f"encoder selection -> {best} "
          f"(sizes: {', '.join(f'{k}={int(v[0] / 1e3)}KB' for k, v in results.items())})")

    # Eq. 5 prediction.
    stats = pm.profile(grads, compso, r=0.45, aggregation=m)
    s = pm.comm_speedup(stats)
    print(f"measured CR {stats.ratio:.1f}x -> comm speedup {s:.1f}x -> "
          f"end-to-end {pm.end_to_end_speedup(s, 0.45):.2f}x "
          f"(compress? {pm.should_compress(stats)})")

# --- full iteration model across scales --------------------------------------
print("\n===== end-to-end speedup across scales (BERT-large, CR 22x) =====")
rows = []
for nodes in (2, 4, 8, 16):
    row = [nodes * 4]
    for platform in (PLATFORM1, PLATFORM2):
        model = KfacIterationModel(
            catalog, platform, nodes, profile=MODEL_TIMING_PROFILES["bert-large"]
        )
        row.append(model.end_to_end_speedup(CompressionSpec.compso(22.0)))
    rows.append(row)
print(format_table(["GPUs", "Platform 1", "Platform 2"], rows, floatfmt=".2f"))
