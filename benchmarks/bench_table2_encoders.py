"""Table 2: lossless-encoder comparison on K-FAC gradient data.

For ResNet-50-like and BERT-large-like quantised gradient payloads,
reports each nvCOMP-candidate encoder's *measured* compression ratio
(real COMPSO pipeline output) and *modelled* GPU (de)compression
throughput (gpusim, calibrated to the paper's Table 2).

Paper claims reproduced: entropy coders (ANS/Deflate/Gdeflate/Zstd) beat
dictionary (LZ4/Snappy) and run-length (Cascaded) coders in ratio on
gradient data; ANS offers the best ratio-throughput combination and is
the selected encoder.
"""

from benchmarks._common import emit
from repro.core import CompsoCompressor, PerformanceModel
from repro.data.synthetic import catalog_gradients
from repro.distributed import SLINGSHOT10
from repro.encoders.registry import NVCOMP_CANDIDATES
from repro.gpusim import ENCODER_PERF
from repro.gpusim.encoder_perf import BERT_CHUNK_BYTES, RESNET_CHUNK_BYTES
from repro.models.catalogs import bert_large_catalog, resnet50_catalog
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table


def run_experiment():
    datasets = {
        "resnet50": (catalog_gradients(spawn_rng(1), resnet50_catalog(), 16, 150_000), RESNET_CHUNK_BYTES),
        "bert-large": (catalog_gradients(spawn_rng(2), bert_large_catalog(), 16, 150_000), BERT_CHUNK_BYTES),
    }
    results = {}
    for model, (grads, chunk) in datasets.items():
        total = sum(g.nbytes for g in grads)
        rows = []
        for enc in NVCOMP_CANDIDATES:
            comp = CompsoCompressor(4e-3, 4e-3, encoder=enc, seed=0)
            wire = 0
            for i in range(0, len(grads), 4):
                wire += comp.compress_many(grads[i : i + 4]).nbytes
            perf = ENCODER_PERF[enc]
            rows.append(
                [
                    enc,
                    perf.compress_throughput(chunk),
                    total / wire,
                    perf.decompress_throughput(chunk),
                ]
            )
        results[model] = rows
    # Encoder selection (section 4.4) must pick ANS.
    pm = PerformanceModel(SLINGSHOT10, world_size=64)
    grads = datasets["resnet50"][0]
    best, _ = pm.choose_encoder(grads, CompsoCompressor(4e-3, 4e-3))
    return results, best


def test_table2_encoders(benchmark):
    results, best = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    blocks = []
    for model, rows in results.items():
        blocks.append(
            format_table(
                ["encoder", "C-GB/s (model)", "overall CR (measured)", "D-GB/s (model)"],
                rows,
                title=f"Table 2 — encoder comparison on {model} K-FAC gradients",
            )
        )
    blocks.append(f"encoder selected by the performance model: {best}")
    emit(
        "table2_encoders",
        "\n\n".join(blocks),
        data={
            "selected_encoder": best,
            "models": {
                model: [
                    {
                        "encoder": r[0],
                        "compress_gbps": r[1],
                        "overall_cr": r[2],
                        "decompress_gbps": r[3],
                    }
                    for r in rows
                ]
                for model, rows in results.items()
            },
        },
    )
    assert best == "ans"
    for model, rows in results.items():
        cr = {r[0]: r[2] for r in rows}
        # Entropy coding beats dictionary matching and RLE on gradients.
        assert cr["ans"] > cr["lz4"], model
        assert cr["ans"] > cr["snappy"], model
        assert cr["ans"] > cr["cascaded"], model
        assert cr["zstd"] >= cr["lz4"], model
        # ANS dominates the other entropy coders in modelled throughput.
        tput = {r[0]: r[1] for r in rows}
        for other in ("deflate", "gdeflate", "zstd"):
            assert tput["ans"] > tput[other], model
