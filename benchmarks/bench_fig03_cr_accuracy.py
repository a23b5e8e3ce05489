"""Figure 3: compression ratio vs validation accuracy trade-off.

Reproduces the motivating experiment in two (paper-faithful) parts:

* **Ratio panel** — each setting's CR measured on catalog-sized
  K-FAC-gradient-like data for ResNet-50 and BERT-large (the paper
  measures CR on the real models' gradients).
* **Accuracy panel** — proxy models trained with distributed K-FAC under
  each setting.  Proxy-scale training is far more error-tolerant than
  ImageNet-scale, so the "loose" settings are scaled up accordingly
  (SZ 3E-1 / QSGD 3-bit play the role of the paper's SZ 1E-1 / QSGD
  4-bit); the qualitative shape — loose settings trade accuracy for
  ratio, tight settings preserve accuracy at modest ratio — is the
  reproduced claim.
"""

import zlib
from dataclasses import replace

import numpy as np

from benchmarks._common import HARD_RESNET, KFAC_RUN, emit
from repro import scenarios
from repro.compression import QsgdCompressor, SzCompressor
from repro.data.synthetic import catalog_gradients
from repro.models.catalogs import bert_large_catalog, resnet50_catalog
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

#: (name, ratio-panel compressor, accuracy-panel compressor of a scenario)
SETTINGS = [
    ("loose-sz (1E-1)", lambda: SzCompressor(1e-1), lambda s: SzCompressor(3e-1)),
    ("loose-qsgd (4bit)", lambda: QsgdCompressor(4), lambda s: QsgdCompressor(3)),
    ("tight-sz (4E-3)", lambda: SzCompressor(4e-3), lambda s: SzCompressor(4e-3)),
    ("tight-qsgd (8bit)", lambda: QsgdCompressor(8), lambda s: QsgdCompressor(8)),
]
#: The accuracy panel's BERT run; it and ``HARD_RESNET`` train at seeds 0 and 1.
BERT = replace(KFAC_RUN, model="mini-bert", iterations=20, samples=400)


def measure_ratios():
    out = {}
    for model, catalog in (
        ("resnet50", resnet50_catalog()),
        ("bert-large", bert_large_catalog()),
    ):
        rng = spawn_rng(zlib.crc32(model.encode()) % 1009)
        grads = catalog_gradients(rng, catalog, 16, 150_000)
        total = sum(g.nbytes for g in grads)
        out[model] = {
            name: total / sum(factory().compress(g).nbytes for g in grads)
            for name, factory, _ in SETTINGS
        }
    return out


def _train_resnet(compressor, seed):
    trainer, _ = scenarios.run(replace(HARD_RESNET, seed=seed, compressor=compressor))
    return trainer.history.final_metric()


def _train_bert(compressor, seed):
    trainer, _ = scenarios.run(replace(BERT, seed=seed, compressor=compressor))
    return float(np.exp(-trainer.history.final_metric()) * 100)


def measure_accuracy():
    seeds = (0, 1)
    base_r = float(np.mean([_train_resnet(None, s) for s in seeds]))
    base_b = float(np.mean([_train_bert(None, s) for s in seeds]))
    acc = {}
    for name, _, factory in SETTINGS:
        acc[name] = (
            float(np.mean([_train_resnet(factory, s) for s in seeds])),
            float(np.mean([_train_bert(factory, s) for s in seeds])),
        )
    return base_r, base_b, acc


def run_experiment():
    return measure_ratios(), measure_accuracy()


def test_fig3_cr_vs_accuracy(benchmark):
    ratios, (base_r, base_b, acc) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [
        [name, ratios["resnet50"][name], acc[name][0], ratios["bert-large"][name], acc[name][1]]
        for name, _, _ in SETTINGS
    ]
    table = format_table(
        ["setting", "ResNet-50 CR", "ResNet acc%", "BERT CR", "BERT metric"],
        rows,
        title=(
            "Figure 3 — CR (catalog gradients) vs accuracy (proxy, 2 seeds); "
            f"no-compression baselines: ResNet {base_r:.1f}%, BERT {base_b:.1f}"
        ),
    )
    emit(
        "fig03_cr_accuracy",
        table,
        data={
            "baseline": {"resnet_acc": base_r, "bert_metric": base_b},
            "rows": [
                {
                    "setting": r[0],
                    "resnet_cr": r[1],
                    "resnet_acc": r[2],
                    "bert_cr": r[3],
                    "bert_metric": r[4],
                }
                for r in rows
            ],
        },
    )
    # Ratio panel: loose settings compress (much) more.
    for model in ("resnet50", "bert-large"):
        r = ratios[model]
        assert r["loose-sz (1E-1)"] > r["tight-sz (4E-3)"], model
        assert r["loose-qsgd (4bit)"] > r["tight-qsgd (8bit)"], model
    # Accuracy panel: tight settings hold the baseline; loose settings
    # lose at least as much accuracy as tight ones.
    assert acc["tight-qsgd (8bit)"][0] >= base_r - 4.0
    assert acc["tight-sz (4E-3)"][0] >= base_r - 4.0
    assert acc["loose-sz (1E-1)"][0] <= acc["tight-sz (4E-3)"][0] + 1.0
