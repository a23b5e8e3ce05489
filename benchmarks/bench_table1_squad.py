"""Table 1: SQuAD fine-tuning quality under gradient compression.

Fine-tunes the span-QA proxy with distributed K-FAC under each
compressor and reports exact match / span F1, plus the SGD+CocktailSGD
row.  The paper's claim: QSGD-8bit / CocktailSGD / COMPSO land within
noise of the no-compression target (90.44 F1), cuSZ lands below it;
COMPSO uses the staged 4E-3 -> 2E-3 bound refinement.
"""

from dataclasses import replace

from benchmarks._common import KFAC_RUN, emit
from repro import scenarios
from repro.compression import CocktailSgdCompressor, QsgdCompressor, SzCompressor
from repro.core import AdaptiveCompso, SmoothLrSchedule
from repro.distributed import SimCluster
from repro.optim import Sgd
from repro.train import DistributedSgdTrainer
from repro.util.tables import format_table

ITERS = 60

SQUAD = replace(KFAC_RUN, model="mini-squad", iterations=ITERS, samples=600)


def _run_kfac(compressor):
    trainer, _ = scenarios.run(replace(SQUAD, compressor=compressor))
    return trainer.history.final_metric()


def _run_sgd_cocktail():
    task, model = scenarios.MODELS[SQUAD.model].make(SQUAD)
    opt = Sgd(model.parameters(), lr=0.2, momentum=0.9)
    tr = DistributedSgdTrainer(
        model, task, opt, SimCluster(SQUAD.nodes, SQUAD.gpus_per_node),
        compressor=CocktailSgdCompressor(0.2, 8),
    )
    h = tr.train(iterations=ITERS, batch_size=SQUAD.batch_size, eval_every=ITERS)
    em, f1 = h.final_metric()
    return em, f1


def run_experiment():
    rows = []
    rows.append(["sgd+cocktail", "20% sparsity + 8-bit", *_run_sgd_cocktail()])
    rows.append(["kfac (no comp.)", "(n/a)", *_run_kfac(None)])
    rows.append(["kfac+cusz", "4E-3 relative", *_run_kfac(lambda s: SzCompressor(4e-3))])
    rows.append(["kfac+qsgd", "8-bit quant.", *_run_kfac(lambda s: QsgdCompressor(8))])
    rows.append(
        [
            "kfac+cocktail", "20% sparsity + 8-bit",
            *_run_kfac(lambda s: CocktailSgdCompressor(0.2, 8)),
        ]
    )
    # COMPSO: staged bounds 4E-3 -> 2E-3 across four stages (paper's BERT recipe).
    staged = _run_kfac(lambda s: AdaptiveCompso(SmoothLrSchedule(s.iterations, z=4, alpha=0.5)))
    rows.append(["kfac+compso", "iteration-wise adaptive", *staged])
    return rows


def test_table1_squad(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_table(
        ["approach", "error control", "ExactMatch%", "F1%"],
        rows,
        title="Table 1 — span-QA fine-tuning quality (proxy SQuAD)",
        floatfmt=".2f",
    )
    emit(
        "table1_squad",
        table,
        data={
            "rows": [
                {
                    "approach": r[0],
                    "error_control": r[1],
                    "exact_match": r[2],
                    "f1": r[3],
                }
                for r in rows
            ]
        },
    )
    by = {r[0]: (r[2], r[3]) for r in rows}
    target_f1 = by["kfac (no comp.)"][1]
    # The paper's shape: QSGD/Cocktail/COMPSO land near the target.
    assert by["kfac+qsgd"][1] >= target_f1 - 6.0
    assert by["kfac+compso"][1] >= target_f1 - 6.0
    assert by["kfac+cocktail"][1] >= target_f1 - 8.0
    # Everything learned far beyond the random-span floor.
    assert all(f1 > 30.0 for _, f1 in by.values())
