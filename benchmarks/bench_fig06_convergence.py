"""Figure 6 (a+b): convergence of K-FAC vs SGD and under compression.

Reproduces the two claims:
1. K-FAC converges in fewer iterations than SGD(+CocktailSGD) to the
   same target metric (paper: 40 vs 60 epochs on ResNet-50 etc.);
2. K-FAC with cuSZ loses accuracy, while QSGD-8bit, CocktailSGD and
   COMPSO track the no-compression baseline (Fig. 6b's metric table).

Run on all three Fig. 6 workloads: classification (ResNet-50 proxy),
detection (Mask R-CNN proxy, loss metric), and causal LM (GPT proxy,
loss metric).
"""

from dataclasses import replace

from benchmarks._common import KFAC_RUN, emit
from repro import scenarios
from repro.compression import CocktailSgdCompressor, QsgdCompressor, SzCompressor
from repro.core import CompsoCompressor
from repro.distributed import SimCluster
from repro.optim import Sgd
from repro.train import DistributedSgdTrainer
from repro.util.tables import format_table

ITERS = 24

_FIG06 = replace(KFAC_RUN, iterations=ITERS, samples=400, noise=0.4)
#: workload -> (its run, the name of its final metric)
WORKLOADS = {
    "resnet": (replace(_FIG06, samples=500, noise=0.45), "acc%"),
    "maskrcnn": (replace(_FIG06, model="mini-detection"), "loss"),
    "gpt": (replace(_FIG06, model="mini-gpt"), "loss"),
}


def _run_kfac(workload, compressor):
    trainer, _ = scenarios.run(replace(WORKLOADS[workload][0], compressor=compressor))
    return trainer.history


def _run_sgd_cocktail(workload):
    s = WORKLOADS[workload][0]
    proxy = scenarios.MODELS[s.model]
    task, model = proxy.make(s)
    opt = Sgd(model.parameters(), lr=proxy.lr, momentum=0.9)
    tr = DistributedSgdTrainer(
        model, task, opt, SimCluster(s.nodes, s.gpus_per_node),
        compressor=CocktailSgdCompressor(0.2, 8),
    )
    return tr.train(iterations=s.iterations, batch_size=s.batch_size, eval_every=s.iterations)


CONFIGS = [
    ("kfac (no comp.)", None),
    ("kfac+cusz", lambda s: SzCompressor(4e-3)),
    ("kfac+qsgd", lambda s: QsgdCompressor(8)),
    ("kfac+cocktail", lambda s: CocktailSgdCompressor(0.2, 8)),
    ("kfac+compso", lambda s: CompsoCompressor(4e-3, 4e-3)),
]


def run_experiment():
    results = {}
    for workload in WORKLOADS:
        per = {}
        for name, factory in CONFIGS:
            per[name] = _run_kfac(workload, factory)
        per["sgd+cocktail"] = _run_sgd_cocktail(workload)
        results[workload] = per
    return results


def _iterations_to_loss(losses, target):
    for i, l in enumerate(losses):
        if l <= target:
            return i + 1
    return len(losses)


def test_fig6_convergence(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    blocks = []
    for workload, per in results.items():
        metric_name = WORKLOADS[workload][1]
        rows = [
            [name, h.losses[0], h.losses[-1], h.final_metric()]
            for name, h in per.items()
        ]
        blocks.append(
            format_table(
                ["method", "first loss", "final loss", f"final {metric_name}"],
                rows,
                title=f"Figure 6 — {workload} convergence ({ITERS} iterations, 4 ranks)",
                floatfmt=".3f",
            )
        )
        # Fig. 6a: K-FAC reaches the SGD end-of-run loss in fewer iterations.
        sgd_final = per["sgd+cocktail"].losses[-1]
        kfac_iters = _iterations_to_loss(per["kfac (no comp.)"].losses, sgd_final)
        blocks.append(
            f"{workload}: K-FAC reaches SGD's final loss in {kfac_iters}/{ITERS} iterations"
        )
        assert kfac_iters < ITERS
        # Fig. 6b: COMPSO tracks the no-compression baseline loss.
        assert per["kfac+compso"].losses[-1] <= per["kfac (no comp.)"].losses[-1] * 1.6 + 0.05
    emit(
        "fig06_convergence",
        "\n\n".join(blocks),
        data={
            workload: {
                name: {
                    "first_loss": float(h.losses[0]),
                    "final_loss": float(h.losses[-1]),
                    "final_metric": h.final_metric(),
                }
                for name, h in per.items()
            }
            for workload, per in results.items()
        },
    )
