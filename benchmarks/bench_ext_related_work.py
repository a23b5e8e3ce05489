"""Extension bench: section 6 related-work comparisons.

1. **Ok-topk vs COMPSO adaptivity** — Ok-topk keeps a fixed selection
   rule across training; COMPSO adapts to the LR schedule.  Measured:
   per-stage ratios of each on the same gradient stream.
2. **Error feedback trade-off** — EF repairs biased sparsifiers but costs
   a model-sized residual buffer per worker, the memory overhead the
   paper cites for avoiding EF (section 6 "Quantization methods").
"""

from dataclasses import replace

import numpy as np

from benchmarks._common import KFAC_RUN, emit
from repro import scenarios
from repro.compression import ErrorFeedback, OkTopkCompressor, TopKCompressor
from repro.core import AdaptiveCompso, StepLrSchedule
from repro.data.synthetic import kfac_like_gradient
from repro.kfac_dist.memory import estimate_kfac_memory
from repro.models.catalogs import MODEL_CATALOGS
from repro.util.seeding import spawn_rng
from repro.util.tables import format_table

PIVOT = 8
ITERS = 16


def adaptivity_part():
    x = kfac_like_gradient(spawn_rng(7), 400_000)
    ok = OkTopkCompressor(0.05, seed=0)
    ac = AdaptiveCompso(StepLrSchedule(PIVOT))
    # The same schedule over a coder that models bytes: what a near-zero
    # code costs once the filter is off depends on the symbol.
    ac_bytes = AdaptiveCompso(StepLrSchedule(PIVOT), encoder="huffman")
    rows = []
    for t in range(ITERS):
        rows.append(
            [t, x.nbytes / ok.compress(x).nbytes]
            + [x.nbytes / c.compress(x).nbytes for c in (ac, ac_bytes)]
        )
        ac.step()
        ac_bytes.step()
    return rows


def ef_part():
    """Train the proxy with a biased sparsifier, with and without EF."""

    def train(compressor):
        trainer, _ = scenarios.run(
            replace(KFAC_RUN, samples=500, noise=0.45, iterations=20, compressor=compressor)
        )
        h = trainer.history
        return h.losses[-1], h.final_metric()

    base_loss, base_acc = train(None)
    topk_loss, topk_acc = train(lambda s: TopKCompressor(0.05))
    ef_loss, ef_acc = train(lambda s: ErrorFeedback(TopKCompressor(0.05)))
    # EF memory cost at real-model scale: one residual buffer = one
    # gradient-sized tensor per worker.
    mem_rows = []
    for name, fn in MODEL_CATALOGS.items():
        cat = fn()
        grad_gb = sum(l.grad_bytes for l in cat) / 1e9
        total_gb = estimate_kfac_memory(cat, per_gpu_batch=8).total / 1e9
        mem_rows.append([name, grad_gb, 100 * grad_gb / total_gb])
    return (base_loss, base_acc, topk_loss, topk_acc, ef_loss, ef_acc), mem_rows


def run_experiment():
    return adaptivity_part(), ef_part()


def test_ext_related_work(benchmark):
    adapt_rows, ((base_loss, base_acc, topk_loss, topk_acc, ef_loss, ef_acc), mem_rows) = (
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    )
    out = format_table(
        ["iteration", "Ok-topk CR", "COMPSO adaptive CR", "same, Huffman (byte symbols)"],
        adapt_rows,
        title=f"Related work — fixed (Ok-topk) vs LR-adaptive bounds (pivot @{PIVOT})",
        floatfmt=".1f",
    )
    out += "\n\n" + format_table(
        ["config", "final loss", "final acc%"],
        [
            ["kfac (no comp.)", base_loss, base_acc],
            ["kfac+topk-5%", topk_loss, topk_acc],
            ["kfac+EF(topk-5%)", ef_loss, ef_acc],
        ],
        title="Related work — error feedback repairs biased sparsification",
        floatfmt=".3f",
    )
    out += "\n\n" + format_table(
        ["model", "EF residual GB/worker", "% of training footprint"],
        mem_rows,
        title="Related work — EF memory overhead (why the paper avoids it)",
    )
    emit(
        "ext_related_work",
        out,
        data={
            "adaptivity": [
                {
                    "iteration": r[0],
                    "oktopk_cr": r[1],
                    "compso_cr": r[2],
                    "compso_huffman_cr": r[3],
                }
                for r in adapt_rows
            ],
            "error_feedback": {
                "base": {"loss": base_loss, "acc": base_acc},
                "topk": {"loss": topk_loss, "acc": topk_acc},
                "ef_topk": {"loss": ef_loss, "acc": ef_acc},
            },
            "ef_memory": [
                {"model": r[0], "residual_gb": r[1], "footprint_pct": r[2]}
                for r in mem_rows
            ],
        },
    )
    ok_crs = [r[1] for r in adapt_rows]
    ac_crs = [r[2] for r in adapt_rows]
    byte_crs = [r[3] for r in adapt_rows]
    # Ok-topk's ratio is flat; COMPSO's drops at the pivot by design.
    assert np.std(ok_crs) < 0.05 * np.mean(ok_crs)
    assert np.mean(byte_crs[:PIVOT]) > 1.5 * np.mean(byte_crs[PIVOT:])
    # With one ANS symbol per 16-bit code the SR-only stage hardly pays
    # for near-zero codes, so the step is 41x -> 34x where Huffman's is
    # 34x -> 9x (EXPERIMENTS.md, "What the filter is still worth"): each
    # stage in its own band.
    assert 39.0 < min(ac_crs[:PIVOT]) and max(ac_crs[:PIVOT]) < 43.5
    assert 32.0 < min(ac_crs[PIVOT:]) and max(ac_crs[PIVOT:]) < 36.0
    # EF recovers most of the aggressive sparsifier's loss gap.
    assert ef_loss <= topk_loss + 1e-9
    # Residual buffers are a nontrivial share of the footprint.
    assert all(row[2] > 1.0 for row in mem_rows)
