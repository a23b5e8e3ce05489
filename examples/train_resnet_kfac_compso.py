"""Distributed K-FAC training with COMPSO on the simulated cluster.

Trains the ResNet-style proxy on synthetic image classification with a
16-rank simulated A100 cluster, comparing no compression vs COMPSO with
the adaptive StepLR schedule.  Reports convergence, measured compression
ratio, and the simulated communication-time savings.

Run with:  python examples/train_resnet_kfac_compso.py
"""

from dataclasses import replace

from repro import scenarios
from repro.core import AdaptiveCompso, StepLrSchedule
from repro.scenarios import Scenario

#: 16 ranks (four nodes of four A100s on Slingshot-10), the rate dropping
#: tenfold halfway through.
RUN = Scenario(
    name="train-resnet", nodes=4, gpus_per_node=4, iterations=30, batch_size=64, samples=800,
    n_classes=8, noise=0.8, inv_update_freq=5, lr_drop=15,
)


def run(compressor, label):
    trainer = scenarios.build(replace(RUN, compressor=compressor))
    history = trainer.train(iterations=RUN.iterations, batch_size=RUN.batch_size, eval_every=10)
    comm = trainer.cluster.breakdown()
    print(f"\n=== {label} ===")
    print(f"loss: {history.losses[0]:.3f} -> {history.losses[-1]:.4f}")
    for it, acc in history.metrics:
        print(f"  iter {it:3d}: accuracy {acc:.1f}%")
    if compressor is not None:
        print(f"mean compression ratio: {trainer.mean_compression_ratio():.1f}x")
    print(f"simulated comm time: allgather {comm['kfac_allgather'] * 1e3:.2f} ms, "
          f"factor allreduce {comm['kfac_allreduce'] * 1e3:.2f} ms")
    return comm["kfac_allgather"]


baseline_allgather = run(None, "K-FAC, no compression")
compso_allgather = run(
    lambda s: AdaptiveCompso(StepLrSchedule(s.lr_drop)), "K-FAC + COMPSO (adaptive)"
)
print(f"\nallgather time reduction: {baseline_allgather / compso_allgather:.1f}x")
print(
    "note: the proxy's layers are tiny (KBs), so wire metadata and latency cap\n"
    "the measured gain — convergence behaviour is the point of this example.\n"
    "For communication/speedup at real model scale, see\n"
    "examples/perf_model_explorer.py and benchmarks/bench_fig07/09."
)
