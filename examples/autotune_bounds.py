"""Auto-tune COMPSO's error bounds (paper section 7, future work).

Collects real K-FAC preconditioned gradients from a short proxy training
run, then searches (eb_f, eb_q) for the best compression ratio under a
gradient-fidelity budget — replacing the paper's empirical 4E-3 setting
with a data-driven one.

Run with:  python examples/autotune_bounds.py
"""

import numpy as np

from repro import scenarios
from repro.autotune import FidelityBudget, autotune_bounds
from repro.core import CompsoCompressor
from repro.scenarios import Scenario

# --- harvest real K-FAC gradients -------------------------------------------
trainer, _ = scenarios.run(
    Scenario(
        name="harvest", nodes=1, gpus_per_node=4, iterations=6, batch_size=64, samples=400,
        channels=16, inv_update_freq=5,
    )
)
grads = [trainer.kfac.precondition(i) for i in range(len(trainer.kfac.layers))]
print(f"harvested {len(grads)} layer gradients "
      f"({sum(g.nbytes for g in grads) / 1e3:.0f} KB total)")

default = CompsoCompressor(4e-3, 4e-3)
default_cr = sum(g.nbytes for g in grads) / sum(default.compress(g).nbytes for g in grads)
print(f"paper's empirical bounds (4E-3/4E-3): CR {default_cr:.1f}x")

# --- tune under three budgets -------------------------------------------------
for label, budget in [
    ("strict", FidelityBudget(min_cosine=0.9999, max_rel_l2=0.01)),
    ("moderate", FidelityBudget(min_cosine=0.999, max_rel_l2=0.05)),
    ("relaxed", FidelityBudget(min_cosine=0.995, max_rel_l2=0.10)),
]:
    result = autotune_bounds(grads, budget=budget)
    print(
        f"{label:8s} budget (cos>={budget.min_cosine}, l2<={budget.max_rel_l2}): "
        f"eb_f={result.eb_f:g} eb_q={result.eb_q:.2g} -> CR {result.ratio:.1f}x "
        f"(cos {result.cosine:.5f}, rel-l2 {result.rel_l2:.3f}, "
        f"{len(result.trace)} probes)"
    )
