"""Quickstart: compress a K-FAC gradient tensor with COMPSO.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.compression import QsgdCompressor, SzCompressor
from repro.core import AdaptiveCompso, CompsoCompressor, StepLrSchedule
from repro.data.synthetic import kfac_like_gradient

# --- a K-FAC-gradient-like tensor: mostly tiny values, heavy tail --------
grad = kfac_like_gradient(np.random.default_rng(0), 1 << 20)

# --- basic compression -----------------------------------------------------
compso = CompsoCompressor(eb_f=4e-3, eb_q=4e-3, encoder="ans")
blob = compso.compress(grad)
restored = compso.decompress(blob)

err = np.abs(restored - grad).max()
bound = 4e-3 * np.abs(grad).max()
print(f"original {grad.nbytes / 1e6:.1f} MB -> {blob.nbytes / 1e6:.3f} MB "
      f"(ratio {grad.nbytes / blob.nbytes:.1f}x)")
print(f"max error {err:.2e} <= bound {bound:.2e}: {err <= bound * 1.0001}")

# --- compare against the paper's baselines ----------------------------------
for comp in (QsgdCompressor(8), SzCompressor(4e-3), CompsoCompressor(0.0, 4e-3)):
    print(f"{comp.name:14s} ratio {comp.ratio(grad):6.1f}x")

# --- iteration-wise adaptive bounds (Algorithm 1) ---------------------------
adaptive = AdaptiveCompso(StepLrSchedule(first_lr_drop=100))
print(f"\niteration   0: bounds {adaptive.bounds} "
      f"ratio {grad.nbytes / adaptive.compress(grad).nbytes:.1f}x")
for _ in range(100):
    adaptive.step()
print(f"iteration 100: bounds {adaptive.bounds} "
      f"ratio {grad.nbytes / adaptive.compress(grad).nbytes:.1f}x")

# --- layer aggregation: one encoder invocation over several layers ----------
layers = [grad[:100_000], grad[100_000:140_000] * 10, grad[140_000:150_000]]
agg_blob = compso.compress_many(layers)
separate = sum(compso.compress(t).nbytes for t in layers)
print(f"\naggregated 3 layers: {agg_blob.nbytes} B vs {separate} B separate")
