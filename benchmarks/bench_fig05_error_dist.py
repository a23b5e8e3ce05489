"""Figure 5 + section 4.2: quantisation error distributions.

RN produces a uniform error distribution; SR a triangular one; P0.5 is
non-deterministic yet uniform.  The paper's insight: the triangular
(SR) shape preserves K-FAC accuracy, and non-determinism alone (P0.5)
does not — verified here on real K-FAC proxy gradients *and* synthetic
uniform/normal data, plus the P0.5-vs-SR accuracy experiment.
"""

from dataclasses import replace

import numpy as np
from scipy import stats as sps

from benchmarks._common import HARD_RESNET, emit
from repro import scenarios
from repro.compression.quantize import round_nearest, round_p05, round_stochastic
from repro.core.compso import CompsoCompressor
from repro.scenarios import Scenario
from repro.util.tables import format_table


def _kfac_gradients():
    """Real K-FAC preconditioned gradients from a short proxy run."""
    tr, _ = scenarios.run(
        Scenario(
            name="fig05-gradients", nodes=1, gpus_per_node=2, iterations=5, samples=300,
            noise=0.45, inv_update_freq=10,
        )
    )
    return np.concatenate(
        [tr.kfac.precondition(i).ravel() for i in range(len(tr.kfac.layers))]
    )


def _error_shape_stats(values):
    rng = np.random.default_rng(7)
    out = []
    for mode_name, fn in [("RN", round_nearest), ("SR", round_stochastic), ("P0.5", round_p05)]:
        v = values / (np.abs(values).max() * 4e-3)  # eb 4e-3 quantisation grid
        err = (fn(v, rng) - v).astype(np.float64)
        err = err[np.abs(err) > 1e-12]
        half = 0.5 if mode_name == "RN" else 1.0
        ks_uni = sps.kstest(err, sps.uniform(loc=-half, scale=2 * half).cdf).statistic
        ks_tri = sps.kstest(err, sps.triang(c=0.5, loc=-half, scale=2 * half).cdf).statistic
        out.append([mode_name, float(err.mean()), ks_uni, ks_tri,
                    "triangular" if ks_tri < ks_uni else "uniform"])
    return out


def _p05_accuracy_drop():
    """Section 4.2's control: at the same (aggressive) bound, SR preserves
    accuracy while P0.5 degrades it and RN degrades it most — averaged
    over seeds because proxy-scale accuracy deltas are noisy."""

    def train(rounding, seed):
        def compressor(s):  # each training seed draws its own rounding stream
            return CompsoCompressor(0.0, 0.5, rounding=rounding, seed=s.seed)

        run = replace(HARD_RESNET, seed=seed, compressor=compressor if rounding else None)
        trainer, _ = scenarios.run(run)
        return trainer.history.final_metric()

    seeds = range(3)
    return {
        mode or "none": float(np.mean([train(mode, s) for s in seeds]))
        for mode in (None, "sr", "p05", "rn")
    }


def run_experiment():
    grads = _kfac_gradients()
    rng = np.random.default_rng(3)
    synthetic_uniform = rng.uniform(-1, 1, 100_000)
    synthetic_normal = rng.standard_normal(100_000)
    shapes = {
        "kfac-gradients": _error_shape_stats(grads),
        "synthetic-uniform": _error_shape_stats(synthetic_uniform),
        "synthetic-normal": _error_shape_stats(synthetic_normal),
    }
    return shapes, _p05_accuracy_drop()


def test_fig5_error_distributions(benchmark):
    shapes, acc = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    blocks = []
    for data_name, rows in shapes.items():
        blocks.append(
            format_table(
                ["rounding", "mean err", "KS vs uniform", "KS vs triangular", "shape"],
                rows,
                title=f"Figure 5 — error distribution on {data_name} (eb 4E-3)",
                floatfmt=".4f",
            )
        )
    blocks.append(
        format_table(
            ["rounding", "mean accuracy % (3 seeds)"],
            [[k, v] for k, v in acc.items()],
            title="Section 4.2 — rounding-mode accuracy control (aggressive bound)",
        )
    )
    emit(
        "fig05_error_dist",
        "\n\n".join(blocks),
        data={
            "shapes": {
                data_name: [
                    {
                        "rounding": r[0],
                        "mean_err": r[1],
                        "ks_uniform": r[2],
                        "ks_triangular": r[3],
                        "shape": r[4],
                    }
                    for r in rows
                ]
                for data_name, rows in shapes.items()
            },
            "accuracy_by_rounding": acc,
        },
    )
    for data_name, rows in shapes.items():
        by = {r[0]: r for r in rows}
        assert by["RN"][4] == "uniform", data_name
        assert by["SR"][4] == "triangular", data_name
        assert by["P0.5"][4] == "uniform", data_name
        assert abs(by["SR"][1]) < 0.02  # SR unbiased
    # Section 4.2 ordering: SR tracks the baseline; P0.5 drops; RN drops most.
    assert acc["sr"] >= acc["none"] - 1.0
    assert acc["sr"] > acc["p05"]
    assert acc["p05"] > acc["rn"]
