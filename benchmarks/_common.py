"""Shared benchmark-harness utilities.

Every benchmark regenerates one of the paper's tables or figures: it
computes the same rows/series the paper reports, prints them (visible
with ``pytest -s``) and writes them to ``benchmarks/out/<name>.txt`` so
results survive the run.  Absolute numbers come from the simulator and
need not match the paper's testbed; the *shape* — orderings, rough
factors, crossovers — is asserted where the paper states one.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.scenarios import Scenario

OUT_DIR = Path(__file__).parent / "out"

#: The K-FAC run most benches train (``repro.scenarios.run``): four ranks
#: on one node, batches of 64, eigenbases refreshed every fifth step, the
#: task metric taken after the last step.  A bench states what its run
#: changes as ``replace`` on it.
KFAC_RUN = Scenario(
    name="bench", nodes=1, gpus_per_node=4, iterations=16, batch_size=64, inv_update_freq=5,
    evaluate=True,
)
#: The classification task the accuracy ablations train (fig03, fig05,
#: ablation_adaptive): eight classes under heavy noise.
HARD_RESNET = replace(KFAC_RUN, samples=600, n_classes=8, noise=1.0)


def emit(name: str, text: str, *, data: dict | None = None) -> None:
    """Print a result block and persist it under benchmarks/out/.

    ``data`` is the machine-readable twin of the text block: when given
    it is written through :func:`emit_json`, so every benchmark has a
    ``BENCH_<name>.json`` artifact CI gates and plots can consume
    without scraping the table.
    """
    OUT_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        emit_json(name, data)


def emit_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable result next to the ``.txt`` block.

    Written as ``benchmarks/out/BENCH_<name>.json`` so downstream tooling
    (CI assertions, plotting) can consume benchmark numbers without
    scraping the human-readable table.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
