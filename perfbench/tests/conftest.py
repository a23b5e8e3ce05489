"""Make ``perfbench`` and ``repro`` importable however pytest was started,
and run every workload once per session in ``--quick`` mode."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.cli import one_run, load_spec  # noqa: E402


@pytest.fixture(scope="session")
def spec() -> dict:
    return load_spec()


@pytest.fixture(scope="session")
def quick_runs(spec) -> dict:
    """workload -> (untraced, untraced again, traced) full results."""
    return {
        w["name"]: tuple(
            one_run(w["name"], seed=5, seconds=0.3, trace=trace, quick=True)
            for trace in (False, False, True)
        )
        for w in spec["workloads"]
    }
