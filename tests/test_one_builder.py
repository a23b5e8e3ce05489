"""One trainer builder: ``repro.scenarios.build`` is the only code under
``src/``, ``benchmarks/`` and ``examples/`` that constructs a
``DistributedKfacTrainer`` (DESIGN.md decision 16).

Every other K-FAC run — a ``repro`` command, a fleet job, a bench row, an
example — is a ``Scenario`` or a ``replace`` on one, so two rows of one
table differ only in the fields they state, and a proxy, seed or schedule
changes in one place.  The lint fails on any other construction and names
it as ``file:line``.

``perfbench/`` is the one exemption, and it is not walked:
``BENCHMARK.json`` freezes it, so ``perfbench/workloads/kfac_train.py``
keeps its own ``_build_trainer`` until a benchmark-only change moves it
onto ``scenarios.build``.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_DIRS = ("src", "benchmarks", "examples")
#: ``(file, function)`` of the one place a trainer may be constructed.
BUILDER = ("src/repro/scenarios.py", "build")
TRAINER = "DistributedKfacTrainer"


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def stray_constructions(sources: dict[str, ast.Module]) -> list[str]:
    """``file:line`` of every ``DistributedKfacTrainer(...)`` call in
    ``sources`` outside :data:`BUILDER`."""
    where, name = BUILDER
    inside: set[int] = set()
    for node in sources[where].body if where in sources else []:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            inside = {id(n) for n in ast.walk(node)}
    return [
        f"{path}:{node.lineno}"
        for path, tree in sources.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node.func) == TRAINER and id(node) not in inside
    ]


def _sources() -> dict[str, ast.Module]:
    return {
        str(path.relative_to(_ROOT)): ast.parse(path.read_text())
        for d in _DIRS
        for path in sorted((_ROOT / d).rglob("*.py"))
    }


def test_only_scenarios_build_constructs_the_trainer():
    stray = stray_constructions(_sources())
    assert stray == [], (
        "build these through repro.scenarios.build (a Scenario or a replace on one):\n"
        + "\n".join(stray)
    )


def test_the_builder_lint_finds_a_planted_construction():
    sources = {
        "src/repro/scenarios.py": ast.parse(
            "def build(s):\n"
            "    return DistributedKfacTrainer(model, task, cluster)\n"
            "def rebuild(s):\n"
            "    return DistributedKfacTrainer(model, task, cluster)\n"
        ),
        "benchmarks/bench_x.py": ast.parse(
            "from repro import kfac_dist\n"
            "\n"
            "tr = kfac_dist.DistributedKfacTrainer(model, task, cluster)\n"
            "DistributedSgdTrainer(model, task, opt, cluster)\n"
        ),
        "examples/y.py": ast.parse(
            '"""A docstring naming DistributedKfacTrainer(model) is no call."""\n'),
    }
    assert stray_constructions(sources) == ["src/repro/scenarios.py:4", "benchmarks/bench_x.py:3"]
