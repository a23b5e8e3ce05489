"""Seeding determinism and table formatting."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.util.seeding import rng_for_rank, spawn_rng
from repro.util.tables import format_table


class TestSeeding:
    def test_same_seed_same_stream(self):
        a = spawn_rng(42).random(10)
        b = spawn_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_keys_give_independent_streams(self):
        a = spawn_rng(42, 0).random(10)
        b = spawn_rng(42, 1).random(10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(7)
        assert spawn_rng(g) is g

    def test_generator_with_key_derives_child(self):
        g = np.random.default_rng(7)
        child = spawn_rng(g, 3)
        assert child is not g

    def test_rank_rngs_differ(self):
        r0 = rng_for_rank(5, 0).random(5)
        r1 = rng_for_rank(5, 1).random(5)
        assert not np.array_equal(r0, r1)

    def test_rank_rngs_reproducible(self):
        assert np.array_equal(rng_for_rank(5, 3).random(5), rng_for_rank(5, 3).random(5))


def _hash_seeded(tree):
    """``(line, call)`` of every seed expression that contains a call to
    the builtin ``hash``, whose value for a ``str`` follows
    ``PYTHONHASHSEED``: the arguments of ``spawn_rng`` / ``default_rng``
    and any ``seed=`` keyword."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee in ("spawn_rng", "default_rng"):
            seeds = [*node.args, *(kw.value for kw in node.keywords)]
        else:
            seeds = [kw.value for kw in node.keywords if kw.arg == "seed"]
        for seed in seeds:
            for inner in ast.walk(seed):
                if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "hash":
                    found.append((node.lineno, callee))
    return found


def test_no_seed_is_derived_from_the_builtin_hash():
    """Four benches seeded gradients with ``hash(model_name)``, so their
    committed outputs depended on the interpreter's hash seed."""
    repo = Path(__file__).resolve().parent.parent
    files = sorted([*(repo / "src").rglob("*.py"), *(repo / "benchmarks").rglob("*.py")])
    assert len(files) > 100
    offenders = [
        f"{path.relative_to(repo)}:{line} ({callee})"
        for path in files
        for line, callee in _hash_seeded(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_the_hash_seed_lint_sees_what_it_looks_for():
    bad = ast.parse(
        "spawn_rng(0, hash(m) % 991)\n"
        "np.random.default_rng(hash(m))\n"
        "f(catalog, seed=hash(m) % 1009)\n"
        "spawn_rng(0, zlib.crc32(m.encode()) % 991)\n"
        "g(seed=hashlib.sha256(b).digest()[0])\n"
    )
    assert _hash_seeded(bad) == [(1, "spawn_rng"), (2, "default_rng"), (3, "f")]


#: What only ``SimCluster``'s per-operation plans may touch: the helpers
#: that move, check, price and count a collective and complete it on the
#: receivers.  A second module using them is a second description of what
#: a collective moves, weighs and costs, to be kept in step by hand.
_PLAN_ONLY = frozenset({
    "collective_seconds", "_record_collective", "_reduce_data", "_replicate_result",
    "_allgather_data", "_broadcast_data", "_inject_allgather_faults",
    "_inject_broadcast_faults", "_check",
})


def _collective_logic(tree):
    """``(line, name)`` of every attribute access in ``_PLAN_ONLY`` and
    every import of ``RepView`` (payload sniffing)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _PLAN_ONLY:
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [
                (node.lineno, "RepView")
                for alias in node.names
                if alias.name.rpartition(".")[2] == "RepView"
            ]
    return sorted(found)


def _overlap_readers(tree):
    """Names of the functions that load ``self.overlap``."""
    return [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute)
            and node.attr == "overlap"
            and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) == "self"
            for node in ast.walk(fn)
        )
    ]


def test_the_runtime_settles_collectives_and_describes_none():
    """``runtime/engine.py`` once re-implemented all four collectives next
    to ``SimCluster``'s and chose between the copies per method."""
    repo = Path(__file__).resolve().parent.parent
    tree = ast.parse((repo / "src/repro/runtime/engine.py").read_text())
    assert _collective_logic(tree) == []
    assert _overlap_readers(tree) == ["_run"]


def test_the_collective_lint_sees_what_it_looks_for():
    bad = ast.parse(
        "from repro.distributed.plane import RepView\n"
        "class StreamRuntime:\n"
        "    def __init__(self, overlap):\n"
        "        self.overlap = overlap\n"
        "    def ibroadcast(self, obj, root):\n"
        "        c = self.cluster\n"
        "        if not self.overlap:\n"
        "            return c.broadcast(obj, root)\n"
        "        seconds = c.collective_seconds('broadcast', obj.nbytes)\n"
        "        c._record_collective('broadcast', seconds, obj.nbytes, obj.nbytes)\n"
        "        data = c._broadcast_data(obj, root)\n"
        "        return self._issue(lambda: c._inject_broadcast_faults(data, root))\n"
        "    def iallgather(self, objects):\n"
        "        self.cluster._check(objects)\n"
        "        return None if self.overlap else self.cluster.allgather(objects)\n"
    )
    assert _collective_logic(bad) == [
        (1, "RepView"), (9, "collective_seconds"), (10, "_record_collective"),
        (11, "_broadcast_data"), (12, "_inject_broadcast_faults"), (14, "_check"),
    ]
    assert _overlap_readers(bad) == ["ibroadcast", "iallgather"]


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.125]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert "4.12" in lines[3]

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_floatfmt(self):
        out = format_table(["v"], [[3.14159]], floatfmt=".4f")
        assert "3.1416" in out
