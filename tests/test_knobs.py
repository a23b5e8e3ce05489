"""Two lints of one rule, tests are not callers: a config field or keyword
parameter exists because a run sets it, and a definition because a run
reaches it.

Each default is declared once, in the class that uses it (DESIGN.md decisions
26 and 27).  A field of a run-assembly config, or a parameter of a
run-assembly constructor, that no run sets only re-declares that default —
and the ledger manifest would record it as if a run had chosen it.  This lint
parses every call site (``src/``, ``benchmarks/``, ``examples/``,
``perfbench/`` and the Python blocks of ``ci.yml``; tests are not callers) and
fails on any knob none of them sets.  Three forms set a knob besides a plain
call:

* a ``**`` expansion sets the keys of a dict literal and nothing else;
* ``dataclasses.replace(x, k=...)`` sets ``k`` on a dataclass of
  :data:`KNOBS` only in a file that imports or defines that class;
* a ``repro`` subcommand's ``--flag`` (declared in ``build_parser``) sets the
  knob of the same name on the classes its ``cmd_*`` function constructs.

The definitions lint (DESIGN.md decision 27(f)) walks the same call sites
and fails on any function, class or method under ``src/repro/`` whose name
no reached code mentions: an identifier or a non-docstring string constant,
outside the definition's own body, import lines and ``__all__``.  Code
inside an unreached definition reaches nothing, so the lint follows chains
of dead helpers to their end.  perfbench's trace targets count as mentions
(``perfbench.layers`` is imported, so ``f"StreamRuntime.i{op}"`` resolves).
Only dunder methods are exempt.  Matching is by name, so the lint
under-reports: a method shares its liveness with every attribute of the
same name.
"""

from __future__ import annotations

import ast
import functools
import importlib
import re
import sys
import textwrap
from collections import defaultdict
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_CALL_SITE_DIRS = ("src", "benchmarks", "examples", "perfbench")
_CI = _ROOT / ".github" / "workflows" / "ci.yml"

#: (defining module, class, method).  ``None`` as the method means the class
#: is a dataclass whose fields are the knobs; a method's knobs are its
#: parameters, and ``__init__``'s are set by calling the class.  ``None`` as
#: the class means the method is a module-level function.
KNOBS: tuple[tuple[str, str | None, str | None], ...] = (
    ("src/repro/guard/guard.py", "GuardConfig", None),
    ("src/repro/guard/policy.py", "CircuitBreaker", "__init__"),
    ("src/repro/guard/health.py", "DivergenceDetector", "__init__"),
    ("src/repro/autotune/controller.py", "AutotuneConfig", None),
    ("src/repro/autotune/policy.py", "HysteresisPolicy", None),
    ("src/repro/obsv/ledger.py", "LedgerConfig", None),
    ("src/repro/fleet/job.py", "JobSpec", None),
    ("src/repro/kfac_dist/trainer.py", "DistributedKfacTrainer", "__init__"),
    ("src/repro/train/trainer.py", "DistributedSgdTrainer", "__init__"),
    ("src/repro/fleet/scheduler.py", "FleetScheduler", "__init__"),
    ("src/repro/store/store.py", "CheckpointStore", "__init__"),
    ("src/repro/store/store.py", "CheckpointStore", "save"),
    ("src/repro/store/store.py", "CheckpointStore", "load_latest"),
    ("src/repro/runtime/engine.py", "StreamRuntime", "__init__"),
    ("src/repro/runtime/compute.py", "ComputeModel", None),
    ("src/repro/faults/recovery.py", "ReliableChannel", "__init__"),
    ("src/repro/optim/kfac.py", "Kfac", "__init__"),
    ("src/repro/kfac_dist/timing.py", "KfacIterationModel", "breakdown"),
    ("src/repro/kfac_dist/timing.py", "KfacIterationModel", "record_trace"),
    ("src/repro/kfac_dist/timing.py", "KfacIterationModel", "end_to_end_speedup"),
    ("src/repro/kfac_dist/timing.py", "KfacIterationModel", "factor_allreduce_time"),
    ("src/repro/util/checkpoint.py", None, "load_checkpoint"),
)


def knobs_of(tree: ast.Module, cls: str | None, method: str | None) -> list[str]:
    """The settable names of ``cls`` (fields), of ``cls.method`` or of the
    module-level function ``method`` (parameters)."""
    if cls is None:
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == method)
        return [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    if method is None:
        return [
            s.target.id
            for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        ]
    fn = next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == method)
    return [a.arg for a in fn.args.args[1:] + fn.args.kwonlyargs]


def _dict_keys(node: ast.expr) -> list[str]:
    """Keys a ``**`` expansion sets: those of a dict literal, else none."""
    if isinstance(node, ast.Dict):
        return [k.value for k in node.keys if isinstance(k, ast.Constant)]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        return [k.arg for k in node.keywords if k.arg is not None]
    return []


def calls_by_callee(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """Every call in ``tree``, grouped by the name it calls."""
    out: dict[str, list[ast.Call]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                out.setdefault(node.func.id, []).append(node)
            elif isinstance(node.func, ast.Attribute):
                out.setdefault(node.func.attr, []).append(node)
    return out


def set_names(calls: list[ast.Call], positional: list[str]) -> set[str]:
    """Names ``calls`` set, by keyword, by a resolvable ``**`` expansion or
    by position (``positional`` in order)."""
    found: set[str] = set()
    for node in calls:
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(positional):
                found.add(positional[i])
        for kw in node.keywords:
            found.update([kw.arg] if kw.arg is not None else _dict_keys(kw.value))
    return found


def replaced_names(tree: ast.AST, fields: list[str]) -> set[str]:
    """Names the ``replace(x, k=...)`` calls in ``tree`` set on a class of
    ``fields``: only a call whose keywords are all fields can copy one,
    since ``replace`` raises on any other name."""
    calls = [
        node for node in calls_by_callee(tree).get("replace", [])
        if {kw.arg for kw in node.keywords} <= set(fields)
    ]
    return set_names(calls, [])


def names_class(tree: ast.Module, cls: str) -> bool:
    """Does ``tree`` import or define ``cls``?"""
    return any(
        (isinstance(n, ast.ClassDef) and n.name == cls)
        or (isinstance(n, ast.ImportFrom) and any(a.name == cls for a in n.names))
        for n in ast.walk(tree)
    )


def flag_setters(tree: ast.Module) -> dict[str, set[str]]:
    """Callee → knob names the CLI flags of ``build_parser`` in ``tree`` set.

    In ``build_parser`` a run of ``add_argument("--flag")`` calls belongs to
    the ``set_defaults(func=cmd_x)`` that ends it; each flag, with dashes
    as underscores, sets that name on every class ``cmd_x`` calls.
    """
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    parser = functions.get("build_parser")
    if parser is None:
        return {}
    calls = sorted(
        (n for n in ast.walk(parser) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    out: dict[str, set[str]] = {}
    flags: list[str] = []
    for node in calls:
        if node.func.attr == "add_argument":
            flags += [
                a.value[2:].replace("-", "_")
                for a in node.args
                if isinstance(a, ast.Constant) and str(a.value).startswith("--")
            ]
        elif node.func.attr == "set_defaults":
            for kw in node.keywords:
                if kw.arg == "func" and isinstance(kw.value, ast.Name) and kw.value.id in functions:
                    for callee in calls_by_callee(functions[kw.value.id]):
                        out.setdefault(callee, set()).update(flags)
            flags = []
    return out


def _callee(cls: str | None, method: str | None) -> str:
    return cls if method in (None, "__init__") else method


@functools.cache
def _sources() -> dict[str, ast.Module]:
    """Every call site, parsed."""
    texts = {
        str(path.relative_to(_ROOT)): path.read_text()
        for d in _CALL_SITE_DIRS
        for path in sorted((_ROOT / d).rglob("*.py"))
    }
    # ci.yml's inline Python (heredoc blocks) is a call site too.
    for i, block in enumerate(re.findall(r"<<'EOF'\n(.*?)\n\s*EOF", _CI.read_text(), re.S)):
        texts[f"ci.yml#{i}"] = textwrap.dedent(block)
    return {where: ast.parse(text) for where, text in texts.items()}


def setters(sources: dict[str, ast.Module]) -> dict[tuple[str, str], list[str]]:
    """``(owner, knob)`` → the files that set it, for every knob in :data:`KNOBS`."""
    calls = {where: calls_by_callee(tree) for where, tree in sources.items()}
    flags = {where: flag_setters(tree) for where, tree in sources.items()}
    out: dict[tuple[str, str], list[str]] = {}
    for module, cls, method in KNOBS:
        names = knobs_of(sources[module], cls, method)
        callee = _callee(cls, method)
        owner = cls if callee == cls else method if cls is None else f"{cls}.{method}"
        for name in names:
            out[(owner, name)] = []
        for where, by_callee in calls.items():
            found = set_names(by_callee.get(callee, []), names)
            found |= flags[where].get(callee, set())
            if method is None and "replace" in by_callee and names_class(sources[where], cls):
                found |= replaced_names(sources[where], names)
            for name in sorted(found & set(names)):
                out[(owner, name)].append(where)
    return out


def test_every_knob_is_set_by_a_call_site():
    unset = sorted(f"{owner}({knob}=)" for (owner, knob), where in setters(_sources()).items()
                   if not where)
    assert unset == [], "knobs no call site sets; delete them: " + ", ".join(unset)


_DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[\w.:]+")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _children(node: ast.AST) -> list[ast.AST]:
    """Child nodes that can mention a name: no docstring, import or ``__all__``."""
    body = getattr(node, "body", None)
    docstring = body[0] if (
        isinstance(node, (ast.Module, *_DEFINES)) and body and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    ) else None
    return [
        c for c in ast.iter_child_nodes(node)
        if c is not docstring and not isinstance(c, (ast.Import, ast.ImportFrom)) and not (
            isinstance(c, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in (c.targets if isinstance(c, ast.Assign) else [c.target]))
        )
    ]


def _walk(node: ast.AST, where: str, prefix: str | None, chain: tuple[int, ...],
          defs: list, mentions: list) -> None:
    """Append ``(name, chain)`` to ``mentions`` for each name under ``node``;
    ``chain`` holds the indices in ``defs`` of the definitions it sits in.
    Where ``prefix`` is not ``None`` (module and class level), a definition
    is appended to ``defs`` as ``(where, qualified name, name, parent)``."""
    for child in _children(node):
        if isinstance(child, _DEFINES):
            if prefix is None:  # a local function: part of the one around it
                _walk(child, where, None, chain, defs, mentions)
                continue
            defs.append((where, prefix + child.name, child.name, chain[-1] if chain else None))
            inner = prefix + child.name + "." if isinstance(child, ast.ClassDef) else None
            _walk(child, where, inner, (*chain, len(defs) - 1), defs, mentions)
            continue
        if isinstance(child, ast.Name):
            mentions.append((child.id, chain))
        elif isinstance(child, ast.Attribute):
            mentions.append((child.attr, chain))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                and _WORD.fullmatch(child.value):
            mentions.extend((word, chain) for word in re.split(r"[.:]", child.value))
        _walk(child, where, prefix, chain, defs, mentions)


def unreached(sources: dict[str, ast.Module], targets: tuple[str, ...] = ()) -> list[str]:
    """``file:qualified.name`` of every definition under ``src/repro/`` that
    no reached code mentions, outermost only; ``targets`` are trace targets
    (``module:Class.attr``) that count as mentions."""
    defs: list[tuple[str, str, str, int | None]] = []
    mentions: list[tuple[str, tuple[int, ...]]] = []
    for where, tree in sources.items():
        _walk(tree, where, "" if where.startswith("src/repro/") else None, (), defs, mentions)
    mentions += [(word, ()) for t in targets for word in re.split(r"[.:]", t)]
    by_name: dict[str, list[frozenset[int]]] = defaultdict(list)
    for name, chain in mentions:
        by_name[name].append(frozenset(chain))
    live: set[int] = set()
    grown = True
    while grown:  # reachability from code outside src/ definitions
        grown = False
        for i, (_, _, name, parent) in enumerate(defs):
            if i in live or (parent is not None and parent not in live):
                continue
            if _is_dunder(name) or any(i not in chain and chain <= live for chain in by_name[name]):
                live.add(i)
                grown = True
    dead = set(range(len(defs))) - live
    return sorted(f"{where}:{qualname}" for i, (where, qualname, _, parent) in enumerate(defs)
                  if i in dead and parent not in dead)


def _trace_targets() -> tuple[str, ...]:
    if str(_ROOT) not in sys.path:
        sys.path.insert(0, str(_ROOT))
    return tuple(target for target, _, _ in importlib.import_module("perfbench.layers")._TARGETS)


def test_every_definition_is_reached_by_a_call_site():
    dead = unreached(_sources(), _trace_targets())
    assert dead == [], "definitions no run reaches; delete them: " + ", ".join(dead)


def test_the_knob_lint_sees_what_it_looks_for():
    defining = ast.parse(
        "class Config:\n"
        "    a: int = 1\n"
        "    b: int = 2\n"
        "    c: int = 3\n"
        "    d: int = 4\n"
        "    e: int = 5\n"
        "class Engine:\n"
        "    def __init__(self, x, *, y=1, z=2):\n"
        "        pass\n"
        "def load(path, model=None, *, strict=None):\n"
        "    pass\n"
    )
    calls = ast.parse(
        "Config(0)\n"  # a, by position
        "cfg.Config(b=1)\n"  # b, by keyword through an attribute
        "Config(**{'c': 1})\n"  # c, a dict literal expanded
        "Config(**dict(d=1))\n"
        "Config(**options)\n"  # unresolvable: sets nothing
        "Other(e=1)\n"  # another callee
        "Engine(cluster, *rest, y=0)\n"
        "load(p, m)\n"  # a module-level function: no self to skip
    )
    assert knobs_of(defining, "Config", None) == ["a", "b", "c", "d", "e"]
    assert knobs_of(defining, "Engine", "__init__") == ["x", "y", "z"]
    assert knobs_of(defining, None, "load") == ["path", "model", "strict"]
    by_callee = calls_by_callee(calls)
    assert set_names(by_callee["Config"], ["a", "b", "c", "d", "e"]) == {"a", "b", "c", "d"}
    assert set_names(by_callee["Engine"], ["x", "y", "z"]) == {"x", "y"}
    assert set_names(by_callee["load"], ["path", "model", "strict"]) == {"path", "model"}


def test_replace_sets_a_knob_only_where_its_class_is_named():
    importing = ast.parse(
        "from repro.cfg import Config\n"
        "replace(cfg, e=1)\n"
        "replace(scenario, d=0, guard=False)\n"  # guard is no field: not a Config
    )
    elsewhere = ast.parse("from repro.other import Scenario\nreplace(s, e=0)\n")
    assert replaced_names(importing, ["d", "e"]) == {"e"} and names_class(importing, "Config")
    assert not names_class(elsewhere, "Config")
    assert names_class(ast.parse("class Config:\n    e: int = 5\n"), "Config")


def test_a_cli_flag_sets_the_knob_its_command_constructs():
    cli = ast.parse(
        "def cmd_run(args):\n"
        "    return Engine(cluster, **_given(args, 'y'))\n"
        "def cmd_other(args):\n"
        "    return Other()\n"
        "def build_parser():\n"
        "    p = sub.add_parser('run')\n"
        "    p.add_argument('--y', type=int)\n"
        "    p.set_defaults(func=cmd_run)\n"
        "    p = sub.add_parser('other')\n"
        "    p.add_argument('--z', type=int)\n"
        "    p.set_defaults(func=cmd_other)\n"
    )
    got = flag_setters(cli)
    assert got["Engine"] == {"y"} and "z" not in got["Engine"]


def test_the_definitions_lint_sees_what_it_looks_for():
    module = ast.parse(
        '"""A docstring that names planted() keeps nothing."""\n'
        "__all__ = ['used', 'planted', 'reexported', 'Runtime']\n"
        "def used():\n"
        "    return _helper()\n"
        "def _helper():\n"
        "    return 1\n"
        "def planted():\n"
        "    return _only_planted()\n"
        "def _only_planted():\n"  # reached only from a dead definition
        "    return planted()\n"
        "def reexported():\n"
        "    pass\n"
        "class Runtime:\n"
        "    def __init__(self):\n"  # dunders are exempt
        "        pass\n"
        "    def iallgather(self):\n"
        "        pass\n"
        "    def ibroadcast(self):\n"
        "        pass\n"
    )
    sources = {
        "src/repro/pkg/mod.py": module,
        "src/repro/pkg/__init__.py": ast.parse(
            "from repro.pkg.mod import Runtime, planted, reexported, used\n"
            "__all__ = ['Runtime', 'planted', 'reexported', 'used']\n"
        ),
        "examples/run.py": ast.parse("from repro.pkg import Runtime, used\nused()\nRuntime()\n"),
    }
    targets = tuple(f"repro.pkg.mod:Runtime.i{op}" for op in ("allgather",))
    assert unreached(sources, targets) == [
        "src/repro/pkg/mod.py:Runtime.ibroadcast",
        "src/repro/pkg/mod.py:_only_planted",
        "src/repro/pkg/mod.py:planted",
        "src/repro/pkg/mod.py:reexported",
    ]
    assert unreached(sources) == [
        "src/repro/pkg/mod.py:Runtime.iallgather",
        "src/repro/pkg/mod.py:Runtime.ibroadcast",
        "src/repro/pkg/mod.py:_only_planted",
        "src/repro/pkg/mod.py:planted",
        "src/repro/pkg/mod.py:reexported",
    ]
