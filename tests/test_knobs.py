"""Two lints of one rule, tests are not callers: a config field or keyword
parameter exists because a run sets it, and a definition because a run
reaches it.

Each default is declared once, in the class that uses it (DESIGN.md decisions
26 and 27).  A field of a run-assembly config, or a defaulted parameter of
any function or method under ``src/repro/``, that no run sets only
re-declares that default — and the ledger manifest would record it as if a
run had chosen it.  This lint parses every call site (``src/``,
``benchmarks/``, ``examples/``, ``perfbench/`` and the Python blocks of
``ci.yml``; tests are not callers) and fails on any knob none of them sets,
naming it as ``file:line owner(knob=)``.  Four forms set a knob besides a
plain call, by keyword or position:

* a ``**`` expansion sets the keys of a dict literal and nothing else;
* ``dataclasses.replace(x, k=...)`` sets ``k`` on a dataclass of
  :data:`KNOBS` only in a file that imports or defines that class;
* a ``repro`` subcommand's ``--flag`` (declared in ``build_parser``) sets the
  knob of the same name on the classes its ``cmd_*`` function constructs;
* a ``cmd_*`` function that hands the parsed command line to a call names
  the fields its flags set (``_scenario(args, "chaos", name, "seed",
  job_seed="seed")``): a string argument that is a flag of the command sets
  the field of the same name, a keyword whose value is such a flag sets the
  keyword's field, on a :data:`KNOBS` class that has all of them as fields.

Three rules (DESIGN.md decision 27(g)), each with a self-test below:

* keywords given to a function that forwards its ``**kwargs`` count for the
  function it forwards them to; ``cls(...)`` in a classmethod calls its
  class, and ``super().__init__(...)`` the bases of the class it is in;
* a name a call site uses as a value, not as a call's callee, exempts every
  signature of that name: the lint cannot see how a value is called, so it
  under-reports there;
* a perfbench trace target that no call site calls, and the entry point a
  ``__main__`` module calls (its arguments are the command line), are
  signatures no run owns.

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
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_CALL_SITE_DIRS = ("src", "benchmarks", "examples", "perfbench")
_CI = _ROOT / ".github" / "workflows" / "ci.yml"

#: (defining module, dataclass): run-assembly configs whose fields are knobs.
#: Every defaulted parameter of a function or method under ``src/repro/`` is
#: a knob too; :func:`signatures` finds those.
KNOBS: tuple[tuple[str, str], ...] = (
    ("src/repro/guard/guard.py", "GuardConfig"),
    ("src/repro/autotune/controller.py", "AutotuneConfig"),
    ("src/repro/autotune/policy.py", "HysteresisPolicy"),
    ("src/repro/obsv/ledger.py", "LedgerConfig"),
    ("src/repro/fleet/job.py", "JobSpec"),
    ("src/repro/runtime/compute.py", "ComputeModel"),
    ("src/repro/scenarios.py", "Scenario"),
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def fields_of(tree: ast.Module, cls: str) -> list[str]:
    """The field names of the dataclass ``cls`` defined in ``tree``."""
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return [
        s.target.id
        for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


@dataclass(frozen=True)
class Signature:
    """A function or method with defaulted parameters, as calls see it."""

    where: str
    line: int
    owner: str  # ``f``, ``Class`` (its ``__init__``) or ``Class.method``
    callee: str  # the name a call uses: the class for ``__init__``
    positional: tuple[str, ...]  # parameters a positional argument fills, in order
    defaulted: tuple[str, ...]


def _decorated(fn: ast.AST, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


def _signature(fn: ast.FunctionDef, where: str, cls: str | None) -> Signature:
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    if cls is not None and not _decorated(fn, "staticmethod"):
        positional = positional[1:]
    callee = cls if cls is not None and fn.name == "__init__" else fn.name
    owner = fn.name if cls is None else callee if callee == cls else f"{cls}.{fn.name}"
    return Signature(where, fn.lineno, owner, callee, tuple(positional), tuple(defaulted))


def signatures(tree: ast.Module, where: str) -> list[Signature]:
    """Every module-level function and method in ``tree`` with a defaulted
    parameter, in line order."""
    found = [_signature(n, where, None) for n in tree.body if isinstance(n, _FUNCTIONS)]
    found += [
        _signature(fn, where, node.name)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for fn in node.body if isinstance(fn, _FUNCTIONS)
    ]
    return sorted((s for s in found if s.defaulted), key=lambda s: s.line)


def _dict_keys(node: ast.expr) -> list[str]:
    """Keys a ``**`` expansion sets: those of a dict literal, else none."""
    if isinstance(node, ast.Dict):
        return [k.value for k in node.keys if isinstance(k, ast.Constant)]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        return [k.arg for k in node.keywords if k.arg is not None]
    return []


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr
            for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))]


def _callees(func: ast.expr, cls: ast.ClassDef | None, alias: str | None) -> list[str]:
    """The names a call of ``func`` calls.  ``alias`` is a classmethod's
    first parameter, which names ``cls``; ``super().__init__`` calls the
    bases of ``cls``."""
    if isinstance(func, ast.Name):
        return [cls.name if func.id == alias else func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__" and cls is not None and isinstance(func.value, ast.Call) \
            and isinstance(func.value.func, ast.Name) and func.value.func.id == "super":
        return _base_names(cls)
    return [func.attr]


def calls_in(tree: ast.AST) -> list[tuple[str, ast.Call, ast.AST | None]]:
    """``(callee, call, innermost function around it)`` for every call in
    ``tree``."""
    out: list[tuple[str, ast.Call, ast.AST | None]] = []

    def visit(node, cls, fn, alias):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child, fn, None)
            elif isinstance(child, _FUNCTIONS):
                first = child.args.args[0].arg if child.args.args else None
                method_alias = first if _decorated(child, "classmethod") else None
                visit(child, cls, child, method_alias if node is cls else alias)
            else:
                if isinstance(child, ast.Call):
                    out.extend((name, child, fn) for name in _callees(child.func, cls, alias))
                visit(child, cls, fn, alias)

    visit(tree, tree if isinstance(tree, ast.ClassDef) else None, None, None)
    return out


def calls_by_callee(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """Every call in ``tree``, grouped by the name it calls."""
    out: dict[str, list[ast.Call]] = {}
    for callee, node, _ in calls_in(tree):
        out.setdefault(callee, []).append(node)
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


def forwarded(sources: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Callee → keyword names calls give it through a function that forwards
    its ``**kwargs`` to it: the keywords of each call of that function that
    are not its own parameters, transitively."""
    forwards: list[tuple[str, set[str], str]] = []  # (forwarder, its own params, target)
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for tree in sources.values():
        for callee, node, fn in calls_in(tree):
            calls[callee].append(node)
            kwarg = fn.args.kwarg if fn is not None else None
            if kwarg is not None and any(
                kw.arg is None and isinstance(kw.value, ast.Name) and kw.value.id == kwarg.arg
                for kw in node.keywords
            ):
                args = fn.args
                own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                forwards.append((fn.name, own, callee))
    out: dict[str, set[str]] = defaultdict(set)
    grown = True
    while grown:
        grown = False
        for name, own, target in forwards:
            given = (set_names(calls.get(name, []), []) | out[name]) - own
            if not given <= out[target]:
                out[target] |= given
                grown = True
    return out


def value_names(tree: ast.AST) -> set[str]:
    """Names ``tree`` uses as a value rather than as a call's callee: the
    lint cannot see how a value is called.  The object of an attribute, an
    annotation and a base class are not values."""
    skip: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
        elif isinstance(node, ast.Attribute):
            skip.add(id(node.value))
        elif isinstance(node, ast.ClassDef):
            skip.update(id(n) for b in node.bases for n in ast.walk(b))
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if hint is not None:
                skip.update(id(n) for n in ast.walk(hint))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        and id(node) not in skip
    }


def _module_file(module: str) -> str:
    return "src/" + module.replace(".", "/") + ".py"


def entry_points(sources: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """``(file, function)`` a ``__main__`` module under ``src/repro/`` imports
    and calls: the program's entry point, whose arguments are the command
    line."""
    out: set[tuple[str, str]] = set()
    for where, tree in sources.items():
        if not (where.startswith("src/repro/") and where.endswith("__main__.py")):
            continue
        called = calls_by_callee(tree)
        out.update(
            (_module_file(node.module), alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names if alias.name in called
        )
    return out


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


def command_flags(tree: ast.Module) -> list[tuple[ast.FunctionDef, list[str]]]:
    """Each ``cmd_x`` of ``tree`` with the flags ``build_parser`` declares for it.

    In ``build_parser`` a run of ``add_argument("--flag")`` calls belongs to
    the ``set_defaults(func=cmd_x)`` that ends it; a flag is named with
    dashes as underscores.
    """
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    parser = functions.get("build_parser")
    if parser is None:
        return []
    calls = sorted(
        (n for n in ast.walk(parser) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    out: dict[str, list[str]] = {}
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
                    out.setdefault(kw.value.id, []).extend(flags)
            flags = []
    return [(functions[name], flags) for name, flags in out.items()]


def flag_setters(tree: ast.Module) -> dict[str, set[str]]:
    """Callee → knob names the CLI flags of ``build_parser`` in ``tree`` set:
    each flag of a command sets that name on every class its ``cmd_x`` calls."""
    out: dict[str, set[str]] = {}
    for fn, flags in command_flags(tree):
        for callee in calls_by_callee(fn):
            out.setdefault(callee, set()).update(flags)
    return out


def flags_by_name(tree: ast.Module) -> list[set[str]]:
    """The field names each call in a ``cmd_x`` of ``tree`` that is handed
    the parsed command line (``f(args, ...)``) names flags for: a string
    argument that is a flag of the command names the field of the same name,
    and a keyword whose string value is such a flag names the field of the
    keyword (``_scenario(args, "chaos", name, "seed", job_seed="seed")``)."""
    out: list[set[str]] = []
    for fn, flags in command_flags(tree):
        namespace = fn.args.args[0].arg if fn.args.args else None
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == namespace):
                continue
            named = {a.value for a in node.args[1:]
                     if isinstance(a, ast.Constant) and a.value in flags}
            named |= {kw.arg for kw in node.keywords
                      if isinstance(kw.value, ast.Constant) and kw.value.value in flags}
            if named:
                out.append(named)
    return out


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


def _target_path(target: str) -> tuple[str, str]:
    """``module:Class.attr`` → ``(file, Class.attr)``."""
    module, qualname = target.split(":")
    return _module_file(module), qualname


def unset_fields(sources: dict[str, ast.Module], knobs=KNOBS) -> list[str]:
    """``file:line Class(field=)`` for every field of a ``knobs`` dataclass
    that no call site sets.  Names a command passes by flag
    (:func:`flags_by_name`) count on a class when all of them are its
    fields, as ``replace`` requires."""
    out: list[str] = []
    for module, cls in knobs:
        names = fields_of(sources[module], cls)
        found: set[str] = set()
        for where, tree in sources.items():
            by_callee = calls_by_callee(tree)
            found |= set_names(by_callee.get(cls, []), names) | flag_setters(tree).get(cls, set())
            found |= set().union(*(n for n in flags_by_name(tree) if n <= set(names)))
            if "replace" in by_callee and names_class(tree, cls):
                found |= replaced_names(tree, names)
        line = next(n.lineno for n in sources[module].body
                    if isinstance(n, ast.ClassDef) and n.name == cls)
        out += [f"{module}:{line} {cls}({name}=)" for name in names if name not in found]
    return out


def unset_parameters(sources: dict[str, ast.Module], targets: tuple[str, ...] = ()) -> list[str]:
    """``file:line owner(param=)`` for every defaulted parameter under
    ``src/repro/`` that no call site sets.

    Three kinds of signature are exempt: one whose name a call site uses as
    a value, a trace target (of ``targets``) that no call site calls, and an
    entry point.
    """
    by_file = {where: calls_by_callee(tree) for where, tree in sources.items()}
    flags = {where: flag_setters(tree) for where, tree in sources.items()}
    through = forwarded(sources)
    values = set().union(*map(value_names, sources.values()))
    called = set().union(*by_file.values())
    exempt = entry_points(sources) | {
        path for path in map(_target_path, targets) if path[1].split(".")[-1] not in called
    }
    out: list[str] = []
    for where, tree in sources.items():
        if not where.startswith("src/repro/"):
            continue
        for sig in signatures(tree, where):
            if sig.callee in values or (where, sig.owner) in exempt:
                continue
            found = set(through.get(sig.callee, ()))
            for other, by_callee in by_file.items():
                found |= set_names(by_callee.get(sig.callee, []), list(sig.positional))
                found |= flags[other].get(sig.callee, set())
            out += [f"{where}:{sig.line} {sig.owner}({name}=)"
                    for name in sig.defaulted if name not in found]
    return out


def _trace_targets() -> tuple[str, ...]:
    if str(_ROOT) not in sys.path:
        sys.path.insert(0, str(_ROOT))
    return tuple(target for target, _, _ in importlib.import_module("perfbench.layers")._TARGETS)


def test_every_knob_is_set_by_a_call_site():
    missing = unset_fields(_sources()) + unset_parameters(_sources(), _trace_targets())
    assert missing == [], "knobs no call site sets; delete them:\n" + "\n".join(missing)


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
        "    @staticmethod\n"
        "    def pack(data, width=8):\n"  # no self to skip
        "        pass\n"
        "    def run(self):\n"  # nothing defaulted: not a signature
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
        "Engine.pack(b, 4)\n"
    )
    assert fields_of(defining, "Config") == ["a", "b", "c", "d", "e"]
    sigs = {s.owner: s for s in signatures(defining, "src/repro/m.py")}
    assert sorted(sigs) == ["Engine", "Engine.pack", "load"]
    assert (sigs["Engine"].callee, sigs["Engine"].positional, sigs["Engine"].defaulted) == (
        "Engine", ("x",), ("y", "z"))
    assert (sigs["load"].positional, sigs["load"].defaulted) == (
        ("path", "model"), ("model", "strict"))
    by_callee = calls_by_callee(calls)
    assert set_names(by_callee["Config"], ["a", "b", "c", "d", "e"]) == {"a", "b", "c", "d"}
    assert set_names(by_callee["Engine"], ["x"]) == {"x", "y"}
    assert set_names(by_callee["load"], ["path", "model"]) == {"path", "model"}
    assert set_names(by_callee["pack"], ["data", "width"]) == {"data", "width"}
    sources = {"src/repro/m.py": defining, "examples/run.py": calls}
    assert unset_parameters(sources) == [
        "src/repro/m.py:8 Engine(z=)", "src/repro/m.py:15 load(strict=)"]


def _unset_in(module: str, calls: str, targets: tuple[str, ...] = ()) -> list[str]:
    """``owner(param=)`` hits of a one-module package and one caller."""
    sources = {"src/repro/pkg/mod.py": ast.parse(module), "examples/run.py": ast.parse(calls)}
    return sorted(hit.split(" ", 1)[1] for hit in unset_parameters(sources, targets))


def test_a_name_used_as_a_value_exempts_every_signature_of_that_name():
    module = (
        "def nearest(v, rng=None):\n"
        "    pass\n"
        "def stochastic(v, rng=None):\n"
        "    pass\n"
        "MODES = {'rn': nearest}\n"
        "class Engine:\n"
        "    def on_step(self, step, verbose=False):\n"
        "        pass\n"
        "    def run(self, hook=None):\n"
        "        pass\n"
    )
    calls = (
        "MODES['rn'](v)\n"  # a call the lint cannot see: nearest is a value
        "stochastic(v)\n"
        "engine = Engine()\n"
        "engine.run(hook=engine.on_step)\n"  # a bound method as a callback
        "def hinted(e: Engine) -> Engine:\n"  # an annotation is no value
        "    return e\n"
    )
    assert _unset_in(module, calls) == ["stochastic(rng=)"]
    assert value_names(ast.parse(calls)) >= {"MODES", "on_step"}
    assert "Engine" not in value_names(ast.parse("Engine.build(x)\nclass C(Engine):\n    pass\n"))


def test_keywords_reach_the_function_a_kwargs_forwarder_calls():
    module = (
        "class Base:\n"
        "    def __init__(self, n, *, seed=0, name=''):\n"
        "        pass\n"
        "class Cluster(Base):\n"
        "    def __init__(self, n, *, track='a', mode=None):\n"
        "        super().__init__(n, seed=1)\n"  # a call of the bases
        "    @classmethod\n"
        "    def from_world(cls, world, **kwargs):\n"
        "        return cls(world, **kwargs)\n"  # a call of the class
    )
    calls = "Cluster.from_world(8, track='b')\n"
    assert _unset_in(module, calls) == ["Base(name=)", "Cluster(mode=)"]
    assert forwarded({"m": ast.parse(module), "c": ast.parse(calls)})["Cluster"] == {"track"}


def test_a_trace_target_no_call_site_calls_is_exempt():
    module = (
        "class Cluster:\n"
        "    def allreduce(self, x, *, average=False):\n"
        "        pass\n"
        "    def broadcast(self, x, *, root=0):\n"
        "        pass\n"
        "    def allgather(self, x, *, nbytes=None):\n"
        "        pass\n"
    )
    calls = "cluster.broadcast(x)\n"
    targets = ("repro.pkg.mod:Cluster.allreduce", "repro.pkg.mod:Cluster.broadcast")
    # broadcast is a target that a run calls, so the run owns its signature.
    assert _unset_in(module, calls, targets) == [
        "Cluster.allgather(nbytes=)", "Cluster.broadcast(root=)"]


def test_the_entry_points_arguments_are_the_command_line():
    sources = {
        "src/repro/cli.py": ast.parse(
            "def main(argv=None):\n"
            "    pass\n"
            "def report(path, verbose=False):\n"
            "    pass\n"
        ),
        "src/repro/__main__.py": ast.parse(
            "import sys\nfrom repro.cli import main\nsys.exit(main())\n"),
        "examples/run.py": ast.parse("from repro.cli import report\nreport('x')\n"),
    }
    assert entry_points(sources) == {("src/repro/cli.py", "main")}
    assert unset_parameters(sources) == ["src/repro/cli.py:3 report(verbose=)"]


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


def test_a_command_sets_the_fields_it_names_by_flag():
    sources = {
        "src/repro/cfg.py": ast.parse(
            "class Run:\n"
            "    seed: int = 0\n"
            "    iterations: int = 1\n"
            "    preset: str = ''\n"
        ),
        "src/repro/cli.py": ast.parse(
            "def cmd_train(args):\n"
            # "preset" is a field but no flag: a string names a field only
            # through the flag of the same name.
            "    return _scenario(args, 'preset', None, 'seed', iterations='iters')\n"
            "def build_parser():\n"
            "    p = sub.add_parser('train')\n"
            "    p.add_argument('--seed', type=int)\n"
            "    p.add_argument('--iters', type=int)\n"
            "    p.set_defaults(func=cmd_train)\n"
        ),
    }
    assert flags_by_name(sources["src/repro/cli.py"]) == [{"seed", "iterations"}]
    assert unset_fields(sources, (("src/repro/cfg.py", "Run"),)) == ["src/repro/cfg.py:1 Run(preset=)"]


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
