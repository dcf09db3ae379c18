"""Source rules for every module under ``src/conedef``, read from its syntax
tree.  Each rule reports ``<path>:<line>: <what>``:

* no ``assert`` statement (``python -O`` strips them);
* no ``dataclasses`` import (start-up cost);
* no ``_pn_monomials`` outside ``projective.py`` (the unchecked basis
  enumerator: every basis is priced against ``MAX_BASIS`` first);
* no ``hstack``/``vstack`` outside ``linalg.py`` (one builder assembles
  every block map);
* no ``kernel_dim``/``cokernel_dim`` call outside ``linalg.py`` (every
  chase reads its connecting maps through ``projective._level``);
* no module-level ``*MAX_*`` name outside ``projective.py`` (the budget
  policy);
* no module-level import of ``fractions`` in any module, nor of
  ``conedef.polynomials`` where a command's integer chase loads the module
  (``projective``, ``p1``, ``cones``, ``cli``);
* no ``FrozenRecord`` subclass whose ``__init__`` only forwards its
  arguments to ``self._set`` (``FrozenRecord`` has that constructor);
* no module-level import of a ``conedef`` module in ``__init__.py`` (the
  package root resolves every export on first use);
* no ``environ``, ``getenv`` or ``putenv`` anywhere (the command line is
  the one input: the package reads no environment variable);
* no ``check_cost`` or ``comb`` name in ``cli.py`` (each builder prices its
  own request, so the command line computes no price);
* no subclass of ``RequestError`` but ``OverBudgetError`` (one refusal
  type, which the command line maps to exit 2, also for what it parses);
* no read of ``args.trace`` in ``cli.py`` outside ``_answer``, ``cmd_t1``
  and ``cmd_jacobian`` (``_answer`` attaches every trace; only a trace that
  costs more than a constant is built on request);
* no ``isinstance(<x>, int)`` anywhere (a bool passes that test, and no
  int the package reads may be a bool: ask ``type(x) is int``).

Each rule is also run on a planted violation, so none passes vacuously.
"""

from __future__ import annotations

import ast
import fnmatch
import pathlib
import textwrap
from typing import Callable, Iterator

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conedef"

# A rule takes the syntax tree of every module, by file name, and yields
# (file name, line, what) for each violation.
Rule = Callable[[dict[str, ast.Module]], Iterator[tuple[str, int, str]]]


def _named(node: ast.AST) -> set:
    return {getattr(node, f, None) for f in ("id", "attr", "name", "value")}


def _per_module(check: Callable[[str, ast.Module], Iterator[tuple[int, str]]]) -> Rule:
    def rule(trees: dict[str, ast.Module]) -> Iterator[tuple[str, int, str]]:
        for name, tree in trees.items():
            for line, what in check(name, tree):
                yield name, line, what

    return rule


def _walk_rule(banned: Callable[[str, ast.AST], bool]) -> Rule:
    """A rule that flags every node that ``banned`` holds, by its node type."""

    def check(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
        for node in ast.walk(tree):
            if banned(name, node):
                yield node.lineno, type(node).__name__

    return _per_module(check)


def _dataclasses(name: str, node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.partition(".")[0] == "dataclasses" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses"


def _bound(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [a.asname or a.name for a in node.names]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        return [t.id for g in targets for t in ast.walk(g) if isinstance(t, ast.Name)]
    return [getattr(node, "name", "")]


def budget_names(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name == "projective.py":
        return
    for node in tree.body:
        if any(fnmatch.fnmatchcase(b, "*MAX_*") for b in _bound(node)):
            yield node.lineno, "module-level budget name"


def _imported(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        prefix = ("conedef." if node.level else "") + (node.module + "." if node.module else "")
        return [prefix[:-1]] + [prefix + a.name for a in node.names]
    return []


# Modules whose integer chase runs in commands that must not load polynomials.
_LAZY = dict.fromkeys(["projective.py", "p1.py", "cones.py", "cli.py"], ("fractions", "conedef.polynomials"))


def deferred_imports(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    deferred = _LAZY.get(name, ("fractions",))
    for node in tree.body:
        if any(m == x or m.startswith(x + ".") for m in _imported(node) for x in deferred):
            yield node.lineno, "module-level import of deferred exact arithmetic"


def lazy_root(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name != "__init__.py":
        return
    for node in tree.body:
        if any(m == "conedef" or m.startswith("conedef.") for m in _imported(node)):
            yield node.lineno, "module-level import of a conedef module in the package root"


_TRACE_READERS = ("_answer", "cmd_t1", "cmd_jacobian")


def trace_has_one_owner(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name != "cli.py":
        return
    owned = {id(n) for f in tree.body if getattr(f, "name", None) in _TRACE_READERS for n in ast.walk(f)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "trace"
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and id(node) not in owned
        ):
            yield node.lineno, f"args.trace read outside {', '.join(_TRACE_READERS)}"


def _is_set_call(stmt: ast.stmt) -> bool:
    call = getattr(stmt, "value", None) if isinstance(stmt, ast.Expr) else None
    func = getattr(call, "func", None)
    return (
        isinstance(call, ast.Call)
        and isinstance(func, ast.Attribute)
        and func.attr == "_set"
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


def _named_bases(c: ast.ClassDef) -> set:
    return {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in c.bases}


def forwarding_constructors(trees: dict[str, ast.Module]) -> Iterator[tuple[str, int, str]]:
    """Read across all modules, since a record may subclass one defined elsewhere."""
    classes = [(name, n) for name, tree in trees.items() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    frozen, grew = {"FrozenRecord"}, True
    while grew:
        more = {c.name for _, c in classes if _named_bases(c) & frozen} - frozen
        frozen |= more
        grew = bool(more)
    for name, c in classes:
        if not _named_bases(c) & frozen:
            continue
        for f in c.body:
            if isinstance(f, ast.FunctionDef) and f.name == "__init__":
                body = f.body[1:] if ast.get_docstring(f) is not None else f.body
                if len(body) == 1 and _is_set_call(body[0]):
                    yield name, f.lineno, f"{c.name}.__init__ only forwards to self._set"


def _int_instance_check(name: str, node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and len(node.args) == 2
        and any(getattr(n, "id", None) == "int" for n in ast.walk(node.args[1]))
    )


RULES: dict[str, Rule] = {
    "assert": _walk_rule(lambda name, n: isinstance(n, ast.Assert)),
    "dataclasses": _walk_rule(_dataclasses),
    "basis-enumerator": _walk_rule(lambda name, n: name != "projective.py" and "_pn_monomials" in _named(n)),
    "stacking": _walk_rule(lambda name, n: name != "linalg.py" and bool({"hstack", "vstack"} & _named(n))),
    "kernel-count": _walk_rule(
        lambda name, n: name != "linalg.py" and isinstance(n, ast.Call) and bool({"kernel_dim", "cokernel_dim"} & _named(n.func))
    ),
    "budget": _per_module(budget_names),
    "deferred-import": _per_module(deferred_imports),
    "forwarding-init": forwarding_constructors,
    "lazy-root": _per_module(lazy_root),
    "environment": _walk_rule(lambda name, n: bool({"environ", "getenv", "putenv"} & _named(n))),
    "cli-prices-nothing": _walk_rule(lambda name, n: name == "cli.py" and bool({"check_cost", "comb"} & _named(n))),
    "one-refusal-type": _walk_rule(
        lambda name, n: isinstance(n, ast.ClassDef) and n.name != "OverBudgetError" and "RequestError" in _named_bases(n)
    ),
    "trace-has-one-owner": _per_module(trace_has_one_owner),
    "a-bool-is-not-an-int": _walk_rule(_int_instance_check),
}


def _findings(rule: str, trees: dict[str, ast.Module], paths: dict[str, str]) -> list[str]:
    return [f"{paths[name]}:{line}: {what}" for name, line, what in RULES[rule](trees)]


@pytest.mark.parametrize("rule", RULES)
def test_the_package_keeps_the_rule(rule):
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    paths = {p.name: str(p.relative_to(ROOT)) for p in files}
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in files}
    assert len(trees) == len(files)  # the rules key a module by its file name
    found = _findings(rule, trees, paths)
    assert not found, "\n".join(found)


# (rule, file name, source): one planted violation of each rule, flagged at
# line 2 (line 1 of every source is a comment), or at the line that
# :data:`_PLANTED_LINE` names for a rule whose violation sits inside a
# ``def`` or ``class``.
PLANTED = [
    ("assert", "cones.py", "# planted\nassert True\n"),
    ("dataclasses", "cones.py", "# planted\nimport dataclasses\n"),
    ("dataclasses", "cones.py", "# planted\nfrom dataclasses import dataclass\n"),
    ("basis-enumerator", "cones.py", "# planted\nfrom .projective import _pn_monomials\n"),
    ("stacking", "cones.py", "# planted\nm = a.hstack(b)\n"),
    ("stacking", "projective.py", "# planted\nfrom .linalg import vstack\n"),
    ("budget", "cli.py", "# planted\nMAX_WEIGHTS = 10\n"),
    ("deferred-import", "linalg.py", "# planted\nfrom fractions import Fraction\n"),
    ("deferred-import", "cones.py", "# planted\nfrom . import polynomials\n"),
    ("deferred-import", "p1.py", "# planted\nfrom .polynomials import Polynomial\n"),
    ("forwarding-init", "cones.py", """\
        # planted
        class Report(Result):
            __slots__ = _fields = ("a",)

            def __init__(self, a):
                self._set(a)


        class Result(FrozenRecord):
            pass
    """),
    ("kernel-count", "p1.py", "# planted\nh1 = block.cokernel_dim()\n"),
    ("kernel-count", "projective.py", "# planted\nh0 = kernel_dim(m)\n"),
    ("lazy-root", "__init__.py", "# planted\nfrom .cones import CATALOG\n"),
    ("lazy-root", "__init__.py", "# planted\nimport conedef.delpezzo\n"),
    ("environment", "cli.py", "# planted\ntrace = os.environ.get(\"CONEDEF_TRACE\") == \"1\"\n"),
    ("cli-prices-nothing", "cli.py", "# planted\ncheck_cost(math.comb(args.n + 1, 3) * 3 * args.n**2)\n"),
    ("one-refusal-type", "cli.py", "# planted\nclass UsageError(RequestError):\n    pass\n"),
    ("trace-has-one-owner", "cli.py", """\
        # planted
        def cmd_cech(args):
            trace = ["level-0 region: both exponents nonnegative; level-1 region: both at most -1"] if args.trace else None
    """),
    ("a-bool-is-not-an-int", "polynomials.py", """\
        # planted
        def _scalar(x):
            if isinstance(x, int):
                return int(x)
            raise TypeError(f"polynomial coefficients must be int, got {type(x).__name__}")
    """),
]
_PLANTED_LINE = {"forwarding-init": 5, "trace-has-one-owner": 3, "a-bool-is-not-an-int": 3}


@pytest.mark.parametrize("rule,name,source", PLANTED, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(PLANTED)])
def test_each_rule_flags_a_planted_violation(rule, name, source):
    trees, paths = {name: ast.parse(textwrap.dedent(source))}, {name: name}
    line = _PLANTED_LINE.get(rule, 2)
    found = _findings(rule, trees, paths)
    assert found and all(f.startswith(f"{name}:{line}: ") for f in found)
    # the same tree is clean under every other rule
    assert all(not _findings(other, trees, paths) for other in RULES if other != rule)


def test_a_validating_constructor_is_not_forwarding():
    source = """\
        class Entry(FrozenRecord):
            def __init__(self, a):
                if a < 1:
                    raise ValueError("a must be at least 1")
                self._set(a)
    """
    assert not _findings("forwarding-init", {"cones.py": ast.parse(textwrap.dedent(source))}, {"cones.py": "cones.py"})
