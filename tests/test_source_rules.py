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
  int the package reads may be a bool: ask ``type(x) is int``);
* no ``os._exit`` or ``sys.exit`` outside ``cli.run``, the process entry
  (no library call can end its caller's process).
* no call in ``cli.py`` outside ``cli.decimal`` that calls ``int`` or
  passes it, as in ``int(x)``, ``map(int, xs)`` or ``type=int`` (every
  integer of the command line is read in plain decimal, by one converter);
* no module-level import in ``cli.py`` of a ``conedef`` module or of
  ``json``, only of names the package root defines (each command imports
  the modules it runs, so ``--help`` and argparse's refusals load
  ``conedef`` and ``conedef.cli`` alone);
* no module-level function, class or binding of an attribute, nor method
  of a module-level class (dunders aside), that no module of the package
  names outside its own definition, unless :data:`TEST_ONLY` lists it, and
  no name on that list that a module names or that is gone (nothing ships
  that only the tests call, and the list stays exact).  A string in the
  root's ``_EXPORTS`` names its entry.  A method of a class with a base
  from outside the package is left out: that base calls it by a name the
  package never writes (argparse's ``_get_help_string``).  It is a name
  match, not a call graph: it catches a new leaf that only tests call,
  not a chain such as ``rref_with_transform -> hstack`` below a test-only
  head;
* no ``ArgumentParser(...)`` or ``add_parser(...)`` call in ``cli.py``
  without ``allow_abbrev=False`` (each option has one spelling, the one
  ``--help`` prints: argparse would also take any unambiguous prefix);
* no import of ``typing`` outside an ``if TYPE_CHECKING:`` block, where
  each module sets ``TYPE_CHECKING = False`` (no command pays for loading
  ``typing``: annotations are strings, read by type checkers only).

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


_EXITS = {("os", "_exit"), ("sys", "exit")}


def one_process_exit(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    entry = next((f for f in tree.body if name == "cli.py" and getattr(f, "name", None) == "run"), None)
    allowed = {id(n) for n in ast.walk(entry)} if entry is not None else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            exits = {(node.value.id, node.attr)} & _EXITS
        elif isinstance(node, ast.ImportFrom):
            exits = {(node.module, a.name) for a in node.names} & _EXITS
        else:
            continue
        if exits and id(node) not in allowed:
            yield node.lineno, f"{'.'.join(exits.pop())} outside cli.run"


def one_integer_reader(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name != "cli.py":
        return
    reader = next((f for f in tree.body if getattr(f, "name", None) == "decimal"), None)
    allowed = {id(n) for n in ast.walk(reader)} if reader is not None else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            operands = [node.func, *node.args, *(k.value for k in node.keywords)]
            if any(isinstance(x, ast.Name) and x.id == "int" for x in operands):
                yield node.lineno, "int read outside cli.decimal"


_SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")}


def command_scoped_imports(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name != "cli.py":
        return
    for node in tree.body:
        for m in _imported(node):
            top, _, rest = m.partition(".")
            if top == "json" or (top == "conedef" and rest.partition(".")[0] in _SUBMODULES):
                yield node.lineno, f"module-level import of {m} in cli.py"
                break


# The names that no module of the package names today, each with what reads
# it and the ROADMAP item that deletes it.  Items 3, 10 and 13 wait on item
# 12, since perfbench/tracer.py reads every name here (its TABLE wraps all
# but ``entry``).
TEST_ONLY = frozenset({
    "cones.t2_weight",  # test_cones, perfbench/test_perfbench.py; item 3
    "cones.weight_zero_criterion",  # test_cones, test_records; item 3
    "linalg.RationalMatrix.from_rows",  # test_linalg, test_p1, test_presentation, acceptance criterion 7; item 3
    "linalg.RationalMatrix.entry",  # test_linalg, test_presentation, tracer._count_elimination; item 3 after 12 (a)
    "linalg.RationalMatrix.copy",  # the tracer's TABLE only; item 3
    "linalg.RationalMatrix.transpose",  # test_linalg; item 3
    "linalg.RationalMatrix.inverse",  # test_linalg; item 3
    "linalg.kernel_dim",  # test_linalg, test_projective; item 3
    "linalg.cokernel_dim",  # test_linalg, test_projective; item 3
    "linalg.row_reduce",  # the tracer's TABLE only; item 3
    "linalg.vstack",  # test_linalg, test_p1, test_projective, perfbench/test_perfbench.py; item 3
    "p1.mult_matrix",  # test_p1, test_projective; item 3
    "p1.euler_h1_block",  # test_p1, test_projective, test_cli; item 3
    "polynomials.degrevlex_cmp",  # test_polynomials; item 10
    "polynomials.Polynomial.total_degree",  # the tracer's TABLE only; item 10
    "polynomials.Polynomial.is_homogeneous",  # test_polynomials; item 10
    "polynomials.Polynomial.homogeneous_degree",  # test_polynomials; item 10
    "polynomials.Polynomial.coefficient",  # test_polynomials; item 10
    "polynomials.RationalFunction.from_polynomial",  # test_polynomials; items 10 and 13
    "presentation.coefficients_in_grade",  # test_presentation; item 3
    "presentation.euler_derivation_vector",  # test_presentation, acceptance criterion 7; item 3
    "projective.h0_bidegree",  # test_projective; item 3
})


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _checked_names(trees: dict[str, ast.Module]) -> Iterator[tuple[str, str, str, ast.AST]]:
    """(file name, qualified name, name, defining node) of each name the
    test-only rule checks."""
    package_classes = {n.name for tree in trees.values() for n in tree.body if isinstance(n, ast.ClassDef)}
    for name, tree in trees.items():
        module = name.removesuffix(".py")
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield name, f"{module}.{target.id}", target.id, node
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_dunder(node.name):
                continue
            yield name, f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef) and all(getattr(b, "id", None) in package_classes for b in node.bases):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and not _is_dunder(f.name):
                        yield name, f"{module}.{node.name}.{f.name}", f.name, f


def _written_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.name if isinstance(node, ast.alias) else None


def _namings(trees: dict[str, ast.Module]) -> dict[str, list[ast.AST]]:
    """The nodes of the package that name something, by the name: a name,
    an attribute, an import alias or a string in the root's ``_EXPORTS``."""
    named: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            bare = _written_name(node)
            if bare is not None:
                named.setdefault(bare, []).append(node)
    root = trees.get("__init__.py")
    for node in root.body if root is not None else ():
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets):
            for c in ast.walk(node.value):
                if isinstance(c, ast.Constant) and type(c.value) is str:
                    named.setdefault(c.value, []).append(c)
    return named


def unnamed_definitions(trees: dict[str, ast.Module]) -> Iterator[tuple[str, int, str]]:
    named = _namings(trees)
    for name, qualified, bare, node in _checked_names(trees):
        own = {id(n) for n in ast.walk(node)}
        used = any(id(n) not in own for n in named.get(bare, ()))
        if used and qualified in TEST_ONLY:
            yield name, node.lineno, f"{qualified} is named in the package: take it off TEST_ONLY"
        elif not used and qualified not in TEST_ONLY:
            yield name, node.lineno, f"{qualified} is named by no module of the package"


def one_spelling(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    if name != "cli.py":
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and {"ArgumentParser", "add_parser"} & _named(node.func):
            if not any(k.arg == "allow_abbrev" and getattr(k.value, "value", None) is False for k in node.keywords):
                yield node.lineno, "a parser that takes abbreviated options (pass allow_abbrev=False)"


def _type_checking_only(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"


def no_runtime_typing(name: str, tree: ast.Module) -> Iterator[tuple[int, str]]:
    guarded = {id(n) for block in ast.walk(tree) if _type_checking_only(block) for s in block.body for n in ast.walk(s)}
    for node in ast.walk(tree):
        if any(m == "typing" or m.startswith("typing.") for m in _imported(node)) and id(node) not in guarded:
            yield node.lineno, "import of typing outside an if TYPE_CHECKING: block"


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
    "one-process-exit": _per_module(one_process_exit),
    "one-integer-reader": _per_module(one_integer_reader),
    "command-scoped-imports": _per_module(command_scoped_imports),
    "test-only-names": unnamed_definitions,
    "one-spelling": _per_module(one_spelling),
    "no-runtime-typing": _per_module(no_runtime_typing),
}


def _findings(rule: str, trees: dict[str, ast.Module], paths: dict[str, str]) -> list[str]:
    return [f"{paths[name]}:{line}: {what}" for name, line, what in RULES[rule](trees)]


def _package() -> tuple[dict[str, ast.Module], dict[str, str]]:
    """The syntax tree and the repository path of every module, by file name."""
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    paths = {p.name: str(p.relative_to(ROOT)) for p in files}
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in files}
    assert len(trees) == len(files)  # the rules key a module by its file name
    return trees, paths


@pytest.mark.parametrize("rule", RULES)
def test_the_package_keeps_the_rule(rule):
    trees, paths = _package()
    found = _findings(rule, trees, paths)
    assert not found, "\n".join(found)


def test_every_test_only_name_is_still_defined():
    """A deletion takes its name off TEST_ONLY too, so the list stays exact."""
    defined = {qualified for _, qualified, _, _ in _checked_names(_package()[0])}
    assert sorted(TEST_ONLY - defined) == []


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
    ("one-process-exit", "__main__.py", """\
        # planted
        if __name__ == "__main__":
            sys.exit(main())
    """),
    ("one-process-exit", "cones.py", """\
        # planted
        def refuse(message):
            os._exit(2)
    """),
    ("one-process-exit", "cli.py", """\
        # planted
        def main(argv=None):
            from sys import exit
    """),
    ("one-integer-reader", "cli.py", "# planted\np_jac.add_argument(\"--d\", type=int, required=True)\n"),
    ("one-integer-reader", "cli.py", "# planted\nlo, hi = map(int, spec.split(\"..\"))\n"),
    ("one-integer-reader", "cli.py", "# planted\nints = [int(x) for x in values]\n"),
    ("command-scoped-imports", "cli.py", "# planted\nfrom . import cones, p1\n"),
    ("command-scoped-imports", "cli.py", "# planted\nfrom .presentation import graded_route, jacobian_matrix, t1_via_normal\n"),
    ("command-scoped-imports", "cli.py", "# planted\nimport json\n"),
    ("test-only-names", "cones.py", "# planted\ndef unused_helper() -> None:\n    pass\n"),
    ("one-spelling", "cli.py", "# planted\np_ati = sub.add_parser(\"atiyah\", help=\"cocycle verification\")\n"),
    ("one-spelling", "cli.py", "# planted\nparser = argparse.ArgumentParser(prog=\"conedef\", allow_abbrev=True)\n"),
    ("no-runtime-typing", "cones.py", "# planted\nfrom typing import TYPE_CHECKING, Callable, Optional\n"),
    ("no-runtime-typing", "linalg.py", """\
        # planted
        import typing.io
        if TYPE_CHECKING:
            from typing import Sequence
    """),
]
_PLANTED_LINE = {"forwarding-init": 5, "trace-has-one-owner": 3, "a-bool-is-not-an-int": 3, "one-process-exit": 3}


@pytest.mark.parametrize("rule,name,source", PLANTED, ids=[f"{r}-{i}" for i, (r, _, _) in enumerate(PLANTED)])
def test_each_rule_flags_a_planted_violation(rule, name, source):
    trees, paths = {name: ast.parse(textwrap.dedent(source))}, {name: name}
    line = _PLANTED_LINE.get(rule, 2)
    found = _findings(rule, trees, paths)
    assert found and all(f.startswith(f"{name}:{line}: ") for f in found)
    # the same tree is clean under every other rule; test-only-names reads
    # the package as a whole, where a fragment's own definitions are named
    # by no other module, so it judges only its own planted row
    assert all(not _findings(other, trees, paths) for other in RULES if other not in (rule, "test-only-names"))


def test_a_validating_constructor_is_not_forwarding():
    source = """\
        class Entry(FrozenRecord):
            def __init__(self, a):
                if a < 1:
                    raise ValueError("a must be at least 1")
                self._set(a)
    """
    assert not _findings("forwarding-init", {"cones.py": ast.parse(textwrap.dedent(source))}, {"cones.py": "cones.py"})
