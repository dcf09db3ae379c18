"""Command line front end.

Five subcommands, one JSON envelope.  Every envelope carries the same four
top-level keys in the same order (schema_version, command, inputs, result,
plus an optional trace), integers only, no timestamps, so repeated runs of
the same command are byte-identical.  The envelope schema ships with the
package under ``conedef/schemas/envelope.schema.json``.  The command line
is the one input: no module of the package reads the environment.  Each
``cmd_*`` returns its inputs, result and trace lines, and ``_answer`` writes
the envelope and attaches the trace lines exactly when ``--trace`` is set.
Only ``t1`` and ``jacobian --weight`` read ``--trace`` themselves, because
their trace costs more than a constant: one line per weight of the window,
and the priced graded route.  The one reply without an envelope is
``t1 --format csv``, which prints its table itself and carries no trace, so
``cmd_t1`` refuses it together with ``--trace`` before it reads the
descriptor.

The command line prices nothing and repeats no rule of the library.  Each
library call checks its request's form (a nonempty weight window, a
cohomology level of 0 or 1, a curve degree of at least 2, n >= 2 for the
cocycle check) and prices it from closed forms against the budgets of
:mod:`conedef.projective` (``MAX_BASIS``, ``MAX_COST``) before it builds
anything, and refuses it with a :class:`~conedef.RequestError`,
of which ``OverBudgetError`` is a kind.  The command line refuses what it
parses itself (a descriptor, a weight window, a trace asked of
``--format csv``) with the same ``RequestError``.  README's cost table is
the one account of what each command costs.

Each option has one spelling, the one ``--help`` prints: every parser is
built with ``allow_abbrev=False``, so argparse refuses a prefix such as
``--wei`` instead of reading it as ``--weights``.

Exit codes: 0 success, 2 usage error (unparseable arguments, which
argparse refuses: an abbreviated or unknown option, an integer option not
in plain decimal, a ``jacobian`` with both or neither of ``--weight`` and
``--dump-matrix``; or a ``RequestError``: a descriptor field out of range
or not in plain decimal, a window bound not in plain decimal, an empty
weight window, a cohomology level other than 0 or 1, a curve degree below
2, n below 2, a trace asked of ``--format csv``, a request over either
budget, an integer too long to read, a count or a certificate step too
long to print; :func:`decimal` reads every integer),
3 for well-formed requests the engine refuses to answer with bare numbers
(certificate-only geometries, h^2(T_Y (x) L^m) outside
the curve/surface catalog), 4 when two routes to the same number disagreed
at run time (an internal error, reported as a one-line ``internal error:
...`` on stderr instead of a number), 141
(``EXIT_CLOSED_STDOUT``, 128 + SIGPIPE) when the reader of stdout went away
before the whole reply was written, as in ``conedef ... | head``: nothing
more is written and stderr stays empty.

Each command imports the engine modules it runs inside its own function:
at module level this module imports only the standard library and the
three refusal classes the package root defines, so ``--help`` and every
usage error argparse refuses load ``conedef`` and ``conedef.cli`` alone,
and no ``json``.  The catalog's usage forms are read from
:data:`~conedef.cones.CATALOG` only when they are printed, in the
``variety`` help of ``t1`` and ``rigidity`` and in an unknown descriptor's
refusal.  The one attribute served on demand, by the module's
``__getattr__``, is ``t1_via_normal``, which the benchmark's tests read
from this module.

:func:`run` is the process entry (``python -m conedef`` and the ``conedef``
script): it runs :func:`main`, flushes stdout and stderr and ends the
process with ``os._exit``, skipping interpreter teardown.  :func:`main` is
the in-process API: it returns the status and leaves the process alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from . import InternalConsistencyError, OutOfScopeError, RequestError

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from typing import Iterable, NoReturn, Sequence, TextIO

    from .cones import Variety

    Reply = tuple[dict, dict, list[str] | None]  # inputs, result, trace lines (None: a costly trace not asked for)

SCHEMA_VERSION = "1"
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
WRITE_BATCH = 4096  # encoder chunks per write of the envelope, about 50 K characters


def __getattr__(name: str):
    # cli.t1_via_normal, which perfbench/test_perfbench.py reads, until ROADMAP item 12 changes that test
    if name == "t1_via_normal":
        from .presentation import t1_via_normal

        return t1_via_normal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _descriptors() -> list[str]:
    """One usage form per registry name, aliases included, e.g. "veronese:<n>:<d>"."""
    from .cones import CATALOG

    return [":".join([name, *(f"<{f}>" for f in fields)]) for name, (_, fields) in CATALOG.items()]


def decimal(text: str) -> int:
    """The int that ``text`` writes in plain decimal, as ``str`` writes it
    back: ``int()`` also reads "+4", "-0", "04", "4_0", " 4" and "٤", and
    this refuses each, and any text that is no number, with ``ValueError``.
    A plain decimal of more digits than this interpreter reads into an int
    (``sys.get_int_max_str_digits``) is refused with an
    ``argparse.ArgumentTypeError``, whose reason argparse prints as it is.
    Every integer of the command line is read here: descriptor fields,
    window bounds, and the integer options, whose ``ValueError`` argparse
    words as ``invalid decimal value``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()) or (digits.startswith("0") and text != "0"):
        raise ValueError(f"{text!r} is not written as a plain decimal int, such as 4")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(digits) > limit:
        raise argparse.ArgumentTypeError(f"the value has more than {limit} digits, over this interpreter's limit "
                                         "for reading an int (PYTHONINTMAXSTRDIGITS=0 lifts it)")
    return int(text)


def parse_variety(descriptor: str) -> Variety:
    from .cones import CATALOG

    name, *values = descriptor.split(":")
    make, fields = CATALOG.get(name, (None, ()))
    if make is not None and len(values) == len(fields):
        try:
            return make(*map(decimal, values))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise RequestError(f"bad variety descriptor {descriptor!r}: {exc}") from exc
    *rest, last = _descriptors()
    raise RequestError(f"unknown variety descriptor {descriptor!r} (expected {', '.join(rest)} or {last})")


def parse_window(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition("..")
    try:
        return decimal(lo), decimal(hi)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise RequestError(f"bad weight window {spec!r} (expected lo..hi): {exc}") from exc


def _check_printable(counts: Iterable[tuple[int, int]]) -> None:
    """Refuse, before anything is written, a count with more digits than this interpreter prints
    (:func:`~conedef.projective.check_printable`): every input fits, a product of two may not."""
    from .projective import check_printable

    m, count = max(counts, key=lambda pair: pair[1], default=(None, 0))
    check_printable(count, f"the count at weight {m}")


def cmd_t1(args: argparse.Namespace) -> Reply | None:
    from . import cones

    if args.trace and args.format == "csv":
        raise RequestError("--format csv cannot carry a trace (drop --trace, or use --format json)")
    variety = parse_variety(args.variety)
    lo, hi = parse_window(args.weights)
    table = (cones.t1_table if args.order == 1 else cones.t2_table)(variety, lo, hi)  # in window order
    _check_printable(table.items())
    if args.format == "csv":
        sys.stdout.write("weight,dimension\n")
        for m, count in table.items():
            sys.stdout.write(f"{m},{count}\n")
        return None
    result = {
        "order": args.order,
        "window": f"{lo}..{hi}",
        "table": {str(m): count for m, count in table.items()},
        "nonzero_weights": [m for m, count in table.items() if count],
    }
    trace = [
        f"order {args.order}: weight m counts h^{args.order}(T_Y (x) L^m)",
        f"rule: {variety.rule()}",
        *(f"weight {m}: dimension {count}" for m, count in table.items()),
    ] if args.trace else None
    return {"variety": args.variety, "weights": f"{lo}..{hi}", "order": args.order}, result, trace


def cmd_rigidity(args: argparse.Namespace) -> Reply:
    from . import cones

    variety = parse_variety(args.variety)
    lo, hi = parse_window(args.weights)
    verdict = cones.rigidity_verdict(variety, lo, hi)
    _check_printable([verdict.witness] if verdict.witness is not None else [])
    result: dict = {
        "rigid": verdict.rigid,
        "witness": None if verdict.witness is None else dict(zip(("weight", "dim"), verdict.witness)),
        "window": f"{lo}..{hi}",
        "window_independent": verdict.window_independent,
        "note": verdict.note,
    }
    if verdict.certificate is not None:
        result["certificate"] = verdict.certificate.to_dict()
    return {"variety": args.variety, "weights": f"{lo}..{hi}"}, result, [f"rule: {variety.rule()}"]


def cmd_jacobian(args: argparse.Namespace) -> Reply:
    from .presentation import graded_route, jacobian_matrix, t1_via_normal

    if args.dump_matrix:
        rows = jacobian_matrix(args.d)
        names = [f"z{t}" for t in range(args.d + 1)]
        result = {
            "rows": len(rows),
            "cols": args.d + 1,
            "entries": [[p.to_string(names) for p in row] for row in rows],
        }
        return {"d": args.d}, result, ["one row per quadric generator in lexicographic pair order, one column per variable"]
    route = t1_via_normal(args.d, args.weight)
    result = {
        "source_h0": route.restricted_tangent_h0,
        "target_h0": route.normal_h0,
        "t1": route.value,
        "exact": route.exact,
    }
    trace = None
    if args.trace:
        graded, rank = graded_route(args.d, args.weight, route)
        trace = [
            f"normal route: h^0(N({args.weight})) = {route.normal_h0}, restricted tangent h^0 = "
            f"{route.restricted_tangent_h0}, curve tangent h^0 = {route.curve_tangent_h0}",
            f"graded route: source {graded.source_dim}, target {graded.target_dim}, rank {rank}",
        ]
    return {"d": args.d, "weight": args.weight}, result, trace


def cmd_cech(args: argparse.Namespace) -> Reply:
    from . import p1

    mons = p1.basis(args.i, args.k)
    result = {"dim": len(mons), "basis": [[a, b] for a, b in mons]}
    return {"i": args.i, "k": args.k}, result, ["level-0 region: both exponents nonnegative; level-1 region: both at most -1"]


def cmd_atiyah(args: argparse.Namespace) -> Reply:
    from .atiyah import atiyah_cocycle_check  # the one command that needs it

    report = atiyah_cocycle_check(args.n)
    result = {
        "n": args.n,
        "triples_checked": len(report.triples),
        "multiplicative": report.multiplicative_ok,
        "additive": report.additive_ok,
        "passed": report.passed,
    }
    return {"n": args.n}, result, ["transition data: coordinate ratios; equality decided by cross-multiplication"]


class _CatalogHelp(argparse.HelpFormatter):
    """The help of ``t1`` and ``rigidity``, whose ``variety`` help lists the
    catalog's usage forms, read when the help is formatted."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        return " | ".join(_descriptors()) if action.dest == "variety" else super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conedef", allow_abbrev=False,
                                     description="exact graded deformation counts for affine cones over polarized varieties")
    sub = parser.add_subparsers(dest="command", required=True)
    p_t1 = sub.add_parser(
        "t1", allow_abbrev=False, formatter_class=_CatalogHelp, help="weight table of h^q(T_Y (x) L^m), q = --order",
        description="weight table of h^q(T_Y (x) L^m): for each weight m of the window, the q-th cohomology "
        "of the tangent sheaf of Y twisted by the m-th power of the polarization L, with q = --order",
    )
    p_rig = sub.add_parser("rigidity", allow_abbrev=False, formatter_class=_CatalogHelp,
                           help="rigidity verdict with witness or replay certificate")
    p_jac = sub.add_parser("jacobian", allow_abbrev=False, help="determinantal presentation data for the degree-d curve cone")
    p_cech = sub.add_parser("cech", allow_abbrev=False, help="monomial basis of line cohomology on the line")
    p_ati = sub.add_parser("atiyah", allow_abbrev=False, help="cocycle verification for the degree-one bundle on n-space")
    # the shared arguments first, in this order, as each help and usage line lists them
    for p, func in ((p_t1, cmd_t1), (p_rig, cmd_rigidity), (p_jac, cmd_jacobian), (p_cech, cmd_cech), (p_ati, cmd_atiyah)):
        p.set_defaults(func=func)
        p.add_argument("--trace", action="store_true", help="include a computation trace")
    for p in (p_t1, p_rig):
        p.add_argument("variety", help="a catalog descriptor")  # printed as _CatalogHelp writes it
        p.add_argument("--weights", default="-6..3", help="inclusive weight window lo..hi (default %(default)s)")

    p_t1.add_argument("--order", type=decimal, choices=(1, 2), default=1, help="q of h^q(T_Y (x) L^m) (default 1)")
    p_t1.add_argument("--format", choices=("json", "csv"), default="json")

    p_jac.add_argument("--d", type=decimal, required=True)
    mode = p_jac.add_mutually_exclusive_group(required=True)
    mode.add_argument("--weight", type=decimal, help="weight for the two-route count")
    mode.add_argument("--dump-matrix", action="store_true", help="print the generator Jacobian entry by entry")

    p_cech.add_argument("--i", type=decimal, required=True, help="cohomology level (0 or 1)")
    p_cech.add_argument("--k", type=decimal, required=True, help="degree")

    p_ati.add_argument("--n", type=decimal, required=True)

    return parser


def _merge_weight_values(argv: Sequence[str]) -> list[str]:
    """Fold ``--weights -3..1`` into ``--weights=-3..1`` so argparse does
    not mistake a window starting with a negative weight for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weights":
            out[-1] = f"--weights={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            return _answer(argv)
        finally:
            sys.stdout.flush()  # a closed stdout fails here at the latest, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (``conedef ... | head``): as the Python docs'
        # note on SIGPIPE advises, point stdout at devnull so that the final
        # flush (run's, or the interpreter's) cannot fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


def run() -> NoReturn:
    """The process entry of ``python -m conedef`` and of the ``conedef``
    script: :func:`main` on ``sys.argv``, then ``os._exit`` with its status.

    argparse ends ``--help`` (status 0) and a usage error (status 2) with
    ``SystemExit``, whose int status is taken as main's; any other
    ``SystemExit``, and any other exception, propagates as usual.  stdout
    and stderr are flushed, then the process ends without interpreter
    teardown, which would clear every module and run a last garbage
    collection for nothing: the package registers no ``atexit`` handler,
    starts no thread and holds no file that needs closing, so nothing it
    relies on runs at teardown.  The price is that a third party's
    ``atexit`` hook (a coverage tool's subprocess hook, say) does not run
    in a ``conedef`` process either.  :func:`main` stays the in-process
    API, which returns its status.
    """
    try:
        status = main()
    except SystemExit as exc:
        if type(exc.code) is not int:
            raise
        status = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


def _answer(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(_merge_weight_values(sys.argv[1:] if argv is None else argv))
    try:
        reply = args.func(args)
    except RequestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OutOfScopeError as exc:
        sys.stderr.write(f"out of scope: {exc}\n")
        return 3
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    if reply is not None:
        inputs, result, trace = reply
        env = {"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": inputs, "result": result}
        if args.trace:
            env["trace"] = trace
        _write_envelope(env, sys.stdout)
    return 0


def _write_envelope(env: dict, out: TextIO) -> None:
    """``json.dump(env, out, indent=2)`` and a newline, with the encoder's
    small chunks (about 12 characters each) joined :data:`WRITE_BATCH` to
    a write: a long certificate is never one string, and an unbuffered
    stdout (``PYTHONUNBUFFERED=1``) is not asked for one system call per
    chunk."""
    import json

    chunks = chain(json.JSONEncoder(indent=2).iterencode(env), ("\n",))
    while batch := "".join(islice(chunks, WRITE_BATCH)):
        out.write(batch)


if __name__ == "__main__":
    run()
