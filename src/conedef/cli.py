"""Command line front end.

Five subcommands, one JSON envelope.  Every envelope carries the same four
top-level keys in the same order (schema_version, command, inputs, result,
plus an optional trace), integers only, no timestamps, so repeated runs of
the same command are byte-identical.  The envelope schema ships with the
package under ``conedef/schemas/envelope.schema.json``.  Each ``cmd_*``
returns its inputs, result and trace lines; ``main`` alone reads the trace
switch (``--trace`` or ``CONEDEF_TRACE=1``) and writes the envelope.  The
one exception is ``t1 --format csv``, which prints its table itself and
carries no trace, so ``main`` refuses it together with the trace switch.

A request is priced from closed forms and refused before anything is built
when it is over a budget of :mod:`conedef.projective` (``MAX_BASIS``,
``MAX_COST``).  README's cost table is the one account of what each
command costs.

Exit codes: 0 success, 2 usage error (unparseable arguments, empty weight
window, curve degree below 2, a trace asked of ``--format csv``, or a request
over either budget), 3 for well-formed requests the engine refuses to answer
with bare numbers (certificate-only geometries, second-order counts outside
the curve/surface catalog), 4 when two routes to the same number disagreed
at run time (an internal error, reported as a one-line ``internal error: ...``
on stderr instead of a number), 141 (``EXIT_CLOSED_STDOUT``, 128 + SIGPIPE)
when the reader of stdout went away before the whole reply was written, as in
``conedef ... | head``: nothing more is written and stderr stays empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from math import comb
from typing import Optional, Sequence, TextIO

from . import cones, p1
from .cones import InternalConsistencyError, OutOfScopeError, Variety
from .presentation import graded_jacobian_map, jacobian_matrix, t1_via_normal
from .projective import OverBudgetError, check_cost

SCHEMA_VERSION = "1"
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
WRITE_BATCH = 4096  # encoder chunks per write of the envelope, about 50 K characters

# One usage form per registry name, aliases included, e.g. "veronese:<n>:<d>".
_DESCRIPTORS = [":".join([name, *(f"<{f}>" for f in fields)]) for name, (_, fields) in cones.CATALOG.items()]


class UsageError(Exception):
    """Bad command line input (maps to exit code 2)."""


def parse_variety(descriptor: str) -> Variety:
    name, *values = descriptor.split(":")
    make, fields = cones.CATALOG.get(name, (None, ()))
    if make is not None and len(values) == len(fields):
        try:
            return make(*[int(x) for x in values])
        except ValueError as exc:
            raise UsageError(f"bad variety descriptor {descriptor!r}: {exc}") from exc
    raise UsageError(
        f"unknown variety descriptor {descriptor!r} "
        f"(expected {', '.join(_DESCRIPTORS[:-1])} or {_DESCRIPTORS[-1]})"
    )


def parse_window(spec: str) -> tuple[int, int]:
    lo_str, sep, hi_str = spec.partition("..")
    if not sep:
        raise UsageError(f"bad weight window {spec!r} (expected lo..hi)")
    try:
        lo, hi = int(lo_str), int(hi_str)
    except ValueError as exc:
        raise UsageError(f"bad weight window {spec!r}: {exc}") from exc
    if lo > hi:
        raise UsageError(f"weight window {spec!r} is empty (lo > hi)")
    return lo, hi


Reply = tuple[dict, dict, Optional[list[str]]]  # inputs, result, trace lines or None


def cmd_t1(args: argparse.Namespace) -> Optional[Reply]:
    variety = parse_variety(args.variety)
    lo, hi = parse_window(args.weights)
    table = (
        cones.t1_table(variety, lo, hi)
        if args.order == 1
        else cones.t2_table(variety, lo, hi)
    )
    weights = range(lo, hi + 1)
    if args.format == "csv":
        sys.stdout.write("weight,dimension\n")
        for m in weights:
            sys.stdout.write(f"{m},{table.entries[m]}\n")
        return None
    result = {
        "order": args.order,
        "window": f"{lo}..{hi}",
        "table": {str(m): table.entries[m] for m in weights},
        "nonzero_weights": table.nonzero_weights(),
    }
    trace = [
        f"order {args.order}: weight-m piece is level-{args.order} tangent cohomology "
        "twisted by the m-th polarization power",
        f"rule: {variety.rule()}",
        *(f"weight {m}: dimension {table.entries[m]}" for m in weights),
    ] if args.trace else None
    return {"variety": args.variety, "weights": f"{lo}..{hi}", "order": args.order}, result, trace


def cmd_rigidity(args: argparse.Namespace) -> Reply:
    variety = parse_variety(args.variety)
    lo, hi = parse_window(args.weights)
    verdict = cones.rigidity_verdict(variety, lo, hi)
    result: dict = {
        "rigid": verdict.rigid,
        "witness": (
            {"weight": verdict.witness[0], "dim": verdict.witness[1]}
            if verdict.witness is not None
            else None
        ),
        "window": f"{lo}..{hi}",
        "window_independent": verdict.window_independent,
        "note": verdict.note,
    }
    if verdict.certificate is not None:
        result["certificate"] = verdict.certificate.to_dict()
    trace = [f"rule: {variety.rule()}"] if args.trace else None
    return {"variety": args.variety, "weights": f"{lo}..{hi}"}, result, trace


def cmd_jacobian(args: argparse.Namespace) -> Reply:
    if args.d < 2:
        raise UsageError("curve degree must be at least 2 (degree 1 has no equations)")
    if (args.weight is None) == (not args.dump_matrix):
        raise UsageError("choose exactly one of --weight <m> or --dump-matrix")
    partials = comb(args.d, 2) * (args.d + 1)  # priced as in README's cost table
    if args.weight is None:
        check_cost(partials)
    else:
        euler = (args.d + 1) * max(1, p1.h_dim(1, args.d * args.weight))
        check_cost(euler + partials * max(1, p1.h_dim(0, args.d * (args.weight + 1))) if args.trace else euler)
    if args.dump_matrix:
        matrix = jacobian_matrix(args.d)
        result = {
            "rows": matrix.nrows,
            "cols": matrix.ncols,
            "entries": matrix.to_strings(),
        }
        trace = ["one row per quadric generator in lexicographic pair order, one column per variable"] if args.trace else None
        return {"d": args.d}, result, trace
    route = t1_via_normal(args.d, args.weight)
    result = {
        "source_h0": route.restricted_tangent_h0,
        "target_h0": route.normal_h0,
        "t1": route.value,
        "exact": route.exact,
    }
    trace = None
    if args.trace:
        graded = graded_jacobian_map(args.d, args.weight)
        trace = [
            f"normal route: h^0(N({args.weight})) = {route.normal_h0}, restricted tangent h^0 = "
            f"{route.restricted_tangent_h0}, curve tangent h^0 = {route.curve_tangent_h0}",
            f"graded route: source {graded.source_dim}, target {graded.target_dim}, rank {graded.rank()}",
        ]
    return {"d": args.d, "weight": args.weight}, result, trace


def cmd_cech(args: argparse.Namespace) -> Reply:
    if args.i not in (0, 1):
        raise UsageError("level must be 0 or 1")
    mons = p1.basis(args.i, args.k)
    result = {"dim": p1.h_dim(args.i, args.k), "basis": [[a, b] for a, b in mons]}
    trace = ["level-0 region: both exponents nonnegative; level-1 region: both at most -1"] if args.trace else None
    return {"i": args.i, "k": args.k}, result, trace


def cmd_atiyah(args: argparse.Namespace) -> Reply:
    if args.n < 2:
        raise UsageError("need n >= 2 for a triple overlap")
    check_cost(comb(args.n + 1, 3) * 3 * args.n**2)
    from .atiyah import atiyah_cocycle_check  # the one command that needs it

    report = atiyah_cocycle_check(args.n)
    result = {
        "n": report.n,
        "triples_checked": len(report.triples),
        "multiplicative": report.multiplicative_ok,
        "additive": report.additive_ok,
        "passed": report.passed,
    }
    trace = (
        ["transition data: coordinate ratios; equality decided by cross-multiplication"]
        if args.trace
        else None
    )
    return {"n": args.n}, result, trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedef",
        description="exact graded deformation counts for affine cones over polarized varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", action="store_true", help="include a computation trace (or set CONEDEF_TRACE=1)")

    p_t1 = sub.add_parser("t1", parents=[traced], help="graded first/second order deformation table")
    p_t1.add_argument("variety", help=" | ".join(_DESCRIPTORS))
    p_t1.add_argument("--weights", default="-6..3", help="inclusive weight window lo..hi (default -6..3)")
    p_t1.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_t1.add_argument("--format", choices=("json", "csv"), default="json")
    p_t1.set_defaults(func=cmd_t1)

    p_rig = sub.add_parser("rigidity", parents=[traced], help="rigidity verdict with witness or replay certificate")
    p_rig.add_argument("variety")
    p_rig.add_argument("--weights", default="-6..3")
    p_rig.set_defaults(func=cmd_rigidity)

    p_jac = sub.add_parser("jacobian", parents=[traced], help="determinantal presentation data for the degree-d curve cone")
    p_jac.add_argument("--d", type=int, required=True)
    p_jac.add_argument("--weight", type=int, default=None, help="weight for the two-route count")
    p_jac.add_argument("--dump-matrix", action="store_true", help="print the generator Jacobian entry by entry")
    p_jac.set_defaults(func=cmd_jacobian)

    p_cech = sub.add_parser("cech", parents=[traced], help="monomial basis of line cohomology on the line")
    p_cech.add_argument("--i", type=int, required=True, help="cohomology level (0 or 1)")
    p_cech.add_argument("--k", type=int, required=True, help="degree")
    p_cech.set_defaults(func=cmd_cech)

    p_ati = sub.add_parser("atiyah", parents=[traced], help="cocycle verification for the degree-one bundle on n-space")
    p_ati.add_argument("--n", type=int, required=True)
    p_ati.set_defaults(func=cmd_atiyah)

    return parser


def _merge_weight_values(argv: list[str]) -> list[str]:
    """Fold ``--weights -3..1`` into ``--weights=-3..1`` so argparse does
    not mistake a window starting with a negative weight for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--weights":
            out[-1] = f"--weights={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            return _answer(argv)
        finally:
            sys.stdout.flush()  # a closed stdout fails here at the latest, not at interpreter exit
    except BrokenPipeError:
        # the reader went away (``conedef ... | head``): as the Python docs'
        # note on SIGPIPE advises, point stdout at devnull so that the
        # interpreter's own final flush cannot fail again, and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


def _answer(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_weight_values(list(argv)))
    args.trace = args.trace or os.environ.get("CONEDEF_TRACE") == "1"
    try:
        if args.trace and getattr(args, "format", "json") == "csv":
            raise UsageError("--format csv cannot carry a trace (drop --trace and CONEDEF_TRACE, or use --format json)")
        reply = args.func(args)
    except (UsageError, OverBudgetError) as exc:
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
        if trace is not None:
            env["trace"] = trace
        _write_envelope(env, sys.stdout)
    return 0


def _write_envelope(env: dict, out: TextIO) -> None:
    """``json.dump(env, out, indent=2)`` and a newline, with the encoder's
    small chunks (about 12 characters each) joined :data:`WRITE_BATCH` to
    a write: a long certificate is never one string, and an unbuffered
    stdout (``PYTHONUNBUFFERED=1``) is not asked for one system call per
    chunk."""
    chunks = chain(json.JSONEncoder(indent=2).iterencode(env), ("\n",))
    while batch := "".join(islice(chunks, WRITE_BATCH)):
        out.write(batch)


if __name__ == "__main__":
    sys.exit(main())
