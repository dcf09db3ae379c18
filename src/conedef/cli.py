"""Command line front end.

Five subcommands, one JSON envelope.  Every envelope carries the same four
top-level keys in the same order (schema_version, command, inputs, result,
plus an optional trace), integers only, no timestamps, so repeated runs of
the same command are byte-identical.  The envelope schema ships with the
package under ``conedef/schemas/envelope.schema.json``.

Exit codes: 0 success, 2 usage error (unparseable arguments, empty weight
window, curve degree below 2), 3 for well-formed requests the engine
refuses to answer with bare numbers (certificate-only geometries,
second-order counts outside the curve/surface catalog), 4 when two routes
to the same number disagreed at run time (an internal error, reported as a
one-line ``internal error: ...`` on stderr instead of a number).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from . import cones, p1
from .atiyah import atiyah_cocycle_check
from .cones import InternalConsistencyError, OutOfScopeError, Variety
from .presentation import jacobian_matrix, t1_via_normal

SCHEMA_VERSION = "1"

# One usage form per catalog entry, e.g. "veronese:<n>:<d>".
_DESCRIPTORS = [
    ":".join([name, *(f"<{f.name}>" for f in fields(cls))]) for name, cls in cones.CATALOG.items()
]


class UsageError(Exception):
    """Bad command line input (maps to exit code 2)."""


def parse_variety(descriptor: str) -> Variety:
    name, *values = descriptor.split(":")
    cls = cones.CATALOG.get(name)
    if cls is not None and len(values) == len(fields(cls)):
        try:
            return cls(*[int(x) for x in values])
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


def _trace_enabled(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", False)) or os.environ.get("CONEDEF_TRACE") == "1"


def _envelope(command: str, inputs: dict, result: dict, trace: Optional[list[str]]) -> dict:
    env = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    if trace is not None:
        env["trace"] = trace
    return env


def _emit(env: dict) -> None:
    sys.stdout.write(json.dumps(env, indent=2) + "\n")


def cmd_t1(args: argparse.Namespace) -> int:
    variety = parse_variety(args.variety)
    lo, hi = parse_window(args.weights)
    table = (
        cones.t1_table(variety, lo, hi)
        if args.order == 1
        else cones.t2_table(variety, lo, hi)
    )
    if args.format == "csv":
        sys.stdout.write("weight,dimension\n")
        for m in range(lo, hi + 1):
            sys.stdout.write(f"{m},{table.entries[m]}\n")
        return 0
    result = {
        "order": args.order,
        "window": f"{lo}..{hi}",
        "table": {str(m): table.entries[m] for m in range(lo, hi + 1)},
        "nonzero_weights": table.nonzero_weights(),
    }
    trace = None
    if _trace_enabled(args):
        trace = [
            f"order {args.order}: weight-m piece is level-{args.order} tangent cohomology "
            "twisted by the m-th polarization power",
            f"rule: {variety.rule(args.order)}",
        ]
        for m in range(lo, hi + 1):
            trace.append(f"weight {m}: dimension {table.entries[m]}")
    _emit(_envelope("t1", {"variety": args.variety, "weights": f"{lo}..{hi}", "order": args.order}, result, trace))
    return 0


def cmd_rigidity(args: argparse.Namespace) -> int:
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
    trace = None
    if _trace_enabled(args):
        trace = [f"rule: {variety.rule(1)}"]
    _emit(_envelope("rigidity", {"variety": args.variety, "weights": f"{lo}..{hi}"}, result, trace))
    return 0


def cmd_jacobian(args: argparse.Namespace) -> int:
    if args.d < 2:
        raise UsageError("curve degree must be at least 2 (degree 1 has no equations)")
    if (args.weight is None) == (not args.dump_matrix):
        raise UsageError("choose exactly one of --weight <m> or --dump-matrix")
    inputs: dict = {"d": args.d}
    if args.dump_matrix:
        matrix = jacobian_matrix(args.d)
        result = {
            "rows": matrix.nrows,
            "cols": matrix.ncols,
            "entries": matrix.to_strings(),
        }
        trace = ["one row per quadric generator in lexicographic pair order, one column per variable"] if _trace_enabled(args) else None
        _emit(_envelope("jacobian", inputs, result, trace))
        return 0
    inputs["weight"] = args.weight
    route = t1_via_normal(args.d, args.weight)
    result = {
        "source_h0": route.restricted_tangent_h0,
        "target_h0": route.normal_h0,
        "t1": route.value,
        "exact": route.exact,
    }
    trace = None
    if _trace_enabled(args):
        from .presentation import graded_jacobian_map

        graded = graded_jacobian_map(args.d, args.weight)
        trace = [
            f"normal route: h^0(N({args.weight})) = {route.normal_h0}, restricted tangent h^0 = "
            f"{route.restricted_tangent_h0}, curve tangent h^0 = {route.curve_tangent_h0}",
            f"graded route: source {graded.source_dim}, target {graded.target_dim}, rank {graded.rank()}",
        ]
    _emit(_envelope("jacobian", inputs, result, trace))
    return 0


def cmd_cech(args: argparse.Namespace) -> int:
    if args.i not in (0, 1):
        raise UsageError("level must be 0 or 1")
    mons = p1.basis(args.i, args.k)
    result = {"dim": p1.h_dim(args.i, args.k), "basis": [[a, b] for a, b in mons]}
    trace = ["level-0 region: both exponents nonnegative; level-1 region: both at most -1"] if _trace_enabled(args) else None
    _emit(_envelope("cech", {"i": args.i, "k": args.k}, result, trace))
    return 0


def cmd_atiyah(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise UsageError("need n >= 2 for a triple overlap")
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
        if _trace_enabled(args)
        else None
    )
    _emit(_envelope("atiyah", {"n": args.n}, result, trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conedef",
        description="exact graded deformation counts for affine cones over polarized varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_t1 = sub.add_parser("t1", help="graded first/second order deformation table")
    p_t1.add_argument("variety", help=" | ".join(_DESCRIPTORS))
    p_t1.add_argument("--weights", default="-6..3", help="inclusive weight window lo..hi (default -6..3)")
    p_t1.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_t1.add_argument("--format", choices=("json", "csv"), default="json")
    p_t1.add_argument("--trace", action="store_true", help="include a computation trace (or set CONEDEF_TRACE=1)")
    p_t1.set_defaults(func=cmd_t1)

    p_rig = sub.add_parser("rigidity", help="rigidity verdict with witness or replay certificate")
    p_rig.add_argument("variety")
    p_rig.add_argument("--weights", default="-6..3")
    p_rig.add_argument("--trace", action="store_true")
    p_rig.set_defaults(func=cmd_rigidity)

    p_jac = sub.add_parser("jacobian", help="determinantal presentation data for the degree-d curve cone")
    p_jac.add_argument("--d", type=int, required=True)
    p_jac.add_argument("--weight", type=int, default=None, help="weight for the two-route count")
    p_jac.add_argument("--dump-matrix", action="store_true", help="print the generator Jacobian entry by entry")
    p_jac.add_argument("--trace", action="store_true")
    p_jac.set_defaults(func=cmd_jacobian)

    p_cech = sub.add_parser("cech", help="monomial basis of line cohomology on the line")
    p_cech.add_argument("--i", type=int, required=True, help="cohomology level (0 or 1)")
    p_cech.add_argument("--k", type=int, required=True, help="degree")
    p_cech.add_argument("--trace", action="store_true")
    p_cech.set_defaults(func=cmd_cech)

    p_ati = sub.add_parser("atiyah", help="cocycle verification for the degree-one bundle on n-space")
    p_ati.add_argument("--n", type=int, required=True)
    p_ati.add_argument("--trace", action="store_true")
    p_ati.set_defaults(func=cmd_atiyah)

    return parser


def _merge_weight_values(argv: list[str]) -> list[str]:
    """Fold ``--weights -3..1`` into ``--weights=-3..1`` so argparse does
    not mistake a window starting with a negative weight for an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--weights" and i + 1 < len(argv):
            out.append(f"--weights={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_weight_values(list(argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OutOfScopeError as exc:
        sys.stderr.write(f"out of scope: {exc}\n")
        return 3
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
