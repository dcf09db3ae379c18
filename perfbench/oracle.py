"""Independent expectations for every benchmark command.

Nothing here imports conedef or reads an earlier output of the engine:
each expected value is a closed form from the geometry.

* Plane (Bott): h^1(T(k)) = [k = -3]; h^2(T(k)) = (j+1)(j-1) for
  j = -k-3 >= 2, else 0.
* Rational normal curve of degree d: weight m gives max(0, -3 - d*m).
* Product of two lines, bidegree (a, b): Kunneth on T = O(2,0) + O(0,2).
* Graded Jacobian of the degree-d curve in weight m: source
  (d+1) * max(0, d(m+1)+1), target C(d,2) * max(0, d(m+2)+1), rank
  (d+1) * max(0, d(m+1)+1) - 2 * max(0, dm+2).
* Normal route: h^0(N(m)) = (d-1) * max(0, dm+d+3); the restricted
  tangent h^0 from the restricted Euler sequence, whose level-1 map is
  zero for m = -1 and injective for m <= -2; curve tangent max(0, dm+3).
* Blown-up planes: K^2 = 9 - r and a certificate whose verdict and counts
  agree with its own steps.
* Refused requests: exit 2 (usage) or 3 (out of scope) with nothing on
  stdout.

:func:`check` returns a list of problems; an empty list means the output
is right.
"""

from __future__ import annotations

import json
from math import comb

from .workloads import Command


def h0_line(k: int) -> int:
    return max(0, k + 1)


def h1_line(k: int) -> int:
    return max(0, -k - 1)


def plane_h1_tangent(k: int) -> int:
    return 1 if k == -3 else 0


def plane_h2_tangent(k: int) -> int:
    j = -k - 3
    return (j + 1) * (j - 1) if j >= 2 else 0


def rnc_t1(d: int, m: int) -> int:
    return max(0, -3 - d * m)


def product_t(a: int, b: int, m: int, order: int) -> int:
    """h^order of T(m) on a product of two lines polarized by (a, b)."""

    def h(x: int, y: int) -> int:
        if order == 1:
            return h0_line(x) * h1_line(y) + h1_line(x) * h0_line(y)
        return h1_line(x) * h1_line(y)

    return h(2 + m * a, m * b) + h(m * a, 2 + m * b)


def graded_jacobian(d: int, m: int) -> tuple[int, int, int]:
    """(source, target, rank) of the weight-m graded Jacobian."""
    source = (d + 1) * max(0, d * (m + 1) + 1)
    target = comb(d, 2) * max(0, d * (m + 2) + 1)
    return source, target, source - 2 * max(0, d * m + 2)


def normal_route(d: int, m: int) -> dict:
    """The jacobian command's result block for (d, m)."""
    k = d * m
    kernel = d - 1 if m == -1 else 0  # level-1 map: zero at m = -1, injective below
    source = (d + 1) * h0_line(k + d) - h0_line(k) + kernel
    target = (d - 1) * h0_line(k + d + 2)
    cokernel = (d + 1) * h1_line(k + d) - h1_line(k) + kernel
    return {"source_h0": source, "target_h0": target, "t1": target - source + h0_line(k + 2), "exact": cokernel == 0}


def table_value(variety: str, m: int, order: int) -> int:
    kind, *nums = variety.split(":")
    args = [int(x) for x in nums]
    if kind == "veronese" and args[0] == 2:
        k = args[1] * m
        return plane_h1_tangent(k) if order == 1 else plane_h2_tangent(k)
    if kind == "rnc":
        return rnc_t1(args[0], m) if order == 1 else 0
    if kind == "segre":
        return product_t(args[0], args[0], m, order)
    if kind == "product":
        return product_t(args[0], args[1], m, order)
    raise ValueError(f"no oracle for {variety}")


def cech_basis(i: int, k: int) -> list[list[int]]:
    """Laurent monomials of level i in degree k, descending first exponent."""
    firsts = range(k, -1, -1) if i == 0 else range(-1, k, -1)
    return [[a, k - a] for a in firsts]


def _expect_equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_t1(p: dict, result: dict, problems: list[str]) -> None:
    lo, hi, order = p["lo"], p["hi"], p["order"]
    table = {str(m): table_value(p["variety"], m, order) for m in range(lo, hi + 1)}
    _expect_equal(problems, "order", result.get("order"), order)
    _expect_equal(problems, "window", result.get("window"), f"{lo}..{hi}")
    _expect_equal(problems, "table", result.get("table"), table)
    _expect_equal(problems, "nonzero_weights", result.get("nonzero_weights"), [int(m) for m, v in table.items() if v])


def _check_delpezzo(r: int, result: dict, problems: list[str]) -> None:
    _expect_equal(problems, "rigid", result.get("rigid"), None)
    cert = result.get("certificate") or {}
    steps = cert.get("steps") or []
    if not steps:
        problems.append("certificate has no steps")
        return
    _expect_equal(problems, "K^2 step", (steps[0].get("claimed"), steps[0].get("computed")), (9 - r, 9 - r))
    counts = {"VERIFIED": 0, "ASSERTED": 0, "CONTRADICTED": 0}
    for step in steps:
        status = step.get("status")
        counts[status] = counts.get(status, 0) + 1
        if status == "VERIFIED" and step.get("claimed") != step.get("computed"):
            problems.append(f"step {step.get('term')!r} is VERIFIED with claimed != computed")
        if status == "CONTRADICTED" and step.get("claimed") == step.get("computed"):
            problems.append(f"step {step.get('term')!r} is CONTRADICTED with claimed == computed")
    _expect_equal(problems, "certificate counts", cert.get("counts"), counts)
    if counts["CONTRADICTED"]:
        verdict = "FAIL"
    elif counts["ASSERTED"]:
        verdict = "PASS_WITH_ASSERTIONS"
    else:
        verdict = "PASS"
    _expect_equal(problems, "certificate verdict", cert.get("verdict"), verdict)


def _check_rigidity(p: dict, result: dict, problems: list[str]) -> None:
    lo, hi, variety = p["lo"], p["hi"], p["variety"]
    _expect_equal(problems, "window", result.get("window"), f"{lo}..{hi}")
    if variety.startswith("delpezzo:"):
        _check_delpezzo(int(variety.split(":")[1]), result, problems)
        return
    witness = None
    for m in range(hi, lo - 1, -1):  # the nonzero weight nearest zero
        dim = table_value(variety, m, 1)
        if dim:
            witness = {"weight": m, "dim": dim}
            break
    _expect_equal(problems, "rigid", result.get("rigid"), witness is None)
    _expect_equal(problems, "witness", result.get("witness"), witness)


def _check_jacobian(p: dict, env: dict, problems: list[str]) -> None:
    d, m = p["d"], p["m"]
    _expect_equal(problems, "result", env.get("result"), normal_route(d, m))
    if p["trace"]:
        source, target, rank = graded_jacobian(d, m)
        line = f"graded route: source {source}, target {target}, rank {rank}"
        if line not in (env.get("trace") or []):
            problems.append(f"trace lacks {line!r}")


def _check_cech(p: dict, result: dict, problems: list[str]) -> None:
    i, k = p["i"], p["k"]
    _expect_equal(problems, "dim", result.get("dim"), h0_line(k) if i == 0 else h1_line(k))
    _expect_equal(problems, "basis", result.get("basis"), cech_basis(i, k))


def _check_atiyah(p: dict, result: dict, problems: list[str]) -> None:
    want = {"n": p["n"], "triples_checked": comb(p["n"] + 1, 3), "multiplicative": True, "additive": True, "passed": True}
    _expect_equal(problems, "result", result, want)


EXIT_CODES = {"usage": 2, "scope": 3}


def check(cmd: Command, returncode: int, stdout: str) -> list[str]:
    """Problems with one command's exit code and stdout."""
    want_rc = EXIT_CODES.get(cmd.kind, 0)
    if returncode != want_rc:
        return [f"exit code {returncode}, expected {want_rc}"]
    if want_rc:
        return [] if stdout == "" else ["refused request wrote to stdout"]
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems: list[str] = []
    _expect_equal(problems, "command", env.get("command"), cmd.argv[0])
    result = env.get("result") or {}
    if cmd.kind == "t1":
        _check_t1(cmd.params, result, problems)
    elif cmd.kind == "rigidity":
        _check_rigidity(cmd.params, result, problems)
    elif cmd.kind == "jacobian":
        _check_jacobian(cmd.params, env, problems)
    elif cmd.kind == "cech":
        _check_cech(cmd.params, result, problems)
    elif cmd.kind == "atiyah":
        _check_atiyah(cmd.params, result, problems)
    else:
        problems.append(f"no oracle for kind {cmd.kind!r}")
    return problems
