"""Acceptance gate: the ten contract criteria, one pass/fail line each.

Run under pytest (each criterion is a test) or directly::

    python3 tests/test_acceptance.py

Every criterion is implemented with zero numeric tolerance.  Criteria 5
and 6 check the twisted-tangent count h^1(T_Y (x) L^m) that ``t1_weight``
computes against closed forms recomputed in ``tests/oracles.py``, which
imports nothing from the package: Bott's formula on the plane
(criterion 5) and Kunneth on the product of two lines (criterion 6).
Failure details show the computed and the expected values side by side.
"""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources

import jsonschema

from conedef.atiyah import atiyah_cocycle_check
from conedef.cones import (
    RationalNormalCurve,
    SegreQuadric,
    VeroneseSpace,
    corollary_flags,
    rigidity_verdict,
    t1_weight,
)
from conedef.delpezzo import delpezzo_certificate
from conedef.linalg import RationalMatrix
from conedef.p1 import basis, euler_restricted_h0, h_dim
from conedef.polynomials import Polynomial
from conedef.presentation import (
    build_presentation,
    euler_derivation_vector,
    graded_jacobian_map,
    jacobian_matrix,
    normal_bundle_h0,
    normal_form,
    t1_via_normal,
)
from conedef.projective import hq_pn_line

from oracles import bidegree_h1_enumerated, plane_tangent_h1_bott


Criterion = tuple[bool, str]


def crit_1_rnc_closed_form_table() -> Criterion:
    """Curve-cone weights match the closed form and the monomial count on
    the full d in [1,12], m in [-6,3] grid."""
    bad = []
    for d in range(1, 13):
        for m in range(-6, 4):
            value = t1_weight(RationalNormalCurve(d), m)
            closed = max(0, -3 - d * m)
            laurent = len(basis(1, 2 + d * m))
            if not (value == closed == laurent):
                bad.append((d, m, value, closed, laurent))
    if bad:
        return False, f"mismatches (d, m, value, closed, count): {bad[:5]}"
    return True, "120 grid points, three routes agree exactly"


def crit_2_flagship_counts() -> Criterion:
    """Degree 4, weight -1: section counts 8 and 9, difference-corrected
    count 1, exactness certified."""
    src = euler_restricted_h0(4, -1)
    dst = normal_bundle_h0(4, -1)
    route = t1_via_normal(4, -1)
    ok = src == 8 and dst == 9 and route.value == 1 and route.exact
    return ok, f"restricted tangent h0={src} (want 8), normal h0={dst} (want 9), count={route.value} (want 1), exact={route.exact}"


def crit_3_jacobian_golden() -> Criterion:
    """The degree-4 generator Jacobian equals the canonical 6x5 matrix
    entry for entry under the canonical term order."""
    golden = [
        ["z2", "-2*z1", "z0", "0", "0"],
        ["z3", "-z2", "-z1", "z0", "0"],
        ["z4", "-z3", "0", "-z1", "z0"],
        ["0", "z3", "-2*z2", "z1", "0"],
        ["0", "z4", "-z3", "-z2", "z1"],
        ["0", "0", "z4", "-2*z3", "z2"],
    ]
    names = [f"z{t}" for t in range(5)]
    got = [[p.to_string(names) for p in row] for row in jacobian_matrix(4)]
    if got != golden:
        diffs = [
            (i, j, got[i][j], golden[i][j])
            for i in range(6)
            for j in range(5)
            if got[i][j] != golden[i][j]
        ]
        return False, f"entry mismatches (row, col, got, want): {diffs}"
    return True, "all 30 entries match"


def crit_4_weight_minus_one_family() -> Criterion:
    """Normal-bundle route gives max(0, d-3) at weight -1 for d in [2,10],
    with a valid exactness flag each time."""
    bad = []
    for d in range(2, 11):
        route = t1_via_normal(d, -1)
        if route.value != max(0, d - 3) or not route.exact:
            bad.append((d, route.value, route.exact))
    if bad:
        return False, f"failures (d, value, exact): {bad}"
    return True, "d = 2..10 all agree with max(0, d-3), all exact"


def crit_5_veronese_plane_threshold() -> Criterion:
    """The plane embedded by degree-d forms, weight -1, d in [1,8]: the
    count is h^1(T(-d)) on the plane, which Bott's formula (the tangent
    sheaf is Omega^1(3)) puts at 1 for d = 3 and 0 for every other d."""
    rows = {d: (t1_weight(VeroneseSpace(2, d), -1), plane_tangent_h1_bott(-d)) for d in range(1, 9)}
    bad = sorted(d for d, (got, want) in rows.items() if got != want)
    if bad or rows[3][0] != 1:
        return False, (
            f"(computed, Bott) at weight -1 per d: {rows}; mismatch at d in {bad}, "
            f"value at d = 3 is {rows[3][0]} (want 1)"
        )
    return True, f"weight -1 values {({d: got for d, (got, _) in rows.items()})} equal Bott's formula"


def crit_6_segre_rigidity_family() -> Criterion:
    """The product-of-lines cone in bidegree (d, d), d in [1,6], over the
    window -6..3: by Kunneth the count h^1(O(2+md, md)) + h^1(O(md, 2+md))
    is 2 when m*d = -2 and 0 otherwise, so the cone is rigid iff no weight
    in the window has m*d = -2, and the witness is the nonzero weight
    nearest zero with its dimension.  At the d = 1 and d = 2 witnesses the
    polarization carries h^2 = 1, the class that separates this count from
    the cone's literal deformation space."""
    m_lo, m_hi = -6, 3
    problems = []
    seen = {}
    for d in range(1, 7):
        expected = {
            m: bidegree_h1_enumerated(2 + m * d, m * d) + bidegree_h1_enumerated(m * d, 2 + m * d)
            for m in range(m_lo, m_hi + 1)
        }
        nonzero = [m for m, dim in expected.items() if dim != 0]
        want_witness = None
        if nonzero:
            m_star = min(nonzero, key=lambda m: (abs(m), -m))
            want_witness = (m_star, expected[m_star])
        verdict = rigidity_verdict(SegreQuadric(d), m_lo, m_hi)
        seen[d] = (verdict.rigid, verdict.witness)
        if (verdict.rigid, verdict.witness) != (not nonzero, want_witness):
            problems.append(
                f"d={d}: computed rigid={verdict.rigid}, witness={verdict.witness}; "
                f"Kunneth expects rigid={not nonzero}, witness={want_witness}"
            )
        if d in (1, 2):
            flags = corollary_flags(SegreQuadric(d), want_witness[0])
            if flags.clean or flags.h2_polarization != 1:
                problems.append(
                    f"d={d}, m={want_witness[0]}: polarization (h1, h2) = "
                    f"({flags.h1_polarization}, {flags.h2_polarization}), want h2 = 1"
                )
    if problems:
        return False, "; ".join(problems)
    return True, (
        f"(rigid, witness) per d {seen} match Kunneth; "
        "h2 of the polarization is 1 at the d = 1 and d = 2 witnesses"
    )


def crit_7_property_suite() -> Criterion:
    """Duality and exactness properties over the contracted ranges."""
    failures = []
    # (a) line: duality of dimensions and the index formula, |k| <= 50
    for k in range(-50, 51):
        if h_dim(0, k) != h_dim(1, -2 - k):
            failures.append(f"line duality at k={k}")
        if h_dim(0, k) - h_dim(1, k) != k + 1:
            failures.append(f"line index at k={k}")
    # (b) n-space duality for n <= 4, |k| <= 15
    for n in range(1, 5):
        for k in range(-15, 16):
            for q in range(n + 1):
                if hq_pn_line(n, k, q) != hq_pn_line(n, -n - 1 - k, n - q):
                    failures.append(f"space duality at n={n}, k={k}, q={q}")
    # (c) the scaling derivation lies in the weight-0 graded kernel, d in [2,8]
    for d in range(2, 9):
        g = graded_jacobian_map(d, 0)
        vec = euler_derivation_vector(d)
        col = RationalMatrix.from_rows([[x] for x in vec])
        if not (g.matrix @ col).is_zero():
            failures.append(f"scaling derivation escapes the kernel at d={d}")
    # (d) the substitution kills every generator, d in [2,8]
    for d in range(2, 9):
        for gen in build_presentation(d):
            if not normal_form(d, gen).is_zero():
                failures.append(f"generator survives substitution at d={d}")
    if failures:
        return False, f"{len(failures)} property failures, first: {failures[0]}"
    return True, "duality, index, kernel membership and substitution checks all hold"


def crit_8_cocycle() -> Criterion:
    """The transition cocycle verifies on 2-space and 3-space."""
    r2 = atiyah_cocycle_check(2)
    r3 = atiyah_cocycle_check(3)
    ok = r2.passed and r3.passed and len(r2.triples) == 1 and len(r3.triples) == 4
    return ok, f"n=2 passed={r2.passed} ({len(r2.triples)} triple), n=3 passed={r3.passed} ({len(r3.triples)} triples)"


def crit_9_certificate_replay() -> Criterion:
    """Six-point certificate: nonnegative-twist line steps verify at
    m = 0, 1, 2, at least one contradiction at m = 3, deterministic."""
    cert = delpezzo_certificate(6)
    problems = []
    for m in (0, 1, 2):
        steps = [
            s
            for s in cert.steps
            if s.term == f"[m={m}] first cohomology of the line bundle of degree 1 - m"
        ]
        if len(steps) != 1 or steps[0].status != "VERIFIED":
            problems.append(f"m={m} line step not uniquely VERIFIED")
    m3 = [
        s
        for s in cert.steps
        if s.term.startswith("[m=3]") and s.status == "CONTRADICTED"
    ]
    if not m3:
        problems.append("no CONTRADICTED step at m=3")
    if delpezzo_certificate(6).to_dict() != cert.to_dict():
        problems.append("certificate not deterministic")
    if problems:
        return False, "; ".join(problems)
    counts = cert.counts()
    return True, (
        f"m=0,1,2 VERIFIED; m=3 CONTRADICTED ({m3[0].computed} != 0); "
        f"step counts {counts}; rebuild identical"
    )


GOLDEN_COMMANDS = [
    ["t1", "rnc:4", "--weights", "-3..1"],
    ["t1", "segre:2", "--weights", "-4..1"],
    ["t1", "veronese:2:3", "--weights", "-2..0"],
    ["rigidity", "segre:1"],
    ["rigidity", "rnc:2"],
    ["rigidity", "delpezzo:6"],
    ["jacobian", "--d", "4", "--weight", "-1"],
    ["jacobian", "--d", "4", "--dump-matrix"],
    ["cech", "--i", "1", "--k", "-4"],
    ["atiyah", "--n", "2"],
]


def crit_10_cli_determinism() -> Criterion:
    """Each golden command is byte-identical across three runs and every
    envelope validates against the shipped schema."""
    schema = json.loads(
        resources.files("conedef").joinpath("schemas/envelope.schema.json").read_text()
    )
    problems = []
    for cmd in GOLDEN_COMMANDS:
        outputs = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-m", "conedef", *cmd],
                capture_output=True,
            )
            if proc.returncode != 0:
                problems.append(f"{' '.join(cmd)}: exit {proc.returncode}")
                break
            outputs.append(proc.stdout)
        else:
            if len(set(outputs)) != 1:
                problems.append(f"{' '.join(cmd)}: outputs differ across runs")
                continue
            try:
                jsonschema.validate(json.loads(outputs[0]), schema)
            except jsonschema.ValidationError as exc:
                problems.append(f"{' '.join(cmd)}: schema violation {exc.message}")
    if problems:
        return False, "; ".join(problems)
    return True, f"{len(GOLDEN_COMMANDS)} commands x 3 runs byte-identical, all schema-valid"


CRITERIA = [
    ("curve-cone closed-form table", crit_1_rnc_closed_form_table),
    ("flagship degree-4 weight -1 counts", crit_2_flagship_counts),
    ("degree-4 Jacobian golden matrix", crit_3_jacobian_golden),
    ("weight -1 family via the normal bundle", crit_4_weight_minus_one_family),
    ("plane embedding threshold", crit_5_veronese_plane_threshold),
    ("product-of-lines rigidity family", crit_6_segre_rigidity_family),
    ("duality and exactness property suite", crit_7_property_suite),
    ("transition cocycle verification", crit_8_cocycle),
    ("six-point certificate replay", crit_9_certificate_replay),
    ("CLI determinism and schema", crit_10_cli_determinism),
]


def _report(index: int) -> Criterion:
    label, fn = CRITERIA[index - 1]
    ok, detail = fn()
    print(f"Criterion {index} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok, detail


def test_criterion_01_rnc_closed_form_table():
    ok, detail = _report(1)
    assert ok, detail


def test_criterion_02_flagship_counts():
    ok, detail = _report(2)
    assert ok, detail


def test_criterion_03_jacobian_golden():
    ok, detail = _report(3)
    assert ok, detail


def test_criterion_04_weight_minus_one_family():
    ok, detail = _report(4)
    assert ok, detail


def test_criterion_05_veronese_plane_threshold():
    ok, detail = _report(5)
    assert ok, detail


def test_criterion_06_segre_rigidity_family():
    ok, detail = _report(6)
    assert ok, detail


def test_criterion_07_property_suite():
    ok, detail = _report(7)
    assert ok, detail


def test_criterion_08_cocycle():
    ok, detail = _report(8)
    assert ok, detail


def test_criterion_09_certificate_replay():
    ok, detail = _report(9)
    assert ok, detail


def test_criterion_10_cli_determinism():
    ok, detail = _report(10)
    assert ok, detail


def main() -> int:
    all_ok = True
    for i in range(1, len(CRITERIA) + 1):
        ok, _ = _report(i)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
