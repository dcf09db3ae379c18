"""Tests of the benchmark itself: seeded inputs, the oracle against the
engine on a small grid, and the tracer's arithmetic and patching."""

from __future__ import annotations

import contextlib
import io

import pytest

from conedef import cli, cones, p1, presentation, projective
from conedef.cones import ProductPolarization, RationalNormalCurve, SegreQuadric
from perfbench import oracle, tracer, workloads
from perfbench.run import call_main, scaled, tail


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# ---- workloads -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_commands(name):
    first = [c.argv for c in workloads.generate(name, 7)]
    assert first == [c.argv for c in workloads.generate(name, 7)]
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_vary_the_inputs(name):
    lists = {tuple(c.argv for c in workloads.generate(name, seed)) for seed in range(5)}
    assert len(lists) > 1


def test_every_seed_keeps_the_cost_slots():
    for seed in range(5):
        plane = workloads.generate("plane-chase", seed)
        assert [c.params["lo"] for c in plane] == [lo for _, _, lo in workloads.PLANE_SLOTS]
        curve = workloads.generate("curve-jacobian", seed)
        assert all((c.params["d"], c.params["m"]) in slot for c, slot in zip(curve, workloads.JACOBIAN_SLOTS))


# ---- oracle against the engine -----------------------------------------------


def test_bott_formula_matches_plane_chase():
    for k in range(-15, 7):
        assert projective.h1_tangent_pn_twist(2, k) == oracle.plane_h1_tangent(k), k
        assert projective.h2_tangent_p2_twist(k) == oracle.plane_h2_tangent(k), k


def test_graded_jacobian_formula_matches_engine():
    for d in range(2, 6):
        for m in range(-2, 2):
            graded = presentation.graded_jacobian_map(d, m)
            assert (graded.source_dim, graded.target_dim, graded.rank()) == oracle.graded_jacobian(d, m), (d, m)


def test_graded_jacobian_formula_quoted_values():
    assert oracle.graded_jacobian(8, 1) == (153, 700, 133)
    assert oracle.graded_jacobian(12, 1)[2] == 297


def test_normal_route_matches_engine():
    for d in range(2, 9):
        for m in range(-3, 3):
            route = presentation.t1_via_normal(d, m)
            got = {"source_h0": route.restricted_tangent_h0, "target_h0": route.normal_h0, "t1": route.value, "exact": route.exact}
            assert got == oracle.normal_route(d, m), (d, m)


def test_line_and_product_formulas_match_engine():
    for m in range(-4, 3):
        for d in range(1, 7):
            assert cones.t1_weight(RationalNormalCurve(d), m) == oracle.rnc_t1(d, m)
        for a in range(1, 4):
            assert cones.t1_weight(SegreQuadric(a), m) == oracle.product_t(a, a, m, 1)
            for b in range(1, 4):
                v = ProductPolarization(a, b)
                assert cones.t1_weight(v, m) == oracle.product_t(a, b, m, 1)
                assert cones.t2_weight(v, m) == oracle.product_t(a, b, m, 2)


def test_cech_basis_matches_engine():
    for i in (0, 1):
        for k in range(-8, 9):
            assert [list(x) for x in p1.basis(i, k)] == oracle.cech_basis(i, k)


@pytest.mark.parametrize("seed", range(3))
def test_catalog_sweep_checks_clean(seed):
    for cmd in workloads.generate("catalog-sweep", seed):
        rc, out = _call(cmd.argv)
        assert oracle.check(cmd, rc, out) == [], cmd.text()


def test_oracle_flags_wrong_outputs():
    cmd = workloads.Command(("cech", "--i", "0", "--k", "2"), "cech", {"i": 0, "k": 2})
    rc, out = _call(cmd.argv)
    assert oracle.check(cmd, rc, out) == []
    assert oracle.check(cmd, rc, out.replace('"dim": 3', '"dim": 4'))
    assert oracle.check(cmd, 2, "")
    refused = workloads.Command(("t1", "delpezzo:6"), "scope")
    assert oracle.check(refused, *_call(refused.argv)) == []
    assert oracle.check(refused, 0, "")


# ---- tracer ------------------------------------------------------------------


def test_self_time_arithmetic_on_a_synthetic_tree():
    S = tracer.Span
    spans = [
        S(0, None, "cli", "main", 10.0),
        S(1, 0, "cones", "t1_table", 6.0),
        S(2, 1, "linalg", "RationalMatrix.kernel_dim", 4.0),
        S(3, 2, "linalg", "RationalMatrix.rank", 3.5),
        S(4, 0, "linalg", "vstack", 1.0),
        S(5, 1, "projective", "hq_pn_line", 0.5),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({"cli": 3.0, "cones": 1.5, "linalg": 5.0, "projective": 0.5})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert tracer.layer_calls(spans) == {"cli": 1, "cones": 1, "linalg": 2, "projective": 1}


def test_tracer_wraps_imported_names_counts_and_restores():
    original = cli.t1_via_normal
    trace = tracer.Tracer()
    trace.install()
    try:
        assert cli.t1_via_normal is not original
        assert presentation.t1_via_normal is cli.t1_via_normal
        trace.begin_command()
        rc, _ = _call(["jacobian", "--d", "3", "--weight", "-2", "--trace"])
    finally:
        trace.uninstall()
    assert rc == 0
    assert cli.t1_via_normal is original
    assert ("presentation", "t1_via_normal") in trace.fired
    assert trace.missing == []
    spans = trace.spans
    assert None not in spans
    # the restricted Euler block (8 x 5, injective) twice, then an empty graded map
    assert trace.counts["linalg.elims"] == 3
    assert trace.counts["linalg.repeat_elims"] == 1
    assert trace.counts["linalg.rank_sum"] == 10
    assert tracer.self_times(spans)["linalg"] > 0


def test_tracer_reports_missing_names_and_closes_spans_on_errors():
    table = dict(tracer.TABLE)
    table["cones"] = tracer.LayerSpec("conedef.cones", ("t1_table", "no_such_function"))
    trace = tracer.Tracer(table)
    trace.install()
    try:
        rc, _ = _call(["t1", "delpezzo:6"])  # out of scope: raises through cones
    finally:
        trace.uninstall()
    assert rc == 3
    assert trace.missing == ["conedef.cones.no_such_function"]
    assert None not in trace.spans
    assert ("cones", "t1_table") in trace.fired


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(20)]
    assert tail(walls) == (9.0, 50.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_an_in_process_crash_counts_as_exit_1():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    assert call_main(Crashing, ("t1", "rnc:3")) == (1, "")


def test_scaling_divides_by_the_bracketing_reference_times():
    assert scaled(0.5, 0.008, 0.008) == pytest.approx(0.5)
    assert scaled(0.5, 0.010, 0.006) == pytest.approx(0.5)
    assert scaled(0.6, 0.012, 0.012) == pytest.approx(0.4)
