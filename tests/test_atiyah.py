"""Cocycle verification, with a sympy cross-check of one chart's identity."""

import pytest
import sympy

from conedef import atiyah
from conedef.atiyah import atiyah_cocycle_check, _transition


def test_two_space_passes():
    report = atiyah_cocycle_check(2)
    assert report.passed
    assert report.triples == ((0, 1, 2),)
    assert report.multiplicative_ok
    assert report.additive_ok
    assert report.degenerate_ok
    assert report.nontrivial_witness


def test_three_space_passes_with_four_triples():
    report = atiyah_cocycle_check(3)
    assert report.passed
    assert len(report.triples) == 4


def test_small_n_rejected():
    with pytest.raises(ValueError):
        atiyah_cocycle_check(1)


def test_additive_identity_against_sympy():
    """Replay the chart-0 additive identity for n = 2 symbolically: the
    package's rational functions must agree with sympy's simplifier, in
    chart 0 and in the charts 1 and 2, whose own coordinate drops out of
    the middle of the exponent vector."""
    u, v = sympy.symbols("u v")
    # chart-0 affine coordinates: coordinate 1 -> u, coordinate 2 -> v
    g01 = 1 / u
    g12 = u / v
    g02 = 1 / v
    for var in (u, v):
        lhs = sympy.diff(sympy.log(g01), var) + sympy.diff(sympy.log(g12), var)
        rhs = sympy.diff(sympy.log(g02), var)
        assert sympy.simplify(lhs - rhs) == 0

    # and the package's own representation of the same three functions, in every chart
    for chart in range(3):
        c01 = _transition(2, chart, 0, 1)
        c12 = _transition(2, chart, 1, 2)
        c02 = _transition(2, chart, 0, 2)
        for l in range(2):
            assert (c01.dlog(l) + c12.dlog(l) - c02.dlog(l)).is_zero(), (chart, l)


def test_cocycle_is_not_trivially_zero():
    """Guard against a vacuous check: individual summands are nonzero."""
    c01 = _transition(2, 0, 0, 1)
    assert any(not c01.dlog(l).is_zero() for l in range(2))


def _squared_02(in_charts):
    """``atiyah._transition`` with g_02 squared only in the affine charts
    (``in_charts``) or only in the homogeneous coordinates: one of the two
    cocycle identities fails on the triple (0, 1, 2), while g_00 and g_01,
    which the degenerate and witness checks read, are left as they are."""
    transition = atiyah._transition

    def broken(n, chart, a, b):
        g = transition(n, chart, a, b)
        return g * g if (a, b) == (0, 2) and (chart is not None) == in_charts else g

    return broken


def test_a_broken_multiplicative_identity_fails(monkeypatch):
    monkeypatch.setattr(atiyah, "_transition", _squared_02(in_charts=False))
    report = atiyah_cocycle_check(2)
    assert not report.multiplicative_ok
    assert not report.passed


def test_a_broken_additive_identity_fails(monkeypatch):
    monkeypatch.setattr(atiyah, "_transition", _squared_02(in_charts=True))
    report = atiyah_cocycle_check(2)
    assert (report.additive_ok, report.passed) == (False, False)
    assert report.multiplicative_ok and report.degenerate_ok and report.nontrivial_witness
