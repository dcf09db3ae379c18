"""Two-chart model on the line: dimensions, bases, multiplication and the
restricted-tangent chase.  Expected values are frozen from enumeration
oracles, never from the closed forms under test."""

import pytest
from hypothesis import given, settings, strategies as st

from conedef.linalg import RationalMatrix
from conedef.p1 import (
    basis,
    euler_h1_block,
    euler_restricted_h0,
    euler_restricted_h1,
    h_dim,
    mult_matrix,
)
from conedef.polynomials import Polynomial

from oracles import line_h0_enumerated, line_h1_enumerated


# ---- dimensions and bases ---------------------------------------------


@pytest.mark.parametrize("k", range(-12, 13))
def test_h_dim_matches_enumeration(k):
    assert h_dim(0, k) == line_h0_enumerated(k)
    assert h_dim(1, k) == line_h1_enumerated(k)


def test_basis_ordering_level0():
    assert basis(0, 2) == [(2, 0), (1, 1), (0, 2)]
    assert basis(0, 0) == [(0, 0)]
    assert basis(0, -1) == []


def test_basis_ordering_level1():
    assert basis(1, -4) == [(-1, -3), (-2, -2), (-3, -1)]
    assert basis(1, -2) == [(-1, -1)]
    assert basis(1, -1) == []
    assert basis(1, 0) == []


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("k", range(-9, 9))
def test_basis_length_is_dimension(i, k):
    assert len(basis(i, k)) == h_dim(i, k)


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        h_dim(2, 0)
    with pytest.raises(ValueError):
        basis(-1, 0)


# ---- multiplication ----------------------------------------------------


def x_mono(a, b, c=1):
    return Polynomial.monomial(2, (a, b), c)


def test_mult_level0_simple():
    # multiplication by x0 from degree 1 to degree 2
    m = mult_matrix(x_mono(1, 0), 0, 1)
    # source (1,0),(0,1) -> targets (2,0),(1,1)
    assert m == RationalMatrix.from_rows([[1, 0], [0, 1], [0, 0]])


def test_mult_level1_truncates():
    # multiplication by x0^2 from degree -4 to degree -2: only the source
    # monomial with first exponent <= -3 survives
    m = mult_matrix(x_mono(2, 0), 1, -4)
    assert m == RationalMatrix.from_rows([[0, 0, 1]])


def test_mult_degree_zero_is_identity_scaling():
    m = mult_matrix(Polynomial.constant(2, 5), 1, -3)
    assert m == RationalMatrix.from_rows([[5, 0], [0, 5]])


def test_mult_rejects_bad_input():
    with pytest.raises(ValueError):
        mult_matrix(Polynomial.zero(2), 0, 1)
    with pytest.raises(ValueError):
        mult_matrix(x_mono(1, 0) + Polynomial.constant(2, 1), 0, 1)  # inhomogeneous
    with pytest.raises(ValueError):
        mult_matrix(Polynomial.monomial(2, (-1, 1)), 0, 1)  # Laurent multiplier


small_exp = st.integers(min_value=0, max_value=3)


@given(a1=small_exp, b1=small_exp, a2=small_exp, b2=small_exp,
       k=st.integers(min_value=-8, max_value=4), i=st.integers(0, 1))
@settings(max_examples=120, deadline=None)
def test_mult_is_functorial(a1, b1, a2, b2, k, i):
    """Truncated multiplication composes on the nose: the matrix of p*q
    equals the product of the matrices of p and q, in either order."""
    p = x_mono(a1, b1)
    q = x_mono(a2, b2)
    via_product = mult_matrix(p * q, i, k)
    step_q = mult_matrix(q, i, k)
    step_p = mult_matrix(p, i, k + a2 + b2)
    assert via_product == step_p @ step_q


@given(k=st.integers(min_value=-25, max_value=25))
@settings(max_examples=60, deadline=None)
def test_serre_pairing_of_dimensions(k):
    assert h_dim(0, k) == h_dim(1, -2 - k)


@given(k=st.integers(min_value=-50, max_value=50))
@settings(max_examples=80, deadline=None)
def test_euler_characteristic(k):
    assert h_dim(0, k) - h_dim(1, k) == k + 1


# ---- restricted tangent chase ------------------------------------------


def test_flagship_restricted_h0():
    # degree 4 curve, weight -1: frozen from the independent count below
    assert euler_restricted_h0(4, -1) == 8


def test_flagship_independent_route():
    """Same number through the splitting of the restricted tangent bundle
    into d line bundles of degree d + 1 (an enumeration, not a chase)."""
    d, m = 4, -1
    split = sum(line_h0_enumerated(d + 1 + m * d) for _ in range(d))
    assert split == 8
    assert euler_restricted_h0(d, m) == split


@pytest.mark.parametrize("d,m,expected", [(4, 0, 24), (1, -1, 2), (3, -1, 6), (5, -1, 10)])
def test_restricted_h0_against_balanced_splitting(d, m, expected):
    # the bundle splits as d copies of degree d + 2 - 1 = d + 1... i.e.
    # h^0 = d * max(0, d + 1 + m*d + 1) in the nonnegative range
    assert expected == sum(line_h0_enumerated(d + 1 + m * d) for _ in range(d))
    assert euler_restricted_h0(d, m) == expected


def test_connecting_rank_matters():
    """At (2, -2) the stacked level-1 map is injective and onto, so both
    correction terms vanish; the hand-built matrix pins this down."""
    block = euler_h1_block(2, -2)
    hand = RationalMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert block == hand
    assert euler_restricted_h0(2, -2) == 0
    assert euler_restricted_h1(2, -2) == 0


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("m", range(-4, 3))
def test_restricted_chase_agrees_with_splitting(d, m):
    """Independent route: the restricted tangent bundle of the degree-d
    curve is balanced of splitting type (d+1)^d, so both cohomology
    dimensions are sums of line values."""
    h0_split = d * line_h0_enumerated(d + 1 + m * d)
    h1_split = d * line_h1_enumerated(d + 1 + m * d)
    assert euler_restricted_h0(d, m) == h0_split
    assert euler_restricted_h1(d, m) == h1_split


@pytest.mark.parametrize("m", range(-2, 7))
def test_degree_one_curve_is_the_line_itself(m):
    # for d = 1 the "restricted tangent bundle" is the line's own tangent
    assert euler_restricted_h0(1, m) == h_dim(0, 2 + m)
    assert euler_restricted_h1(1, m) == h_dim(1, 2 + m)


def test_degree_validation():
    with pytest.raises(ValueError):
        euler_restricted_h0(0, 0)
