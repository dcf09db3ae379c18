"""Determinantal presentation, graded Jacobian and the two-route count."""

import pytest

from conedef import presentation
from conedef.linalg import RationalMatrix
from conedef.polynomials import Polynomial
from conedef.presentation import (
    build_presentation,
    coefficients_in_grade,
    euler_derivation_vector,
    graded_jacobian_map,
    jacobian_matrix,
    normal_bundle_h0,
    normal_form,
    s_basis,
    t1_via_normal,
)
from conedef.p1 import euler_restricted_h0, euler_restricted_h1, h_dim

from oracles import (
    JACOBIAN_D4_GOLDEN,
    graded_jacobian_sympy,
    jacobian_rows_sympy,
    line_h0_enumerated,
    rnc_cone_t1_pinkham,
)


def z_strings(rows):
    """The printed form of each entry, in the variables z0..zd."""
    return [[p.to_string([f"z{t}" for t in range(p.nvars)]) for p in row] for row in rows]


# ---- generators --------------------------------------------------------


def test_generator_count_and_order():
    gens = build_presentation(4)
    assert type(gens) is tuple and len(gens) == 6


def test_conic_generator():
    z0 = Polynomial.variable(3, 0)
    z1 = Polynomial.variable(3, 1)
    z2 = Polynomial.variable(3, 2)
    assert build_presentation(2) == (z0 * z2 - z1 * z1,)


def test_twisted_cubic_generators():
    gens = build_presentation(3)
    assert len(gens) == 3 and all(g.nvars == 4 for g in gens)
    [strings] = z_strings([gens])
    # graded reverse lex puts the square terms first (z1^2 beats z0*z2)
    assert strings == ["-z1^2 + z0*z2", "-z1*z2 + z0*z3", "-z2^2 + z1*z3"]


def test_degree_below_two_rejected():
    with pytest.raises(ValueError):
        build_presentation(1)
    with pytest.raises(ValueError):
        jacobian_matrix(0)


# ---- jacobian ----------------------------------------------------------


def test_jacobian_golden_degree_four():
    assert z_strings(jacobian_matrix(4)) == JACOBIAN_D4_GOLDEN


def test_jacobian_degree_two():
    assert z_strings(jacobian_matrix(2)) == [["z2", "-2*z1", "z0"]]


@pytest.mark.parametrize("d", range(2, 9))
def test_jacobian_matches_sympy(d):
    """Every partial, term by term, against sympy's differentiation of the
    minors: pins row order, column order, signs and the -2 coefficients."""
    rows = jacobian_matrix(d)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert [[p.terms for p in row] for row in rows] == jacobian_rows_sympy(d)
    assert all(p.nvars == d + 1 for row in rows for p in row)


@pytest.mark.parametrize("d", range(2, 9))
def test_jacobian_contracts_to_twice_generators(d):
    """Euler's relation for quadrics: sum_i z_i * dq/dz_i = 2q."""
    z = [Polynomial.variable(d + 1, i) for i in range(d + 1)]
    for row, gen in zip(jacobian_matrix(d), build_presentation(d)):
        contracted = Polynomial.zero(d + 1)
        for zi, entry in zip(z, row):
            contracted = contracted + zi * entry
        assert contracted == 2 * gen


# ---- graded ring pieces ------------------------------------------------


def test_s_basis_dimensions():
    for d in range(1, 7):
        for k in range(0, 4):
            assert len(s_basis(d, k)) == d * k + 1
    assert s_basis(3, -1) == []


def test_normal_form_examples():
    d = 4
    z1z3 = Polynomial.variable(5, 1) * Polynomial.variable(5, 3)
    assert normal_form(d, z1z3) == Polynomial.monomial(2, (4, 4))
    z0 = Polynomial.variable(5, 0)
    assert normal_form(d, z0) == Polynomial.monomial(2, (4, 0))
    assert normal_form(d, Polynomial.zero(5)).is_zero()


@pytest.mark.parametrize("d", range(2, 9))
def test_normal_form_annihilates_generators(d):
    for gen in build_presentation(d):
        assert normal_form(d, gen).is_zero()


def test_coefficients_in_grade():
    q = Polynomial.monomial(2, (4, 0), 2) + Polynomial.monomial(2, (0, 4), -1)
    coeffs = coefficients_in_grade(4, q, 1)
    assert coeffs == [2, 0, 0, 0, -1] and all(type(c) is int for c in coeffs)
    with pytest.raises(ValueError):
        coefficients_in_grade(4, Polynomial.monomial(2, (1, 0)), 1)


# ---- graded jacobian map -----------------------------------------------


def test_graded_shape_weight_minus_one():
    g = graded_jacobian_map(4, -1)
    assert (g.source_dim, g.target_dim) == (5, 30)
    # one grade-0 monomial per variable, one grade-1 block of 5 per generator
    assert (g.source_dim // 5, g.target_dim // 6) == (len(s_basis(4, 0)), len(s_basis(4, 1))) == (1, 5)


def test_graded_empty_source_in_low_weight():
    g = graded_jacobian_map(4, -3)
    assert g.source_dim == 0
    assert g.rank() == 0


def test_graded_empty_source_skips_the_presentation(monkeypatch):
    """At m <= -2 the map has no columns, so no partial derivative is taken."""
    def refuse(d):
        raise AssertionError("jacobian_matrix called for an empty source grade")

    monkeypatch.setattr(presentation, "jacobian_matrix", refuse)
    g = graded_jacobian_map(5, -2)
    assert (g.matrix.nrows, g.matrix.ncols) == (10 * len(s_basis(5, 0)), 0)
    assert g.rank() == 0
    with pytest.raises(ValueError):
        graded_jacobian_map(1, -2)


@pytest.mark.parametrize(
    "m,d", [(m, d) for d in range(2, 7) for m in range(-3, 3)] + [(-1, 11), (0, 8)]
)
def test_graded_entries_match_sympy(d, m):
    """Cell for cell against sympy's differentiation, substitution and
    multiplication: pins block order, signs and the -2 coefficients.  The
    two extra pairs are the largest the benchmark's jacobian commands ask."""
    g = graded_jacobian_map(d, m)
    cells = graded_jacobian_sympy(d, m)
    assert (g.target_dim, g.source_dim) == (len(cells), (d + 1) * max(0, d * (m + 1) + 1))
    assert [[g.matrix.entry(i, j) for j in range(g.source_dim)] for i in range(g.target_dim)] == cells


@pytest.mark.parametrize("d", range(2, 13))
@pytest.mark.parametrize("m", (-1, 0, 1))
def test_graded_blocks_built_once_per_distinct_partial(monkeypatch, d, m):
    """A partial of a 2x2 minor is 0, z_k, -z_k or -2 z_k: at most 3d distinct
    polynomials among the C(d, 2)(d + 1) cells, and one normal form each."""
    calls = []

    def counting(d_, p):
        calls.append(p)
        return normal_form(d_, p)

    monkeypatch.setattr(presentation, "normal_form", counting)
    graded_jacobian_map(d, m)
    partials = {p for row in jacobian_matrix(d) for p in row}
    assert len(calls) == len(set(calls)) == len(partials) <= 3 * d


@pytest.mark.parametrize("d", range(2, 9))
def test_euler_derivation_lies_in_weight_zero_kernel(d):
    g = graded_jacobian_map(d, 0)
    vec = euler_derivation_vector(d)
    assert all(type(x) is int for x in vec)
    col = RationalMatrix.from_rows([[x] for x in vec])
    assert (g.matrix @ col).is_zero()


def test_graded_rank_is_deterministic():
    a = graded_jacobian_map(5, -1)
    b = graded_jacobian_map(5, -1)
    assert a.matrix == b.matrix
    assert a.rank() == b.rank()


# ---- normal bundle route ----------------------------------------------


@pytest.mark.parametrize("d", range(2, 11))
def test_normal_bundle_sections_by_enumeration(d):
    for m in range(-3, 2):
        assert normal_bundle_h0(d, m) == (d - 1) * line_h0_enumerated(d + 2 + m * d)


@pytest.mark.parametrize("d", range(2, 13))
def test_normal_sections_less_the_graded_jacobian_rank_is_pinkhams_t1(d):
    """h^0(N(m)) less the rank of the weight-m graded Jacobian is the
    weight-m piece of the cone's literal T^1: Pinkham's 2d - 4 at m = -1
    (1 at m = -2 for the quadric cone) and 0 at every other weight."""
    for m in range(-6, 4):
        assert normal_bundle_h0(d, m) - graded_jacobian_map(d, m).rank() == rnc_cone_t1_pinkham(d, m), (d, m)


def test_flagship_two_route_count():
    route = t1_via_normal(4, -1)
    assert route.restricted_tangent_h0 == 8
    assert route.normal_h0 == 9
    assert route.curve_tangent_h0 == 0
    assert route.value == 1
    assert route.exact


@pytest.mark.parametrize(
    "d,expected",
    [(2, 0), (3, 0), (4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (9, 6), (10, 7)],
)
def test_weight_minus_one_counts(d, expected):
    route = t1_via_normal(d, -1)
    assert route.value == expected == max(0, d - 3)
    assert route.exact


def test_conic_weight_minus_two_witness():
    route = t1_via_normal(2, -2)
    assert route.value == 1
    assert route.exact


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("m", range(-3, 2))
def test_route_agrees_with_line_count_when_exact(d, m):
    """Whenever the chase certifies exactness, the normal-bundle route
    must reproduce the level-1 count of the degree 2 + d*m line bundle."""
    route = t1_via_normal(d, m)
    if route.exact:
        assert route.value == h_dim(1, 2 + d * m)


def test_exactness_flag_reflects_the_cokernel():
    for d in range(2, 7):
        for m in range(-3, 2):
            assert t1_via_normal(d, m).exact == (euler_restricted_h1(d, m) == 0)
