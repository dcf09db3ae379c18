"""Determinantal presentation of the degree-d rational normal curve and
the graded calculus attached to its affine cone.

The curve sits in d-space via the degree-d parametrization; its ideal is
generated by the 2x2 minors q_{ij} = z_i z_{j+1} - z_{i+1} z_j of the
standard 2 x d array, listed in lexicographic (i, j) order.  The cone's
coordinate ring is identified grade by grade with binary forms: the k-th
graded piece is spanned by the monomials of degree d*k in the two
parameters, and the normal-form map substitutes z_i -> x0^(d-i) x1^i.
The builders return plain values: :func:`build_presentation` the tuple of
generators and :func:`jacobian_matrix` the tuple of rows of partials, each
a polynomial in d + 1 variables.  Variable t is z_t by position; only the
command line prints the names.

Two independent routes to the weight-m deformation count are provided:

* an algebraic one, the graded piece of the Jacobian map from coordinate
  derivations to the ideal's graded pieces, one block map of the line's
  monomial model, with rank and kernel computed by elimination;
* a geometric one through the normal bundle, whose splitting type makes
  the section count a closed form, corrected by the tangent-sequence
  terms computed by the Cech chase on the line, and checked at run time
  against the line count whenever that chase is exact.

:func:`graded_route` compares the two at run time wherever the weight is
clean for the line, h^1(O(dm)) = 0: there h^0(N(m)) minus the graded rank
must be the normal route's value.

Each builder checks its curve degree (d >= 2, a
:class:`~conedef.RequestError` below it) and prices its request
from a closed form before it builds anything: C(d, 2)(d + 1) partials for
:func:`build_presentation` and so :func:`jacobian_matrix`, the
C(d, 2) * max(1, (d + 1) h^0(O(d(m + 1)))) cells and source monomials of
:func:`graded_jacobian_map`; :func:`t1_via_normal` is priced by the line's
curve grid in :mod:`conedef.p1`.  As in :mod:`conedef.projective`,
:mod:`conedef.linalg` and :mod:`conedef.polynomials` are imported by the
functions that build a matrix or a polynomial, after the price, so
importing this module, as the command line does for ``jacobian``, or a
refused request loads neither.  The generators, their partials and
their normal forms have int coefficients, so the graded Jacobian is an
integer matrix, the coordinate vectors of :func:`coefficients_in_grade` and
:func:`euler_derivation_vector` are int lists, and no command loads
``fractions``.
"""

from __future__ import annotations

from math import comb

from . import InternalConsistencyError, RequestError, p1
from .projective import _pn_mult_matrix, check_cost
from .records import FrozenRecord

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from .polynomials import Polynomial


def _check_degree(d: int) -> None:
    if d < 2:
        raise RequestError("the presentation needs curve degree d >= 2 (d = 1 is a line with no equations)")


def build_presentation(d: int) -> tuple[Polynomial, ...]:
    """All 2x2-minor generators q_{ij} = z_i z_{j+1} - z_{i+1} z_j for
    0 <= i < j <= d-1, in lexicographic order of (i, j), as polynomials in
    the d + 1 variables z_0..z_d.  Priced at their C(d, 2)(d + 1) partials
    before anything is built, so :func:`jacobian_matrix` inherits the price."""
    _check_degree(d)
    check_cost(comb(d, 2) * (d + 1))
    from .polynomials import Polynomial

    z = [Polynomial.variable(d + 1, t) for t in range(d + 1)]
    return tuple(z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d))


def jacobian_matrix(d: int) -> tuple[tuple[Polynomial, ...], ...]:
    """Partial derivatives of the generators: one row per generator (in
    presentation order), one entry per variable z_0..z_d."""
    return tuple(tuple(g.derivative(i) for i in range(d + 1)) for g in build_presentation(d))


# ----------------------------------------------------------------------
# The cone's coordinate ring, grade by grade
# ----------------------------------------------------------------------


def s_basis(d: int, k: int) -> list[p1.Monomial]:
    """Monomial basis of the k-th graded piece of the cone's coordinate
    ring: binary monomials of degree d*k (empty for k < 0)."""
    p1.check_curve_degree(d)
    return p1.basis(0, d * k) if k >= 0 else []


def substitution_images(d: int) -> list[Polynomial]:
    """The parametrization z_i -> x0^(d-i) x1^i as binary monomials."""
    from .polynomials import Polynomial

    return [Polynomial.monomial(2, (d - i, i)) for i in range(d + 1)]


def normal_form(d: int, p: Polynomial) -> Polynomial:
    """Image of a z-polynomial in the cone's coordinate ring, written as a
    binary form via the parametrizing substitution."""
    if p.nvars != d + 1:
        raise ValueError(f"expected a polynomial in the {d + 1} cone variables")
    return p.substitute(substitution_images(d))


def coefficients_in_grade(d: int, q: Polynomial, k: int) -> list[int]:
    """Coordinates of a binary form on s_basis(d, k).  The form must be
    supported in degree d*k (the zero form is fine in any grade)."""
    mons = s_basis(d, k)
    index = {m: i for i, m in enumerate(mons)}
    out = [0] * len(mons)
    for exps, coeff in q.terms.items():
        if exps not in index:
            raise ValueError(f"monomial {exps} is not in the grade-{k} piece")
        out[index[exps]] = coeff
    return out


# ----------------------------------------------------------------------
# Route 1: the graded Jacobian map
# ----------------------------------------------------------------------


class GradedJacobian(FrozenRecord):
    """The weight-m graded piece of the Jacobian pairing: derivations with
    components in grade m+1 mapping into one grade-(m+2) block per
    generator.  Source blocks are ordered by variable, target blocks by
    generator."""

    __slots__ = _fields = ("matrix",)

    @property
    def source_dim(self) -> int:
        return self.matrix.ncols

    @property
    def target_dim(self) -> int:
        return self.matrix.nrows

    def rank(self) -> int:
        return self.matrix.rank()


def graded_jacobian_map(d: int, m: int) -> GradedJacobian:
    """The weight-m graded Jacobian in one block map of the monomial model:
    block (g, i) multiplies grade m+1 by the normal form of dg/dz_i, landing
    in grade m+2, and is zero where that partial vanishes.  An empty source
    grade (m <= -2) gives the zero-column matrix without taking a partial.

    Every partial of a 2x2 minor is 0, z_k, -z_k or -2 z_k, so the
    C(d, 2)(d + 1) cells hold at most 3d distinct partials, and each normal
    form is taken once.  The map is priced by what it builds before anything
    is built, at C(d, 2) * max(1, (d + 1) * h^0(O(d(m + 1)))) units: one per
    cell and source monomial, or, for the zero map out of an empty source
    grade, one per generator, the most rows it has (at m = -2)."""
    _check_degree(d)
    source = p1.h_dim(0, d * (m + 1))
    check_cost(comb(d, 2) * max(1, (d + 1) * source))
    if source == 0:
        from .linalg import RationalMatrix

        return GradedJacobian(RationalMatrix.zero(comb(d, 2) * p1.h_dim(0, d * (m + 2)), 0))
    rows = jacobian_matrix(d)
    forms = {p: normal_form(d, p).terms for p in {p for row in rows for p in row}}
    return GradedJacobian(_pn_mult_matrix([[forms[p] for p in row] for row in rows], 1, d * (m + 1), 0))


def euler_derivation_vector(d: int) -> list[int]:
    """The coordinate vector of the weight-0 derivation sending each z_i to
    itself, in the source ordering of graded_jacobian_map(d, 0).  Only
    weight 0 carries it."""
    src_mons = s_basis(d, 1)
    vec = [0] * ((d + 1) * len(src_mons))
    for i in range(d + 1):
        vec[i * len(src_mons) + src_mons.index((d - i, i))] = 1
    return vec


# ----------------------------------------------------------------------
# Route 2: through the normal bundle
# ----------------------------------------------------------------------


def normal_bundle_h0(d: int, m: int) -> int:
    """h^0 of the weight-m twist of the curve's normal bundle, from its
    balanced splitting into d-1 line bundles of degree d+2."""
    _check_degree(d)
    return (d - 1) * p1.h_dim(0, d + 2 + m * d)


class NormalRoute(FrozenRecord):
    """The normal-bundle route to the weight-m count: three section counts,
    their alternating sum ``value`` and whether the sequence chase is exact."""

    __slots__ = _fields = ("normal_h0", "restricted_tangent_h0", "curve_tangent_h0", "exact")

    @property
    def value(self) -> int:
        return self.normal_h0 - self.restricted_tangent_h0 + self.curve_tangent_h0


def t1_via_normal(d: int, m: int) -> NormalRoute:
    """Weight-m first deformation count through the normal bundle:
    h^0(N(m)) - h^0(T_ambient|_C(m)) + h^0(T_C(m)), valid exactly when the
    restricted-tangent chase reports a vanishing level-1 cokernel.  Then
    h^1(T_ambient|_C(m)) = 0, so h^1 of its quotient N(m) vanishes too and
    the value must be h^1(T_C(m)) = h^1(O(2 + d*m)); else it raises."""
    h0s = normal_bundle_h0(d, m), p1.euler_restricted_h0(d, m), p1.h_dim(0, 2 + d * m)
    route = NormalRoute(*h0s, p1.euler_restricted_h1(d, m) == 0)
    line = p1.h_dim(1, 2 + d * m)
    if route.exact and route.value != line:
        raise InternalConsistencyError(f"normal route d={d}, m={m}: exact chase gave {route.value}, line count {line}")
    return route


def graded_route(d: int, m: int, route: NormalRoute) -> tuple[GradedJacobian, int]:
    """The weight-m graded Jacobian and its rank, ranked once, checked
    against ``route = t1_via_normal(d, m)`` where the weight is clean for
    the line, h^1(O(dm)) = 0 (what ``corollary_flags(VeroneseSpace(1, d),
    m).clean`` reads): there the cokernel h^0(N(m)) - rank must be the
    normal route's value, else it raises.  Elsewhere the two may differ (at
    m = -1 by h^1(O(-d)) = d - 1 for d >= 3), so nothing is compared."""
    graded = graded_jacobian_map(d, m)
    rank = graded.rank()
    if p1.h_dim(1, d * m) == 0 and route.normal_h0 - rank != route.value:
        raise InternalConsistencyError(
            f"graded route d={d}, m={m}: h^0(N(m)) - rank = {route.normal_h0 - rank}, normal route {route.value}"
        )
    return graded, rank
