"""Two-chart Cech model for line bundles on the projective line.

This is the n = 1 case of the monomial model in :mod:`conedef.projective`.
A cohomology class in degree k is a Laurent polynomial in the chart
variables, recorded here by its exponent pair (a, b) with a + b = k:

* level 0 (global sections): a >= 0 and b >= 0, so h0 = max(0, k + 1);
* level 1: a <= -1 and b <= -1, so h1 = max(0, -k - 1).

The level is the int i, passed through to the model, whose
:func:`conedef.projective.hq_pn_line` refuses a level other than 0 or 1 as
a :class:`~conedef.RequestError`.

Multiplication by an honest polynomial keeps level-0 monomials inside the
level-0 region, while at level 1 a product is truncated to zero as soon as
either exponent escapes the strictly-negative region.  Because the
truncation only ever discards monomials that can never return (multiplying
by nonnegative powers is monotone in each exponent), the truncated product
is still functorial: mult(p*q) == mult(p) after mult(q) on the nose, which
the tests pin down.

Bases are ordered by descending first exponent, so e.g. basis(0, 2) is
[(2, 0), (1, 1), (0, 2)] and basis(1, -4) is [(-1, -3), (-2, -2), (-3, -1)].

The curve's restricted Euler grid is priced before anything is built, at
(d + 1) * max(1, h^1(O(dm))) units for weight m, so
:func:`euler_h1_block`, :func:`euler_restricted_h0` and
:func:`euler_restricted_h1` (and the normal route of
:mod:`conedef.presentation` that reads the last two) refuse a request over
``MAX_COST`` themselves.  The two matrices here (:func:`mult_matrix`,
:func:`euler_h1_block`) are one call each of the block builder
:func:`conedef.projective._pn_mult_matrix`, which imports
:mod:`conedef.linalg`, so dimensions and bases do not load it.  The
restricted Euler chase builds no matrix itself: it reads the level-1 map
through :func:`conedef.projective._level`, which builds no map with an
empty side, and multiplies by ``{exponent pair: 1}`` maps, so it loads
neither :mod:`conedef.polynomials` nor ``fractions``.
"""

from __future__ import annotations

from . import RequestError
from .projective import _level, _pn_basis, _pn_mult_matrix, check_cost, hq_pn_line

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from .linalg import RationalMatrix
    from .polynomials import Polynomial
    from .projective import Multiplier

Monomial = tuple[int, int]


def h_dim(i: int, k: int) -> int:
    """Dimension of the level-i cohomology of O(k) on the line."""
    return hq_pn_line(1, k, i)


def basis(i: int, k: int) -> list[Monomial]:
    """Monomial basis of level i in degree k, descending first exponent."""
    return _pn_basis(1, k, i)


def mult_matrix(p: Polynomial, i: int, k: int) -> RationalMatrix:
    """Matrix of multiplication by the homogeneous polynomial p, from level-i
    degree k to level-i degree k + deg(p), in the ordered monomial bases.

    At level 1 any product monomial leaving the strictly-negative region is
    truncated to zero."""
    return _pn_mult_matrix([[p.terms]], 1, k, i)


def check_curve_degree(d: int) -> None:
    """Refuse a curve degree below 1, the one rule for every curve-degree request on the line."""
    if d < 1:
        raise RequestError("the curve degree d must be at least 1")


def _curve_grid(d: int, m: int) -> list[list[Multiplier]]:
    """One block row per degree-d parametrizing monomial x0^(d-j) * x1^j,
    priced before anything is built at the (d + 1) * max(1, h^1(O(d m)))
    entries of its level-1 map out of weight m (an empty source counts one)."""
    check_curve_degree(d)
    check_cost((d + 1) * max(1, h_dim(1, d * m)))
    return [[{(d - j, j): 1}] for j in range(d + 1)]


def euler_h1_block(d: int, m: int) -> RationalMatrix:
    """Connecting data for the restricted Euler sequence in weight m: the
    stacked multiplication map from level-1 degree m*d into the d+1 copies
    of level-1 degree m*d + d, one block per parametrizing monomial.  The
    chase below reads its kernel and cokernel through
    :func:`conedef.projective._level` instead of building it here."""
    return _pn_mult_matrix(_curve_grid(d, m), 1, m * d, 1)


def euler_restricted_h0(d: int, m: int) -> int:
    """h^0 of the weight-m restricted tangent bundle of the degree-d
    rational normal curve, computed by an exact Euler-sequence chase with
    the connecting rank actually evaluated.  The level-0 term stays a
    closed form: multiplication by a nonzero form is injective on
    sections, so that map has no kernel, and building it would enumerate
    the sections of O(m*d + d), over MAX_BASIS already at d = 49999, m = 0."""
    kernel = _level(_curve_grid(d, m), 1, m * d, 1)[0]
    return (d + 1) * h_dim(0, m * d + d) - h_dim(0, m * d) + kernel


def euler_restricted_h1(d: int, m: int) -> int:
    """h^1 companion of :func:`euler_restricted_h0`: the cokernel of the
    same stacked level-1 multiplication map."""
    return _level(_curve_grid(d, m), 1, m * d, 1)[1]
