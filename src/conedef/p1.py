"""Two-chart Cech model for line bundles on the projective line.

This is the n = 1 case of the monomial model in :mod:`conedef.projective`.
A cohomology class in degree k is a Laurent polynomial in the chart
variables, recorded here by its exponent pair (a, b) with a + b = k:

* level 0 (global sections): a >= 0 and b >= 0, so h0 = max(0, k + 1);
* level 1: a <= -1 and b <= -1, so h1 = max(0, -k - 1).

Multiplication by an honest polynomial keeps level-0 monomials inside the
level-0 region, while at level 1 a product is truncated to zero as soon as
either exponent escapes the strictly-negative region.  Because the
truncation only ever discards monomials that can never return (multiplying
by nonnegative powers is monotone in each exponent), the truncated product
is still functorial: mult(p*q) == mult(p) after mult(q) on the nose, which
the tests pin down.

Bases are ordered by descending first exponent, so e.g. basis(0, 2) is
[(2, 0), (1, 1), (0, 2)] and basis(1, -4) is [(-1, -3), (-2, -2), (-3, -1)].
"""

from __future__ import annotations

from .linalg import RationalMatrix, vstack
from .polynomials import Polynomial
from .projective import _pn_basis, _pn_mult_matrix, hq_pn_line

Monomial = tuple[int, int]


def _top(i: int) -> bool:
    if i not in (0, 1):
        raise ValueError(f"cohomology level must be 0 or 1, got {i}")
    return i == 1


def h_dim(i: int, k: int) -> int:
    """Dimension of the level-i cohomology of O(k) on the line."""
    return hq_pn_line(1, k, i)


def basis(i: int, k: int) -> list[Monomial]:
    """Monomial basis of level i in degree k, descending first exponent."""
    return _pn_basis(1, k, _top(i))


def mult_matrix(p: Polynomial, i: int, k: int) -> RationalMatrix:
    """Matrix of multiplication by the homogeneous polynomial p, from level-i
    degree k to level-i degree k + deg(p), in the ordered monomial bases.

    At level 1 any product monomial leaving the strictly-negative region is
    truncated to zero."""
    return _pn_mult_matrix(p, 1, k, _top(i))


def _curve_monomial(d: int, j: int) -> Polynomial:
    """The j-th degree-d parametrizing monomial x0^(d-j) * x1^j."""
    return Polynomial.monomial(2, (d - j, j))


def euler_h1_block(d: int, m: int) -> RationalMatrix:
    """Connecting data for the restricted Euler sequence in weight m: the
    stacked multiplication map from level-1 degree m*d into the d+1 copies
    of level-1 degree m*d + d, one block per parametrizing monomial."""
    if d < 1:
        raise ValueError("the curve degree d must be at least 1")
    return vstack([mult_matrix(_curve_monomial(d, j), 1, m * d) for j in range(d + 1)])


def euler_restricted_h0(d: int, m: int) -> int:
    """h^0 of the weight-m restricted tangent bundle of the degree-d
    rational normal curve, computed by an exact Euler-sequence chase with
    the connecting rank actually evaluated."""
    block = euler_h1_block(d, m)
    return (d + 1) * h_dim(0, m * d + d) - h_dim(0, m * d) + block.kernel_dim()


def euler_restricted_h1(d: int, m: int) -> int:
    """h^1 companion of :func:`euler_restricted_h0`: the cokernel of the
    same stacked multiplication map."""
    return euler_h1_block(d, m).cokernel_dim()
