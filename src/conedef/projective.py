"""Cohomology of line bundles and twisted (co)tangent sheaves on small
projective spaces, plus Kunneth bookkeeping for a product of two lines and
exact divisor arithmetic on blown-up planes.

This module owns the one monomial model of O(k) on n-space: a level-0
class is a combination of exponent tuples that are all nonnegative, a
top-level class one of tuples that are all at most -1, and everything in
between vanishes.  :mod:`conedef.p1` is the line's API over the same model
(n = 1).  Cotangent and tangent twists are never looked up in a
table: they are chased through the standard short exact sequences with the
connecting ranks computed by exact elimination.  Where an independent route
exists (Serre duality, Euler characteristics) the tests replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .linalg import RationalMatrix, hstack, vstack
from .polynomials import Polynomial


class InternalConsistencyError(Exception):
    """Two supposedly equivalent routes disagreed; the result is not
    trustworthy and must not be reported."""


# ----------------------------------------------------------------------
# Line bundles on projective n-space: the monomial model
# ----------------------------------------------------------------------


def hq_pn_line(n: int, k: int, q: int) -> int:
    """Dimension of level-q cohomology of O(k) on projective n-space."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= q <= n:
        raise ValueError(f"cohomology level {q} out of range for n={n}")
    if q == 0:
        return comb(n + k, n) if k >= 0 else 0
    if q == n:
        return comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


def _pn_basis(n: int, k: int, top: bool) -> list[tuple[int, ...]]:
    """Ordered monomial basis for level 0 (top=False) or level n (top=True)
    of O(k): the n+1 exponents sum to k and are all nonnegative (level 0)
    or all at most -1 (level n), in descending lexicographic order.

    Only qualifying tuples are generated: the leading exponent runs over
    exactly the values that leave the remaining n exponents a solution."""
    leading = range(-1, k + n - 1, -1) if top else range(k, -1, -1)
    if n == 1:
        return [(e, k - e) for e in leading]
    return [(e,) + rest for e in leading for rest in _pn_basis(n - 1, k - e, top)]


def _pn_mult_matrix(p: Polynomial, n: int, k: int, top: bool) -> RationalMatrix:
    """Matrix of multiplication by the homogeneous polynomial p from the
    level-0 (or level-n) monomial model of O(k) to that of O(k + deg p).

    A product monomial outside the target basis has left the region; it is
    truncated to zero (only possible at level n).  Because the multiplier
    has nonnegative exponents, a monomial that leaves never returns, so the
    truncated product is still functorial."""
    if p.nvars != n + 1:
        raise ValueError(f"expected a polynomial in the {n + 1} coordinates")
    if p.is_zero():
        raise ValueError("multiplication by the zero polynomial has no degree")
    if not p.is_homogeneous():
        raise ValueError("multiplier must be homogeneous")
    if any(e < 0 for exps in p.terms for e in exps):
        raise ValueError("multiplier must be an honest polynomial, not Laurent")
    src = _pn_basis(n, k, top)
    dst = _pn_basis(n, k + p.homogeneous_degree(), top)
    index = {mono: row for row, mono in enumerate(dst)}
    out = RationalMatrix.zero(len(dst), len(src))
    for col, exps in enumerate(src):
        for mono, coeff in p.terms.items():
            row = index.get(tuple(a + b for a, b in zip(exps, mono)))
            if row is not None:
                out.data[row][col] += coeff
    return out


def _coordinates(n: int) -> list[Polynomial]:
    return [Polynomial.variable(n + 1, i) for i in range(n + 1)]


# ----------------------------------------------------------------------
# Cotangent twists via the coordinate-differential sequence
# ----------------------------------------------------------------------


def hq_pn_omega1(n: int, k: int, q: int) -> int:
    """Level-q cohomology of the twisted cotangent sheaf on n-space,
    n in {1, 2}, chased through the coordinate-differential sequence with
    computed connecting ranks."""
    if n not in (1, 2):
        raise ValueError("cotangent chase implemented for n = 1 and 2 only")
    if not 0 <= q <= n:
        raise ValueError(f"cohomology level {q} out of range for n={n}")
    # 0 -> Omega^1(k) -> O(k-1)^(n+1) -> O(k) -> 0.  Line bundles on the
    # line and the plane only have cohomology at levels 0 and n, so each
    # level of Omega^1(k) is read off the level-0 and level-n maps.
    value = 0
    if q <= 1:
        # level 0 is the kernel of the map on sections, and its cokernel
        # is the part of level 1 that comes from below
        rank0 = hstack([_pn_mult_matrix(x, n, k - 1, False) for x in _coordinates(n)]).rank()
        value = (n + 1) * hq_pn_line(n, k - 1, 0) - rank0 if q == 0 else hq_pn_line(n, k, 0) - rank0
    if q == n:
        phi = hstack([_pn_mult_matrix(x, n, k - 1, True) for x in _coordinates(n)])
        if phi.cokernel_dim() != 0:
            raise InternalConsistencyError(
                f"cotangent chase n={n}, k={k}: the level-{n} map is not onto, "
                "but nothing sits above level n"
            )
        value += phi.kernel_dim()
    return value


# ----------------------------------------------------------------------
# Tangent twists via the Euler sequence
# ----------------------------------------------------------------------


def _euler_top_map_p2(k: int) -> RationalMatrix:
    """The stacked top-level multiplication H^2(O(k)) -> H^2(O(k+1))^3."""
    return vstack([_pn_mult_matrix(x, 2, k, True) for x in _coordinates(2)])


def h1_tangent_pn_twist(n: int, k: int) -> int:
    """h^1 of the tangent sheaf of n-space twisted by O(k).

    n = 1 reduces to the line (the tangent sheaf is O(2)); n = 2 is an
    Euler-sequence chase whose connecting rank is computed, not assumed;
    n >= 3 vanishes because both flanking groups in the chase vanish."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return hq_pn_line(1, 2 + k, 1)
    if n == 2:
        psi = _euler_top_map_p2(k)
        return psi.kernel_dim()
    # 0 -> O(k) -> O(k+1)^(n+1) -> T(k) -> 0: the h^1 of T(k) sits between
    # middle cohomology groups that vanish for n >= 3.
    if hq_pn_line(n, k + 1, 1) != 0 or hq_pn_line(n, k, 2) != 0:
        raise InternalConsistencyError(f"tangent chase n={n}, k={k}: a flanking middle group is nonzero")
    return 0


def h2_tangent_p2_twist(k: int) -> int:
    """h^2 of the twisted tangent sheaf on the plane: the cokernel of the
    same stacked top-level map used for h^1."""
    return _euler_top_map_p2(k).cokernel_dim()


# ----------------------------------------------------------------------
# Kunneth bookkeeping on a product of two lines
# ----------------------------------------------------------------------


def h0_bidegree(a: int, b: int) -> int:
    return hq_pn_line(1, a, 0) * hq_pn_line(1, b, 0)


def h1_bidegree(a: int, b: int) -> int:
    """Kunneth: h1(a,b) = h0(a) h1(b) + h1(a) h0(b)."""
    return hq_pn_line(1, a, 0) * hq_pn_line(1, b, 1) + hq_pn_line(1, a, 1) * hq_pn_line(1, b, 0)


def h2_bidegree(a: int, b: int) -> int:
    return hq_pn_line(1, a, 1) * hq_pn_line(1, b, 1)


# ----------------------------------------------------------------------
# Divisor arithmetic on the plane blown up in r points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceDivisor:
    """A divisor class h*H + sum_i e_i * E_i on the blow-up of the plane in
    r points, in the standard orthogonal basis (H; E_1..E_r) where H^2 = 1,
    E_i^2 = -1 and H.E_i = 0."""

    r: int
    h: int
    e: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.r:
            raise ValueError("r must be nonnegative")
        if len(self.e) != self.r:
            raise ValueError(f"expected {self.r} exceptional coefficients, got {len(self.e)}")

    @classmethod
    def hyperplane(cls, r: int) -> "SurfaceDivisor":
        return cls(r, 1, (0,) * r)

    @classmethod
    def exceptional(cls, r: int, i: int) -> "SurfaceDivisor":
        _check_exceptional_index(r, i)
        e = [0] * r
        e[i - 1] = 1
        return cls(r, 0, tuple(e))

    @classmethod
    def canonical(cls, r: int) -> "SurfaceDivisor":
        """The canonical class: -3H + E_1 + ... + E_r."""
        return cls(r, -3, (1,) * r)

    def __add__(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        self._check(other)
        return SurfaceDivisor(self.r, self.h + other.h, tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other: "SurfaceDivisor") -> "SurfaceDivisor":
        return self + (-other)

    def __neg__(self) -> "SurfaceDivisor":
        return SurfaceDivisor(self.r, -self.h, tuple(-a for a in self.e))

    def __rmul__(self, c: int) -> "SurfaceDivisor":
        if not isinstance(c, int):
            raise TypeError("divisor classes only scale by integers")
        return SurfaceDivisor(self.r, c * self.h, tuple(c * a for a in self.e))

    def _check(self, other: "SurfaceDivisor") -> None:
        if self.r != other.r:
            raise ValueError("divisors live on blow-ups at different numbers of points")


def _check_exceptional_index(r: int, i: int) -> None:
    if not 1 <= i <= r:
        raise ValueError(f"exceptional index must satisfy 1 <= i <= r, got i={i}, r={r}")


def intersection(d1: SurfaceDivisor, d2: SurfaceDivisor) -> int:
    """Intersection number in the orthogonal basis: h1*h2 - sum e1_i*e2_i."""
    d1._check(d2)
    return d1.h * d2.h - sum(a * b for a, b in zip(d1.e, d2.e))


def restrict_to_exceptional(d: SurfaceDivisor, i: int) -> int:
    """Degree of the restriction of the divisor class to the i-th
    exceptional line (1-based), i.e. its intersection with E_i."""
    _check_exceptional_index(d.r, i)
    return intersection(d, SurfaceDivisor.exceptional(d.r, i))
