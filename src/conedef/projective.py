"""Cohomology of line bundles and twisted (co)tangent sheaves on small
projective spaces, plus Kunneth bookkeeping for a product of two lines and
exact intersection numbers of divisor classes on blown-up planes.

This module owns the one monomial model of O(k) on n-space: a level-0
class is a combination of exponent tuples that are all nonnegative, a
top-level class one of tuples that are all at most -1, and everything in
between vanishes.  Every function of the model takes the level as an int
q, and :func:`hq_pn_line` refuses one outside 0..n (and n < 1, and an n,
k or q that is not an int) as a :class:`RequestError` for all of them.  :mod:`conedef.p1` is the line's API
over the same model (n = 1).  Cotangent and tangent twists are never looked
up in a table: they are chased through the standard short exact sequences, and
every chase (the line's restricted Euler sequence too) reads its connecting
maps through :func:`_level`.  A level strictly between 0 and n carries
nothing, a map with an empty side has rank 0 by its shape, and every other
map is built once and its rank computed by exact elimination.  The plane's
tangent twists are compared with Bott's formula at run time; where another
independent route exists (Serre duality, Euler characteristics) the tests
replay it.

A multiplier is an ``{exponent tuple: coefficient}`` map, so a coordinate
is ``{e_i: 1}`` and the chases build integer matrices without
:mod:`conedef.polynomials` or ``fractions``.  Every multiplication map of
the package is a grid of such blocks built in one pass by
:func:`_pn_mult_matrix`: the Euler and cotangent chases here, the line's
restricted Euler block and the curve's graded Jacobian.  It imports
:mod:`conedef.linalg` only after both bases passed the budget, so a
closed-form count (the line, Kunneth, the bases of the Cech model), a chase
whose maps all have an empty side, or a refusal never loads it.
"""

from __future__ import annotations

import sys
from math import comb
from operator import add

from . import InternalConsistencyError, RequestError
from .records import FrozenRecord, check_count

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from typing import Callable, Mapping, Sequence

    from .linalg import RationalMatrix, Row, Scalar

    Multiplier = Mapping[tuple[int, ...], Scalar]  # {exponent tuple: nonzero coefficient}


class OverBudgetError(RequestError):
    """A request over :data:`MAX_COST` or a basis over :data:`MAX_BASIS` was refused; nothing was built.

    The message reads ``<claim> <amount> <unit>, over the <budget> budget of
    <limit>``.  An amount too long for this interpreter to print (see
    :func:`over_print_limit`) reads ``at least 10^<digits>``: a price or a size
    computed from inputs of a few thousand digits each is refused like any
    other, not ended by int-to-str conversion."""

    def __init__(self, claim: str, amount: int, unit: str, budget: str, limit: int) -> None:
        over = over_print_limit(amount)
        super().__init__(f"{claim} {f'at least 10^{over}' if over else amount} {unit}, over the {budget} budget of {limit}")


def over_print_limit(x: int) -> int:
    """This interpreter's limit on the digits of ``str(x)``
    (``sys.get_int_max_str_digits``) if x has more digits than it, else 0.
    Every int the command line parsed fits; a count, price or size computed
    from them may not, and none of those is formatted past the limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit if limit and abs(x) >= 10**limit else 0


def check_printable(x: int, what: str) -> None:
    """Refuse, with a message that does not format x, an int ``what`` that
    this interpreter could not print (:func:`over_print_limit`)."""
    if limit := over_print_limit(x):
        raise RequestError(f"{what} has more than {limit} digits, over this interpreter's limit for printing an int "
                           "(PYTHONINTMAXSTRDIGITS=0 lifts it)")


# ----------------------------------------------------------------------
# Line bundles on projective n-space: the monomial model
# ----------------------------------------------------------------------


def hq_pn_line(n: int, k: int, q: int) -> int:
    """Dimension of level-q cohomology of O(k) on projective n-space: the one
    owner of the rules that n, k and q are ints (a bool is not one), n >= 1
    and 0 <= q <= n, which every basis, map and count of the monomial model
    reads through it."""
    if type(n) is not int or type(k) is not int or type(q) is not int:
        raise RequestError(f"n, k and q must be ints, got n={n!r}, k={k!r}, q={q!r}")
    if n < 1:
        raise RequestError("n must be at least 1")
    if not 0 <= q <= n:
        raise RequestError(f"cohomology level must be between 0 and {n}, got {q}")
    if q == 0:
        return comb(n + k, n) if k >= 0 else 0
    if q == n:
        return comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


# The two budgets, checked from closed forms before anything is built: a basis
# of MAX_BASIS monomials prints about 0.3 MB; MAX_COST units take 0.3-1.7 s.
MAX_BASIS = 10_000
MAX_COST = 100_000


def check_cost(cost: int) -> None:
    if cost > MAX_COST:
        raise OverBudgetError("the request costs", cost, "units", "cost", MAX_COST)


def check_window(m_lo: int, m_hi: int) -> None:
    if type(m_lo) is not int or type(m_hi) is not int:
        raise RequestError(f"weight window bounds must be ints, got {m_lo!r}..{m_hi!r}")
    if m_lo > m_hi:
        raise RequestError(f"weight window {m_lo}..{m_hi} is empty")


def priced_window(m_lo: int, m_hi: int, cost: Callable[[int], int]) -> range:
    """The weights of a nonempty window read at cost(m) >= 1 units each; one longer than MAX_COST is refused before the sum."""
    check_window(m_lo, m_hi)
    if m_hi - m_lo + 1 > MAX_COST:
        raise OverBudgetError(f"weight window {m_lo}..{m_hi} has", m_hi - m_lo + 1, "weights", "cost", MAX_COST)
    check_cost(sum(map(cost, range(m_lo, m_hi + 1))))
    return range(m_lo, m_hi + 1)


def _pn_basis(n: int, k: int, q: int) -> list[tuple[int, ...]]:
    """Ordered monomial basis for level q of O(k): the n+1 exponents sum to
    k and are all nonnegative (level 0) or all at most -1 (level n), in
    descending lexicographic order; a level strictly between 0 and n has
    none.

    Every basis of the package is built here.  One over MAX_BASIS is
    refused from its closed-form size before it is enumerated, and the
    enumeration is checked against that size."""
    size = hq_pn_line(n, k, q)
    if size > MAX_BASIS:
        raise OverBudgetError(f"the level-{q} basis of O({k}) on P^{n} has", size, "monomials", "basis", MAX_BASIS)
    monomials = _pn_monomials(n, k, q == n) if q in (0, n) else []
    if len(monomials) != size:
        raise InternalConsistencyError(f"level-{q} basis of O({k}) on P^{n}: enumerated {len(monomials)} monomials, closed form {size}")
    return monomials


def _pn_monomials(n: int, k: int, top: bool) -> list[tuple[int, ...]]:
    """The unchecked enumeration behind :func:`_pn_basis`.  Only qualifying
    tuples are generated: the leading exponent runs over exactly the
    values that leave the remaining n exponents a solution."""
    leading = range(-1, k + n - 1, -1) if top else range(k, -1, -1)
    if n == 1:
        return [(e, k - e) for e in leading]
    return [(e,) + rest for e in leading for rest in _pn_monomials(n - 1, k - e, top)]


def _pn_mult_matrix(grid: Sequence[Sequence[Multiplier]], n: int, k: int, q: int) -> RationalMatrix:
    """The block map that multiplies block column c by the homogeneous
    polynomial with terms grid[r][c] into block row r, where ``{}`` is a
    zero block.  Every block goes from the level-q monomial model of O(k)
    to that of O(k + deg), one degree for the whole grid.

    A product monomial outside the target basis has left the region; it is
    truncated to zero (only possible at level n).  Because the multiplier
    has nonnegative exponents, a monomial that leaves never returns, so the
    truncated product is still functorial.  Each basis is enumerated once
    (the source first), each nonzero is written once at its block offset,
    and the matrix is validated once; ``linalg`` loads only after both
    bases passed the budget."""
    terms = [exps for row in grid for p in row for exps in p]
    if set(map(len, terms)) - {n + 1}:
        raise ValueError(f"expected a polynomial in the {n + 1} coordinates")
    if not terms:
        raise ValueError("multiplication by the zero polynomial has no degree")
    degrees = set(map(sum, terms))
    if len(degrees) != 1:
        raise ValueError("multiplier must be homogeneous")
    if min(map(min, terms)) < 0:
        raise ValueError("multiplier must be an honest polynomial, not Laurent")
    src = _pn_basis(n, k, q)
    dst = _pn_basis(n, k + degrees.pop(), q)
    from .linalg import RationalMatrix

    index = {mono: row for row, mono in enumerate(dst)}
    rows: list[Row] = [{} for _ in range(len(grid) * len(dst))]
    # distinct terms of a block send one source monomial to distinct
    # products, so each cell is written at most once
    for r, blocks in enumerate(grid):
        offset = r * len(dst)
        for c, p in enumerate(blocks):
            for col, exps in enumerate(src, c * len(src)):
                for mono, coeff in p.items():
                    row = index.get(tuple(map(add, exps, mono)))
                    if row is not None:
                        rows[offset + row][col] = coeff
    return RationalMatrix(len(grid[0]) * len(src), rows)


def _coordinates(n: int) -> list[Multiplier]:
    return [{tuple(int(j == i) for j in range(n + 1)): 1} for i in range(n + 1)]


def _level(grid: Sequence[Sequence[Multiplier]], n: int, k: int, q: int) -> tuple[int, int]:
    """(kernel, cokernel) of the level-q map of a block grid (see
    :func:`_pn_mult_matrix`) from O(k)^cols to O(k + deg)^rows on n-space.

    Every chase reads its connecting maps here.  A map with an empty side
    (every map at a level strictly between 0 and n) has rank 0 by its
    shape and is not built; any other map is built once and eliminated
    once.  A level outside 0..n is refused by :func:`hq_pn_line`."""
    deg = sum(next(exps for row in grid for p in row for exps in p))
    src = len(grid[0]) * hq_pn_line(n, k, q)
    dst = len(grid) * hq_pn_line(n, k + deg, q)
    rank = _pn_mult_matrix(grid, n, k, q).rank() if src and dst else 0
    return src - rank, dst - rank


# ----------------------------------------------------------------------
# Cotangent twists via the coordinate-differential sequence
# ----------------------------------------------------------------------


def hq_pn_omega1(n: int, k: int, q: int) -> int:
    """Level-q cohomology of the twisted cotangent sheaf on n-space,
    n in {1, 2}, chased through the coordinate-differential sequence with
    computed connecting ranks."""
    if n not in (1, 2):
        raise RequestError("cotangent chase implemented for n = 1 and 2 only")
    # 0 -> Omega^1(k) -> O(k-1)^(n+1) -> O(k) -> 0: level q of Omega^1(k) is
    # the kernel of the level-q map plus the cokernel of the level-(q-1) map
    grid = [_coordinates(n)]
    kernel, cokernel = _level(grid, n, k - 1, q)
    if q == n and cokernel:
        raise InternalConsistencyError(
            f"cotangent chase n={n}, k={k}: the level-{n} map is not onto, "
            "but nothing sits above level n"
        )
    return kernel + (_level(grid, n, k - 1, q - 1)[1] if q else 0)


# ----------------------------------------------------------------------
# Tangent twists via the Euler sequence
# ----------------------------------------------------------------------


def _bott_tangent_p2(k: int) -> tuple[int, int]:
    """(h^1, h^2) of T(k) on the plane by Bott's formula: h^1 is 1 at k = -3
    and 0 elsewhere, and by Serre duality h^2(T(k)) = h^0(Omega^1(j)) =
    (j+1)(j-1) for j = -k-3 >= 2, else 0."""
    j = -k - 3
    return (1 if k == -3 else 0), ((j + 1) * (j - 1) if j >= 2 else 0)


def _tangent_p2(k: int) -> tuple[int, int]:
    """(h^1, h^2) of T(k) on the plane: the kernel and cokernel of the stacked
    top-level map of the Euler sequence, checked as a pair against Bott's."""
    chase = _level([[x] for x in _coordinates(2)], 2, k, 2)
    bott = _bott_tangent_p2(k)
    if chase != bott:
        raise InternalConsistencyError(f"tangent chase on the plane, k={k}: the Euler chase gives (h^1, h^2) = {chase}, Bott {bott}")
    return chase


def h1_tangent_pn_twist(n: int, k: int) -> int:
    """h^1 of the tangent sheaf of n-space twisted by O(k).

    n = 1 reduces to the line (the tangent sheaf is O(2)); n = 2 is an
    Euler-sequence chase whose connecting rank is computed, not assumed,
    and checked against Bott's formula; n >= 3 vanishes because both
    flanking groups in the chase vanish."""
    if n <= 1:  # the line's tangent sheaf is O(2); hq_pn_line refuses n < 1
        return hq_pn_line(n, 2 + k, 1)
    if n == 2:
        return _tangent_p2(k)[0]
    # 0 -> O(k) -> O(k+1)^(n+1) -> T(k) -> 0: h^1(T(k)) sits between h^1(O(k+1))^(n+1)
    # and h^2(O(k)), middle cohomology of line bundles, which hq_pn_line reads as 0
    # for 0 < q < n; with both flanks 0 this bound is h^1(T(k)) itself.  It reads
    # no map: the chase's grid of n + 1 coordinates costs O(n^2) to write down,
    # and n is unbounded (veronese:100000:2 answers at once).
    return (n + 1) * hq_pn_line(n, k + 1, 1) + hq_pn_line(n, k, 2)


def h2_tangent_p2_twist(k: int) -> int:
    """h^2 of the twisted tangent sheaf on the plane: the cokernel of the
    same stacked top-level map used for h^1, checked against Bott's
    formula."""
    return _tangent_p2(k)[1]


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
# Divisor classes on the plane blown up in r points
# ----------------------------------------------------------------------


class SurfaceDivisor(FrozenRecord):
    """A divisor class h*H + sum_i e_i * E_i on the blow-up of the plane in
    r = len(e) points, in the standard orthogonal basis (H; E_1..E_r) where
    H^2 = 1, E_i^2 = -1 and H.E_i = 0."""

    __slots__ = _fields = ("h", "e")

    @property
    def r(self) -> int:
        return len(self.e)

    @classmethod
    def canonical(cls, r: int) -> "SurfaceDivisor":
        """The canonical class: -3H + E_1 + ... + E_r."""
        check_count(r, "r")
        return cls(-3, (1,) * r)


def intersection(d1: SurfaceDivisor, d2: SurfaceDivisor) -> int:
    """Intersection number in the orthogonal basis: h1*h2 - sum e1_i*e2_i."""
    if d1.r != d2.r:
        raise ValueError("divisors live on blow-ups at different numbers of points")
    return d1.h * d2.h - sum(a * b for a, b in zip(d1.e, d2.e))


def restrict_to_exceptional(d: SurfaceDivisor, i: int) -> int:
    """Degree of the restriction of the divisor class to the i-th
    exceptional line (1-based), i.e. its intersection with E_i, read off
    directly: E_i meets H in 0 and E_j in -1 if j = i, else 0."""
    if not 1 <= i <= d.r:
        raise ValueError(f"exceptional index must satisfy 1 <= i <= r, got i={i}, r={d.r}")
    return -d.e[i - 1]
