"""Independent reference computations used to freeze expected values.

Nothing in here imports the package under test.  Each oracle recomputes a
quantity by a different route than the implementation uses: counting
lattice points instead of evaluating closed forms, sympy elimination
instead of the package's own, and an extended-binomial Euler
characteristic instead of any cohomology chase.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy


# ---- line bundle cohomology on the line by brute enumeration ----------


def line_h0_enumerated(k: int) -> int:
    """Count monomials x0^a x1^b with a, b >= 0 and a + b = k."""
    return sum(1 for a in range(0, abs(k) + 1) if a >= 0 and k - a >= 0)


def line_h1_enumerated(k: int) -> int:
    """Count Laurent monomials with both exponents <= -1 summing to k."""
    count = 0
    for a in range(-1, k, -1):
        if k - a <= -1:
            count += 1
    return count


# ---- projective space by lattice point counting -----------------------


def pn_h0_enumerated(n: int, k: int) -> int:
    if k < 0:
        return 0
    return sum(
        1
        for exps in itertools.product(range(k + 1), repeat=n)
        if sum(exps) <= k
    )


def pn_top_enumerated(n: int, k: int) -> int:
    """Count exponent tuples with every entry <= -1 summing to k."""
    if k > -(n + 1):
        return 0
    total = 0
    for exps in itertools.product(range(-1, k - 1, -1), repeat=n):
        tail = k - sum(exps)
        if tail <= -1:
            total += 1
    return total


def pn_basis_enumerated(n: int, k: int, top: bool) -> list[tuple[int, ...]]:
    """The level-0 (top=False) or level-n (top=True) monomial basis of O(k)
    on n-space by enumerate, filter and sort: every candidate head of n
    exponents, the tail forced by the degree, kept when it lies in the
    region, then sorted into descending lexicographic order."""
    out: list[tuple[int, ...]] = []
    if not top:
        if k < 0:
            return []
        for head in itertools.product(range(k, -1, -1), repeat=n):
            tail = k - sum(head)
            if tail >= 0:
                out.append(head + (tail,))
    else:
        if k > -n - 1:
            return []
        # each exponent is between k + n (most negative possible) and -1
        for head in itertools.product(range(-1, k + n - 1, -1), repeat=n):
            tail = k - sum(head)
            if tail <= -1:
                out.append(head + (tail,))
    return sorted(out, reverse=True)


def extended_binomial(top: int, n: int) -> Fraction:
    """The polynomial binomial coefficient (top choose n) valid for any
    integer top: product form, exact."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(top - i, i + 1)
    return out


def euler_characteristic_line_bundle(n: int, k: int) -> int:
    """chi(O(k)) on n-space as the Hilbert polynomial value (n+k choose n)."""
    val = extended_binomial(n + k, n)
    assert val.denominator == 1
    return int(val)


# ---- exact linear algebra via sympy ----------------------------------


def sympy_matrix(data: list[list[Fraction]]) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in data])


def sympy_rank(data: list[list[Fraction]], ncols: int) -> int:
    if not data:
        return 0
    return sympy_matrix(data).rank()


def sympy_rref(data: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    if not data:
        return []
    reduced, _ = sympy_matrix(data).rref()
    return [
        [Fraction(int(reduced[i, j].p), int(reduced[i, j].q)) for j in range(reduced.cols)]
        for i in range(reduced.rows)
    ]


# ---- Kunneth by direct bicohomology enumeration -----------------------


def bidegree_h1_enumerated(a: int, b: int) -> int:
    """First cohomology of O(a, b) on the product of two lines, assembled
    from the factors by enumeration rather than closed forms."""
    return line_h0_enumerated(a) * line_h1_enumerated(b) + line_h1_enumerated(a) * line_h0_enumerated(b)


# ---- frozen golden data ----------------------------------------------

# The 6 x 5 Jacobian of the degree-4 determinantal presentation, row order
# = lexicographic generator pairs, column order z0..z4.
JACOBIAN_D4_GOLDEN = [
    ["z2", "-2*z1", "z0", "0", "0"],
    ["z3", "-z2", "-z1", "z0", "0"],
    ["z4", "-z3", "0", "-z1", "z0"],
    ["0", "z3", "-2*z2", "z1", "0"],
    ["0", "z4", "-z3", "-z2", "z1"],
    ["0", "0", "z4", "-2*z3", "z2"],
]
