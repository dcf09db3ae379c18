"""Independent reference computations used to freeze expected values.

Nothing in here imports the package under test.  Each oracle recomputes a
quantity by a different route than the implementation uses: counting
lattice points instead of evaluating closed forms, sympy elimination
instead of the package's own, an extended-binomial Euler characteristic
instead of any cohomology chase, Bott's closed form for twisted
differential forms instead of the Euler-sequence chase, Pinkham's
closed form for the T^1 of the rational normal curve cone instead of any
map, and the degrevlex order from its definition instead of a sort key.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

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


# ---- Bott's formula for twisted differential forms ------------------


def bott_hq_omega(n: int, p: int, q: int, k: int) -> int:
    """h^q(Omega^p(k)) on n-space by Bott's formula (Bott, *Homogeneous
    vector bundles*, Ann. Math. 66, 1957), n >= 1 and 0 <= p, q <= n:

    * q = 0: C(k+n-p, k) * C(k-1, p) when k > p, 1 when k = p = 0, else 0;
    * 0 < q < n: 1 when p = q and k = 0, else 0;
    * q = n: h^0(Omega^(n-p)(-k)) by Serre duality."""
    if n < 1 or not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("need n >= 1 and 0 <= p, q <= n")
    if q == n:
        return bott_hq_omega(n, n - p, 0, -k)
    if q > 0:
        return 1 if (p == q and k == 0) else 0
    if k > p:
        return comb(k + n - p, k) * comb(k - 1, p)
    return 1 if k == p == 0 else 0


def plane_tangent_h1_bott(k: int) -> int:
    """h^1(T(k)) on the plane.  The tangent sheaf of the plane is
    Omega^1(3) (contraction with the volume form, Omega^2 = O(-3)), so this
    is h^1(Omega^1(k+3)): 1 at k = -3 and 0 for every other k."""
    return bott_hq_omega(2, 1, 1, k + 3)


# ---- exact linear algebra via sympy ----------------------------------


def sympy_matrix(data: list[list[Fraction]]) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in data])


def sympy_rank(data: list[list[Fraction]], ncols: int) -> int:
    if not data:
        return 0
    return sympy_matrix(data).rank()


def sympy_pivot_columns(data: list[list[Fraction]], ncols: int) -> list[int]:
    if not data:
        return []
    _, pivots = sympy_matrix(data).rref()
    return list(pivots)


def sympy_rref(data: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    if not data:
        return []
    reduced, _ = sympy_matrix(data).rref()
    return [
        [Fraction(int(reduced[i, j].p), int(reduced[i, j].q)) for j in range(reduced.cols)]
        for i in range(reduced.rows)
    ]


# ---- the generator Jacobian and its graded pieces by sympy differentiation


def jacobian_rows_sympy(d: int) -> list[list[dict[tuple[int, ...], int]]]:
    """The Jacobian of the degree-d curve's 2x2 minors z_i z_(j+1) - z_(i+1) z_j
    (pairs i < j in lexicographic order): one row per minor, one
    ``{exponent tuple: int coefficient}`` dict per variable z_0..z_d, holding
    sympy's derivative of the minor by that variable (``{}`` where it is 0)."""
    z = sympy.symbols(f"z0:{d + 1}")
    minors = [z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d)]
    return [
        [{exps: int(c) for exps, c in sympy.Poly(sympy.diff(minor, zt), *z).as_dict().items()} for zt in z]
        for minor in minors
    ]


# ---- the graded Jacobian by sympy differentiation ----------------------


def graded_jacobian_sympy(d: int, m: int) -> list[list[int]]:
    """The weight-m graded Jacobian of the cone over the degree-d curve,
    cell by cell: differentiate each 2x2 minor z_i z_(j+1) - z_(i+1) z_j
    (pairs i < j in lexicographic order) by each z_t, substitute
    z_t -> x0^(d-t) x1^t, multiply by each grade-(m+1) monomial and read off
    the coefficients of the grade-(m+2) monomials.  Rows run over
    (generator, target monomial), columns over (variable, source monomial);
    the monomials x0^a x1^b of grade k have a + b = d*k, ordered by
    descending a, and there are none for k < 0."""
    z = sympy.symbols(f"z0:{d + 1}")
    x0, x1 = sympy.symbols("x0 x1")
    curve = {z[t]: x0 ** (d - t) * x1**t for t in range(d + 1)}

    def grade(k: int) -> list[tuple[int, int]]:
        return [(a, d * k - a) for a in range(d * k, -1, -1)]

    src, dst = grade(m + 1), grade(m + 2)
    minors = [z[i] * z[j + 1] - z[i + 1] * z[j] for i in range(d) for j in range(i + 1, d)]
    cells = [[0] * ((d + 1) * len(src)) for _ in range(len(minors) * len(dst))]
    for g, minor in enumerate(minors):
        for t in range(d + 1):
            partial = sympy.diff(minor, z[t]).subs(curve)
            for s, (a, b) in enumerate(src):
                terms = sympy.Poly(partial * x0**a * x1**b, x0, x1).as_dict()
                if not set(terms) <= set(dst):
                    raise ValueError(f"product left grade {m + 2}: {terms}")
                for r, mono in enumerate(dst):
                    cells[g * len(dst) + r][t * len(src) + s] = int(terms.get(mono, 0))
    return cells


# ---- Pinkham's T^1 of the rational normal curve cone -------------------


def rnc_cone_t1_pinkham(d: int, m: int) -> int:
    """Dimension of the weight-m piece of the literal T^1 of the cone over
    the degree-d rational normal curve, as Pinkham computed it (Deformations
    of algebraic varieties with G_m action, Asterisque 20, 1974): 2d - 4 in
    weight -1 for d >= 3, and for the quadric cone (d = 2, a hypersurface)
    1 in weight -2; 0 in every other weight."""
    if d == 2:
        return 1 if m == -2 else 0
    return 2 * d - 4 if m == -1 else 0


# ---- the degrevlex monomial order from its definition ----------------


def degrevlex_precedes(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether x^a comes strictly before x^b in graded reverse lexicographic
    order, as Cox, Little and O'Shea define it (Ideals, Varieties, and
    Algorithms, ch. 2, sec. 2): the larger total degree first; at equal
    degree, a comes first when the last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


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
