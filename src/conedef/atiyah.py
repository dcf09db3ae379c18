"""Cocycle verification for the curvature-style obstruction class of the
degree-one bundle on projective n-space.

The bundle's transition data on the standard chart cover is the ratio of
two homogeneous coordinates, built by one function from the two
coordinates' exponent vectors: in the n+1 homogeneous coordinates, or in
the n affine coordinates of a chart, which drop the chart's own entry.
Two identities are checked exactly on every triple overlap, with no
symbolic simplifier in the loop -- just rational function arithmetic with
equality by cross-multiplication:

* multiplicative: g_ij * g_jk == g_ik;
* additive: the logarithmic differentials satisfy
  dlog g_ij + dlog g_jk == dlog g_ik, coefficient by coefficient, in the
  affine coordinates of each chart containing the triple overlap.

The degenerate identity g_ii == 1 (so its dlog vanishes) and a witness
that the cocycle itself is not identically zero are checked as well.

:func:`atiyah_cocycle_check` checks its ``n >= 2`` and its price before
anything is built, and :mod:`conedef.polynomials` is imported by the
function that builds a transition, so a refused request loads no exact
arithmetic.
"""

from __future__ import annotations

import itertools
from math import comb

from . import RequestError
from .projective import check_cost
from .records import FrozenRecord

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from .polynomials import RationalFunction


def _transition(n: int, chart: int | None, a: int, b: int) -> RationalFunction:
    """g_ab = X_a / X_b as a quotient of exponent vectors: the n+1
    homogeneous coordinates when ``chart`` is None, else the affine
    coordinates of ``chart``, which drop its entry, so X_chart is the
    constant 1 and X_l / X_chart is variable l - (l > chart)."""
    from .polynomials import RationalFunction

    num, den = ([int(j == l) for j in range(n + 1) if j != chart] for l in (a, b))
    return RationalFunction.monomial_quotient(len(num), num, den)


class CocycleReport(FrozenRecord):
    """The triple overlaps checked on n-space and the outcome of each identity."""

    __slots__ = _fields = ("triples", "multiplicative_ok", "additive_ok", "degenerate_ok", "nontrivial_witness")

    @property
    def passed(self) -> bool:
        return (
            self.multiplicative_ok
            and self.additive_ok
            and self.degenerate_ok
            and self.nontrivial_witness
        )


def atiyah_cocycle_check(n: int) -> CocycleReport:
    """Run the full cocycle verification on projective n-space (n >= 2,
    so that at least one triple overlap exists), priced at C(n + 1, 3) * 3n^2
    units: n dlog coefficients in n variables in each of the 3 charts of
    every triple overlap."""
    if n < 2:
        raise RequestError("need n >= 2 for a triple overlap")
    check_cost(comb(n + 1, 3) * 3 * n**2)
    triples = tuple(itertools.combinations(range(n + 1), 3))
    multiplicative_ok = additive_ok = True

    for (i, j, k) in triples:
        gij = _transition(n, None, i, j)
        gjk = _transition(n, None, j, k)
        gik = _transition(n, None, i, k)
        if not (gij * gjk).equals(gik):
            multiplicative_ok = False

        for chart in (i, j, k):
            cij = _transition(n, chart, i, j)
            cjk = _transition(n, chart, j, k)
            cik = _transition(n, chart, i, k)
            for l in range(n):
                residue = cij.dlog(l) + cjk.dlog(l) - cik.dlog(l)
                if not residue.is_zero():
                    additive_ok = False

    # g_ii == 1, so its logarithmic differential must vanish identically.
    gii = _transition(n, 0, 0, 0)
    degenerate_ok = all(gii.dlog(l).is_zero() for l in range(n))

    # the class itself is not zero: dlog(g_01) has a nonzero coefficient.
    g01 = _transition(n, 0, 0, 1)
    nontrivial_witness = any(not g01.dlog(l).is_zero() for l in range(n))

    return CocycleReport(triples, multiplicative_ok, additive_ok, degenerate_ok, nontrivial_witness)
