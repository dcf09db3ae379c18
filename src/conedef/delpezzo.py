"""Step-by-step replay certificates for the published vanishing argument
on anticanonical cones over blown-up planes.

The engine cannot compute cohomology of twisted tangent sheaves on a
blow-up directly, and it does not pretend to.  Instead, each certificate
replays the argument that is in circulation for these cones, one step at a
time.  A step records the value the argument claims and the value this
package computes for it, and its status follows from those two alone:

* ASSERTED     -- nothing was computed: the step is structural (duality
                  reductions, projection formula, sequence chases) and is
                  recorded but not machine-checked;
* VERIFIED     -- the computed value equals the claimed one;
* CONTRADICTED -- the computed value differs from the claimed one.

The computations are the ones this package can do exactly: restriction
degrees, line cohomology on the exceptional curves, plane cotangent
cohomology.  A certificate PASSes only if every step is VERIFIED; any
CONTRADICTED step forces FAIL; otherwise it is PASS_WITH_ASSERTIONS.
Statuses and verdicts are the strings the envelope prints.  The per-step
"anchor" quotes the claim being replayed so a reader can locate it, and
the "rule" names the computation used to grade it.

Twists are indexed by the integer m in the twisting class m*K (K the
canonical class), matching how the replayed argument is organized.  Each
lemma's steps are one table, a tuple of step builders (K, m) -> CertStep:
``_POSITIVE`` for m >= 0 from the argument's first lemma (at most 6 points
blown up), ``_NEGATIVE_SMALL_R`` and ``_NEGATIVE_LARGE_R`` for m <= -2
from its second (at most 6 points) and third (7 or 8 points), and
``_SCALING`` for m = -1 from the scaling-direction discussion around the
main statement.  ``_twist_block`` picks the table of twist m (none for
m >= -1 at 7 or 8 points), and the table's length is what the twist costs,
so a window is priced from the tables it will replay.  The assembly steps
for at most 6 points are the constant ``_THEOREM``.
"""

from __future__ import annotations

from . import p1
from .projective import (
    SurfaceDivisor,
    check_printable,
    hq_pn_omega1,
    intersection,
    priced_window,
    restrict_to_exceptional,
)
from .records import FrozenRecord


class CertStep(FrozenRecord):
    """One graded step of a replay certificate: ``computed`` is None for a
    structural step, and ``status`` is read off ``claimed`` and
    ``computed``."""

    __slots__ = _fields = ("term", "claimed", "computed", "rule", "anchor")

    @property
    def status(self) -> str:
        if self.computed is None:
            return "ASSERTED"
        return "VERIFIED" if self.claimed == self.computed else "CONTRADICTED"

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields} | {"status": self.status}


class Certificate(FrozenRecord):
    """A claim and its graded steps, in replay order."""

    __slots__ = _fields = ("claim", "steps")

    @property
    def verdict(self) -> str:
        counts = self.counts()
        if counts["CONTRADICTED"]:
            return "FAIL"
        if self.steps and not counts["ASSERTED"]:
            return "PASS"
        return "PASS_WITH_ASSERTIONS"

    def counts(self) -> dict[str, int]:
        out = {"VERIFIED": 0, "ASSERTED": 0, "CONTRADICTED": 0}
        for s in self.steps:
            out[s.status] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "counts": self.counts(),
            "steps": [s.to_dict() for s in self.steps],
        }


# The grading rules that more than one step cites.
_LINE = "line cohomology closed form"
_RESTRICTION = "restriction degree from the intersection form"
_CHASE = "sequence chase as stated; inputs above"


def _asserted(term: str, anchor: str, rule: str = "structural step, not machine-checked") -> CertStep:
    return CertStep(term, None, None, rule, anchor)


# Twist m >= 0 (argument stated for r <= 6): push the tangent sheaf through
# the blow-up and kill the exceptional terms.
_POSITIVE = (
    lambda K, m: _asserted(
        f"[m={m}] blow-up tangent sequence",
        "0 -> T_Y -> pullback of the plane tangent sheaf -> degree-one sheaves on the exceptional lines -> 0",
    ),
    lambda K, m: CertStep(
        f"[m={m}] twist degree on each exceptional line", 1 - m, 1 + m * restrict_to_exceptional(K, 1),
        _RESTRICTION, "the exceptional summand twists to degree 1 - m",
    ),
    lambda K, m: CertStep(
        f"[m={m}] first cohomology of the line bundle of degree 1 - m", 0, p1.h_dim(1, 1 - m),
        _LINE, "for all m >= 0 the degree-(1-m) line bundle has no first cohomology",
    ),
    lambda K, m: _asserted(
        f"[m={m}] vanishing of the pulled-back plane term",
        "the projection formula reduces the pulled-back term to the plane, where it vanishes",
    ),
    lambda K, m: _asserted(
        f"[m={m}] conclusion for the twisted tangent sheaf",
        "the long exact sequence then gives the claimed vanishing in twist m", _CHASE,
    ),
)

# Twist m <= -2, r <= 6: Serre duality to the cotangent side, then an
# ampleness claim plus exceptional-line vanishing.  The auxiliary class
# -(m+1)K has degree m + 1 on an exceptional line, negative in every twist
# this table serves, so its ampleness step is CONTRADICTED.
_NEGATIVE_SMALL_R = (
    lambda K, m: _asserted(
        f"[m={m}] duality reduction to the cotangent side",
        "first cohomology of the tangent sheaf in twist m is dual to first cohomology of the cotangent sheaf twisted by -(m+1)K",
    ),
    lambda K, m: CertStep(
        f"[m={m}] claimed ampleness of the auxiliary class -(m+1)K", "positive degree on every exceptional line",
        f"degree {-(m + 1) * restrict_to_exceptional(K, 1)} on each exceptional line",
        "an ample class must restrict to positive degree on every curve; degree computed from the intersection form",
        "the auxiliary class is ample",
    ),
    lambda K, m: CertStep(
        f"[m={m}] restriction of the twisted cotangent summand to an exceptional line", m,
        -1 - (m + 1) * restrict_to_exceptional(K, 1), _RESTRICTION, "the exceptional summand restricts to degree m",
    ),
    lambda K, m: CertStep(
        f"[m={m}] sections of the line bundle of degree {m}", 0, p1.h_dim(0, m),
        _LINE, "no global sections in degree m <= -2",
    ),
    lambda K, m: CertStep(
        f"[m={m}] first cohomology of the line bundle of degree {m}", 0, p1.h_dim(1, m),
        _LINE, "both cohomology groups of the exceptional term vanish",
    ),
    lambda K, m: _asserted(
        f"[m={m}] vanishing of the pulled-back cotangent term",
        "the projection formula reduces the pulled-back cotangent term to the plane",
    ),
    lambda K, m: _asserted(
        f"[m={m}] conclusion for the twisted tangent sheaf",
        "the dual group vanishes, giving the claimed vanishing in twist m", _CHASE,
    ),
)

# Twist m <= -2, r in {7, 8}: duality with the class (1-m)K, exceptional
# degree m-2, and a plane cotangent vanishing.
_NEGATIVE_LARGE_R = (
    lambda K, m: _asserted(
        f"[m={m}] duality reduction to the cotangent sheaf twisted by (1-m)K",
        "the dual group is the first cohomology of the cotangent sheaf twisted by (1-m)K",
    ),
    lambda K, m: CertStep(
        f"[m={m}] restriction of the twisted cotangent summand to an exceptional line", m - 2,
        -1 + (1 - m) * restrict_to_exceptional(K, 1), _RESTRICTION, "the exceptional summand restricts to degree m - 2",
    ),
    lambda K, m: CertStep(
        f"[m={m}] first cohomology of the line bundle of degree {m - 2}", 0, p1.h_dim(1, m - 2),
        _LINE, "degree at most -4, hence no contribution",
    ),
    lambda K, m: _asserted(
        f"[m={m}] projection-formula identification with a plane cotangent group",
        "pushing forward identifies the remaining term with cotangent cohomology on the plane",
    ),
    lambda K, m: CertStep(
        f"[m={m}] first cohomology of the plane cotangent sheaf twisted by {-3 * (1 - m)}", 0,
        hq_pn_omega1(2, -3 * (1 - m), 1), "cotangent chase on the plane with computed connecting ranks",
        "the plane cotangent term vanishes in this twist range",
    ),
    lambda K, m: _asserted(
        f"[m={m}] conclusion for the twisted tangent sheaf",
        "combining the two vanishing statements gives the claim in twist m", _CHASE,
    ),
)

# Twist m = -1: the graded piece carrying the scaling vector field.
# Nothing here is a computation this engine can replay.
_SCALING = (
    lambda K, m: _asserted(
        f"[m={m}] identification of the untwisted tangent cohomology with the twist-(-1) group",
        "the first tangent cohomology of the surface is identified with its twist by -K",
    ),
    lambda K, m: _asserted(
        f"[m={m}] scaling direction spans the twist-(-1) contribution",
        "the derivation generating the torus action spans this graded piece, so the quotient vanishes",
    ),
)

# The graded assembly claimed for r <= 6: every step is structural.
_THEOREM = (
    _asserted(
        "graded decomposition of the cone's first deformation space",
        "a short exact sequence splits the deformation space into a quotient in twist -1 and a sum over twists m >= 0",
    ),
    _asserted(
        "duality for the nonnegative-twist block",
        "each nonnegative twist is dual to a cotangent group twisted by -(m+1)K",
    ),
    _asserted(
        "ampleness-based vanishing of the dual cotangent block",
        "vanishing for cotangent twists by ample classes is invoked for the whole block",
    ),
    _asserted(
        "conclusion: the anticanonical cone admits no graded deformations",
        "combining the blocks, every graded piece of the deformation space vanishes",
    ),
)


def _twist_block(r: int, m: int) -> tuple:
    """The step builders replayed in twist m."""
    if m <= -2:
        return _NEGATIVE_SMALL_R if r <= 6 else _NEGATIVE_LARGE_R
    if r >= 7:
        return ()
    return _SCALING if m == -1 else _POSITIVE


def delpezzo_certificate(r: int, m_lo: int = -6, m_hi: int = 3) -> Certificate:
    """Build the replay certificate for the blow-up of the plane in r
    points, twists m_lo..m_hi of the canonical class.  An r that
    ``BlownUpPlane(r)`` refuses is refused with its error.  Twist m costs
    the length of its block, and at least one unit of
    ``projective.MAX_COST``; a window over that budget is refused before
    any step is built, and so is one whose steps would print an int
    longer than this interpreter prints (:func:`~conedef.projective.check_printable`):
    the longest a step prints is the plane twist -3(1 - m) of
    ``_NEGATIVE_LARGE_R`` at the window's lowest m."""
    from .cones import BlownUpPlane  # not at the top: cones loads this module on demand

    BlownUpPlane(r)
    priced_window(m_lo, m_hi, lambda m: max(1, len(_twist_block(r, m))))
    if _twist_block(r, m_lo) is _NEGATIVE_LARGE_R:
        check_printable(-3 * (1 - m_lo), f"the plane twist -3(1 - m) of the certificate step at m = {m_lo}")
    K = SurfaceDivisor.canonical(r)
    steps = [
        CertStep(
            "self-intersection of the canonical class", 9 - r, intersection(K, K),
            "intersection form in the (H; E_1..E_r) basis", "K^2 = 9 - r on the blow-up of the plane in r points",
        ),
        CertStep(
            "degree of the canonical class on an exceptional line", -1, restrict_to_exceptional(K, 1),
            _RESTRICTION, "K restricts to degree -1 on each exceptional line",
        ),
    ]
    for m in range(m_lo, m_hi + 1):
        steps.extend(step(K, m) for step in _twist_block(r, m))
    if r <= 6:
        steps.extend(_THEOREM)
    claim = (
        f"replay of the published vanishing argument for the anticanonical cone over the "
        f"blow-up of the plane in {r} points, twists {m_lo}..{m_hi} of the canonical class"
    )
    return Certificate(claim, tuple(steps))
