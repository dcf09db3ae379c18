"""Graded first and second deformation counts for affine cones over a
small catalog of polarized varieties.

The catalog covers exactly the geometries the lower-level machinery can
handle honestly:

* rational normal curves of degree d (the cone over the degree-d curve);
* the n-space embedded by degree-d forms, n in {1, 2} for second-order
  counts, any n for first-order ones;
* a smooth quadric surface / products of two lines with a product
  polarization of bidegree (a, b);
* blown-up planes polarized anticanonically -- for these the engine only
  issues replay certificates (see :mod:`conedef.delpezzo`), never bare
  numbers, because it cannot compute surface tangent cohomology directly.

Each entry is one class implementing the :class:`Variety` protocol, and
:data:`CATALOG` maps descriptor names to those classes.  The module-level
functions below dispatch through the protocol methods.

Weight conventions: the count in weight m is the first (or second)
cohomology of the variety's tangent sheaf twisted by the m-th power of the
polarization.  Negative weights are the smoothing directions; the weight-0
piece carries the quotient by the scaling vector field when assembled into
the full graded space.

Every rational-normal-curve entry is cross-checked against the closed form
max(0, -3 - d*m) and the Laurent monomial count; a mismatch raises, so a
table that comes back is internally consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from . import p1, projective
from .delpezzo import Certificate, delpezzo_certificate
from .projective import InternalConsistencyError


class OutOfScopeError(Exception):
    """The request is well-formed but outside what this engine computes."""


# ----------------------------------------------------------------------
# The catalog protocol
# ----------------------------------------------------------------------

_CERTIFICATE_ONLY = "blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate"


class Variety:
    """A catalog entry: a frozen dataclass whose integer fields, in order,
    are the fields of its descriptor ``<name>:<field>:...``, with the name
    taken from :data:`CATALOG`.

    Every entry implements ``polarization_cohomology(m)``, the pair
    (h^1, h^2) of the m-th polarization power (m = 0 is the structure
    sheaf).  The defaults below describe a certificate-only geometry: it
    gives no bare counts and decides rigidity only through a replay
    certificate."""

    def describe(self) -> str:
        return ":".join([_NAMES[type(self)], *(str(getattr(self, f.name)) for f in fields(self))])

    def t1(self, m: int) -> int:
        """First tangent cohomology twisted by the m-th polarization power."""
        raise OutOfScopeError(_CERTIFICATE_ONLY)

    def t2(self, m: int) -> int:
        """Second tangent cohomology twisted by the m-th polarization power."""
        raise OutOfScopeError(_CERTIFICATE_ONLY)

    def rule(self, order: int) -> str:
        """How the weight-m piece of the given order is computed."""
        return "certificate-only"

    def closed_form_rigidity(self) -> Optional[tuple[Optional[int], str]]:
        """(nonzero weight nearest zero, or None if there is none; note)
        when a closed form decides rigidity in every weight, else None."""
        return None

    def certificate(self, m_lo: int, m_hi: int) -> Optional[Certificate]:
        """The replay certificate that stands in for bare counts, if any."""
        return None


@dataclass(frozen=True)
class RationalNormalCurve(Variety):
    """The line embedded in d-space by degree-d forms."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("curve degree d must be at least 1")

    def t1(self, m: int) -> int:
        value = p1.h_dim(1, 2 + self.d * m)
        _rnc_cross_check(self.d, m, value)
        return value

    def t2(self, m: int) -> int:
        return 0  # no second cohomology on a curve

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        return p1.h_dim(1, self.d * m), 0

    def rule(self, order: int) -> str:
        if order == 1:
            return (
                "closed form on the line: weight m contributes h^1(O(2 + d*m)), cross-checked "
                "against max(0, -3 - d*m) and the monomial count"
            )
        return "curve: no second cohomology"

    def closed_form_rigidity(self) -> tuple[int, str]:
        # closed form max(0, -3 - d*m): nonzero exactly when d*m <= -4,
        # so the nonzero weight closest to zero is floor(-4/d).
        return (
            (-4) // self.d,
            "closed form: weight m contributes max(0, -3 - d*m), nonzero for every d at m = floor(-4/d)",
        )


def _rnc_cross_check(d: int, m: int, value: int) -> None:
    closed = max(0, -3 - d * m)
    laurent = len(p1.basis(1, 2 + d * m))
    if value != closed or value != laurent:
        raise InternalConsistencyError(
            f"rnc d={d}, m={m}: chase gave {value}, closed form {closed}, monomial count {laurent}"
        )


@dataclass(frozen=True)
class VeroneseSpace(Variety):
    """Projective n-space embedded by all degree-d forms."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 and d >= 1")

    def t1(self, m: int) -> int:
        return projective.h1_tangent_pn_twist(self.n, self.d * m)

    def t2(self, m: int) -> int:
        if self.n == 1:
            return 0
        if self.n == 2:
            return projective.h2_tangent_p2_twist(self.d * m)
        raise OutOfScopeError("second-order counts cover n = 1 and n = 2 only")

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        k = self.d * m
        h2 = projective.hq_pn_line(self.n, k, 2) if self.n >= 2 else 0
        return projective.hq_pn_line(self.n, k, 1), h2

    def rule(self, order: int) -> str:
        if self.n == 1:
            return "line model: the tangent sheaf is O(2)"
        if self.n == 2:
            return "Euler-sequence chase on the plane with a computed connecting rank"
        return "both flanking groups of the Euler chase vanish for n >= 3"


class _ProductOfLines(Variety):
    """A product of two lines polarized by the bidegree ``self.bidegree``;
    the tangent sheaf splits, so every count is Kunneth on line bundles."""

    def t1(self, m: int) -> int:
        a, b = self.bidegree
        return projective.h1_bidegree(2 + m * a, m * b) + projective.h1_bidegree(m * a, 2 + m * b)

    def t2(self, m: int) -> int:
        a, b = self.bidegree
        return projective.h2_bidegree(2 + m * a, m * b) + projective.h2_bidegree(m * a, 2 + m * b)

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        a, b = self.bidegree
        return projective.h1_bidegree(m * a, m * b), projective.h2_bidegree(m * a, m * b)

    def rule(self, order: int) -> str:
        return "Kunneth on the split tangent sheaf of the product of two lines"


@dataclass(frozen=True)
class SegreQuadric(_ProductOfLines):
    """A product of two lines polarized by the symmetric bidegree (d, d)."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("need d >= 1")

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.d, self.d)

    def closed_form_rigidity(self) -> tuple[Optional[int], str]:
        # the two split summands contribute only when m*d = -2
        if (-2) % self.d == 0:
            return -2 // self.d, "split tangent sheaf: a weight contributes iff m*d = -2, which is solvable here"
        return None, "split tangent sheaf: a weight contributes iff m*d = -2, which has no integer solution here"


@dataclass(frozen=True)
class ProductPolarization(_ProductOfLines):
    """A product of two lines polarized by bidegree (a, b)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("both bidegrees must be at least 1")

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class BlownUpPlane(Variety):
    """The plane blown up in r general points, polarized anticanonically."""

    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.r <= 8:
            raise ValueError("r must be between 1 and 8")

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        """First cohomology of every anticanonical power vanishes (duality
        plus vanishing for the positive powers).  The second is, by duality
        and the rational-surface section count, the space of sections of
        the (m+1)-st canonical power: empty for m >= 0 (so the structure
        sheaf has no cohomology), one-dimensional at m = -1, and of size
        1 + a(a+1)(9-r)/2 for m <= -2 with a = -1 - m."""
        if m >= 0:
            return 0, 0
        if m == -1:
            return 0, 1
        a = -1 - m
        return 0, 1 + a * (a + 1) * (9 - self.r) // 2

    def certificate(self, m_lo: int, m_hi: int) -> Certificate:
        return delpezzo_certificate(self.r, m_lo, m_hi)


# The descriptor registry: adding a catalog entry is one class above plus
# one line here.
CATALOG: dict[str, type[Variety]] = {
    "rnc": RationalNormalCurve,
    "veronese": VeroneseSpace,
    "segre": SegreQuadric,
    "product": ProductPolarization,
    "delpezzo": BlownUpPlane,
}
_NAMES = {cls: name for name, cls in CATALOG.items()}


# ----------------------------------------------------------------------
# First- and second-order counts
# ----------------------------------------------------------------------


def t1_weight(v: Variety, m: int) -> int:
    """Dimension of the weight-m first-order deformation space of the cone
    over v (first tangent cohomology twisted by the m-th polarization
    power).  Blown-up planes are certificate-only and raise."""
    return v.t1(m)


def t2_weight(v: Variety, m: int) -> int:
    """Dimension of the weight-m second-order obstruction space (second
    tangent cohomology twisted by the m-th polarization power).  Only
    curves and the surfaces with a computable model are in scope."""
    return v.t2(m)


@dataclass(frozen=True)
class GradedTable:
    """Weight-indexed dimensions over an inclusive window."""

    variety: str
    order: int
    m_lo: int
    m_hi: int
    entries: dict[int, int]

    def nonzero_weights(self) -> list[int]:
        return [m for m in sorted(self.entries) if self.entries[m] != 0]


def _check_window(m_lo: int, m_hi: int) -> None:
    if m_lo > m_hi:
        raise ValueError(f"weight window {m_lo}..{m_hi} is empty")


def t1_table(v: Variety, m_lo: int, m_hi: int) -> GradedTable:
    _check_window(m_lo, m_hi)
    entries = {m: t1_weight(v, m) for m in range(m_lo, m_hi + 1)}
    return GradedTable(v.describe(), 1, m_lo, m_hi, entries)


def t2_table(v: Variety, m_lo: int, m_hi: int) -> GradedTable:
    _check_window(m_lo, m_hi)
    entries = {m: t2_weight(v, m) for m in range(m_lo, m_hi + 1)}
    return GradedTable(v.describe(), 2, m_lo, m_hi, entries)


# ----------------------------------------------------------------------
# Rigidity verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RigidityVerdict:
    """Outcome of the rigidity question for a cone.  ``rigid`` is None for
    certificate-only varieties; ``witness`` is (weight, dimension) of the
    nonzero graded piece closest to zero when one exists;
    ``window_independent`` records whether the verdict came from a closed
    form valid for every weight or only from scanning the window."""

    variety: str
    rigid: Optional[bool]
    witness: Optional[tuple[int, int]]
    m_lo: int
    m_hi: int
    window_independent: bool
    note: str
    certificate: Optional[Certificate] = None


def rigidity_verdict(v: Variety, m_lo: int = -6, m_hi: int = 3) -> RigidityVerdict:
    _check_window(m_lo, m_hi)
    desc = v.describe()

    cert = v.certificate(m_lo, m_hi)
    if cert is not None:
        return RigidityVerdict(
            variety=desc,
            rigid=None,
            witness=None,
            m_lo=m_lo,
            m_hi=m_hi,
            window_independent=False,
            note=(
                "certificate-only geometry: the engine replays the published argument "
                f"step by step (verdict {cert.verdict.value}) and does not adjudicate rigidity itself"
            ),
            certificate=cert,
        )

    closed = v.closed_form_rigidity()
    if closed is not None:
        m_star, note = closed
        witness = None if m_star is None else (m_star, t1_weight(v, m_star))
    else:
        # no closed-form criterion: scan the window descending so the
        # witness is the weight nearest zero.
        witness = None
        for m in range(m_hi, m_lo - 1, -1):
            dim = t1_weight(v, m)
            if dim != 0:
                witness = (m, dim)
                break
        note = (
            f"no nonzero weight in the window {m_lo}..{m_hi} (window-limited verdict)"
            if witness is None
            else "witness is the nonzero weight closest to zero within the window"
        )
    return RigidityVerdict(
        variety=desc,
        rigid=witness is None,
        witness=witness,
        m_lo=m_lo,
        m_hi=m_hi,
        window_independent=closed is not None,
        note=note,
    )


# ----------------------------------------------------------------------
# Hypothesis bookkeeping
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightZeroReport:
    """Sanity data for the identification of cone deformations with
    twisted tangent cohomology: the structure sheaf's first and second
    cohomology (both must vanish for the clean graded picture) and, when
    computable, the weight-0 count itself."""

    variety: str
    h1_structure: int
    h2_structure: int
    criterion_holds: bool
    t1_zero: Optional[int]


def weight_zero_criterion(v: Variety) -> WeightZeroReport:
    h1o, h2o = v.polarization_cohomology(0)
    try:
        t1z: Optional[int] = t1_weight(v, 0)
    except OutOfScopeError:
        t1z = None  # certificate-only geometries give no bare count
    return WeightZeroReport(v.describe(), h1o, h2o, h1o == 0 and h2o == 0, t1z)


@dataclass(frozen=True)
class PolarizationFlags:
    """Cohomology of the m-th polarization power, used to flag weights
    where the cone count and the twisted tangent cohomology could differ
    by correction terms."""

    variety: str
    m: int
    h1_polarization: int
    h2_polarization: int

    @property
    def clean(self) -> bool:
        return self.h1_polarization == 0 and self.h2_polarization == 0


def corollary_flags(v: Variety, m: int) -> PolarizationFlags:
    return PolarizationFlags(v.describe(), m, *v.polarization_cohomology(m))


# ----------------------------------------------------------------------
# Graded assembly
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GradedAssembly:
    """The graded first-order space split into negative, zero and positive
    weights, with the role each band plays."""

    variety: str
    negative: dict[int, int]
    zero: int
    positive: dict[int, int]
    roles: dict[str, str]

    def total(self) -> int:
        return sum(self.negative.values()) + self.zero + sum(self.positive.values())


def pinkham_assembly(v: Variety, m_lo: int, m_hi: int) -> GradedAssembly:
    """Assemble the graded space over a window that must contain weight 0.
    Certificate-only varieties raise (their pieces are never bare numbers)."""
    _check_window(m_lo, m_hi)
    if not (m_lo <= 0 <= m_hi):
        raise ValueError("the assembly window must contain weight 0")
    negative = {m: t1_weight(v, m) for m in range(m_lo, 0)}
    zero = t1_weight(v, 0)
    positive = {m: t1_weight(v, m) for m in range(1, m_hi + 1)}
    roles = {
        "negative": "smoothing directions (the weights a smoothing can see)",
        "zero": "equisingular piece; in the full cone space this band is taken modulo the scaling vector field",
        "positive": "directions that only deform the cone positively; trivial for a rigid polarized structure",
    }
    return GradedAssembly(v.describe(), negative, zero, positive, roles)
