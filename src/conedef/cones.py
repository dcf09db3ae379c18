"""Graded counts h^q(T_Y (x) L^m), q in {1, 2}, for affine cones over a
small catalog of polarized varieties (Y, L).

The catalog covers exactly the geometries the lower-level machinery can
handle honestly:

* n-space embedded by degree-d forms, n in {1, 2} for h^2, any n for
  h^1; the line (n = 1) gives the rational normal curve of degree d;
* a product of two lines with a product polarization of bidegree (a, b),
  the smooth quadric surface among them;
* blown-up planes polarized anticanonically -- for these the engine only
  issues replay certificates (see :mod:`conedef.delpezzo`), never bare
  numbers, because it cannot compute surface tangent cohomology directly.

The count in weight m depends only on the pair (Y, L), so each pair has
one :class:`Variety` subclass: one entry, one equality, one hash, and its
own count method ``h(q, m)``.  The base class holds only what every entry
shares (the validating constructor, no certificate, unit cost); each
entry states its counts, its rule and its rigidity answer itself.
:data:`CATALOG` maps descriptor names to constructors; ``rnc:<d>`` and ``segre:<d>`` are
aliases whose named constructors :func:`RationalNormalCurve` and
:func:`SegreQuadric` return a ``VeroneseSpace(1, d)`` and a
``ProductPolarization(d, d)``.  The module-level functions below read the
protocol methods; the caller picks the order q (``t1_weight`` or
``t2_weight``, ``t1_table`` or ``t2_table``) and it is passed to ``h``,
never dispatched again.

Weight conventions: the count in weight m is h^1(T_Y (x) L^m), the
cohomology of the variety's tangent sheaf twisted by the m-th power of the
polarization, and h^2(T_Y (x) L^m) is its obstruction companion (not the
cone's own T^2).  The h^1 equals the weight-m piece of the cone's own T^1
where ``corollary_flags(v, m).clean`` holds, i.e. where L^m has neither
first nor second cohomology; elsewhere the two can differ (the product of
two lines in bidegree (1, 1), the threefold node, gives 2 here in weight
-2 against its T^1 of 1, the gap being the h^2 of L^-2).  Negative weights
are the smoothing directions; the weight-0 piece carries the quotient by
the scaling vector field when assembled into the full graded space.

Plane counts are cross-checked against Bott's formula; a mismatch raises.
No rigidity verdict is read off a window: each numeric entry has a closed
form (the line, Bott, Kunneth) that decides every weight at once.
"""

from __future__ import annotations

from . import InternalConsistencyError, OutOfScopeError, RequestError, projective
from .records import FrozenRecord

TYPE_CHECKING = False  # true to type checkers; at run time no command imports typing
if TYPE_CHECKING:
    from typing import Callable

    from .delpezzo import Certificate


# ----------------------------------------------------------------------
# The catalog protocol
# ----------------------------------------------------------------------

def _check_order(q: int) -> None:
    if type(q) is not int or q not in (1, 2):
        raise RequestError(f"the counts are h^1 and h^2 of the twisted tangent sheaf, not h^{q!r}")


class Variety(FrozenRecord):
    """A catalog entry: a frozen record whose field tuple ``_fields`` names,
    in order, the integers of its descriptor ``<name>:<field>:...``, with
    the name taken from :data:`CATALOG`.

    This is the one constructor of every entry: one value per field, each
    an ``int`` (a ``bool`` is refused with ``TypeError``) of at least 1 and,
    for a field the entry bounds in ``_upper``, at most that bound.  A value
    out of range is a :class:`RequestError` that names the class and the
    field, so the message stays true for an alias.  An entry declares only
    what differs from "an int of at least 1".

    The base class states only what every entry shares: this constructor,
    no replay certificate, and one unit of work a weight.  Each entry
    states for itself ``h(q, m)``, h^q(T_Y (x) L^m) for q in {1, 2} (call
    :func:`_check_order` first); ``rule()``, one line on how that count is
    computed; and ``polarization_cohomology(m)``, the pair (h^1, h^2) of
    the m-th polarization power (m = 0 is the structure sheaf).  A numeric
    entry also states ``closed_form_rigidity()``, the nonzero weight
    nearest zero (or None) with a note, from a closed form valid in every
    weight; a certificate-only entry overrides ``certificate`` instead and
    refuses bare counts with :class:`OutOfScopeError`."""

    __slots__ = ()
    _upper: dict[str, int] = {}  # the largest value of each field bounded above

    def __init__(self, *values: object) -> None:
        self._set(*values)
        for name, value in zip(self._fields, values):
            if type(value) is not int:
                raise TypeError(f"{type(self).__name__} field {name} must be an int, got {value!r}")
            if not 1 <= value <= self._upper.get(name, value):
                bound = f"between 1 and {self._upper[name]}" if name in self._upper else "at least 1"
                raise RequestError(f"{type(self).__name__} field {name} must be {bound}, got {value}")

    def certificate(self, m_lo: int, m_hi: int) -> Certificate | None:
        """The replay certificate that stands in for bare counts, if any."""
        return None

    def cost(self, m: int) -> int:
        """Units of work (see ``projective.MAX_COST``) to answer weight m: its table row."""
        return 1


class VeroneseSpace(Variety):
    """Projective n-space embedded by all degree-d forms; the line (n = 1)
    gives the rational normal curve of degree d."""

    __slots__ = _fields = ("n", "d")

    def h(self, q: int, m: int) -> int:
        _check_order(q)
        if q == 1:
            return projective.h1_tangent_pn_twist(self.n, self.d * m)
        if self.n > 2:
            raise OutOfScopeError("h^2(T_Y (x) L^m) is computed for n = 1 and n = 2 only")
        return projective.h2_tangent_p2_twist(self.d * m) if self.n == 2 else 0

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        k = self.d * m
        h2 = projective.hq_pn_line(self.n, k, 2) if self.n >= 2 else 0
        return projective.hq_pn_line(self.n, k, 1), h2

    def rule(self) -> str:
        if self.n == 1:
            return "line model: the tangent sheaf is O(2)"
        if self.n == 2:
            return "Euler-sequence chase on the plane with a computed connecting rank"
        return "both flanking groups of the Euler chase vanish for n >= 3"

    def closed_form_rigidity(self) -> tuple[int | None, str]:
        if self.n == 1:
            # h^1(O(2 + d*m)) = max(0, -3 - d*m) is nonzero exactly when
            # d*m <= -4, so the nonzero weight closest to zero is floor(-4/d)
            return (-4) // self.d, "closed form: weight m contributes max(0, -3 - d*m), nonzero for every d at m = floor(-4/d)"
        if self.n == 2:
            m_star = -3 // self.d if 3 % self.d == 0 else None
            return m_star, "Bott on the plane: h^1(T(k)) is 1 at k = -3 and 0 otherwise, so weight m contributes iff d*m = -3"
        return None, "Bott: h^1(T(k)) vanishes for every k on n-space with n >= 3"

    def cost(self, m: int) -> int:  # on the plane, plus 3 Euler blocks of one nonzero per source monomial
        return 1 + 3 * projective.hq_pn_line(2, self.d * m, 2) if self.n == 2 else 1


class ProductPolarization(Variety):
    """A product of two lines polarized by bidegree (a, b); the tangent
    sheaf splits, so every count is Kunneth on line bundles."""

    __slots__ = _fields = ("a", "b")

    def h(self, q: int, m: int) -> int:
        _check_order(q)
        hq = projective.h1_bidegree if q == 1 else projective.h2_bidegree
        a, b = m * self.a, m * self.b
        return hq(2 + a, b) + hq(a, 2 + b)

    def polarization_cohomology(self, m: int) -> tuple[int, int]:
        return projective.h1_bidegree(m * self.a, m * self.b), projective.h2_bidegree(m * self.a, m * self.b)

    def rule(self) -> str:
        return "Kunneth on the split tangent sheaf of the product of two lines"

    def closed_form_rigidity(self) -> tuple[int | None, str]:
        # O(2+ma, mb) + O(ma, 2+mb) has h^1 only where one entry is >= 0
        # and the other <= -2, which for m < 0 leaves m = -1 and m = -2
        lo, hi = sorted((self.a, self.b))
        m_star = -1 if lo <= 2 <= hi else -2 if hi == 1 else None
        return m_star, (
            "Kunneth on T = O(2,0) + O(0,2): the nonzero weight nearest zero is -1 when "
            "min(a,b) <= 2 <= max(a,b), -2 when a = b = 1, and there is none otherwise"
        )


class BlownUpPlane(Variety):
    """The plane blown up in r general points, polarized anticanonically."""

    __slots__ = _fields = ("r",)
    _upper = {"r": 8}

    def h(self, q: int, m: int) -> int:
        _check_order(q)
        raise OutOfScopeError("blown-up planes are certificate-only: use rigidity_verdict or delpezzo_certificate")

    def rule(self) -> str:
        return "certificate-only"

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
        from .delpezzo import delpezzo_certificate  # loaded only when a certificate is asked for

        return delpezzo_certificate(self.r, m_lo, m_hi)


def RationalNormalCurve(d: int) -> VeroneseSpace:
    """The rational normal curve of degree d: the line embedded by degree-d forms."""
    return VeroneseSpace(1, d)


def SegreQuadric(d: int) -> ProductPolarization:
    """The product of two lines in the symmetric bidegree (d, d)."""
    return ProductPolarization(d, d)


# The descriptor registry: each name with its constructor and the names of
# the integers of its descriptor <name>:<field>:...  An entry is one class
# above plus one line here; an alias of an entry is one line here naming a
# constructor that returns the entry, so one (Y, L) has one class.
CATALOG: dict[str, tuple[Callable[..., Variety], tuple[str, ...]]] = {
    "rnc": (RationalNormalCurve, ("d",)),
    "veronese": (VeroneseSpace, VeroneseSpace._fields),
    "segre": (SegreQuadric, ("d",)),
    "product": (ProductPolarization, ProductPolarization._fields),
    "delpezzo": (BlownUpPlane, BlownUpPlane._fields),
}


# ----------------------------------------------------------------------
# The counts h^1 and h^2 of T_Y (x) L^m
# ----------------------------------------------------------------------


def t1_weight(v: Variety, m: int) -> int:
    """h^1(T_Y (x) L^m) for the catalog entry v = (Y, L): the first
    tangent cohomology twisted by the m-th polarization power.  It is the
    weight-m piece of the cone's T^1 where ``corollary_flags(v, m).clean``
    holds.  Blown-up planes are certificate-only and raise."""
    return v.h(1, m)


def t2_weight(v: Variety, m: int) -> int:
    """h^2(T_Y (x) L^m) for the catalog entry v = (Y, L), the companion of
    :func:`t1_weight`; it is not the cone's T^2.  Only curves, the plane
    and the products of two lines are in scope."""
    return v.h(2, m)


def _table(v: Variety, order: int, m_lo: int, m_hi: int) -> dict[int, int]:
    """{weight: h^order(T_Y (x) L^weight)} over the inclusive window, priced before the first count."""
    return {m: v.h(order, m) for m in projective.priced_window(m_lo, m_hi, v.cost)}


def t1_table(v: Variety, m_lo: int, m_hi: int) -> dict[int, int]:
    return _table(v, 1, m_lo, m_hi)


def t2_table(v: Variety, m_lo: int, m_hi: int) -> dict[int, int]:
    return _table(v, 2, m_lo, m_hi)


# ----------------------------------------------------------------------
# Rigidity verdicts
# ----------------------------------------------------------------------


class RigidityVerdict(FrozenRecord):
    """Outcome of the rigidity question for a cone: ``witness`` is (weight,
    dimension) of the nonzero graded piece closest to zero, if any, or
    ``certificate`` the replay certificate of a certificate-only variety,
    never both.  With a certificate ``rigid`` is None and
    ``window_independent`` false (it speaks for its window only).  A numeric verdict is a closed form valid in every
    weight: it does not read the window, so any two windows give one record."""

    __slots__ = _fields = ("witness", "note", "certificate")

    def __init__(self, witness: tuple[int, int] | None, note: str, certificate: Certificate | None) -> None:
        if witness is not None and certificate is not None:
            raise ValueError("a verdict holds a witness or a certificate, not both")
        self._set(witness, note, certificate)

    @property
    def rigid(self) -> bool | None:
        return None if self.certificate is not None else self.witness is None

    @property
    def window_independent(self) -> bool:
        return self.certificate is None


def rigidity_verdict(v: Variety, m_lo: int = -6, m_hi: int = 3) -> RigidityVerdict:
    """Rigidity of the cone over v as read from the twisted-tangent count
    h^1(T_Y (x) L^m) of :func:`t1_weight`: rigid when no weight carries a
    nonzero count, with the nonzero weight nearest zero, named by the entry's
    closed form whatever the window, as witness.  The count, and so the
    verdict, speaks for the cone's own T^1 only at weights where
    ``corollary_flags(v, m).clean`` holds."""
    projective.check_window(m_lo, m_hi)  # a numeric verdict prices no window
    cert = v.certificate(m_lo, m_hi)
    if cert is not None:
        note = (
            "certificate-only geometry: the engine replays the published argument "
            f"step by step (verdict {cert.verdict}) and does not adjudicate rigidity itself"
        )
        return RigidityVerdict(None, note, cert)
    m_star, note = v.closed_form_rigidity()
    projective.check_cost(0 if m_star is None else v.cost(m_star))  # the one weight it reads
    witness = None if m_star is None else (m_star, t1_weight(v, m_star))
    if witness is not None and witness[1] == 0:
        raise InternalConsistencyError(f"{v!r}: the closed form puts a nonzero weight at {m_star}, the count there is 0")
    return RigidityVerdict(witness, note, None)


# ----------------------------------------------------------------------
# Hypothesis bookkeeping and graded assembly
# ----------------------------------------------------------------------


class PolarizationFlags(FrozenRecord):
    """Cohomology of the m-th polarization power, used to flag weights
    where the cone count and the twisted tangent cohomology could differ
    by correction terms."""

    __slots__ = _fields = ("h1_polarization", "h2_polarization")

    @property
    def clean(self) -> bool:
        return self.h1_polarization == 0 and self.h2_polarization == 0


def corollary_flags(v: Variety, m: int) -> PolarizationFlags:
    return PolarizationFlags(*v.polarization_cohomology(m))


def weight_zero_criterion(v: Variety) -> tuple[PolarizationFlags, int | None]:
    """The pair (``corollary_flags(v, 0)``, the weight-0 count).  The flags
    are the structure sheaf's h^1 and h^2, which must both vanish for the
    clean graded picture; the count is None for a certificate-only
    geometry, which gives no bare count."""
    try:
        return corollary_flags(v, 0), t1_weight(v, 0)
    except OutOfScopeError:
        return corollary_flags(v, 0), None


def pinkham_assembly(v: Variety, m_lo: int, m_hi: int) -> tuple[dict[int, int], int, dict[int, int]]:
    """The graded space over a window that must contain weight 0, split
    into (negative, zero, positive): the negative weights are the smoothing
    directions (the weights a smoothing can see); weight 0 is the
    equisingular piece, which in the full cone space is taken modulo the
    scaling vector field; the positive weights only deform the cone
    positively and are trivial for a rigid polarized structure.  The window
    is priced as one :func:`t1_table`, whose counts the three bands split.
    Certificate-only varieties raise (their pieces are never bare numbers)."""
    if not (m_lo <= 0 <= m_hi):
        raise RequestError("the assembly window must contain weight 0")
    table = t1_table(v, m_lo, m_hi)
    negative = {m: table[m] for m in range(m_lo, 0)}
    positive = {m: table[m] for m in range(1, m_hi + 1)}
    return negative, table[0], positive
