"""Record semantics: equality by class and fields, hashing and refused
assignment for frozen records, the one positional constructor (field
order, no defaults, a wrong count refused), the validation errors of the
catalog entries' one constructor and of the records that keep their own,
and the derived properties."""

import re
from fractions import Fraction

import pytest

from conedef.atiyah import CocycleReport
from conedef.cli import parse_variety
from conedef.cones import (
    BlownUpPlane,
    PolarizationFlags,
    ProductPolarization,
    RationalNormalCurve,
    RigidityVerdict,
    SegreQuadric,
    VeroneseSpace,
    rigidity_verdict,
    weight_zero_criterion,
)
from conedef.delpezzo import Certificate, CertStep, delpezzo_certificate
from conedef.linalg import RationalMatrix
from conedef.polynomials import Polynomial, RationalFunction
from conedef.presentation import GradedJacobian, NormalRoute, graded_jacobian_map, t1_via_normal
from conedef.projective import RequestError, SurfaceDivisor
from conedef.records import FrozenRecord

_X, _Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
_STEP = CertStep("t", 0, 0, "r", "a")

# (class or named constructor, field values, the same values with one
# field changed, hashable, the name of the first field): every catalog
# entry and alias, the result records of the cones, presentation, delpezzo
# and atiyah layers, then the matrices, rational functions and divisors.  A frozen
# record hashes like the tuple of its fields, so one holding a dict, a list
# or a matrix is unhashable; the certificate and the cocycle report hold
# tuples and hash.
FROZEN = [
    (RationalNormalCurve, (4,), (5,), True, "d"),
    (VeroneseSpace, (2, 3), (2, 4), True, "n"),
    (SegreQuadric, (2,), (3,), True, "d"),
    (ProductPolarization, (2, 3), (3, 2), True, "a"),
    (BlownUpPlane, (6,), (5,), True, "r"),
    (RigidityVerdict, ((-1, 1), "note", None), ((-2, 1), "note", None), True, "witness"),
    (PolarizationFlags, (0, 1), (0, 0), True, "h1_polarization"),
    (GradedJacobian, (RationalMatrix.identity(2),), (RationalMatrix.zero(2, 2),), False, "matrix"),
    (NormalRoute, (0, 0, 1, True), (0, 0, 1, False), True, "normal_h0"),
    (CertStep, ("t", 0, 0, "r", "a"), ("t", 0, 1, "r", "a"), True, "term"),
    (Certificate, ("c", (_STEP,)), ("c", ()), True, "claim"),
    (CocycleReport, (((0, 1, 2),), True, True, True, True), (((0, 1, 2),), False, True, True, True), True, "triples"),
    (RationalMatrix, (2, [{0: 1}, {1: 1}]), (2, [{}, {1: Fraction(1)}]), False, "ncols"),
    (RationalFunction, (_X, _Y), (_Y, _X), True, "num"),
    (SurfaceDivisor, (1, (0, 1)), (1, (1, 0)), True, "h"),
]


@pytest.mark.parametrize("cls,values,changed,hashable,field", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_frozen_records(cls, values, changed, hashable, field):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != cls(*changed)
    assert a != values and a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*changed)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b  # nothing above changed it
    assert repr(a).startswith(f"{type(a).__name__}(")


def test_equality_needs_the_same_class():
    # one (Y, L), one entry: an alias builds the entry it names
    assert RationalNormalCurve(3) == VeroneseSpace(1, 3) and hash(RationalNormalCurve(3)) == hash(VeroneseSpace(1, 3))
    assert SegreQuadric(2) == ProductPolarization(2, 2) and hash(SegreQuadric(2)) == hash(ProductPolarization(2, 2))
    assert {RationalNormalCurve(3), VeroneseSpace(1, 3), SegreQuadric(2), ProductPolarization(2, 2)} == {
        VeroneseSpace(1, 3), ProductPolarization(2, 2)
    }
    # equal field values in different classes stay different entries
    assert VeroneseSpace(2, 3) != ProductPolarization(2, 3)
    assert RationalNormalCurve(2) != SegreQuadric(2)


def test_constructor_order_and_defaults():
    verdict = RigidityVerdict((-1, 1), "note", None)
    assert (verdict.witness, verdict.note, verdict.certificate) == ((-1, 1), "note", None)
    assert VeroneseSpace(2, 3).n == 2 and VeroneseSpace(2, 3).d == 3
    assert ProductPolarization(2, 3).a == 2 and ProductPolarization(2, 3).b == 3
    report = CocycleReport(((0, 1, 2),), True, False, True, True)
    assert (report.triples, report.multiplicative_ok, report.additive_ok) == (((0, 1, 2),), True, False)
    assert (report.degenerate_ok, report.nontrivial_witness, report.passed) == (True, True, False)
    # no field has a default, and the constructor takes no keywords
    with pytest.raises(TypeError):
        RigidityVerdict((-1, 1), "note")
    # "rigid", a witness, no certificate yet window-dependent: the derived
    # values are no longer fields, so this verdict cannot be built
    with pytest.raises(TypeError):
        RigidityVerdict(True, (-1, 1), False, "x", None)
    for make in (lambda: Certificate("c"), lambda: CocycleReport(()), lambda: CocycleReport(triples=()), lambda: Certificate(claim="c", steps=())):
        with pytest.raises(TypeError):
            make()


def _one_constructor_classes() -> set[type]:
    """Every FrozenRecord subclass with fields and without an ``__init__``
    of its own, in the modules imported above (every module that defines a
    record)."""
    found, todo = set(), [FrozenRecord]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub._fields and "__init__" not in vars(sub):
                found.add(sub)
    return found


ONE_CONSTRUCTOR = [row for row in FROZEN if isinstance(row[0], type) and "__init__" not in vars(row[0])]


def test_every_one_constructor_class_has_a_row():
    assert {row[0] for row in ONE_CONSTRUCTOR} == _one_constructor_classes()


@pytest.mark.parametrize("cls,values", [row[:2] for row in ONE_CONSTRUCTOR], ids=[row[0].__name__ for row in ONE_CONSTRUCTOR])
def test_a_wrong_count_is_refused(cls, values):
    names = ", ".join(cls._fields)
    for wrong in (values[:-1], values + (None,)):
        message = f"{cls.__name__} takes {len(values)} values ({names}), got {len(wrong)}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cls(*wrong)


INVALID = [
    # the one constructor of every catalog entry names the class and the field, so an alias's message is true too
    (RationalNormalCurve, (0,), RequestError, "VeroneseSpace field d must be at least 1, got 0"),
    (VeroneseSpace, (0, 2), RequestError, "VeroneseSpace field n must be at least 1, got 0"),
    (VeroneseSpace, (2, 0), RequestError, "VeroneseSpace field d must be at least 1, got 0"),
    (SegreQuadric, (0,), RequestError, "ProductPolarization field a must be at least 1, got 0"),
    (ProductPolarization, (1, 0), RequestError, "ProductPolarization field b must be at least 1, got 0"),
    (BlownUpPlane, (9,), RequestError, "BlownUpPlane field r must be between 1 and 8, got 9"),
    (BlownUpPlane, (0,), RequestError, "BlownUpPlane field r must be between 1 and 8, got 0"),
    (RationalMatrix, (-1, []), ValueError, "column count must be nonnegative, got -1"),
    (RationalMatrix, (1, [[Fraction(1)]]), ValueError, "each row must be a dict from column index to an exact scalar"),
    (RationalMatrix, (1, [{1: Fraction(1)}]), ValueError, "column index 1 outside range(1)"),
    (RationalMatrix, (1, [{0: "1"}]), ValueError, "entry at column 0 is a str, not an int or a Fraction"),
    (RationalMatrix, (1, [{0: Fraction(0)}]), ValueError, "stored zero at column 0"),
    # the column count is the one stored dimension, and every row is checked against it
    (RationalMatrix, (2, [{0: 1}, {-1: 1}]), ValueError, "column index -1 outside range(2)"),
    (RationalMatrix, (2, [{0: 1}, {1: 0}]), ValueError, "stored zero at column 1"),
    (RationalMatrix, (0, [{0: 1}]), ValueError, "column index 0 outside range(0)"),
    (RationalFunction, (Polynomial.constant(1, 1), Polynomial.constant(2, 1)), ValueError,
     "numerator and denominator in different variable sets"),
    (RationalFunction, (Polynomial.constant(1, 1), Polynomial.zero(1)), ZeroDivisionError, "zero denominator"),
    (RationalMatrix, (1, [{0: True}]), ValueError, "entry at column 0 is a bool, not an int or a Fraction"),
    (RationalMatrix, (1, [{0: 0.5}]), ValueError, "entry at column 0 is a float, not an int or a Fraction"),
    (SurfaceDivisor.canonical, (-1,), ValueError, "r must be nonnegative, got -1"),
    (RationalMatrix, (2, [{True: 1}]), ValueError, "column index True is a bool, not an int"),
    # a numeric verdict and a certificate verdict are two kinds: no verdict is both
    (RigidityVerdict, ((-1, 1), "x", Certificate("c", ())), ValueError, "a verdict holds a witness or a certificate, not both"),
    # the zero matrix refuses a negative row count as the constructor refuses a negative column count
    (RationalMatrix.zero, (-3, 2), ValueError, "row count must be nonnegative, got -3"),
    # the column count is an int, as every column index is
    (RationalMatrix, (2.0, [{0: 1}]), ValueError, "column count 2.0 is a float, not an int"),
    (RationalMatrix, (True, [{0: 1}]), ValueError, "column count True is a bool, not an int"),
    (RationalMatrix.zero, (2, 1.5), ValueError, "column count 1.5 is a float, not an int"),
    # every size is checked by records.check_count: an int, not a bool, of at least 0
    (RationalMatrix.zero, (True, 2), ValueError, "row count True is a bool, not an int"),
    (RationalMatrix.zero, (1.5, 2), ValueError, "row count 1.5 is a float, not an int"),
    (Polynomial, (True,), ValueError, "nvars True is a bool, not an int"),
    (Polynomial, (1.5,), ValueError, "nvars 1.5 is a float, not an int"),
    (Polynomial, ("2",), ValueError, "nvars '2' is a str, not an int"),
    (SurfaceDivisor.canonical, (True,), ValueError, "r True is a bool, not an int"),
]


@pytest.mark.parametrize("cls,args,exc,message", INVALID, ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(INVALID)])
def test_validation_errors(cls, args, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        cls(*args)


_CATALOG = (
    [f"rnc:{d}" for d in range(1, 9)]
    + [f"segre:{d}" for d in range(1, 5)]
    + [f"product:{a}:{b}" for a in range(1, 5) for b in range(1, 5)]
    + [f"veronese:{n}:{d}" for n in range(1, 4) for d in range(1, 5)]
    + [f"delpezzo:{r}" for r in range(1, 9)]
)


def test_each_derived_property_equals_its_definition():
    """A record stores each value once; every value that follows from its
    fields is a property.  Each property is read here against its definition
    on the records the library builds."""
    for descriptor in _CATALOG:
        v = parse_variety(descriptor)
        verdict = rigidity_verdict(v)
        assert verdict.rigid is (None if verdict.certificate is not None else verdict.witness is None), descriptor
        assert verdict.window_independent is (verdict.certificate is None), descriptor
        flags, _ = weight_zero_criterion(v)
        assert flags.clean is (flags.h1_polarization == 0 and flags.h2_polarization == 0), descriptor
    for d in range(2, 9):
        for m in range(-3, 3):
            route = t1_via_normal(d, m)
            assert route.value == route.normal_h0 - route.restricted_tangent_h0 + route.curve_tangent_h0, (d, m)
            matrix = graded_jacobian_map(d, m).matrix
            assert matrix.nrows == len(matrix.rows), (d, m)
    for r in range(9):
        assert SurfaceDivisor.canonical(r).r == len(SurfaceDivisor.canonical(r).e) == r
    # the default window and one that replays every twist table
    for cert in (delpezzo_certificate(r, *window) for r in range(1, 9) for window in ((), (-9, 5))):
        for step in cert.steps:
            if step.computed is None:
                assert step.status == "ASSERTED", step
            else:
                assert step.status == ("VERIFIED" if step.claimed == step.computed else "CONTRADICTED"), step
        statuses = [step.status for step in cert.steps]
        if "CONTRADICTED" in statuses:
            assert cert.verdict == "FAIL", cert.claim
        elif statuses and set(statuses) == {"VERIFIED"}:
            assert cert.verdict == "PASS", cert.claim
        else:
            assert cert.verdict == "PASS_WITH_ASSERTIONS", cert.claim
