"""Record semantics: equality by class and fields, hashing and refused
assignment for frozen records, the one positional constructor (field
order, no defaults, a wrong count refused), and the validation errors of
the records that keep their own constructor."""

import re
from fractions import Fraction

import pytest

from conedef.atiyah import CocycleReport
from conedef.cones import (
    BlownUpPlane,
    GradedAssembly,
    PolarizationFlags,
    ProductPolarization,
    RationalNormalCurve,
    RigidityVerdict,
    SegreQuadric,
    VeroneseSpace,
    WeightZeroReport,
)
from conedef.delpezzo import Certificate, CertStep, StepStatus
from conedef.linalg import RationalMatrix
from conedef.polynomials import Polynomial, RationalFunction
from conedef.presentation import GradedJacobian, NormalRoute
from conedef.projective import SurfaceDivisor
from conedef.records import FrozenRecord

_X, _Y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
_STEP = CertStep("t", 0, 0, "r", "a", StepStatus.VERIFIED)

# (class or named constructor, field values, the same values with one
# field changed, hashable, the name of the first field): every catalog
# entry and alias, the result records of the cones, presentation, delpezzo
# and atiyah layers, then the matrices and rational functions.  A frozen
# record hashes like the tuple of its fields, so one holding a dict, a list
# or a matrix is unhashable; the certificate and the cocycle report hold
# tuples and hash.
FROZEN = [
    (RationalNormalCurve, (4,), (5,), True, "d"),
    (VeroneseSpace, (2, 3), (2, 4), True, "n"),
    (SegreQuadric, (2,), (3,), True, "d"),
    (ProductPolarization, (2, 3), (3, 2), True, "a"),
    (BlownUpPlane, (6,), (5,), True, "r"),
    (RigidityVerdict, (False, (-1, 1), True, "note", None), (False, (-2, 1), True, "note", None), True, "rigid"),
    (WeightZeroReport, (0, 0, True, 0), (0, 0, True, None), True, "h1_structure"),
    (PolarizationFlags, (0, 1), (0, 0), True, "h1_polarization"),
    (GradedAssembly, ({-1: 1}, 0, {1: 0}, {"zero": "z"}), ({-1: 1}, 1, {1: 0}, {"zero": "z"}), False, "negative"),
    (GradedJacobian, (RationalMatrix.identity(2),), (RationalMatrix.zero(2, 2),), False, "matrix"),
    (NormalRoute, (0, 0, 0, 1, True), (0, 0, 0, 1, False), True, "normal_h0"),
    (CertStep, ("t", 0, 0, "r", "a", StepStatus.VERIFIED), ("t", 0, 1, "r", "a", StepStatus.CONTRADICTED), True, "term"),
    (Certificate, ("c", (_STEP,)), ("c", ()), True, "claim"),
    (CocycleReport, (((0, 1, 2),), True, True, True, True), (((0, 1, 2),), False, True, True, True), True, "triples"),
    (RationalMatrix, (2, 2, [{0: 1}, {1: 1}]), (2, 2, [{}, {1: Fraction(1)}]), False, "nrows"),
    (RationalFunction, (_X, _Y), (_Y, _X), True, "num"),
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
    verdict = RigidityVerdict(False, (-1, 1), True, "note", None)
    assert (verdict.rigid, verdict.witness) == (False, (-1, 1))
    assert (verdict.window_independent, verdict.note, verdict.certificate) == (True, "note", None)
    assert VeroneseSpace(2, 3).n == 2 and VeroneseSpace(2, 3).d == 3
    assert ProductPolarization(2, 3).a == 2 and ProductPolarization(2, 3).b == 3
    report = CocycleReport(((0, 1, 2),), True, False, True, True)
    assert (report.triples, report.multiplicative_ok, report.additive_ok) == (((0, 1, 2),), True, False)
    assert (report.degenerate_ok, report.nontrivial_witness, report.passed) == (True, True, False)
    # no field has a default, and the constructor takes no keywords
    with pytest.raises(TypeError):
        RigidityVerdict(False, (-1, 1), True, "note")
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
    (RationalNormalCurve, (0,), ValueError, "curve degree d must be at least 1"),
    (VeroneseSpace, (0, 2), ValueError, "need n >= 1 and d >= 1"),
    (VeroneseSpace, (2, 0), ValueError, "need n >= 1 and d >= 1"),
    (SegreQuadric, (0,), ValueError, "both bidegrees must be at least 1"),
    (ProductPolarization, (1, 0), ValueError, "both bidegrees must be at least 1"),
    (BlownUpPlane, (9,), ValueError, "r must be between 1 and 8"),
    (BlownUpPlane, (0,), ValueError, "r must be between 1 and 8"),
    (SurfaceDivisor, (-1, 0, ()), ValueError, "r must be nonnegative"),
    (SurfaceDivisor, (2, 0, (1,)), ValueError, "expected 2 exceptional coefficients, got 1"),
    (RationalMatrix, (-1, 0, []), ValueError, "matrix dimensions must be nonnegative"),
    (RationalMatrix, (2, 1, [{}]), ValueError, "expected 2 rows, got 1"),
    (RationalMatrix, (1, 1, [[Fraction(1)]]), ValueError, "each row must be a dict from column index to an exact scalar"),
    (RationalMatrix, (1, 1, [{1: Fraction(1)}]), ValueError, "column index 1 outside range(1)"),
    (RationalMatrix, (1, 1, [{0: "1"}]), ValueError, "entry at column 0 is a str, not an int or a Fraction"),
    (RationalMatrix, (1, 1, [{0: Fraction(0)}]), ValueError, "stored zero at column 0"),
    (RationalFunction, (Polynomial.constant(1, 1), Polynomial.constant(2, 1)), ValueError,
     "numerator and denominator in different variable sets"),
    (RationalFunction, (Polynomial.constant(1, 1), Polynomial.zero(1)), ZeroDivisionError, "zero denominator"),
    (RationalMatrix, (1, 1, [{0: True}]), ValueError, "entry at column 0 is a bool, not an int or a Fraction"),
    (RationalMatrix, (1, 1, [{0: 0.5}]), ValueError, "entry at column 0 is a float, not an int or a Fraction"),
]


@pytest.mark.parametrize("cls,args,exc,message", INVALID, ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(INVALID)])
def test_validation_errors(cls, args, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        cls(*args)
