"""Polynomial substrate: arithmetic, ordering, rational functions."""

import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conedef.polynomials import Polynomial, RationalFunction, degrevlex_cmp
from oracles import degrevlex_precedes


def mono(*exps, c=1):
    return Polynomial.monomial(len(exps), exps, c)


def test_construction_drops_zero_terms():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert not Polynomial.zero(2)


@pytest.mark.parametrize("coeff", [0.5, "1", None, 1j, Fraction(1, 3), Fraction(2)], ids=str)
def test_inexact_coefficients_are_refused(coeff):
    """Coefficients are ints: anything else, a Fraction included (an
    integral one too), is refused on construction and as a scalar factor."""
    with pytest.raises(TypeError, match=f"^polynomial coefficients must be int, got {type(coeff).__name__}$"):
        Polynomial(1, {(0,): coeff})
    with pytest.raises(TypeError, match=f"^polynomial coefficients must be int, got {type(coeff).__name__}$"):
        mono(1) * coeff


def test_a_bool_coefficient_is_refused_and_an_int_is_stored():
    """A bool is not an int coefficient, as every other int the package
    reads is not: it is refused on construction and as a scalar factor."""
    with pytest.raises(TypeError, match="^polynomial coefficients must be int, got bool$"):
        Polynomial(2, {(1, 0): True})
    with pytest.raises(TypeError, match="^polynomial coefficients must be int, got bool$"):
        mono(1, 1) * True
    with pytest.raises(TypeError, match="^polynomial coefficients must be int, got bool$"):
        False * mono(1, 1)
    p = Polynomial(2, {(1, 0): 1, (0, 1): 2})
    assert all(type(c) is int for c in p.terms.values())
    assert type(p.coefficient((1, 1))) is int


@pytest.mark.parametrize("exps", [(1.5,), (1.0,), (True,), "1"], ids=repr)
def test_exponents_must_be_a_tuple_of_ints(exps):
    """An exponent key is stored as given, never coerced, so x^1.5 is
    refused rather than read as x."""
    with pytest.raises(TypeError, match="^exponents must be a tuple of ints, got "):
        Polynomial(1, {exps: 1})


@pytest.mark.parametrize("exps", [(1.0, 0), (True, False), [1, 0]], ids=repr)
def test_a_coefficient_key_must_be_a_tuple_of_ints(exps):
    """A key the constructor refuses is refused when asked for a coefficient
    too, not coerced and looked up: x0 has no coefficient at (1.0, 0)."""
    with pytest.raises(TypeError, match=f"^exponents must be a tuple of ints, got {re.escape(repr(exps))}$"):
        Polynomial.variable(2, 0).coefficient(exps)
    assert Polynomial.variable(2, 0).coefficient((1, 0)) == 1


@pytest.mark.parametrize(
    "call,what,got",
    [
        (lambda: Polynomial.variable(2, True), "variable index", "bool"),
        (lambda: Polynomial.variable(2, 1.0), "variable index", "float"),
        (lambda: Polynomial.variable(3, 0).derivative(True), "variable index", "bool"),
        (lambda: Polynomial.variable(3, 0).derivative(1.0), "variable index", "float"),
        (lambda: RationalFunction(mono(1, 0), mono(0, 1)).derivative(True), "variable index", "bool"),
        (lambda: Polynomial.variable(2, 0) ** True, "power", "bool"),
        (lambda: Polynomial.variable(2, 0) ** 1.0, "power", "float"),
        (lambda: Polynomial.variable(2, 0) ** 1.5, "power", "float"),
    ],
    ids=["variable-bool", "variable-float", "derivative-bool", "derivative-float", "rational-derivative-bool",
         "power-bool", "power-float", "power-fractional"],
)
def test_an_index_or_a_power_must_be_an_int(call, what, got):
    """A variable index or a power is read as an exponent is, never coerced:
    ``Polynomial.variable(2, True)`` is refused rather than read as x1 and
    ``x ** True`` rather than read as x."""
    with pytest.raises(TypeError, match=f"^{what} must be an int, got {got}$"):
        call()


_ZERO_FUNCTION = RationalFunction(Polynomial.zero(1), Polynomial.constant(1, 1))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Polynomial.variable(2, 2), ValueError, "variable index 2 out of range for 2 variables"),
        (lambda: mono(1, 1).derivative(2), ValueError, "variable index 2 out of range"),
        (lambda: mono(1, 1) + mono(1, 1, 1), ValueError, "polynomials live in different variable sets"),
        (lambda: Polynomial.variable(2, 0) ** -1, ValueError, "negative powers are not polynomials"),
        (lambda: mono(1, 1).substitute([mono(1)]), ValueError, "need one image per variable"),
        (lambda: Polynomial.constant(0, 1).substitute([]), ValueError, "substitute needs at least one variable"),
        (lambda: mono(1, 1).substitute([mono(1), mono(1, 0)]), ValueError, "images live in different variable sets"),
        (lambda: mono(-1, 0).substitute([mono(1), mono(1)]), ValueError, "cannot substitute into a Laurent exponent"),
        (lambda: mono(1, 1).to_string(["a"]), ValueError, "wrong number of variable names"),
        (lambda: RationalFunction(mono(1), mono(0)) / _ZERO_FUNCTION, ZeroDivisionError, "division by the zero function"),
        (lambda: _ZERO_FUNCTION.dlog(0), ZeroDivisionError, "log of the zero function"),
    ],
    ids=["variable-index", "derivative-index", "add-across-variable-sets", "negative-power", "image-count",
         "no-variables", "images-across-variable-sets", "laurent-exponent", "name-count", "divide-by-zero",
         "log-of-zero"],
)
def test_each_refusal_names_its_reason(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_exponent_tuple_of_the_wrong_length_is_refused():
    with pytest.raises(ValueError, match=r"^exponent tuple \(1, 0\) has wrong length for 1 variables$"):
        Polynomial(1, {(1, 0): 1})


def test_equality_and_hash():
    a = mono(1, 2) + mono(0, 0, c=3)
    b = Polynomial(2, {(0, 0): 3, (1, 2): 1})
    assert a == b
    assert hash(a) == hash(b)


def test_addition_cancels():
    p = mono(2, 1)
    assert (p - p).is_zero()


def test_multiplication_and_power():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert (x + y) ** 2 == x * x + 2 * (x * y) + y * y


def test_scalar_multiplication():
    p = mono(1, 1)
    assert 3 * p == Polynomial(2, {(1, 1): 3})
    with pytest.raises(TypeError, match="^polynomial coefficients must be int, got Fraction$"):
        Fraction(1, 2) * p


def test_derivative():
    # d/dx0 (x0^3 x1) = 3 x0^2 x1
    p = mono(3, 1)
    assert p.derivative(0) == Polynomial(2, {(2, 1): 3})
    assert p.derivative(1) == Polynomial(2, {(3, 0): 1})
    assert Polynomial.constant(2, 5).derivative(0).is_zero()


def test_homogeneity():
    assert mono(2, 1).is_homogeneous()
    assert mono(2, 1).homogeneous_degree() == 3
    assert not (mono(1, 0) + mono(1, 1)).is_homogeneous()
    with pytest.raises(ValueError):
        Polynomial.zero(2).homogeneous_degree()


def test_substitution():
    # p(z0, z1) = z0*z1 at z0 -> x^2, z1 -> x*y gives x^3*y
    p = mono(1, 1)
    x2 = mono(2, 0)
    xy = mono(1, 1)
    assert p.substitute([x2, xy]) == mono(3, 1)


def test_degrevlex_chain():
    """The canonical order on the degree-2 monomials in three variables."""
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert degrevlex_cmp(a, b) > 0
    # degree dominates
    assert degrevlex_cmp((3, 0, 0), (0, 1, 1)) > 0
    assert degrevlex_cmp((1, 0, 0), (1, 0, 0)) == 0


@st.composite
def polynomials(draw):
    """A polynomial in 1-4 variables with up to 8 terms of degree at most 4 in each variable."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return Polynomial(nvars, draw(st.dictionaries(exps, st.integers(-5, 5), max_size=8)))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[st.tuples(*[st.integers(0, 4)] * n)] * 2)))
@settings(max_examples=300, deadline=None)
def test_degrevlex_cmp_is_the_textbook_order(pair):
    a, b = pair
    assert (degrevlex_cmp(a, b) > 0) == degrevlex_precedes(a, b)
    assert (degrevlex_cmp(a, b) < 0) == degrevlex_precedes(b, a)


@given(polynomials())
@settings(max_examples=200, deadline=None)
def test_monomials_descend_in_the_textbook_order(p):
    order = p.monomials()
    assert sorted(order) == sorted(p.terms)
    assert all(degrevlex_precedes(a, b) for a, b in zip(order, order[1:]))


@given(polynomials())
@settings(max_examples=200, deadline=None)
def test_to_string_round_trips_through_sympy(p):
    """The printed polynomial, read by sympy with ^ as **, is the one its terms build."""
    xs = sympy.symbols(f"x0:{p.nvars}")
    built = sympy.Add(*(c * sympy.Mul(*(x**e for x, e in zip(xs, exps))) for exps, c in p.terms.items()))
    printed = sympy.sympify(p.to_string().replace("^", "**"), locals=dict(zip(map(str, xs), xs)))
    assert sympy.expand(printed - built) == 0


def test_to_string_formatting():
    p = Polynomial(2, {(2, 0): 1, (1, 1): -2, (0, 2): 3})
    assert p.to_string() == "x0^2 - 2*x0*x1 + 3*x1^2"
    assert Polynomial.zero(2).to_string() == "0"
    assert Polynomial(1, {(0,): -4}).to_string() == "-4"


@given(
    st.lists(
        st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-5, 5)),
        max_size=6,
    ),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-5, 5)),
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_multiplication_is_commutative(tA, tB):
    a = Polynomial(2, dict(tA))
    b = Polynomial(2, dict(tB))
    assert a * b == b * a


# ---- rational functions ------------------------------------------------


def test_rational_equality_by_cross_multiplication():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    f = RationalFunction(x * y, y)  # xy/y
    g = RationalFunction(x, one)  # x
    assert f.equals(g)
    assert not f.equals(RationalFunction(y, one))


def test_rational_arithmetic():
    x = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    f = RationalFunction(one, x)  # 1/x
    g = RationalFunction(x, one)  # x
    assert (f * g).equals(RationalFunction(one, one))
    assert (f + f).equals(RationalFunction(Polynomial.constant(1, 2), x))
    assert (g / g).equals(RationalFunction(one, one))


def test_zero_denominator_rejected():
    one = Polynomial.constant(1, 1)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(one, Polynomial.zero(1))


def test_dlog_of_power():
    # dlog(x^3) = 3/x
    x = Polynomial.variable(1, 0)
    f = RationalFunction.from_polynomial(mono(3))
    expected = RationalFunction(Polynomial.constant(1, 3), x)
    assert f.dlog(0).equals(expected)


def test_dlog_product_rule():
    # dlog(fg) = dlog f + dlog g, exercised on monomial quotients
    f = RationalFunction.monomial_quotient(2, (3, 0), (0, 1))
    g = RationalFunction.monomial_quotient(2, (0, 2), (1, 0))
    for i in range(2):
        assert (f * g).dlog(i).equals(f.dlog(i) + g.dlog(i))


def test_quotient_rule_derivative():
    # (x/y)' with respect to y is -x/y^2
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = RationalFunction(x, y)
    expected = RationalFunction(-x, y * y)
    assert f.derivative(1).equals(expected)
