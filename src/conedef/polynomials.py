"""Sparse multivariate polynomials and rational functions over Q.

A polynomial is a dict from exponent tuples of ``int`` to nonzero ``int``
coefficients; anything else, a ``bool``, a ``Fraction`` or a ``float``
included, is refused with ``TypeError``, as a coefficient and as a scalar
factor alike.  No
coefficient the package makes needs more: the curve's 2x2 minors have
coefficients +-1, a derivative multiplies by an exponent, a substitution
multiplies monomials, and :class:`RationalFunction` cross-multiplies
instead of dividing.  Exponents may be negative where a caller wants
Laurent monomials -- the arithmetic does not care -- but are never
coerced: an exponent that is not an ``int``, a ``bool`` or a ``float``
included, is refused with ``TypeError``, in a term and in a key asked of
:meth:`Polynomial.coefficient` alike.

Printing uses graded reverse lexicographic order (variables x0 < x1 < ...):
a term beats another if its total degree is larger, or, at equal degree, if
the last nonzero entry of the exponent difference is negative.  That is the
standard degrevlex convention and it is what the presentation printer
relies on for stable golden output.  One sort key orders by it: the total
degree, then the exponents negated and read from the last variable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .records import FrozenRecord, check_count

Exponents = tuple[int, ...]


def _scalar(x: object) -> int:
    """A coefficient as stored: an int, not a bool."""
    if type(x) is int:
        return x
    raise TypeError(f"polynomial coefficients must be int, got {type(x).__name__}")


def _exponents(exps: object) -> Exponents:
    """An exponent key as stored: a tuple of ints, never coerced."""
    if type(exps) is not tuple or any(type(e) is not int for e in exps):
        raise TypeError(f"exponents must be a tuple of ints, got {exps!r}")
    return exps


def _degrevlex_key(exps: Exponents) -> tuple[int, list[int]]:
    """The degrevlex sort key: a larger key precedes."""
    return sum(exps), [-e for e in reversed(exps)]


def degrevlex_cmp(a: Exponents, b: Exponents) -> int:
    """Return positive if monomial a precedes (is greater than) b."""
    ka, kb = _degrevlex_key(a), _degrevlex_key(b)
    return (ka > kb) - (ka < kb)


class Polynomial:
    """Immutable-by-convention sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        check_count(nvars, "nvars")
        self.nvars = nvars
        clean: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            if len(_exponents(exps)) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
            c = coeff if type(coeff) is int else _scalar(coeff)
            if c:
                clean[exps] = c
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        return cls.monomial(nvars, [int(j == i) for j in range(nvars)])

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coeff})

    # ---- predicates / structure --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Max total degree of a term; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial (errors otherwise or on zero)."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return degs.pop()

    def coefficient(self, exps: Exponents) -> int:
        return self.terms.get(_exponents(exps), 0)

    def monomials(self) -> list[Exponents]:
        """Exponent tuples in descending degrevlex order."""
        return sorted(self.terms, key=_degrevlex_key, reverse=True)

    # ---- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0) + c
        return Polynomial(self.nvars, merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = _scalar(other)
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        out: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Polynomial.constant(self.nvars, 1)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        out: dict[Exponents, int] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = out.get(tuple(new), 0) + c * e[i]
        return Polynomial(self.nvars, out)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at ``variable i -> images[i]``.  All images must share a
        variable count; exponents must be nonnegative for this to make sense."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("substitute needs at least one variable")
        target_nvars = images[0].nvars
        for img in images:
            if img.nvars != target_nvars:
                raise ValueError("images live in different variable sets")
        result = Polynomial.zero(target_nvars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(target_nvars, coeff)
            for i, e in enumerate(exps):
                if e < 0:
                    raise ValueError("cannot substitute into a Laurent exponent")
                if e:
                    term = term * (images[i] ** e)
            result = result + term
        return result

    # ---- printing -----------------------------------------------------

    def to_string(self, var_names: Sequence[str] | None = None) -> str:
        if var_names is None:
            var_names = [f"x{i}" for i in range(self.nvars)]
        if len(var_names) != self.nvars:
            raise ValueError("wrong number of variable names")
        if not self.terms:
            return "0"
        out = ""
        for exps in self.monomials():
            coeff = self.terms[exps]
            if out:
                out += " - " if coeff < 0 else " + "
            elif coeff < 0:
                out = "-"
            mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(var_names, exps) if e)
            if not mono:
                out += str(abs(coeff))
            elif abs(coeff) == 1:
                out += mono
            else:
                out += f"{abs(coeff)}*{mono}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


class RationalFunction(FrozenRecord):
    """A quotient of polynomials.  No gcd reduction is ever performed:
    equality is decided by cross-multiplication, which stays exact."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial) -> None:
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator in different variable sets")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._set(num, den)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.constant(p.nvars, 1))

    @classmethod
    def monomial_quotient(cls, nvars: int, num_exps: Sequence[int], den_exps: Sequence[int]) -> "RationalFunction":
        return cls(
            Polynomial.monomial(nvars, num_exps),
            Polynomial.monomial(nvars, den_exps),
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def equals(self, other: "RationalFunction") -> bool:
        return (self.num * other.den) == (other.num * self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + -other

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def _quotient_numerator(self, i: int) -> Polynomial:
        """num' den - num den', the numerator of the quotient rule in x_i."""
        return self.num.derivative(i) * self.den - self.num * self.den.derivative(i)

    def derivative(self, i: int) -> "RationalFunction":
        """Quotient rule; the square in the denominator is left unreduced."""
        return RationalFunction(self._quotient_numerator(i), self.den * self.den)

    def dlog(self, i: int) -> "RationalFunction":
        """Logarithmic derivative d/dx_i of log(f) = f_i' / f, which is
        (num' den - num den') / (num den)."""
        if self.num.is_zero():
            raise ZeroDivisionError("log of the zero function")
        return RationalFunction(self._quotient_numerator(i), self.num * self.den)

    def __repr__(self) -> str:
        return f"RationalFunction(({self.num.to_string()}) / ({self.den.to_string()}))"
