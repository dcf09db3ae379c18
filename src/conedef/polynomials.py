"""Sparse multivariate polynomials and rational functions over Q.

Coefficients are :class:`fractions.Fraction`; a polynomial is a dict from
exponent tuples to nonzero coefficients.  Exponents may be negative where a
caller wants Laurent monomials -- the arithmetic does not care.

Printing uses graded reverse lexicographic order (variables x0 < x1 < ...):
a term beats another if its total degree is larger, or, at equal degree, if
the last nonzero entry of the exponent difference is negative.  That is the
standard degrevlex convention and it is what the presentation printer
relies on for stable golden output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Mapping, Sequence

from .linalg import Scalar, _frac

Exponents = tuple[int, ...]


def degrevlex_cmp(a: Exponents, b: Exponents) -> int:
    """Return positive if monomial a precedes (is greater than) b."""
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for ea, eb in zip(reversed(a), reversed(b)):
        d = ea - eb
        if d != 0:
            return 1 if d < 0 else -1
    return 0


_DEGREVLEX_KEY = cmp_to_key(degrevlex_cmp)


class Polynomial:
    """Immutable-by-convention sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong length for {nvars} variables")
            c = _frac(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        self.terms = clean

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
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

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def monomials(self) -> list[Exponents]:
        """Exponent tuples in descending degrevlex order."""
        return sorted(self.terms, key=_DEGREVLEX_KEY, reverse=True)

    # ---- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable sets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, merged)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.nvars, out)

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

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
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = out.get(tuple(new), Fraction(0)) + c * e[i]
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
        pieces: list[str] = []
        for exps in self.monomials():
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(var_names, exps):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


@dataclass
class RationalFunction:
    """A quotient of polynomials.  No gcd reduction is ever performed:
    equality is decided by cross-multiplication, which stays exact."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        if self.num.nvars != self.den.nvars:
            raise ValueError("numerator and denominator in different variable sets")
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")

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
        return self + RationalFunction(-other.num, other.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def derivative(self, i: int) -> "RationalFunction":
        """Quotient rule; the square in the denominator is left unreduced."""
        return RationalFunction(
            self.num.derivative(i) * self.den - self.num * self.den.derivative(i),
            self.den * self.den,
        )

    def dlog(self, i: int) -> "RationalFunction":
        """Logarithmic derivative d/dx_i of log(f) = f_i' / f."""
        if self.num.is_zero():
            raise ZeroDivisionError("log of the zero function")
        # (num/den)' / (num/den) = (num' den - num den') / (num den)
        return RationalFunction(
            self.num.derivative(i) * self.den - self.num * self.den.derivative(i),
            self.num * self.den,
        )

    def __repr__(self) -> str:
        return f"RationalFunction(({self.num.to_string()}) / ({self.den.to_string()}))"
