"""Sparse exact univariate polynomials and the one identity prover.

Coefficients are ``fractions.Fraction``; zero coefficients are never
stored.  ``Polynomial`` is a small expansion engine used to verify
identities by brute-force cancellation, not a general symbolic layer:
addition, multiplication, integer powers, evaluation and exact division
are all the algebra the rest of the library needs.

Every identity the library proves has one shape, a sum of e-th powers
that telescopes to a single e-th power, and :func:`powers_telescope`
is the only place that shape is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")


class Polynomial:
    """Univariate polynomial over the rationals, stored sparsely."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        acc: dict[int, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for deg, raw in items:
            d = int(deg)
            if d != deg or d < 0:
                raise ValueError(f"invalid degree {deg!r}")
            acc[d] = acc.get(d, Fraction(0)) + Fraction(raw)
        self._coeffs = {d: c for d, c in acc.items() if c}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({0: value})

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        return cls({degree: coeff})

    @property
    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Largest degree present, or -inf for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else NEG_INFINITY

    @property
    def lowest_degree(self):
        return min(self._coeffs) if self._coeffs else NEG_INFINITY

    def coefficient(self, degree: int) -> Fraction:
        return self._coeffs.get(degree, Fraction(0))

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        return sum((c * x**d for d, c in self._coeffs.items()), Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for d, c in other._coeffs.items():
            out[d] = out.get(d, Fraction(0)) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({d: -c for d, c in self._coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial({d: c * other for d, c in self._coeffs.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                d = d1 + d2
                out[d] = out.get(d, Fraction(0)) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        """Exact long division over the rationals."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self._coeffs)
        quo: dict[int, Fraction] = {}
        d_div = other.degree
        lead = other.coefficient(d_div)
        while rem and max(rem) >= d_div:
            d = max(rem)
            q = rem[d] / lead
            k = d - d_div
            quo[k] = quo.get(k, Fraction(0)) + q
            for dd, cc in other._coeffs.items():
                nd = dd + k
                nv = rem.get(nd, Fraction(0)) - q * cc
                if nv:
                    rem[nd] = nv
                else:
                    rem.pop(nd, None)
        return Polynomial(quo), Polynomial(rem)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        inner = ", ".join(f"{d}: {c}" for d, c in sorted(self._coeffs.items()))
        return f"Polynomial({{{inner}}})"


def powers_telescope(parts: Sequence[Polynomial], exponent: int) -> bool:
    """True iff ``parts[0]^e + ... + parts[-2]^e == parts[-1]^e`` exactly.

    The difference is expanded in full and must cancel to zero; no use
    is made of how the parts were produced.
    """
    *lhs, rhs = parts
    total = -(rhs**exponent)
    for part in lhs:
        total = total + part**exponent
    return total.is_zero
