"""Exact linear combinations, univariate polynomials, and the one identity prover.

An :class:`ExactCombination` is a finite sum ``sum_k c_k * b_k`` over a
basis indexed by integer keys, stored as one dense list of integer
numerators over one positive integer denominator; key ``k`` sits at
index ``k + KEY_OFFSET``, so index 0 is always the scalar slot.  It is
kept in normal form (trailing zeros trimmed, the numerators' content
coprime to the denominator, zero is ``[]`` over 1), so equal
combinations have equal representations.  ``coefficients`` and
``coefficient()`` return ``Fraction``s.  The base class carries the
linear algebra, and :func:`joint_content` reads the integer form.
Two bases use it, and never mix: :class:`Polynomial` (key = degree) and
``powersums.PowerSumCombo`` (key = exponent, constant in slot -1).

``Polynomial`` adds the ring operations, all on integers: products and
powers are integer convolutions, and evaluation at an integer is
Horner's rule with one division at the end.  It is a small expansion
engine used to verify identities by brute-force cancellation, not a
general symbolic layer: there is no polynomial division.  The one
quotient the library needs, by the forced roots ``u^s (u+1)^t`` of
the power-sum relations, is :func:`_strip_forced_roots`.

Every identity the library proves has one shape, a sum of e-th powers
that telescopes to a single e-th power, and :func:`powers_telescope`
is the only place that shape is expanded.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

#: Degree reported for the zero polynomial.
NEG_INFINITY = float("-inf")


class ExactCombination:
    """Rational combination over an integer-keyed basis: integer numerators over one denominator."""

    __slots__ = ("_num", "_den")

    #: Index of key 0 in the numerator list; keys below ``-KEY_OFFSET`` are invalid.
    KEY_OFFSET = 0
    #: What a key is called in error messages.
    KEY_NAME = "key"

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        offset = self.KEY_OFFSET
        acc: dict[int, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for key, raw in items:
            k = int(key)
            if k != key or k < -offset:
                raise ValueError(f"invalid {self.KEY_NAME} {key!r}")
            acc[k + offset] = acc.get(k + offset, Fraction(0)) + Fraction(raw)
        den = math.lcm(*(c.denominator for c in acc.values()))
        num = [0] * (max(acc) + 1 if acc else 0)
        for i, c in acc.items():
            num[i] = c.numerator * (den // c.denominator)
        self._num, self._den = _normalize(num, den)

    @classmethod
    def _make(cls, num: list[int], den: int):
        """Wrap numerators and a positive denominator already in normal form."""
        obj = cls.__new__(cls)
        obj._num = num
        obj._den = den
        return obj

    @classmethod
    def _from_ints(cls, num: list[int], den: int = 1):
        """Normalize any integer numerators over a nonzero denominator."""
        return cls._make(*_normalize(num, den))

    @classmethod
    def _scalar(cls, value: Scalar):
        """``value`` in the scalar slot (index 0)."""
        value = Fraction(value)
        return cls._from_ints([value.numerator], value.denominator)

    @classmethod
    def zero(cls):
        return cls._make([], 1)

    @property
    def coefficients(self) -> dict[int, Fraction]:
        """Nonzero coefficients by key, in ascending key order."""
        den = self._den
        return {i: Fraction(c, den) for i, c in enumerate(self._num, -self.KEY_OFFSET) if c}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, key: int) -> Fraction:
        i = key + self.KEY_OFFSET
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def _lift(self, value):
        """``value`` as a combination of this type; None for an unsupported operand."""
        if isinstance(value, type(self)):
            return value
        if isinstance(value, (int, Fraction)):
            return self._scalar(value)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        a, fa = self._num, den // self._den
        b, fb = other._num, den // other._den
        if len(a) < len(b):
            a, fa, b, fb = b, fb, a, fa
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += c * fb
        return self._from_ints(out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        return self._from_ints(
            [c * scalar.numerator for c in self._num], self._den * scalar.denominator
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((tuple(self._num), self._den))

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        inner = ", ".join(f"{k}: {c}" for k, c in self.coefficients.items())
        return f"{type(self).__name__}({{{inner}}})"


def joint_content(items: Iterable[ExactCombination]) -> Fraction:
    """Largest positive rational dividing every coefficient of every item; 0 if all are zero.

    In normal form an item's content is ``gcd(numerators) / denominator``
    in lowest terms, so the joint content is the gcd of all numerators
    over the lcm of all denominators.
    """
    num, den = 0, 1
    for item in items:
        num = math.gcd(num, *item._num)
        den = math.lcm(den, item._den)
    return Fraction(num, den)


class Polynomial(ExactCombination):
    """Univariate polynomial over the rationals: key = degree."""

    __slots__ = ()

    KEY_NAME = "degree"

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls._scalar(value)

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        return cls({degree: coeff})

    @property
    def degree(self):
        """Largest degree present, or -inf for the zero polynomial."""
        return len(self._num) - 1 if self._num else NEG_INFINITY

    @property
    def lowest_degree(self):
        return next((d for d, c in enumerate(self._num) if c), NEG_INFINITY)

    def evaluate(self, x: Scalar) -> Fraction:
        """Horner's rule on the numerators, divided by the denominator once.

        At an integer ``x`` every step is an integer operation.
        """
        if not isinstance(x, int):
            x = Fraction(x)
        return Fraction(_horner(self._num, x), self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial._from_ints(_convolve(self._num, other._num), self._den * other._den)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        # Gauss's lemma: content(f^n) = content(f)^n, still coprime to den^n,
        # and the leading numerator stays nonzero, so the result is normal.
        return Polynomial._make(_int_pow(self._num, n), self._den**n)


def _normalize(num: list[int], den: int) -> tuple[list[int], int]:
    """Trim trailing zeros and divide out ``gcd(content, den)``; den > 0 afterwards."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return num, 1
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return num, den


def _horner(num: Sequence[int], x):
    """``sum(c * x**i for i, c in enumerate(num))`` by Horner's rule; an
    integer when ``x`` is one."""
    acc = 0
    for c in reversed(num):
        acc = acc * x + c
    return acc


def _scaled(num: list[int], factor: int) -> list[int]:
    """``num`` times an integer; the same list when the factor is 1."""
    return num if factor == 1 else [c * factor for c in num]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, start=i):
                out[j] += x * y
    return out


def _int_pow(num: list[int], n: int) -> list[int]:
    """``num`` to the power ``n`` by repeated squaring."""
    result = [1]
    base = num
    while n:
        if n & 1:
            result = _convolve(result, base)
        n >>= 1
        if n:
            base = _convolve(base, base)
    return result


def _strip_forced_roots(polys: Sequence[Polynomial]) -> tuple[list[Polynomial], int, int]:
    """Divide nonzero ``polys`` by the largest ``u^s (u+1)^t`` dividing all of them.

    Returns ``(quotients, s, t)``.  ``u^s`` goes by dropping the ``s``
    low zero numerators; each ``u + 1`` by synthetic division, while
    every polynomial vanishes at ``u = -1``.  ``u + 1`` is primitive,
    so by Gauss's lemma each quotient keeps its numerators' content and
    stays in normal form over the same denominator.
    """
    s = min(p.lowest_degree for p in polys)
    nums = [p._num[s:] for p in polys]
    t = 0
    while all(sum(num[::2]) == sum(num[1::2]) for num in nums):
        # Horner at -1 from the top: the partial values are the quotient.
        nums = [list(accumulate(reversed(num[1:]), lambda b, c: c - b))[::-1] for num in nums]
        t += 1
    return [Polynomial._make(num, p._den) for num, p in zip(nums, polys)], s, t


def powers_telescope(parts: Sequence[Polynomial], exponent: int) -> bool:
    """True iff ``parts[0]^e + ... + parts[-2]^e == parts[-1]^e`` exactly.

    The parts are lifted to one common denominator ``D`` and the
    difference ``sum (D p_i)^e - (D p_last)^e`` is expanded in full in
    integers; it must cancel to zero.  No use is made of how the parts
    were produced.
    """
    common = math.lcm(*(p._den for p in parts))
    powers = [_int_pow(_scaled(p._num, common // p._den), exponent) for p in parts]
    *lhs, rhs = powers
    total = [0] * max(map(len, powers))
    for power in lhs:
        for d, c in enumerate(power):
            total[d] += c
    for d, c in enumerate(rhs):
        total[d] -= c
    return not any(total)
