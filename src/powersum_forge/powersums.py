"""Linear combinations of power sums and their closed-form algebra.

The power sum ``S_j(n) = 1^j + 2^j + ... + n^j`` extends to every
integer ``n`` through its polynomial form (``faulhaber``), which has
degree ``j + 1`` and no constant term.  A :class:`PowerSumCombo` is a
finite sum ``sum_j c_j * S_j`` with exact rational coefficients, plus an
optional additive constant kept in a reserved slot (exponent -1) so
affine expressions like ``1 + S_k`` stay representable without abusing
``S_0``.

The closed forms ``product``, ``square``, ``s1_power`` and
``s2_s1_power`` rewrite products and powers of power sums as linear
combinations of single power sums.  They reproduce the true product for
exponents >= 1; at exponent 0 the product/square formulas still return a
well-defined combination, but it no longer equals ``S_0 * S_m`` (callers
that need the genuine product must stay at exponents >= 1, which is all
the identity builders ever use).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .exactcore import bernoulli, rational_content
from .polynomials import Polynomial

Scalar = Union[int, Fraction]

#: Reserved exponent slot for an additive constant term.
CONSTANT_EXP = -1

__all__ = [
    "CONSTANT_EXP",
    "PowerSumCombo",
    "S",
    "faulhaber",
    "product",
    "square",
    "s1_power",
    "s2_s1_power",
    "extract_common_factor",
]


class PowerSumCombo:
    """Finite linear combination of power sums with exact coefficients.

    Instances are immutable value objects: arithmetic returns new
    combos, equality is structural on the normalized term map, and zero
    coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        acc: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, raw in items:
            e = int(exp)
            if e != exp or e < CONSTANT_EXP:
                raise ValueError(f"invalid power-sum exponent {exp!r}")
            acc[e] = acc.get(e, Fraction(0)) + Fraction(raw)
        self._terms = {e: c for e, c in acc.items() if c}

    @classmethod
    def zero(cls) -> "PowerSumCombo":
        return cls()

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    @property
    def constant(self) -> Fraction:
        """Coefficient of the additive constant slot."""
        return self._terms.get(CONSTANT_EXP, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    def evaluate(self, n: Scalar) -> Fraction:
        """Value of the combination at integer (or rational) ``n``."""
        total = Fraction(0)
        for e, c in self._terms.items():
            if e == CONSTANT_EXP:
                total += c
            else:
                total += c * faulhaber(e).evaluate(n)
        return total

    def to_polynomial(self) -> Polynomial:
        """Expand every power sum into its polynomial in ``n``."""
        out = Polynomial.zero()
        for e, c in self._terms.items():
            if e == CONSTANT_EXP:
                out = out + Polynomial.constant(c)
            else:
                out = out + c * faulhaber(e)
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerSumCombo({CONSTANT_EXP: other})
        if not isinstance(other, PowerSumCombo):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return PowerSumCombo(out)

    __radd__ = __add__

    def __neg__(self):
        return PowerSumCombo({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PowerSumCombo({CONSTANT_EXP: other})
        if not isinstance(other, PowerSumCombo):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return PowerSumCombo({e: c * scalar for e, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PowerSumCombo):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        inner = ", ".join(f"{e}: {c}" for e, c in sorted(self._terms.items()))
        return f"PowerSumCombo({{{inner}}})"


def S(exponent: int) -> PowerSumCombo:
    """The single power sum ``S_exponent`` as a combination."""
    if exponent < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    return PowerSumCombo({exponent: 1})


@functools.cache
def faulhaber(k: int) -> Polynomial:
    """Polynomial in ``n`` equal to ``S_k(n)`` for every n >= 1.

    Degree ``k + 1``, zero constant term, leading coefficient
    ``1/(k+1)``.  Cached; ``Polynomial`` is immutable so the shared
    instances are safe.
    """
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    kk = k + 1
    coeffs: dict[int, Fraction] = {}
    for j in range(1, kk + 1):
        b = bernoulli(kk - j)
        if b:
            sign = -1 if (kk - j) % 2 else 1
            coeffs[j] = Fraction(math.comb(kk, j), kk) * sign * b
    return Polynomial(coeffs)


def product(k: int, m: int) -> PowerSumCombo:
    """``S_k * S_m`` written as a linear combination of power sums.

    Symmetric in (k, m).  Equals the true product for k, m >= 1; see the
    module docstring for the exponent-0 caveat.
    """
    _check_exponent(k)
    _check_exponent(m)
    terms: dict[int, Fraction] = {}
    for top, j_max in ((k, k // 2), (m, m // 2)):
        for j in range(j_max + 1):
            b = bernoulli(2 * j)
            if not b:
                continue
            e = k + m + 1 - 2 * j
            coeff = Fraction(math.comb(top + 1, 2 * j), top + 1) * b
            terms[e] = terms.get(e, Fraction(0)) + coeff
    return PowerSumCombo(terms)


def square(k: int) -> PowerSumCombo:
    """``S_k ** 2`` as a combination; only odd power sums appear."""
    _check_exponent(k)
    terms: dict[int, Fraction] = {}
    for j in range(k // 2 + 1):
        b = bernoulli(2 * j)
        if not b:
            continue
        e = 2 * k + 1 - 2 * j
        terms[e] = terms.get(e, Fraction(0)) + Fraction(2, k + 1) * math.comb(k + 1, 2 * j) * b
    return PowerSumCombo(terms)


def s1_power(k: int) -> PowerSumCombo:
    """``S_1 ** k`` as a combination; only odd power sums appear.

    The binomial weights sum to ``2**(k-1)``, so the coefficients sum
    to 1.
    """
    if k < 1:
        raise ValueError("power of S_1 requires k >= 1")
    scale = Fraction(1, 2 ** (k - 1))
    terms: dict[int, Fraction] = {}
    for j in range((k - 1) // 2 + 1):
        e = 2 * k - 1 - 2 * j
        terms[e] = terms.get(e, Fraction(0)) + scale * math.comb(k, 2 * j + 1)
    return PowerSumCombo(terms)


def s2_s1_power(k: int) -> PowerSumCombo:
    """``S_2 * S_1 ** k`` as a combination; only even power sums appear.

    The weights ``(2k+3-2j)/(2j+1) * C(k+1, 2j)`` sum to ``3 * 2**k``,
    so the coefficients sum to 1.
    """
    _check_exponent(k)
    scale = Fraction(1, 3 * 2**k)
    terms: dict[int, Fraction] = {}
    for j in range((k + 1) // 2 + 1):
        e = 2 * k + 2 - 2 * j
        coeff = scale * Fraction(2 * k + 3 - 2 * j, 2 * j + 1) * math.comb(k + 1, 2 * j)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return PowerSumCombo(terms)


def extract_common_factor(
    combos: Sequence[PowerSumCombo],
) -> tuple[tuple[PowerSumCombo, ...], Fraction]:
    """Pull the largest common rational factor out of several combos.

    Returns ``(scaled, factor)`` with ``combos[i] == factor * scaled[i]``
    where the scaled combos have integer coefficients whose joint
    content is 1.  All-zero input returns factor 1.
    """
    content = rational_content(c for combo in combos for c in combo.terms.values())
    if not content:
        return tuple(combos), Fraction(1)
    inv = 1 / content
    return tuple(c * inv for c in combos), content


def _check_exponent(k: int) -> None:
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
