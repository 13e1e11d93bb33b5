"""Linear combinations of power sums and their closed-form algebra.

The power sum ``S_j(n) = 1^j + 2^j + ... + n^j`` extends to every
integer ``n`` through its polynomial form (``faulhaber``), which has
degree ``j + 1`` and no constant term.  A :class:`PowerSumCombo` is a
finite sum ``sum_j c_j * S_j`` with exact rational coefficients, plus an
optional additive constant kept in a reserved slot (exponent -1) so
affine expressions like ``1 + S_k`` stay representable without abusing
``S_0``.  It shares the integer representation and the linear algebra
of ``polynomials.ExactCombination`` with ``Polynomial``; only the basis
differs.

The closed forms ``product``, ``square``, ``s1_power`` and
``s2_s1_power`` rewrite products and powers of power sums as linear
combinations of single power sums, exactly, for every exponent they
accept (``product`` and ``square`` take exponents >= 1 only).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .exactcore import bernoulli
from .polynomials import ExactCombination, Polynomial, Scalar, joint_content

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


class PowerSumCombo(ExactCombination):
    """Finite linear combination of power sums with exact coefficients.

    Stored like every :class:`ExactCombination`: one list of integer
    numerators over one positive denominator, in normal form, with
    ``KEY_OFFSET = 1``, so the constant slot (exponent -1) sits at index
    0 and ``S_j`` at index ``j + 1``.  Instances are immutable value
    objects: arithmetic returns new combos, equal combos have equal
    representations, and a scalar compares equal to the constant combo.
    """

    __slots__ = ()

    KEY_OFFSET = 1
    KEY_NAME = "power-sum exponent"

    @property
    def terms(self) -> dict[int, Fraction]:
        return self.coefficients

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, c in enumerate(self._num, CONSTANT_EXP) if c)

    @property
    def constant(self) -> Fraction:
        """Coefficient of the additive constant slot."""
        return self.coefficient(CONSTANT_EXP)

    def evaluate(self, n: Scalar) -> Fraction:
        """Value of the combination at integer (or rational) ``n``."""
        return self.to_polynomial().evaluate(n)

    def to_polynomial(self) -> Polynomial:
        """Expand every power sum into its polynomial in ``n``."""
        num = self._num
        out = Polynomial.constant(num[0] if num else 0)
        for e, c in enumerate(num[1:]):
            if c:
                out = out + c * faulhaber(e)
        return out * Fraction(1, self._den)


def S(exponent: int) -> PowerSumCombo:
    """The single power sum ``S_exponent`` as a combination."""
    _check_exponent(exponent)
    return PowerSumCombo({exponent: 1})


@functools.cache
def faulhaber(k: int) -> Polynomial:
    """Polynomial in ``n`` equal to ``S_k(n)`` for every n >= 1.

    Degree ``k + 1``, zero constant term, leading coefficient
    ``1/(k+1)``: the coefficient of ``n^j`` is
    ``C(k+1, j) * (-1)^(k+1-j) * B_(k+1-j) / (k+1)``.  The numerators
    are built as integers over ``(k+1) * lcm`` of the Bernoulli
    denominators, with no ``Fraction`` per coefficient.  Cached;
    ``Polynomial`` is immutable so the shared instances are safe.
    """
    _check_exponent(k)
    kk = k + 1
    numbers = [bernoulli(kk - j) for j in range(1, kk + 1)]  # B_k first, which fills the cache
    den = math.lcm(*(b.denominator for b in numbers))
    num = [0] + [
        math.comb(kk, j) * (-1) ** (kk - j) * b.numerator * (den // b.denominator)
        for j, b in enumerate(numbers, start=1)
    ]
    return Polynomial._from_ints(num, kk * den)


def product(k: int, m: int) -> PowerSumCombo:
    """``S_k * S_m`` written as a linear combination of power sums.

    Symmetric in (k, m), which must both be >= 1: the formula does not
    give ``S_0 * S_m``, so exponent 0 raises ValueError.
    """
    if k < 1 or m < 1:
        raise ValueError("product of power sums requires exponents >= 1")
    # The two sums share exponents; the constructor adds repeated ones.
    return PowerSumCombo(
        (k + m + 1 - 2 * j, Fraction(math.comb(top + 1, 2 * j), top + 1) * bernoulli(2 * j))
        for top in (k, m)
        for j in range(top // 2 + 1)
    )


def square(k: int) -> PowerSumCombo:
    """``S_k ** 2`` as a combination; only odd power sums appear."""
    return product(k, k)


def s1_power(k: int) -> PowerSumCombo:
    """``S_1 ** k`` as a combination; only odd power sums appear.

    The binomial weights sum to ``2**(k-1)``, so the coefficients sum
    to 1.
    """
    if k < 1:
        raise ValueError("power of S_1 requires k >= 1")
    scale = Fraction(1, 2 ** (k - 1))
    return PowerSumCombo(
        (2 * k - 1 - 2 * j, scale * math.comb(k, 2 * j + 1)) for j in range((k - 1) // 2 + 1)
    )


def s2_s1_power(k: int) -> PowerSumCombo:
    """``S_2 * S_1 ** k`` as a combination; only even power sums appear.

    The weights ``(2k+3-2j)/(2j+1) * C(k+1, 2j)`` sum to ``3 * 2**k``,
    so the coefficients sum to 1.
    """
    _check_exponent(k)
    scale = Fraction(1, 3 * 2**k)
    return PowerSumCombo(
        (
            2 * k + 2 - 2 * j,
            scale * Fraction(2 * k + 3 - 2 * j, 2 * j + 1) * math.comb(k + 1, 2 * j),
        )
        for j in range((k + 1) // 2 + 1)
    )


def extract_common_factor(
    combos: Sequence[PowerSumCombo],
) -> tuple[tuple[PowerSumCombo, ...], Fraction]:
    """Pull the largest common rational factor out of several combos.

    Returns ``(scaled, factor)`` with ``combos[i] == factor * scaled[i]``
    where the scaled combos have integer coefficients whose joint
    content is 1.  All-zero input returns factor 1.
    """
    content = joint_content(combos)
    if not content:
        return tuple(combos), Fraction(1)
    inv = 1 / content
    return tuple(c * inv for c in combos), content


def _check_exponent(k: int) -> None:
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
