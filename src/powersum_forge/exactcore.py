"""Exact integer and rational arithmetic substrate.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction``, which already guarantees the invariants the rest
of the library leans on: the denominator is positive, every value is
stored fully reduced, and zero is ``0/1``.

Bernoulli numbers use the ``B(1) = -1/2`` sign convention.  The opposite
convention (``B(1) = +1/2``) differs in exactly that single value, but
it would silently corrupt every power-sum polynomial produced here, so
anything imported from other sources must be checked against
``bernoulli(1)`` first.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Iterable

__all__ = ["bernoulli", "rational_content"]

_BERNOULLI: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k, with B_1 = -1/2.

    Computed by the classic recurrence

        B_k = -1/(k+1) * sum_{j=0}^{k-1} C(k+1, j) B_j

    and memoized, so filling B_0..B_K costs O(K^2) rational operations.
    The cache only grows and entries are immutable, so concurrent reads
    are safe; extension happens under a lock and appends only fully
    computed values.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k < len(_BERNOULLI):
        return _BERNOULLI[k]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= k:
            r = len(_BERNOULLI)
            acc = Fraction(0)
            for j in range(r):
                b = _BERNOULLI[j]
                if b:
                    acc += math.comb(r + 1, j) * b
            _BERNOULLI.append(-acc / (r + 1))
    return _BERNOULLI[k]


def rational_content(values: Iterable[Fraction | int]) -> Fraction:
    """Content of a collection of rationals.

    The content is the largest positive rational ``q`` such that every
    value is an integer multiple of ``q``; dividing the values by it
    leaves coprime integers.  Returns 0 when there are no nonzero
    values.
    """
    num = 0
    den = 1
    for value in values:
        f = Fraction(value)
        if not f:
            continue
        num = math.gcd(num, f.numerator)
        den = math.lcm(den, f.denominator)
    return Fraction(num, den)
