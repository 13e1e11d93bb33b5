"""Exact integer and rational arithmetic substrate.

Integers are plain Python ints (arbitrary precision) and single
rationals, such as Bernoulli numbers and scale factors, are
``fractions.Fraction``.  Polynomials and power-sum combinations store no
``Fraction``s: they keep integer numerators over one denominator in a
normal form of their own (:mod:`powersum_forge.polynomials`) and return
``Fraction``s only from their public, rational view.

Bernoulli numbers use the ``B(1) = -1/2`` sign convention.  The opposite
convention (``B(1) = +1/2``) differs in exactly that single value, but
it would silently corrupt every power-sum polynomial produced here, so
anything imported from other sources must be checked against
``bernoulli(1)`` first.

Integers read from JSON (configs, records, form files) go through
:func:`json_int` or :func:`json_ints`, which refuse what they would
otherwise have to truncate.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = ["bernoulli", "json_int", "json_ints"]

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


#: The bytes of a decimal string: an optional sign and ASCII digits.  A
#: non-ASCII character encodes to UTF-8 bytes outside this set, and
#: ``bytes.translate`` deletes these at C speed however long the string.
_DECIMAL_BYTES = b"+-0123456789"


def json_int(value, field: str) -> int:
    """An integer given as a JSON number or a decimal string: an
    optional sign and ASCII digits, so ``"1_000"`` and ``" 7 "`` are
    refused.  Floats and booleans are refused, never truncated; a bad
    value raises ValueError naming ``field``.
    """
    kind = type(value)  # exact: ``bool`` is a subclass of ``int``
    try:
        if kind is int or (kind is str and not value.encode().translate(None, _DECIMAL_BYTES)):
            return int(value)
    except ValueError:  # a misplaced sign, no digit, or a lone surrogate
        pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def json_ints(values, field: str, length: int) -> tuple[int, ...]:
    """A JSON list of exactly ``length`` integers, each read as by
    :func:`json_int`; a bad entry raises ValueError naming ``field[i]``."""
    if not isinstance(values, (list, tuple)) or len(values) != length:
        raise ValueError(f"field {field!r} must be a list of {length} integers, got {values!r}")
    return tuple(json_int(x, f"{field}[{i}]") for i, x in enumerate(values))
