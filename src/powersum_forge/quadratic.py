"""Quadratic analogues: Pythagorean quadruples, triples and equal sums.

The square identities mirror the cubic machinery one degree down: a
Pythagorean quadruple seeds a family of binary quadratic forms whose
squares telescope, and the power-sum closed forms produce quadruples,
triples and equal-sums-of-two-squares families parameterized by ``n``.

Expressions like ``1 + S_k`` carry an additive constant; combos store it
in their reserved constant slot, so the vanishing-at-0/-1 structure of
the pure combinations is never contaminated.
"""

from __future__ import annotations

from typing import NamedTuple

from .cubic import BinaryQuadraticForm
from .polynomials import Polynomial, powers_telescope
from .powersums import PowerSumCombo, S, product, square

__all__ = [
    "PythagoreanQuadruple",
    "SquareFormQuadruple",
    "verify_square_identity",
    "piezas_generate",
    "piezas_degenerate_triple",
    "powersum_quadruple",
    "powersum_triple",
    "equal_sums_family",
    "equal_sums_polynomials",
]


class _PythagoreanFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class PythagoreanQuadruple(_PythagoreanFields):
    """Integers with ``a^2 + b^2 + c^2 = d^2``, all nonzero."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * b * c * d == 0:
            raise ValueError(f"invalid quadruple {(a, b, c, d)}: zero entry")
        if a**2 + b**2 + c**2 != d**2:
            raise ValueError(f"invalid quadruple {(a, b, c, d)}: a^2 + b^2 + c^2 != d^2")
        return super().__new__(cls, a, b, c, d)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class SquareFormQuadruple(NamedTuple):
    """Four forms with ``q1^2 + q2^2 + q3^2 = q4^2`` as polynomials."""

    q1: BinaryQuadraticForm
    q2: BinaryQuadraticForm
    q3: BinaryQuadraticForm
    q4: BinaryQuadraticForm
    seed: PythagoreanQuadruple | None = None

    @property
    def forms(self) -> tuple[BinaryQuadraticForm, ...]:
        return (self.q1, self.q2, self.q3, self.q4)


def verify_square_identity(sq: SquareFormQuadruple) -> bool:
    """Exact quartic expansion of ``q1^2 + q2^2 + q3^2 - q4^2``.

    Expanded on the restriction to ``v = 1``, which is exact for
    homogeneous forms (see :mod:`powersum_forge.cubic`).
    """
    return powers_telescope([f.dehomogenize() for f in sq.forms], 2)


def piezas_generate(pq: PythagoreanQuadruple) -> SquareFormQuadruple:
    """Two-parameter form family attached to a Pythagorean quadruple.

    Forms: (a, -2d, a), (b, 0, -b), (c, 0, -c), (d, -2a, d).  Evaluating
    at (u, v) = (1, 0) recovers the seed.
    """
    a, b, c, d = pq.as_tuple
    sq = SquareFormQuadruple(
        BinaryQuadraticForm(a, -2 * d, a),
        BinaryQuadraticForm(b, 0, -b),
        BinaryQuadraticForm(c, 0, -c),
        BinaryQuadraticForm(d, -2 * a, d),
        seed=pq,
    )
    if not verify_square_identity(sq):
        raise RuntimeError("generated square quadruple failed verification")
    return sq


def piezas_degenerate_triple(
    pq: PythagoreanQuadruple, e: int
) -> tuple[BinaryQuadraticForm, BinaryQuadraticForm, BinaryQuadraticForm]:
    """Collapse the family to a Pythagorean-triple family when ``b^2 + c^2 = e^2``."""
    if e <= 0 or pq.b**2 + pq.c**2 != e * e:
        raise ValueError(
            f"b^2 + c^2 = {pq.b ** 2 + pq.c ** 2} is not the square of e = {e}"
        )
    a, d = pq.a, pq.d
    forms = (
        BinaryQuadraticForm(a, -2 * d, a),
        BinaryQuadraticForm(e, 0, -e),
        BinaryQuadraticForm(d, -2 * a, d),
    )
    if not powers_telescope([f.dehomogenize() for f in forms], 2):
        raise RuntimeError("degenerate triple failed verification")
    return forms


def powersum_quadruple(
    k: int,
) -> tuple[PowerSumCombo, PowerSumCombo, PowerSumCombo, PowerSumCombo]:
    """Pythagorean quadruple of power-sum expressions, one per n.

    Instantiates ``x^2 + (1+x)^2 + (x+x^2)^2 = (1+x+x^2)^2`` at
    ``x = S_k``, with ``S_k^2`` rewritten by :func:`square`:

        (S_k, 1 + S_k, S_k + square(k), 1 + S_k + square(k))

    Every integer n >= 1 yields an integer Pythagorean quadruple.
    """
    if k < 1:
        raise ValueError("powersum_quadruple requires k >= 1")
    base = S(k)
    sq = square(k)
    return (base, 1 + base, base + sq, 1 + base + sq)


def powersum_triple(k: int, m: int) -> tuple[PowerSumCombo, PowerSumCombo, PowerSumCombo]:
    """Pythagorean triple of power-sum combinations.

    Legs ``square(k) - square(m)`` and ``2 * product(k, m)``, hypotenuse
    ``square(k) + square(m)``.  The first leg enters squared, so its
    sign is immaterial; ``k == m`` is rejected because it collapses that
    leg to zero.
    """
    if k < 1 or m < 1:
        raise ValueError("powersum_triple requires k >= 1 and m >= 1")
    if k == m:
        raise ValueError("powersum_triple requires k != m (equal exponents zero a leg)")
    leg_diff = square(k) - square(m)
    leg_cross = 2 * product(k, m)
    hyp = square(k) + square(m)
    if not powers_telescope([c.to_polynomial() for c in (leg_diff, leg_cross, hyp)], 2):
        raise RuntimeError("power-sum triple failed verification")
    return (leg_diff, leg_cross, hyp)


def equal_sums_family(u: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """``(2u-2)^2 + (4u+1)^2 == (2u+2)^2 + (4u-1)^2`` for every integer u.

    Returns the two pairs ``((2u-2, 4u+1), (2u+2, 4u-1))``.
    """
    return ((2 * u - 2, 4 * u + 1), (2 * u + 2, 4 * u - 1))


def equal_sums_polynomials() -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """Symbolic version of :func:`equal_sums_family` in one variable."""
    u = Polynomial.monomial(1)
    return (2 * u - 2, 4 * u + 1, 2 * u + 2, 4 * u - 1)
