"""Two-parameter families of cubic-equation solutions from integer seeds.

A nontrivial integer solution of ``a^3 + b^3 + c^3 = d^3`` seeds a
quadruple of binary quadratic forms ``q_i(u, v)`` satisfying
``q1^3 + q2^3 + q3^3 = q4^3`` identically in (u, v).  Everything here is
verified by brute expansion rather than trusted: the point of the
library is independent checking.  The expansion runs on ``q(u, 1)``,
which loses nothing: ``sum q_i^e - q_4^e`` is homogeneous of degree 2e,
so its coefficient of ``u^i v^(2e-i)`` is that of ``u^i`` at ``v = 1``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .polynomials import Polynomial, powers_telescope

__all__ = [
    "BinaryQuadraticForm",
    "CubicQuadruple",
    "FormQuadruple",
    "permute_seed",
    "sandor_generate",
    "verify_cubic_identity",
    "content_reduce",
    "substitute",
    "evaluate_forms",
    "fraction_ratio",
    "check_characterization",
]

Matrix2 = Sequence[Sequence[Fraction | int]]


class BinaryQuadraticForm(NamedTuple):
    """``alpha*u^2 + beta*u*v + gamma*v^2`` with integer coefficients."""

    alpha: int
    beta: int
    gamma: int

    def evaluate(self, u: int, v: int) -> int:
        return self.alpha * u * u + self.beta * u * v + self.gamma * v * v

    def dehomogenize(self) -> Polynomial:
        """The restriction ``q(u, 1) = alpha*u^2 + beta*u + gamma``."""
        return Polynomial({2: self.alpha, 1: self.beta, 0: self.gamma})

    @property
    def coefficients(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)


class _CubicFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class CubicQuadruple(_CubicFields):
    """Nontrivial integer solution of ``a^3 + b^3 + c^3 = d^3``.

    Construction rejects invalid seeds outright: a zero entry, a tuple
    that fails the cubic equation, or a trivial solution where ``d``
    coincides with one of ``a``, ``b``, ``c``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * b * c * d == 0:
            raise ValueError(f"invalid seed {(a, b, c, d)}: zero entry (a*b*c*d must be nonzero)")
        if a**3 + b**3 + c**3 != d**3:
            raise ValueError(f"invalid seed {(a, b, c, d)}: a^3 + b^3 + c^3 != d^3")
        if d in (a, b, c):
            raise ValueError(f"invalid seed {(a, b, c, d)}: trivial solution (d equals a, b or c)")
        return super().__new__(cls, a, b, c, d)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def scaled(self, t: int) -> "CubicQuadruple":
        """The seed scaled by a nonzero integer; still a valid solution."""
        return CubicQuadruple(t * self.a, t * self.b, t * self.c, t * self.d)


def permute_seed(seed: CubicQuadruple, perm: str) -> CubicQuadruple:
    """Reorder the first three entries of a seed.

    ``perm`` names the new order as a permutation of the letters
    ``"abc"``, e.g. ``"acb"`` swaps b and c.
    """
    if sorted(perm) != ["a", "b", "c"]:
        raise ValueError(f"perm must be a permutation of 'abc', got {perm!r}")
    values = {"a": seed.a, "b": seed.b, "c": seed.c}
    return CubicQuadruple(values[perm[0]], values[perm[1]], values[perm[2]], seed.d)


class FormQuadruple(NamedTuple):
    """Four binary quadratic forms with ``q1^3 + q2^3 + q3^3 = q4^3``.

    The identity is a checkable property (``verify_cubic_identity``),
    not a construction invariant, so hand-built quadruples can be fed to
    the verifier as well.  ``seed`` records provenance when known.
    """

    q1: BinaryQuadraticForm
    q2: BinaryQuadraticForm
    q3: BinaryQuadraticForm
    q4: BinaryQuadraticForm
    seed: CubicQuadruple | None = None

    @property
    def forms(self) -> tuple[BinaryQuadraticForm, ...]:
        return (self.q1, self.q2, self.q3, self.q4)

    @property
    def coefficient_rows(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(f.coefficients for f in self.forms)


def sandor_generate(seed: CubicQuadruple) -> FormQuadruple:
    """Generate the form quadruple attached to a nontrivial seed.

    With s = a + c and t = d - b:

        q1 = a*s u^2 + (d-b)(d+b) uv - c*t v^2
        q2 = b*s u^2 - (c-a)(c+a) uv + d*t v^2
        q3 = c*s u^2 - (d-b)(d+b) uv - a*t v^2
        q4 = d*s u^2 - (c-a)(c+a) uv + b*t v^2
    """
    a, b, c, d = seed.as_tuple
    s = a + c
    t = d - b
    cross_db = (d - b) * (d + b)
    cross_ca = (c - a) * (c + a)
    return FormQuadruple(
        BinaryQuadraticForm(a * s, cross_db, -c * t),
        BinaryQuadraticForm(b * s, -cross_ca, d * t),
        BinaryQuadraticForm(c * s, -cross_db, -a * t),
        BinaryQuadraticForm(d * s, -cross_ca, b * t),
        seed=seed,
    )


def verify_cubic_identity(fq: FormQuadruple) -> bool:
    """True iff ``q1^3 + q2^3 + q3^3 - q4^3`` expands to zero.

    Full expansion with exact cancellation, on the restriction to
    ``v = 1`` (see the module docstring); no use is made of how the
    quadruple was produced.
    """
    return powers_telescope([f.dehomogenize() for f in fq.forms], 3)


def content_reduce(fq: FormQuadruple) -> tuple[FormQuadruple, int]:
    """Divide all twelve coefficients by their joint gcd.

    Joint division preserves the cubic identity; per-form division would
    not.  Returns the reduced quadruple and the extracted content (1 if
    already primitive).
    """
    g = 0
    for form in fq.forms:
        for x in form.coefficients:
            g = math.gcd(g, x)
    if g <= 1:
        return fq, 1
    reduced = tuple(
        BinaryQuadraticForm(f.alpha // g, f.beta // g, f.gamma // g) for f in fq.forms
    )
    return FormQuadruple(*reduced, seed=fq.seed), g


def substitute(fq: FormQuadruple, matrix: Matrix2) -> FormQuadruple:
    """Compose each form with the linear map (u, v) -> M @ (u, v).

    Rational matrices are allowed (e.g. halving u), but every resulting
    coefficient must come out an integer; otherwise the offending
    coefficient is named in the error.  Cubing commutes with
    substitution, so the identity is preserved.
    """
    (m11, m12), (m21, m22) = matrix
    m11, m12, m21, m22 = (Fraction(x) for x in (m11, m12, m21, m22))
    new_forms = []
    for idx, f in enumerate(fq.forms, start=1):
        a, b, g = f.alpha, f.beta, f.gamma
        alpha = a * m11**2 + b * m11 * m21 + g * m21**2
        beta = 2 * a * m11 * m12 + b * (m11 * m22 + m12 * m21) + 2 * g * m21 * m22
        gamma = a * m12**2 + b * m12 * m22 + g * m22**2
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if value.denominator != 1:
                raise ValueError(
                    f"substitution produces non-integer {name} = {value} in q{idx}"
                )
        new_forms.append(BinaryQuadraticForm(int(alpha), int(beta), int(gamma)))
    return FormQuadruple(*new_forms, seed=fq.seed)


def evaluate_forms(fq: FormQuadruple, u: int, v: int) -> tuple[int, int, int, int]:
    """Numeric quadruple (q1, q2, q3, q4)(u, v); a square quadruple's ``forms`` work too."""
    return tuple(f.evaluate(u, v) for f in fq.forms)


def fraction_ratio(seed: CubicQuadruple) -> Fraction:
    """The invariant ratio ``(a + c) / (d - b)``, reduced.

    Every quadruple generated from the seed satisfies
    ``(q1 + q3) / (q4 - q2)`` equal to this same value, independently of
    (u, v); see :func:`check_characterization` for the form-level check.
    """
    return Fraction(seed.a + seed.c, seed.d - seed.b)


def check_characterization(seed: CubicQuadruple, fq: FormQuadruple) -> bool:
    """True iff ``(d-b)(q1+q3) == (a+c)(q4-q2)``, coefficient by coefficient."""
    s, t = seed.a + seed.c, seed.d - seed.b
    rows = zip(*(f.coefficients for f in fq.forms))
    return all(t * (x1 + x3) == s * (x4 - x2) for x1, x2, x3, x4 in rows)
