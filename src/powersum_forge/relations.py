"""Cubic relations among power sums built from verified form quadruples.

Substituting power sums for the two parameters of a verified form
quadruple turns the bivariate cube identity into a one-parameter family
of relations: four power-sum combinations whose cubes telescope.  Those
combinations expand further into plain polynomial identities, which can
then be stripped of their forced roots at 0 and -1.

Two substitution modes exist:

* ``QMode(k, m)``: the form evaluated at ``(S_k, S_m)``, i.e.
  ``alpha*S_k^2 + beta*S_k*S_m + gamma*S_m^2``.
* ``FMode(k)``: the form evaluated at ``(S_2, S_1^k)``, i.e.
  ``alpha*S_2^2 + beta*S_2*S_1^k + gamma*S_1^(2k)``.

Presentation policy: stored combos and expanded polynomials always have
integer coefficients with joint content 1, and the scalar pulled out or
multiplied in is recorded (``common_factor`` on the combo quadruple,
``scale`` on the polynomial identity), so any other normalization can be
recovered exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .cubic import BinaryQuadraticForm, FormQuadruple, verify_cubic_identity
from .exactcore import json_int
from .polynomials import Polynomial, _strip_forced_roots, joint_content, powers_telescope
from .powersums import PowerSumCombo, extract_common_factor, product, s1_power, s2_s1_power, square

__all__ = [
    "QMode",
    "FMode",
    "RelationMode",
    "parse_mode",
    "build_Q",
    "build_F",
    "ComboQuadruple",
    "build_relation",
    "PolyIdentity",
    "expand_relation",
    "factor_common_root",
]


class _QFields(NamedTuple):
    k: int
    m: int


class QMode(_QFields):
    """Substitute (u, v) -> (S_k, S_m)."""

    __slots__ = ()

    def __new__(cls, k: int, m: int):
        if k < 1 or m < 1:
            raise ValueError("Q mode requires k >= 1 and m >= 1")
        return super().__new__(cls, k, m)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def label(self) -> str:
        return f"Q:{self.k},{self.m}"


class _FFields(NamedTuple):
    k: int


class FMode(_FFields):
    """Substitute (u, v) -> (S_2, S_1^k)."""

    __slots__ = ()

    def __new__(cls, k: int):
        if k < 1:
            raise ValueError("F mode requires k >= 1")
        return super().__new__(cls, k)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def label(self) -> str:
        return f"F:{self.k}"


RelationMode = Union[QMode, FMode]


def parse_mode(token: str) -> RelationMode:
    """Parse ``"Q:k,m"`` or ``"F:k"`` into a mode object.

    Each of ``k`` and ``m`` is an optional sign and ASCII digits, read as
    :func:`exactcore.json_int` reads a decimal string: ``"Q:1_0,2"``,
    ``"Q: 1,2"`` and non-ASCII digits are malformed.
    """
    kind, sep, rest = token.partition(":")
    if kind not in ("Q", "F") or not sep:
        raise ValueError(f"unknown relation mode {token!r} (expected Q:k,m or F:k)")
    try:
        args = [json_int(x, "mode") for x in rest.split(",")]
    except ValueError:
        args = []
    if len(args) != (2 if kind == "Q" else 1):
        raise ValueError(f"malformed relation mode {token!r}")
    return QMode(*args) if kind == "Q" else FMode(*args)


def build_Q(form: BinaryQuadraticForm, k: int, m: int) -> PowerSumCombo:
    """``alpha*S_k^2 + beta*S_k*S_m + gamma*S_m^2`` as a combination."""
    if k < 1 or m < 1:
        raise ValueError("build_Q requires k >= 1 and m >= 1")
    return form.alpha * square(k) + form.beta * product(k, m) + form.gamma * square(m)


def build_F(form: BinaryQuadraticForm, k: int) -> PowerSumCombo:
    """``alpha*S_2^2 + beta*S_2*S_1^k + gamma*S_1^(2k)`` as a combination."""
    if k < 1:
        raise ValueError("build_F requires k >= 1")
    return form.alpha * square(2) + form.beta * s2_s1_power(k) + form.gamma * s1_power(2 * k)


class ComboQuadruple(NamedTuple):
    """Four integer-coefficient combos with ``c1^3 + c2^3 + c3^3 = c4^3``.

    ``common_factor`` restores the exact pre-normalization combos:
    ``raw_i = common_factor * combos[i]``.
    """

    combos: tuple[PowerSumCombo, PowerSumCombo, PowerSumCombo, PowerSumCombo]
    common_factor: Fraction
    forms: FormQuadruple
    mode: RelationMode


def build_relation(fq: FormQuadruple, mode: RelationMode) -> ComboQuadruple:
    """Apply the mode's substitution to each form of a verified quadruple."""
    if not verify_cubic_identity(fq):
        raise ValueError("form quadruple does not satisfy the cubic identity")
    if isinstance(mode, QMode):
        raw = [build_Q(f, mode.k, mode.m) for f in fq.forms]
    elif isinstance(mode, FMode):
        raw = [build_F(f, mode.k) for f in fq.forms]
    else:
        raise TypeError(f"unsupported relation mode {mode!r}")
    combos, factor = extract_common_factor(raw)
    return ComboQuadruple(combos, factor, fq, mode)


class PolyIdentity(NamedTuple):
    """Four integer polynomials with ``p1^3 + p2^3 + p3^3 = p4^3``.

    ``scale`` is the multiplier that was applied to the exact rational
    expansions to reach integer coefficients of joint content 1.
    """

    polys: tuple[Polynomial, Polynomial, Polynomial, Polynomial]
    scale: Fraction

    def evaluate(self, x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(p.evaluate(x) for p in self.polys)


def expand_relation(cq: ComboQuadruple) -> PolyIdentity:
    """Expand each combo into its polynomial and rescale to integers.

    The result is re-verified by exact expansion before returning; a
    failure here means the upstream combos were inconsistent and raises
    RuntimeError rather than producing a broken identity.
    """
    exact = [c.to_polynomial() for c in cq.combos]
    content = joint_content(exact)
    scale = 1 / content if content else Fraction(1)
    identity = PolyIdentity(tuple(p * scale for p in exact), scale)
    if not powers_telescope(identity.polys, 3):
        raise RuntimeError("expanded relation failed cubic verification")
    return identity


_U_PLUS_1 = Polynomial({1: 1, 0: 1})


def factor_common_root(pi: PolyIdentity) -> tuple[PolyIdentity, Polynomial]:
    """Strip the largest ``u^s * (u+1)^t`` dividing all four polynomials.

    These are the only roots forced structurally (every power sum
    vanishes at n = 0 and n = -1), so the divisor search is restricted
    to them; no general gcd is attempted.  Cubing the divisor is common
    to both sides, so the quotient identity still holds and is
    re-verified.  Returns ``(quotient_identity, divisor)``, where the
    divisor may be 1.
    """
    if any(p.is_zero for p in pi.polys):
        return pi, Polynomial.constant(1)
    polys, shift, t = _strip_forced_roots(pi.polys)
    divisor = Polynomial.monomial(shift) * _U_PLUS_1**t
    quotient = PolyIdentity(tuple(polys), pi.scale)
    if not powers_telescope(quotient.polys, 3):
        raise RuntimeError("factored relation failed cubic verification")
    return quotient, divisor
