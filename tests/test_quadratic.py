from fractions import Fraction

import pytest

from powersum_forge import quadratic
from powersum_forge.cubic import evaluate_forms
from powersum_forge.polynomials import Polynomial, powers_telescope
from powersum_forge.powersums import PowerSumCombo, extract_common_factor, square
from powersum_forge.quadratic import (
    PythagoreanQuadruple,
    equal_sums_family,
    equal_sums_polynomials,
    piezas_degenerate_triple,
    piezas_generate,
    powersum_quadruple,
    powersum_triple,
    verify_square_identity,
)

from goldens import (
    DEGENERATE_TRIPLE_FORMS,
    PIZA_TRIPLE,
    QUADRUPLE_A_POLY,
    QUADRUPLE_B_POLY,
    QUADRUPLE_K2_SCALED,
    TRIPLE_31_DOUBLED,
)


# --- Pythagorean quadruple seeds -------------------------------------------


def test_quadruple_validation():
    PythagoreanQuadruple(2, 3, 6, 7)
    with pytest.raises(ValueError, match="!="):
        PythagoreanQuadruple(1, 2, 3, 4)
    with pytest.raises(ValueError, match="zero"):
        PythagoreanQuadruple(0, 3, 4, 5)


def test_piezas_golden_2367():
    sq = piezas_generate(PythagoreanQuadruple(2, 3, 6, 7))
    assert tuple(f.coefficients for f in sq.forms) == (
        (2, -14, 2),
        (3, 0, -3),
        (6, 0, -6),
        (7, -4, 7),
    )
    assert verify_square_identity(sq)
    assert evaluate_forms(sq, 1, 0) == (2, 3, 6, 7)


def test_piezas_golden_1223():
    sq = piezas_generate(PythagoreanQuadruple(1, 2, 2, 3))
    assert tuple(f.coefficients for f in sq.forms) == (
        (1, -6, 1),
        (2, 0, -2),
        (2, 0, -2),
        (3, -2, 3),
    )
    assert verify_square_identity(sq)


def test_piezas_numeric_sweep():
    sq = piezas_generate(PythagoreanQuadruple(2, 3, 6, 7))
    for u in range(-6, 7):
        for v in range(-6, 7):
            a, b, c, d = evaluate_forms(sq, u, v)
            assert a * a + b * b + c * c == d * d


def test_degenerate_triple_golden():
    forms = piezas_degenerate_triple(PythagoreanQuadruple(8, 9, 12, 17), 15)
    assert tuple(f.coefficients for f in forms) == DEGENERATE_TRIPLE_FORMS
    assert powers_telescope([f.dehomogenize() for f in forms], 2)
    assert tuple(f.evaluate(1, 0) for f in forms) == (8, 15, 17)


def test_degenerate_triple_rejects_non_square_leg():
    # 3^2 + 6^2 = 45 is not a perfect square
    with pytest.raises(ValueError, match="45"):
        piezas_degenerate_triple(PythagoreanQuadruple(2, 3, 6, 7), 7)
    with pytest.raises(ValueError):
        piezas_degenerate_triple(PythagoreanQuadruple(8, 9, 12, 17), 16)


# --- power-sum quadruple -----------------------------------------------------


def test_powersum_quadruple_baseline_identity():
    u = Polynomial.monomial(1)
    assert (u**2 + (1 + u) ** 2 + (u + u**2) ** 2 - (1 + u + u**2) ** 2).is_zero


def test_powersum_quadruple_display_golden():
    combos = powersum_quadruple(2)
    scaled, factor = extract_common_factor(combos)
    assert factor == Fraction(1, 3)
    assert tuple(c.terms for c in scaled) == QUADRUPLE_K2_SCALED


def test_powersum_quadruple_numeric():
    combos = powersum_quadruple(2)
    scaled = [3 * c for c in combos]
    assert tuple(c.evaluate(1) for c in scaled) == (3, 6, 6, 9)
    assert 3**2 + 6**2 + 6**2 == 9**2
    for k in (1, 2, 3):
        for n in range(1, 16):
            a, b, c, d = (x.evaluate(n) for x in powersum_quadruple(k))
            assert all(v.denominator == 1 for v in (a, b, c, d))
            assert a * a + b * b + c * c == d * d


def test_powersum_quadruple_expanded_polynomials():
    combos = powersum_quadruple(2)
    p = [(18 * c).to_polynomial() for c in combos]
    a = Polynomial(QUADRUPLE_A_POLY)
    b = Polynomial(QUADRUPLE_B_POLY)
    assert p[0] == a
    assert p[1] == a + 18
    assert p[2] == b
    assert p[3] == b + 18
    assert (p[0] ** 2 + p[1] ** 2 + p[2] ** 2 - p[3] ** 2).is_zero


def test_powersum_quadruple_requires_positive_k():
    with pytest.raises(ValueError):
        powersum_quadruple(0)


# --- power-sum triple ---------------------------------------------------------


def test_powersum_triple_display_golden():
    doubled = tuple((2 * c).terms for c in powersum_triple(3, 1))
    assert doubled == TRIPLE_31_DOUBLED


def test_powersum_triple_orientation():
    # (1,3) and (3,1) differ only in the sign of the difference leg
    l13, c13, h13 = powersum_triple(1, 3)
    l31, c31, h31 = powersum_triple(3, 1)
    assert l13 == -1 * l31
    assert c13 == c31
    assert h13 == h31


def test_powersum_triple_numeric():
    legs = powersum_triple(1, 3)
    for n in range(1, 16):
        a, b, c = (x.evaluate(n) for x in legs)
        assert a * a + b * b == c * c


def test_powersum_triple_rejects_equal_exponents():
    with pytest.raises(ValueError, match="k != m"):
        powersum_triple(2, 2)
    with pytest.raises(ValueError):
        powersum_triple(0, 1)


def test_piza_comparison_triple_golden():
    triple = tuple(PowerSumCombo(t) for t in PIZA_TRIPLE)
    p1, p2, p3 = (c.to_polynomial() for c in triple)
    assert (p1 * p1 + p2 * p2 - p3 * p3).is_zero
    # shares the cross leg with the doubled (3, 1) triple
    assert triple[1] == 2 * powersum_triple(3, 1)[1]


def test_odd_square_lemma():
    assert 2 * square(3) == PowerSumCombo({5: 1, 7: 1})


# --- equal sums of two squares -------------------------------------------------


def test_equal_sums_examples():
    assert equal_sums_family(17) == ((32, 69), (36, 67))
    assert 32**2 + 69**2 == 36**2 + 67**2
    assert equal_sums_family(0) == ((-2, 1), (2, -1))
    assert equal_sums_family(1) == ((0, 5), (4, 3))
    for u in range(-20, 21):
        (a, b), (c, d) = equal_sums_family(u)
        assert a * a + b * b == c * c + d * d


def test_equal_sums_polynomial_proof():
    a, b, c, d = equal_sums_polynomials()
    assert (a * a + b * b - c * c - d * d).is_zero


def test_equal_sums_derivation_from_triples():
    # The doubled (3,1) triple and the comparison triple share the leg
    # S_3 + 3 S_5.  Eliminating it leaves an equal-sums identity in which
    # every expression is linear in S_3 and S_5 + S_7; rewriting
    # S_5 + S_7 as 2 S_3^2 and stripping the common factor S_3 leaves the
    # equal_sums_family polynomials.
    own = [2 * c for c in powersum_triple(3, 1)]
    piza = [PowerSumCombo(t) for t in PIZA_TRIPLE]
    assert own[1] == piza[1]
    exprs = [own[0], piza[2], own[2], piza[0]]
    for e in exprs:
        assert set(e.exponents) <= {3, 5, 7}
        assert e.coefficient(5) == e.coefficient(7)
    assert 2 * square(3) == PowerSumCombo({5: 1, 7: 1})

    def in_x(e):
        # S_3 -> x, S_5 + S_7 -> 2 x^2, then divide by the common x
        return Polynomial({0: e.coefficient(3), 1: 2 * e.coefficient(5)})

    assert tuple(in_x(e) for e in exprs) == equal_sums_polynomials()


# --- each proof gate refuses a wrong input ----------------------------------


def forged_quadruple(*values) -> PythagoreanQuadruple:
    """A quadruple that skips the constructor's checks."""
    return tuple.__new__(PythagoreanQuadruple, values)


def test_piezas_generate_refuses_a_forged_quadruple():
    with pytest.raises(RuntimeError, match="generated square quadruple failed verification"):
        piezas_generate(forged_quadruple(1, 2, 2, 4))


def test_piezas_degenerate_triple_refuses_a_forged_quadruple():
    with pytest.raises(RuntimeError, match="degenerate triple failed verification"):
        piezas_degenerate_triple(forged_quadruple(1, 3, 4, 6), 5)


def test_powersum_triple_refuses_a_wrong_square(monkeypatch):
    monkeypatch.setattr(quadratic, "square", lambda k: square(k) + 1)
    with pytest.raises(RuntimeError, match="power-sum triple failed verification"):
        powersum_triple(2, 1)
