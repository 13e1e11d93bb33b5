import random
from fractions import Fraction

import pytest

from powersum_forge import relations
from powersum_forge.cubic import BinaryQuadraticForm, CubicQuadruple, FormQuadruple, content_reduce, sandor_generate
from powersum_forge.polynomials import Polynomial, powers_telescope
from powersum_forge.powersums import PowerSumCombo, product, s1_power, s2_s1_power, square
from powersum_forge.relations import (
    FMode,
    PolyIdentity,
    QMode,
    build_F,
    build_Q,
    build_relation,
    expand_relation,
    factor_common_root,
    parse_mode,
)

from goldens import (
    EQ6_FORMS,
    EQ13_FORMS,
    EQ19_COMBOS,
    EQ19_FACTOR,
    EQ21_POLYS,
    EQ21_SCALE,
    EQ23_COMBOS,
    EQ23_FACTOR,
    EQ24_POLYS,
    EQ24_QUARTICS,
    EQ24_SCALE,
)


def quadruple(rows):
    return FormQuadruple(*(BinaryQuadraticForm(*r) for r in rows))


def eq19_relation():
    fq, _ = content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))
    return build_relation(fq, QMode(1, 2))


def eq23_relation():
    fq = sandor_generate(CubicQuadruple(1, 8, 6, 9))
    return build_relation(fq, FMode(2))


# --- mode parsing -----------------------------------------------------------


def test_parse_mode():
    assert parse_mode("Q:1,2") == QMode(1, 2)
    assert parse_mode("F:2") == FMode(2)
    for bad in ("X:1", "Q:1", "F:", "Q:a,b", "cubic"):
        with pytest.raises(ValueError):
            parse_mode(bad)
    with pytest.raises(ValueError):
        parse_mode("Q:0,2")


def test_parse_mode_reads_a_sign_and_leading_zeros():
    assert parse_mode("Q:+1,02") == QMode(1, 2)
    assert parse_mode("F:007") == FMode(7)


@pytest.mark.parametrize(
    "token,message",
    [
        ("X:1", "unknown relation mode 'X:1' (expected Q:k,m or F:k)"),
        ("Q", "unknown relation mode 'Q' (expected Q:k,m or F:k)"),
        ("cubic", "unknown relation mode 'cubic' (expected Q:k,m or F:k)"),
        ("Q:1", "malformed relation mode 'Q:1'"),
        ("Q:1,2,3", "malformed relation mode 'Q:1,2,3'"),
        ("Q:a,b", "malformed relation mode 'Q:a,b'"),
        ("F:", "malformed relation mode 'F:'"),
        ("F:1,2", "malformed relation mode 'F:1,2'"),
        # an optional sign and ASCII digits only
        ("Q: 1_0 ,2", "malformed relation mode 'Q: 1_0 ,2'"),
        ("Q:1_0,2", "malformed relation mode 'Q:1_0,2'"),
        ("Q:1, 2", "malformed relation mode 'Q:1, 2'"),
        ("F:\u0663", "malformed relation mode 'F:\u0663'"),
        ("Q:0,2", "Q mode requires k >= 1 and m >= 1"),
        ("F:0", "F mode requires k >= 1"),
    ],
)
def test_parse_mode_errors(token, message):
    with pytest.raises(ValueError) as err:
        parse_mode(token)
    assert str(err.value) == message


def test_mode_labels():
    assert QMode(1, 2).label == "Q:1,2"
    assert FMode(3).label == "F:3"


# --- the building blocks ------------------------------------------------------


def test_build_q_closed_form():
    # alpha*square(k) + beta*product(k,m) + gamma*square(m), checked against
    # the fully expanded k=1, m=2 coefficient pattern
    for alpha, beta, gamma in EQ6_FORMS:
        combo = build_Q(BinaryQuadraticForm(alpha, beta, gamma), 1, 2)
        expected = PowerSumCombo(
            {
                2: Fraction(beta, 6),
                3: Fraction(6 * alpha + 2 * gamma, 6),
                4: Fraction(5 * beta, 6),
                5: Fraction(4 * gamma, 6),
            }
        )
        assert combo == expected


def test_build_q_unit_forms():
    assert build_Q(BinaryQuadraticForm(1, 0, 0), 2, 5) == square(2)
    assert build_Q(BinaryQuadraticForm(0, 1, 0), 1, 3) == product(1, 3)
    assert build_Q(BinaryQuadraticForm(0, 0, 1), 1, 3) == square(3)


def test_build_q_symmetry():
    for alpha, beta, gamma in ((2, -3, 5), (1, 1, 1), (0, 7, -2)):
        lhs = build_Q(BinaryQuadraticForm(alpha, beta, gamma), 2, 4)
        rhs = build_Q(BinaryQuadraticForm(gamma, beta, alpha), 4, 2)
        assert lhs == rhs


def test_build_q_requires_positive_exponents():
    with pytest.raises(ValueError):
        build_Q(BinaryQuadraticForm(1, 1, 1), 0, 2)
    with pytest.raises(ValueError):
        build_Q(BinaryQuadraticForm(1, 1, 1), 2, 0)


def test_build_f_closed_form():
    for alpha, beta, gamma in EQ13_FORMS:
        combo = build_F(BinaryQuadraticForm(alpha, beta, gamma), 2)
        expected = PowerSumCombo(
            {
                3: Fraction(4 * alpha, 12),
                4: Fraction(5 * beta, 12),
                5: Fraction(8 * alpha + 6 * gamma, 12),
                6: Fraction(7 * beta, 12),
                7: Fraction(6 * gamma, 12),
            }
        )
        assert combo == expected


def test_build_f_unit_forms():
    assert build_F(BinaryQuadraticForm(1, 0, 0), 5) == square(2)
    assert build_F(BinaryQuadraticForm(0, 1, 0), 3) == s2_s1_power(3)
    assert build_F(BinaryQuadraticForm(0, 0, 1), 1) == s1_power(2)
    assert build_F(BinaryQuadraticForm(0, 0, 1), 1) == PowerSumCombo({3: 1})


# --- relation goldens ---------------------------------------------------------


def test_relation_eq19_golden():
    cq = eq19_relation()
    assert cq.common_factor == EQ19_FACTOR
    assert tuple(c.terms for c in cq.combos) == EQ19_COMBOS


def test_relation_eq23_golden():
    cq = eq23_relation()
    assert cq.common_factor == EQ23_FACTOR
    assert tuple(c.terms for c in cq.combos) == EQ23_COMBOS


def test_relation_rejects_broken_quadruple():
    broken = quadruple(((1, 0, 0),) * 4)
    with pytest.raises(ValueError, match="cubic identity"):
        build_relation(broken, QMode(1, 2))


def test_relation_equal_exponents_degenerates_to_square():
    fq = quadruple(EQ6_FORMS)
    cq = build_relation(fq, QMode(3, 3))
    for combo, (alpha, beta, gamma) in zip(cq.combos, EQ6_FORMS):
        expected = (alpha + beta + gamma) * square(3) * (1 / cq.common_factor)
        assert combo == expected
    # the underlying numeric identity is the family at u == v
    q1, q2, q3, q4 = (sum(r) for r in EQ6_FORMS)
    assert q1**3 + q2**3 + q3**3 == q4**3


def test_relation_soundness_numeric():
    for cq in (eq19_relation(), eq23_relation()):
        for n in range(1, 16):
            c1, c2, c3, c4 = (c.evaluate(n) for c in cq.combos)
            assert c1**3 + c2**3 + c3**3 == c4**3


def test_vanishing_at_zero_and_minus_one():
    rng = random.Random(99)
    for _ in range(50):
        form = BinaryQuadraticForm(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        k, m = rng.randint(1, 6), rng.randint(1, 6)
        for combo in (build_Q(form, k, m), build_F(form, k)):
            assert combo.evaluate(0) == 0
            assert combo.evaluate(-1) == 0


# --- expansion ---------------------------------------------------------------


def test_expand_eq19_to_eq21():
    identity = expand_relation(eq19_relation())
    assert identity.scale == EQ21_SCALE
    assert tuple(p.coefficients for p in identity.polys) == EQ21_POLYS
    assert powers_telescope(identity.polys, 3)


def test_expand_eq23_to_eq24():
    identity = expand_relation(eq23_relation())
    assert identity.scale == EQ24_SCALE
    assert tuple(p.coefficients for p in identity.polys) == EQ24_POLYS


def test_eq21_specialization_at_one():
    identity = expand_relation(eq19_relation())
    values = identity.evaluate(1)
    assert values == (180, 108, 144, 216)
    assert values == tuple(36 * x for x in (5, 3, 4, 6))


# --- factoring ----------------------------------------------------------------


def test_factor_eq24_golden():
    identity = expand_relation(eq23_relation())
    quotient, divisor = factor_common_root(identity)
    assert divisor == Polynomial({2: 1, 3: 2, 4: 1})  # u^2 (u+1)^2
    assert divisor == Polynomial.monomial(2) * Polynomial({1: 1, 0: 1}) ** 2
    assert tuple(p.coefficients for p in quotient.polys) == EQ24_QUARTICS
    assert powers_telescope(quotient.polys, 3)


def test_factored_specialization_at_zero():
    quotient, _ = factor_common_root(expand_relation(eq23_relation()))
    values = quotient.evaluate(0)
    assert values == (28, 224, 168, 252)
    assert values == tuple(28 * x for x in (1, 8, 6, 9))


def test_factor_is_exhaustive():
    quotient, divisor = factor_common_root(expand_relation(eq23_relation()))
    again, trivial = factor_common_root(quotient)
    assert trivial == Polynomial.constant(1)
    assert again.polys == quotient.polys


def test_factor_eq21_strips_forced_roots():
    quotient, divisor = factor_common_root(expand_relation(eq19_relation()))
    assert divisor == Polynomial({2: 1, 3: 2, 4: 1})
    assert quotient.evaluate(0) == (32, 54, 85, 93)


def test_expand_relation_consistency_guard():
    # hand-built inconsistent quadruple must be refused upstream
    bogus = PolyIdentity(
        (Polynomial({0: 1}), Polynomial({0: 1}), Polynomial({0: 1}), Polynomial({0: 1})),
        Fraction(1),
    )
    assert not powers_telescope(bogus.polys, 3)


# --- each proof gate refuses a wrong input ----------------------------------


def test_expand_relation_refuses_a_combo_with_one_weight_moved():
    cq = eq19_relation()
    first = cq.combos[0]
    e, weight = next(iter(first.terms.items()))
    moved = PowerSumCombo({**first.terms, e: weight + 1})
    with pytest.raises(RuntimeError, match="expanded relation failed cubic verification"):
        expand_relation(cq._replace(combos=(moved, *cq.combos[1:])))


def test_factor_common_root_refuses_a_quotient_with_one_coefficient_moved(monkeypatch):
    strip = relations._strip_forced_roots

    def moved(polys):
        quotients, s, t = strip(polys)
        num = list(quotients[0]._num)
        num[-1] += quotients[0]._den
        return [Polynomial._from_ints(num, quotients[0]._den), *quotients[1:]], s, t

    monkeypatch.setattr(relations, "_strip_forced_roots", moved)
    with pytest.raises(RuntimeError, match="factored relation failed cubic verification"):
        factor_common_root(expand_relation(eq19_relation()))
