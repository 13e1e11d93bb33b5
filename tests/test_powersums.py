import hashlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersum_forge.cli import main
from powersum_forge.polynomials import Polynomial
from powersum_forge.powersums import (
    CONSTANT_EXP,
    PowerSumCombo,
    S,
    extract_common_factor,
    faulhaber,
    product,
    s1_power,
    s2_s1_power,
    square,
)

from goldens import TABLE1


def direct_powersum(k, n):
    return sum(i**k for i in range(1, n + 1))


# --- faulhaber -----------------------------------------------------------


@pytest.mark.parametrize("k", sorted(TABLE1))
def test_faulhaber_table_goldens(k):
    assert faulhaber(k).coefficients == TABLE1[k]


def test_faulhaber_base_case():
    assert faulhaber(0) == Polynomial({1: 1})


def test_faulhaber_structure():
    for k in range(13):
        p = faulhaber(k)
        assert p.degree == k + 1
        assert p.coefficient(0) == 0
        assert p.coefficient(k + 1) == Fraction(1, k + 1)


def test_faulhaber_matches_direct_sums():
    for k in range(7):
        for n in range(1, 16):
            assert faulhaber(k).evaluate(n) == direct_powersum(k, n)


def test_faulhaber_reflection():
    # S_k(-1-n) == (-1)^(k+1) S_k(n): the polynomial is symmetric in that sense
    for k in range(1, 11):
        p = faulhaber(k)
        for n in range(11):
            assert p.evaluate(-1 - n) == (-1) ** (k + 1) * p.evaluate(n)


def test_s1_divides_all_faulhaber_polynomials():
    # S_1 = n(n+1)/2 has the simple roots 0 and -1, so S_1 | S_k iff S_k vanishes at both.
    for k in range(1, 11):
        assert faulhaber(k).evaluate(0) == 0
        assert faulhaber(k).evaluate(-1) == 0


# --- closed forms --------------------------------------------------------


def test_product_examples():
    assert product(1, 2) == PowerSumCombo({2: Fraction(1, 6), 4: Fraction(5, 6)})
    assert product(1, 3) == PowerSumCombo({3: Fraction(1, 4), 5: Fraction(3, 4)})


def test_product_symmetry_and_square_consistency():
    for k in range(1, 9):
        assert product(k, k) == square(k)
        for m in range(1, 9):
            assert product(k, m) == product(m, k)


@pytest.mark.parametrize("k,m", [(0, 0), (0, 3), (3, 0), (-1, 2)])
def test_product_refuses_exponents_below_one(k, m):
    # The closed form gives n^2 + ... at exponent 0, not S_0 * S_m = n * S_m.
    with pytest.raises(ValueError, match="exponents >= 1"):
        product(k, m)
    with pytest.raises(ValueError, match="exponents >= 1"):
        square(min(k, m))


def test_square_examples():
    assert square(1) == PowerSumCombo({3: 1})  # Nicomachus
    assert square(2) == PowerSumCombo({3: Fraction(1, 3), 5: Fraction(2, 3)})
    assert square(3) == PowerSumCombo({5: Fraction(1, 2), 7: Fraction(1, 2)})


def test_s1_power_examples():
    assert s1_power(1) == S(1)
    assert s1_power(2) == S(3)
    assert s1_power(2) == square(1)
    assert s1_power(3) == PowerSumCombo({3: Fraction(1, 4), 5: Fraction(3, 4)})
    with pytest.raises(ValueError):
        s1_power(0)


def test_s2_s1_power_examples():
    assert s2_s1_power(0) == S(2)
    assert s2_s1_power(1) == product(1, 2)
    assert s2_s1_power(2) == PowerSumCombo({4: Fraction(5, 12), 6: Fraction(7, 12)})


def test_numeric_oracle_for_all_ops():
    for n in range(1, 16):
        s = [direct_powersum(k, n) for k in range(13)]
        for k in range(1, 6):
            assert square(k).evaluate(n) == s[k] ** 2
            assert s1_power(k).evaluate(n) == s[1] ** k
            for m in range(1, 6):
                assert product(k, m).evaluate(n) == s[k] * s[m]
        for k in range(0, 6):
            assert s2_s1_power(k).evaluate(n) == s[2] * s[1] ** k


def test_exponent_parity():
    for k in range(0, 9):
        assert all(e % 2 == 0 for e in s2_s1_power(k).exponents)
    for k in range(1, 9):
        assert all(e % 2 == 1 for e in square(k).exponents)
        assert all(e % 2 == 1 for e in s1_power(k).exponents)


def test_weight_sums():
    for k in range(1, 11):
        assert sum(s1_power(k).terms.values()) == 1
        assert sum(s2_s1_power(k).terms.values()) == 1
        assert sum(comb(k, 2 * j + 1) for j in range((k - 1) // 2 + 1)) == 2 ** (k - 1)
        total = sum(
            Fraction(2 * k + 3 - 2 * j, 2 * j + 1) * comb(k + 1, 2 * j)
            for j in range((k + 1) // 2 + 1)
        )
        assert total == 3 * 2**k


# --- combo arithmetic ----------------------------------------------------


def test_combo_addition_golden():
    assert square(3) + square(3) == PowerSumCombo({5: 1, 7: 1})


def test_combo_zero_identity():
    c = product(2, 3)
    assert c + PowerSumCombo.zero() == c
    assert c - c == PowerSumCombo.zero()
    assert not (c - c)


def test_product_equals_s2_s1_power():
    assert product(1, 2) + (-1) * s2_s1_power(1) == PowerSumCombo.zero()


def test_combo_scalar_and_constant_slot():
    c = 1 + S(2)
    assert c.constant == 1
    assert c.coefficient(2) == 1
    assert c.evaluate(1) == 2
    assert c.evaluate(3) == 15
    assert c.to_polynomial().coefficient(0) == 1
    assert (3 * c).terms == {CONSTANT_EXP: 3, 2: 3}


def test_combo_validation():
    with pytest.raises(ValueError):
        PowerSumCombo({-2: 1})
    with pytest.raises(ValueError):
        S(-1)


@given(
    st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=30), max_size=5),
    st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=30), max_size=5),
    st.integers(-6, 6),
)
def test_combo_evaluation_is_linear(t1, t2, n):
    c1, c2 = PowerSumCombo(t1), PowerSumCombo(t2)
    assert (c1 + c2).evaluate(n) == c1.evaluate(n) + c2.evaluate(n)
    assert (3 * c1).evaluate(n) == 3 * c1.evaluate(n)


def test_combo_compares_with_scalars_like_polynomial():
    assert 1 + S(2) - S(2) == 1
    assert PowerSumCombo.zero() == 0
    assert S(2) != 0


def test_combos_and_polynomials_do_not_mix():
    with pytest.raises(TypeError):
        Polynomial({1: 1}) + S(1)
    with pytest.raises(TypeError):
        S(1) - Polynomial({1: 1})
    with pytest.raises(TypeError):
        Polynomial({1: 1}) * S(1)
    assert Polynomial.zero() != PowerSumCombo()
    assert Polynomial.constant(3) != 3 + PowerSumCombo()


# --- differential check against a plain Fraction-dict reference ----------
#
# The reference keeps {exponent: Fraction} with no zero entries (exponent -1
# is the constant) and does the linear algebra directly; PowerSumCombo must
# agree with it through its public, rational view.


def ref_combo(terms: dict) -> dict:
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_combo_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return ref_combo(out)


def ref_combo_evaluate(a: dict, n: int) -> Fraction:
    return sum(
        (c if e == CONSTANT_EXP else c * direct_powersum(e, n) for e, c in a.items()),
        Fraction(0),
    )


combo_terms = st.dictionaries(st.integers(-1, 8), st.fractions(max_denominator=30), max_size=5)


@given(combo_terms, combo_terms, st.fractions(max_denominator=20), st.integers(0, 8))
def test_combo_matches_reference(ta, tb, s, n):
    a, b = PowerSumCombo(ta), PowerSumCombo(tb)
    ra, rb = ref_combo(ta), ref_combo(tb)
    assert a.terms == ra
    assert a.exponents == tuple(sorted(ra))
    assert a.constant == ra.get(CONSTANT_EXP, 0)
    assert (a + b).terms == ref_combo_add(ra, rb)
    assert (a - b).terms == ref_combo_add(ra, {e: -c for e, c in rb.items()})
    assert (-a).terms == {e: -c for e, c in ra.items()}
    assert (s * a).terms == ref_combo({e: s * c for e, c in ra.items()})
    assert (a + s).terms == ref_combo_add(ra, {CONSTANT_EXP: s})
    assert a.evaluate(n) == ref_combo_evaluate(ra, n)
    same = (a + b) - b
    assert same == a and hash(same) == hash(a)


# --- conversion and evaluation -------------------------------------------


def test_combo_to_polynomial():
    assert S(2).to_polynomial() == Polynomial(TABLE1[2])
    assert PowerSumCombo.zero().to_polynomial().is_zero
    assert square(2).to_polynomial() == faulhaber(2) * faulhaber(2)


def test_eval_powersum():
    assert faulhaber(3).evaluate(3) == 36
    assert faulhaber(2).evaluate(-3) == -5
    for k in range(1, 11):
        assert faulhaber(k).evaluate(-1) == 0
        assert faulhaber(k).evaluate(0) == 0
    for k in range(0, 7):
        for n in range(-10, 11):
            assert faulhaber(k).evaluate(n).denominator == 1


def test_extract_common_factor():
    scaled, factor = extract_common_factor([square(2)])
    assert factor == Fraction(1, 3)
    assert scaled[0] == PowerSumCombo({3: 1, 5: 2})
    unchanged, factor = extract_common_factor([PowerSumCombo.zero()])
    assert factor == 1 and unchanged[0].is_zero


# --- byte identity of the combo and quadratic CLI output -------------------

# sha256 prefixes of ``main`` stdout, recorded before PowerSumCombo moved to
# the shared integer representation.
COMBO_OUTPUT_SHA256 = {
    "combo product 3 5": "761a5e0debb7a26a",
    "combo s2s1pow 3 --latex": "31d1ed349e00fa61",
    "quad triple 3 5 --eval 4": "1d761e5d3db4a415",
    "quad quadruple 3 --latex": "a9c435c05bc3c1a5",
}


@pytest.mark.parametrize("argv", sorted(COMBO_OUTPUT_SHA256))
def test_combo_and_quad_output_is_byte_identical(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == COMBO_OUTPUT_SHA256[argv]
