import concurrent.futures
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersum_forge.exactcore import bernoulli, json_int, json_ints


@pytest.mark.parametrize(
    "a,b,expected",
    [(24, 36, 12), (0, -7, 7), (1, 999983, 1), (0, 0, 0), (-24, -36, 12)],
)
def test_gcd_examples(a, b, expected):
    assert gcd(a, b) == expected


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_gcd_divides_both_and_is_greatest(a, b):
    g = gcd(a, b)
    assert g >= 0
    if g:
        assert a % g == 0 and b % g == 0
    # any common divisor divides g
    for d in range(1, 20):
        if a % d == 0 and b % d == 0:
            assert g % d == 0


# The closed forms and the Bernoulli recurrence rely on these properties
# of math.gcd and math.comb (nonnegative gcd, comb(n, k) == 0 for k > n).


def test_binomial_examples():
    assert comb(4, 2) == 6
    assert comb(7, 9) == 0
    for k in range(30):
        assert comb(k + 1, 0) == 1


def test_binomial_pascal_identity():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert comb(n, k) == comb(n - 1, k - 1) + comb(n - 1, k)


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_indices_vanish():
    for j in range(1, 21):
        assert bernoulli(2 * j + 1) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def _akiyama_tanigawa(n):
    # Independent algorithm; yields the B(1) = +1/2 convention.
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def test_bernoulli_against_akiyama_tanigawa():
    reference = _akiyama_tanigawa(30)
    for k in range(31):
        expected = -reference[1] if k == 1 else reference[k]
        assert bernoulli(k) == expected


def test_bernoulli_concurrent_reads_are_consistent():
    # Hammer the shared cache from several threads; every caller must see
    # fully computed entries only.
    indices = list(range(80)) * 4
    random.Random(7).shuffle(indices)
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli, indices))
    reference = _akiyama_tanigawa(80)
    for k, value in zip(indices, results):
        expected = -reference[1] if k == 1 else reference[k]
        assert value == expected


@given(
    st.integers(-10**9, 10**9),
    st.integers(1, 10**9),
    st.integers(-10**9, 10**9),
    st.integers(1, 10**9),
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    assert (Fraction(a, b) + Fraction(c, d)) * b * d == a * d + c * b


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_rational_always_reduced(a, b):
    q = Fraction(a, b)
    assert q.denominator > 0
    assert gcd(abs(q.numerator), q.denominator) in (0, 1)


def test_binomial_row_sums():
    for n in range(0, 25):
        assert sum(comb(n, k) for k in range(n + 1)) == 2**n


# --- integers read from JSON ---------------------------------------------


@pytest.mark.parametrize("text,value", [("0", 0), ("-12", -12), ("+7", 7), ("007", 7)])
def test_json_int_reads_decimal_strings(text, value):
    assert json_int(text, "x") == value
    assert json_ints([text, "1", str(-(10**40)), "2"], "xs", 4) == (value, 1, -(10**40), 2)


@pytest.mark.parametrize(
    # "\u0661\u0662" is 12 in Arabic-Indic digits, which int() would read.
    "value", ["1_000", " 7 ", "\u0661\u0662", "\t9\n", "", "-", "1-2", "+-3", "\ud800", 1.0, True, None]
)
def test_json_int_refuses_what_is_not_a_decimal_string(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        json_int(value, "x")
    with pytest.raises(ValueError, match=r"xs\[2\]"):
        json_ints(["1", "2", value, "4"], "xs", 4)
    with pytest.raises(ValueError, match=r"xs\[1\]"):
        json_ints([1, value], "xs", 2)


def test_json_ints_mixes_numbers_and_strings():
    assert json_ints([1, "-2", 3, "4"], "xs", 4) == (1, -2, 3, 4)
    with pytest.raises(ValueError, match="list of 4 integers"):
        json_ints(["1", "2", "3"], "xs", 4)
