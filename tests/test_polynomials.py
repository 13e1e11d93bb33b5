import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersum_forge.cli import main
from powersum_forge.cubic import (
    BinaryQuadraticForm,
    CubicQuadruple,
    FormQuadruple,
    content_reduce,
    sandor_generate,
    substitute,
    verify_cubic_identity,
)
from powersum_forge.polynomials import (
    NEG_INFINITY,
    Polynomial,
    _strip_forced_roots,
    joint_content,
    powers_telescope,
)
from powersum_forge.powersums import PowerSumCombo
from powersum_forge.quadratic import (
    PythagoreanQuadruple,
    SquareFormQuadruple,
    piezas_generate,
    verify_square_identity,
)
from powersum_forge.relations import FMode, QMode, build_relation

coeffs = st.dictionaries(st.integers(0, 8), st.fractions(max_denominator=50), max_size=6)


def test_zero_polynomial_degree_sentinel():
    zero = Polynomial.zero()
    assert zero.is_zero
    assert zero.degree == NEG_INFINITY
    assert zero.lowest_degree == NEG_INFINITY
    assert Polynomial({3: 0}).is_zero


def test_degree_and_coefficient_access():
    p = Polynomial({0: 1, 5: Fraction(-1, 2)})
    assert p.degree == 5
    assert p.lowest_degree == 0
    assert p.coefficient(5) == Fraction(-1, 2)
    assert p.coefficient(17) == 0


def test_construction_merges_duplicate_degrees():
    p = Polynomial([(2, 1), (2, 2), (0, 5)])
    assert p == Polynomial({2: 3, 0: 5})


def test_construction_rejects_negative_degree():
    with pytest.raises(ValueError):
        Polynomial({-1: 1})


def test_scalar_mixing():
    p = Polynomial({1: 2})
    assert p + 1 == Polynomial({0: 1, 1: 2})
    assert 1 + p == p + 1
    assert 3 - p == Polynomial({0: 3, 1: -2})
    assert Fraction(1, 2) * p == Polynomial({1: 1})
    assert p - p == 0
    assert p != 0


def test_power_and_evaluate():
    p = Polynomial({0: 1, 1: 1})  # 1 + x
    assert p**0 == Polynomial.constant(1)
    assert p**3 == Polynomial({0: 1, 1: 3, 2: 3, 3: 1})
    assert (p**3).evaluate(2) == 27
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        p ** -1


@given(coeffs, coeffs, st.integers(-5, 5))
def test_ring_homomorphism_under_evaluation(ca, cb, x):
    a, b = Polynomial(ca), Polynomial(cb)
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_polynomial_hash_consistency():
    assert hash(Polynomial({1: 2})) == hash(Polynomial([(1, 1), (1, 1)]))
    assert Polynomial({1: 2}) in {Polynomial({1: 2})}


def test_joint_content_examples():
    combo = PowerSumCombo({e: Fraction(x, 6) for e, x in zip((2, 3, 4, 5), (15, 2, 75, -32))})
    assert joint_content([combo]) == Fraction(1, 6)
    assert joint_content([Polynomial.constant(4), Polynomial.constant(6)]) == 2
    halves = [Polynomial.constant(Fraction(3, 4)), Polynomial.monomial(1, Fraction(9, 2))]
    assert joint_content(halves) == Fraction(3, 4)
    assert joint_content([]) == 0
    assert joint_content([Polynomial.zero(), PowerSumCombo.zero()]) == 0


# --- powers_telescope ---------------------------------------------------------


def test_powers_telescope_examples():
    u = Polynomial.monomial(1)
    assert powers_telescope([Polynomial.constant(x) for x in (3, 4, 5)], 2)
    assert powers_telescope([u * u - 1, 2 * u, u * u + 1], 2)
    assert not powers_telescope([u * u - 1, 2 * u, u * u + 2], 2)
    assert powers_telescope([u, u], 3)
    assert not powers_telescope([u, -u], 3)


# Cross-check against plain integer arithmetic.  A polynomial of degree at
# most D that vanishes at D + 1 distinct points is zero, so sampling
# sum p_i^e - p_last^e at that many integers decides the identity exactly.


def _telescopes_at_points(values, exponent, points) -> bool:
    """``values(x)`` gives the parts at ``x``; check the identity at each point."""
    for x in points:
        *lhs, rhs = values(x)
        if sum(v**exponent for v in lhs) != rhs**exponent:
            return False
    return True


def _forms_telescope(forms, exponent) -> bool:
    # q(u, 1)^e has degree at most 2e
    return _telescopes_at_points(
        lambda u: [f.evaluate(u, 1) for f in forms], exponent, range(2 * exponent + 1)
    )


CUBIC_SEEDS = [(1, 6, 8, 9), (3, 4, 5, 6), (1, 8, 6, 9), (9, -8, -6, 1), (6, 8, 1, 9)]
PYTHAGOREAN_SEEDS = [(2, 3, 6, 7), (1, 2, 2, 3), (8, 9, 12, 17), (2, 6, 9, 11)]
small = st.integers(-3, 3)
perturbation = st.one_of(st.just(0), st.integers(-2, 2))


def _perturb(forms, which, coeff, delta):
    out = list(forms)
    values = list(out[which].coefficients)
    values[coeff] += delta
    out[which] = BinaryQuadraticForm(*values)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CUBIC_SEEDS),
    st.tuples(small, small, small, small),
    st.integers(0, 3),
    st.integers(0, 2),
    perturbation,
)
def test_verify_cubic_identity_matches_integer_check(seed, matrix, which, coeff, delta):
    m11, m12, m21, m22 = matrix
    family = substitute(sandor_generate(CubicQuadruple(*seed)), ((m11, m12), (m21, m22)))
    forms = _perturb(family.forms, which, coeff, delta)
    fq = FormQuadruple(*forms)
    assert verify_cubic_identity(fq) == _forms_telescope(forms, 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small, small, small), min_size=4, max_size=4))
def test_random_forms_match_integer_check(rows):
    forms = [BinaryQuadraticForm(*row) for row in rows]
    assert verify_cubic_identity(FormQuadruple(*forms)) == _forms_telescope(forms, 3)
    assert verify_square_identity(SquareFormQuadruple(*forms)) == _forms_telescope(forms, 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PYTHAGOREAN_SEEDS), st.integers(0, 3), st.integers(0, 2), perturbation)
def test_verify_square_identity_matches_integer_check(seed, which, coeff, delta):
    forms = _perturb(piezas_generate(PythagoreanQuadruple(*seed)).forms, which, coeff, delta)
    sq = SquareFormQuadruple(*forms)
    assert verify_square_identity(sq) == _forms_telescope(forms, 2)
    assert verify_square_identity(sq) == (delta == 0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(CUBIC_SEEDS),
    st.sampled_from([QMode(1, 2), FMode(2)]),
    st.integers(0, 3),
    st.integers(0, 8),
    perturbation,
)
def test_relation_polynomials_match_integer_check(seed, mode, which, degree, delta):
    family, _ = content_reduce(sandor_generate(CubicQuadruple(*seed)))
    polys = [c.to_polynomial() for c in build_relation(family, mode).combos]
    polys[which] = polys[which] + Polynomial.monomial(degree, delta)
    top = 3 * max(int(p.degree) for p in polys if not p.is_zero)
    expected = _telescopes_at_points(
        lambda x: [ref_evaluate(p.coefficients, x) for p in polys], 3, range(top + 1)
    )
    assert powers_telescope(polys, 3) == expected
    assert expected == (delta == 0)


# --- differential checks against a plain Fraction-dict reference ---------------
#
# The reference keeps {degree: Fraction} with no zero entries and does the
# schoolbook algebra directly; Polynomial must agree with it through its
# public, rational view.


def ref(p: dict) -> dict:
    return {d: Fraction(c) for d, c in p.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return ref(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + c1 * c2
    return ref(out)


def ref_pow(a: dict, n: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_evaluate(a: dict, x) -> Fraction:
    return sum((c * Fraction(x) ** d for d, c in a.items()), Fraction(0))


def ref_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    top = max(b)
    quo: dict = {}
    rem = dict(a)
    while rem and max(rem) >= top:
        d = max(rem)
        q = rem[d] / b[top]
        quo[d - top] = q
        rem = ref_add(rem, {e + d - top: -q * c for e, c in b.items()})
    return ref(quo), rem


int_coeffs = st.dictionaries(st.integers(0, 8), st.integers(-20, 20), max_size=6)
poly_coeffs = st.one_of(coeffs, int_coeffs)
points = st.one_of(st.integers(-12, 12), st.fractions(max_denominator=9))


@given(poly_coeffs, poly_coeffs)
def test_ring_operations_match_reference(ca, cb):
    a, b = Polynomial(ca), Polynomial(cb)
    ra, rb = ref(ca), ref(cb)
    assert a.coefficients == ra
    assert (a + b).coefficients == ref_add(ra, rb)
    assert (a - b).coefficients == ref_add(ra, {d: -c for d, c in rb.items()})
    assert (a * b).coefficients == ref_mul(ra, rb)


@given(poly_coeffs, st.integers(0, 4), st.fractions(max_denominator=20))
def test_power_and_scalar_product_match_reference(ca, n, s):
    a, ra = Polynomial(ca), ref(ca)
    assert (a**n).coefficients == ref_pow(ra, n)
    assert (a * s).coefficients == ref_mul(ra, ref({0: s}))
    assert (s + a).coefficients == ref_add(ra, ref({0: s}))


@given(poly_coeffs, points)
def test_evaluate_matches_reference(ca, x):
    value = Polynomial(ca).evaluate(x)
    assert type(value) is Fraction
    assert value == ref_evaluate(ref(ca), x)


U_PLUS_1 = {0: 1, 1: 1}


nonzero_coeffs = poly_coeffs.filter(lambda c: any(c.values()))


@given(
    st.lists(
        st.tuples(nonzero_coeffs, st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
    )
)
def test_strip_forced_roots_matches_reference(parts):
    products = [ref_mul(ref_mul(ref(c), {s: 1}), ref_pow(U_PLUS_1, t)) for c, s, t in parts]
    quotients, s, t = _strip_forced_roots([Polynomial(p) for p in products])
    ref_s = min(min(p) for p in products)
    expected = [{d - ref_s: c for d, c in p.items()} for p in products]
    ref_t = 0
    while all(ref_evaluate(p, -1) == 0 for p in expected):
        expected = [ref_divmod(p, U_PLUS_1)[0] for p in expected]
        ref_t += 1
    assert (s, t) == (ref_s, ref_t)
    for q, e in zip(quotients, expected):
        assert q.coefficients == e and q == Polynomial(e)


def test_strip_forced_roots_keeps_the_denominator():
    # u (u+1)^2 (u+2) / 3 and (u+1)(u+3) / 6 share only u+1
    p = Polynomial({1: 2, 2: 5, 3: 4, 4: 1}) * Fraction(1, 3)
    r = Polynomial({0: 3, 1: 4, 2: 1}) * Fraction(1, 6)
    (qp, qr), s, t = _strip_forced_roots([p, r])
    assert (s, t) == (0, 1)
    assert qp == Polynomial({1: 2, 2: 3, 3: 1}) * Fraction(1, 3)
    assert qr == Polynomial({0: 3, 1: 1}) * Fraction(1, 6)
    assert _strip_forced_roots([p]) == ([Polynomial({0: 2, 1: 1}) * Fraction(1, 3)], 1, 2)


def test_normal_form_gives_equal_values_and_hashes():
    a, b = Polynomial({1: Fraction(2, 4)}), Polynomial({1: Fraction(1, 2)})
    assert a == b and hash(a) == hash(b)
    c = Polynomial({2: Fraction(6, 4), 0: 3}) * Fraction(2, 3)
    d = Polynomial({2: 1, 0: 2})
    assert c == d and hash(c) == hash(d)
    assert c.coefficients == {0: 2, 2: 1}
    assert type(c.coefficient(2)) is Fraction


@given(poly_coeffs)
def test_cancellation_gives_the_zero_polynomial(ca):
    a = Polynomial(ca)
    zero = a - a
    assert zero == Polynomial.zero() and hash(zero) == hash(Polynomial.zero())
    assert zero.is_zero and not zero
    assert zero.degree == NEG_INFINITY and zero.lowest_degree == NEG_INFINITY
    assert zero.coefficients == {}
    assert zero.evaluate(Fraction(7, 3)) == 0


# --- byte identity of the relation pipeline ------------------------------------

# sha256 prefixes of `relation --seed 1,6,8,9 --mode M --expand --factor [--latex]`,
# taken from the Fraction-coefficient implementation this one replaced.
RELATION_OUTPUT_SHA256 = {
    ("Q:15,20", False): "1454fd4715e7047b",
    ("Q:15,20", True): "e51ab73ae9406394",
    ("F:10", False): "e4c3c0acc47ca305",
    ("F:10", True): "3e79ec243529157a",
}


@pytest.mark.parametrize("mode,latex", sorted(RELATION_OUTPUT_SHA256))
def test_relation_expand_factor_output_is_byte_identical(capsys, mode, latex):
    argv = ["relation", "--seed", "1,6,8,9", "--mode", mode, "--expand", "--factor"]
    assert main(argv + ["--latex"] * latex) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == RELATION_OUTPUT_SHA256[mode, latex]
