import itertools
import random
from fractions import Fraction

import pytest

from powersum_forge import cubic
from powersum_forge.cubic import (
    BinaryQuadraticForm,
    CubicQuadruple,
    FormQuadruple,
    check_characterization,
    content_reduce,
    evaluate_forms,
    fraction_ratio,
    permute_seed,
    sandor_generate,
    substitute,
    verify_cubic_identity,
)

from goldens import (
    BASE_SEEDS,
    EQ6_FORMS,
    EQ6_SWAPPED_FORMS,
    EQ7_TUPLE,
    EQ8_TUPLE,
    EQ9_FORMS,
    EQ10_TUPLE,
    EQ11_TUPLE,
    EQ13_FORMS,
    RAMANUJAN_FORMS,
    RAW_3456_FORMS,
)


def quadruple_from_rows(rows, seed=None):
    return FormQuadruple(*(BinaryQuadraticForm(*r) for r in rows), seed=seed)


def random_seeds(count, rng):
    """Valid nontrivial seeds: random base, random abc-permutation, random scale."""
    perms = ["abc", "acb", "bac", "bca", "cab", "cba"]
    out = []
    for _ in range(count):
        base = CubicQuadruple(*rng.choice(BASE_SEEDS))
        seed = permute_seed(base, rng.choice(perms)).scaled(rng.randint(1, 20))
        out.append(seed)
    return out


# --- seed validation ------------------------------------------------------


def test_seed_rejects_zero_entry():
    with pytest.raises(ValueError, match="zero entry"):
        CubicQuadruple(0, 4, 5, 6)


def test_seed_rejects_non_solution():
    with pytest.raises(ValueError, match="!="):
        CubicQuadruple(1, 1, 1, 1)


def test_seed_rejects_trivial_solution():
    # 1 + (-1) + 8 = 8 holds but d == c
    with pytest.raises(ValueError, match="trivial"):
        CubicQuadruple(1, -1, 2, 2)


def test_seed_scaling_preserves_validity():
    assert CubicQuadruple(3, 4, 5, 6).scaled(7).as_tuple == (21, 28, 35, 42)


def test_permute_seed():
    base = CubicQuadruple(1, 6, 8, 9)
    assert permute_seed(base, "acb").as_tuple == (1, 8, 6, 9)
    assert permute_seed(base, "abc") == base
    assert permute_seed(CubicQuadruple(3, 4, 5, 6), "cba").as_tuple == (5, 4, 3, 6)
    with pytest.raises(ValueError):
        permute_seed(base, "aab")


# --- generator goldens ----------------------------------------------------


@pytest.mark.parametrize(
    "seed,raw_rows,reduced_rows,content",
    [
        ((3, 4, 5, 6), RAW_3456_FORMS, None, 2),
        ((1, 6, 8, 9), None, EQ6_FORMS, 3),
        ((7, 14, 17, 20), None, EQ9_FORMS, 6),
        ((1, 8, 6, 9), EQ13_FORMS, EQ13_FORMS, 1),
    ],
)
def test_generator_goldens(seed, raw_rows, reduced_rows, content):
    fq = sandor_generate(CubicQuadruple(*seed))
    if raw_rows is not None:
        assert fq.coefficient_rows == raw_rows
    reduced, g = content_reduce(fq)
    assert g == content
    if reduced_rows is not None:
        assert reduced.coefficient_rows == reduced_rows
    assert verify_cubic_identity(fq)
    assert verify_cubic_identity(reduced)


def test_ramanujan_derivation():
    # halve the (3,4,5,6) family, then substitute u -> u/2
    fq = sandor_generate(CubicQuadruple(3, 4, 5, 6))
    reduced, g = content_reduce(fq)
    assert g == 2
    ram = substitute(reduced, ((Fraction(1, 2), 0), (0, 1)))
    assert ram.coefficient_rows == RAMANUJAN_FORMS
    assert verify_cubic_identity(ram)
    assert evaluate_forms(ram, 1, 0) == (3, 4, 5, 6)


# --- verification ---------------------------------------------------------


def test_verify_rejects_perturbed_family():
    rows = [list(r) for r in EQ6_FORMS]
    rows[0][2] = -7  # gamma of q1: -8 -> -7
    assert not verify_cubic_identity(quadruple_from_rows(rows))


def test_verify_accepts_goldens():
    for rows in (RAMANUJAN_FORMS, EQ6_FORMS, EQ9_FORMS, EQ13_FORMS):
        assert verify_cubic_identity(quadruple_from_rows(rows))


def test_generator_soundness_randomized():
    rng = random.Random(20260809)
    for seed in random_seeds(200, rng):
        assert verify_cubic_identity(sandor_generate(seed))


def break_third_form(monkeypatch):
    """Make the next ``sandor_generate`` build its q3 with the middle
    coefficient negated, through the form type ``cubic`` builds with:
    only the third form built from now on is changed, so a reduction of
    the broken family keeps it broken."""
    made = itertools.count(1)

    def form(alpha, beta, gamma):
        return BinaryQuadraticForm(alpha, -beta if next(made) == 3 else beta, gamma)

    monkeypatch.setattr(cubic, "BinaryQuadraticForm", form)


def test_generator_refuses_a_family_built_wrong(monkeypatch):
    break_third_form(monkeypatch)
    message = r"^generated family of seed \(1, 6, 8, 9\) failed cubic verification$"
    with pytest.raises(RuntimeError, match=message):
        sandor_generate(CubicQuadruple(1, 6, 8, 9))


# --- reduction and substitution --------------------------------------------


def test_content_reduce_idempotent():
    fq = sandor_generate(CubicQuadruple(7, 14, 17, 20))
    once, g1 = content_reduce(fq)
    twice, g2 = content_reduce(once)
    assert g1 == 6 and g2 == 1
    assert once == twice


def test_substitute_identity_matrix():
    fq = quadruple_from_rows(EQ6_FORMS)
    assert substitute(fq, ((1, 0), (0, 1))) == fq


def test_substitute_swap_golden():
    fq = quadruple_from_rows(EQ6_FORMS)
    swapped = substitute(fq, ((0, 1), (1, 0)))
    assert swapped.coefficient_rows == EQ6_SWAPPED_FORMS
    assert verify_cubic_identity(swapped)


def test_substitute_roundtrip():
    fq = quadruple_from_rows(EQ9_FORMS)
    doubled = substitute(fq, ((2, 0), (0, 1)))
    back = substitute(doubled, ((Fraction(1, 2), 0), (0, 1)))
    assert back == fq
    sheared = substitute(fq, ((1, 1), (0, 1)))
    assert substitute(sheared, ((1, -1), (0, 1))) == fq
    assert verify_cubic_identity(sheared)


def test_substitute_rejects_non_integer_result():
    fq = quadruple_from_rows(EQ6_FORMS)
    with pytest.raises(ValueError, match=r"alpha = 3/4 in q1"):
        substitute(fq, ((Fraction(1, 2), 0), (0, 1)))


# --- numeric evaluation -----------------------------------------------------


@pytest.mark.parametrize(
    "rows,u,v,expected",
    [
        (EQ6_FORMS, 1, 2, EQ7_TUPLE),
        (EQ6_FORMS, 6, -1, EQ8_TUPLE),
        (EQ9_FORMS, -2, -3, EQ10_TUPLE),
        (EQ9_FORMS, 10, 3, EQ11_TUPLE),
    ],
)
def test_evaluate_forms_goldens(rows, u, v, expected):
    assert evaluate_forms(quadruple_from_rows(rows), u, v) == expected


def test_evaluation_satisfies_cubic_everywhere():
    families = [quadruple_from_rows(r) for r in (RAMANUJAN_FORMS, EQ6_FORMS, EQ9_FORMS, EQ13_FORMS)]
    for fq in families:
        for u in range(-10, 11):
            for v in range(-10, 11):
                q1, q2, q3, q4 = evaluate_forms(fq, u, v)
                assert q1**3 + q2**3 + q3**3 == q4**3


# --- ratio characterization -------------------------------------------------


def test_fraction_ratio_examples():
    assert fraction_ratio(CubicQuadruple(1, 6, 8, 9)) == 3
    assert fraction_ratio(CubicQuadruple(7, 14, 17, 20)) == 4
    assert fraction_ratio(CubicQuadruple(3, 4, 5, 6)) == 4


def test_characterization_goldens():
    seed69 = CubicQuadruple(1, 6, 8, 9)
    seed720 = CubicQuadruple(7, 14, 17, 20)
    eq6 = quadruple_from_rows(EQ6_FORMS)
    eq9 = quadruple_from_rows(EQ9_FORMS)
    assert check_characterization(seed69, eq6)
    assert check_characterization(seed720, eq9)
    # mismatched seed and family: ratios 3 != 4
    assert not check_characterization(seed69, eq9)


def test_characterization_survives_reduction_and_substitution():
    seed = CubicQuadruple(3, 4, 5, 6)
    fq = sandor_generate(seed)
    reduced, _ = content_reduce(fq)
    ram = substitute(reduced, ((Fraction(1, 2), 0), (0, 1)))
    for family in (fq, reduced, ram):
        assert check_characterization(seed, family)


def test_characterization_randomized():
    rng = random.Random(41)
    for seed in random_seeds(60, rng):
        assert check_characterization(seed, sandor_generate(seed))


def test_numeric_ratio_matches_form_ratio():
    # evaluated family members keep (q1+q3)/(q4-q2) equal to the seed ratio
    eq6 = quadruple_from_rows(EQ6_FORMS)
    expected = Fraction(3)
    for u, v in [(1, 2), (6, -1), (2, 5), (-3, 1)]:
        q1, q2, q3, q4 = evaluate_forms(eq6, u, v)
        assert Fraction(q1 + q3, q4 - q2) == expected
