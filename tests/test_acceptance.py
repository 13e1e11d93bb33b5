"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen.  Every expected value is exact; there are no tolerances to
tune.  Oracles used here are deliberately independent of the library
internals (direct summation, a fresh recurrence transcription, explicit
coefficient tables).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from powersum_forge.cubic import (
    CubicQuadruple,
    check_characterization,
    content_reduce,
    evaluate_forms,
    fraction_ratio,
    permute_seed,
    sandor_generate,
    substitute,
    verify_cubic_identity,
)
from powersum_forge.exactcore import bernoulli
from powersum_forge.polynomials import Polynomial, powers_telescope
from powersum_forge.powersums import (
    PowerSumCombo,
    extract_common_factor,
    faulhaber,
    product,
    s1_power,
    s2_s1_power,
    square,
)
from powersum_forge.quadratic import (
    PythagoreanQuadruple,
    equal_sums_family,
    piezas_degenerate_triple,
    powersum_quadruple,
    powersum_triple,
)
from powersum_forge.cubic import BinaryQuadraticForm
from powersum_forge.relations import (
    FMode,
    QMode,
    build_F,
    build_Q,
    build_relation,
    expand_relation,
    factor_common_root,
)
from powersum_forge.search import SearchConfig, canonicalize, detect_taxicab, run_search, write_records

from goldens import (
    BASE_SEEDS,
    DEGENERATE_TRIPLE_FORMS,
    EQ6_FORMS,
    EQ7_TUPLE,
    EQ8_TUPLE,
    EQ9_FORMS,
    EQ10_TUPLE,
    EQ11_TUPLE,
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
    PIZA_TRIPLE,
    QUADRUPLE_A_POLY,
    QUADRUPLE_B_POLY,
    QUADRUPLE_K2_SCALED,
    RAMANUJAN_FORMS,
    TABLE1,
    TRIPLE_31_DOUBLED,
)

# Stand-ins for the removed combo_to_polynomial and verify_poly_identity.
combo_to_polynomial = PowerSumCombo.to_polynomial


def verify_poly_identity(pi):
    return powers_telescope(pi.polys, 3)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_01_bernoulli_suite():
    with criterion(1, "Bernoulli suite"):
        start = time.perf_counter()

        # independent transcription of the recurrence, no memo table
        oracle = [Fraction(1)]
        for k in range(1, 25):
            acc = sum(Fraction(comb(k + 1, j)) * oracle[j] for j in range(k))
            oracle.append(-acc / (k + 1))

        for k in range(25):
            assert bernoulli(k) == oracle[k]
        assert [bernoulli(k) for k in range(5)] == [
            Fraction(1),
            Fraction(-1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
        ]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_table1_golden():
    with criterion(2, "power-sum polynomial table"):
        for k in range(2, 8):
            assert faulhaber(k).coefficients == TABLE1[k]


def test_criterion_03_formula_oracle():
    with criterion(3, "closed forms vs direct summation"):
        start = time.perf_counter()
        sums = [[0] * 26 for _ in range(9)]
        for k in range(9):
            for n in range(1, 26):
                sums[k][n] = sums[k][n - 1] + n**k
        for k in range(1, 9):
            for m in range(1, 9):
                poly = combo_to_polynomial(product(k, m))
                for n in range(1, 26):
                    assert poly.evaluate(n) == sums[k][n] * sums[m][n]
        for k in range(1, 9):
            sq_poly = combo_to_polynomial(square(k))
            pw_poly = combo_to_polynomial(s1_power(k))
            for n in range(1, 26):
                assert sq_poly.evaluate(n) == sums[k][n] ** 2
                assert pw_poly.evaluate(n) == sums[1][n] ** k
        for k in range(0, 9):
            mixed = combo_to_polynomial(s2_s1_power(k))
            for n in range(1, 26):
                assert mixed.evaluate(n) == sums[2][n] * sums[1][n] ** k
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_04_generator_goldens():
    with criterion(4, "generator and stated reductions"):
        reduced_3456, g = content_reduce(sandor_generate(CubicQuadruple(3, 4, 5, 6)))
        assert g == 2
        ramanujan = substitute(reduced_3456, ((Fraction(1, 2), 0), (0, 1)))
        assert ramanujan.coefficient_rows == RAMANUJAN_FORMS

        eq6, g = content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))
        assert g == 3 and eq6.coefficient_rows == EQ6_FORMS

        eq9, g = content_reduce(sandor_generate(CubicQuadruple(7, 14, 17, 20)))
        assert g == 6 and eq9.coefficient_rows == EQ9_FORMS

        eq13 = sandor_generate(CubicQuadruple(1, 8, 6, 9))
        assert eq13.coefficient_rows == EQ13_FORMS
        assert content_reduce(eq13)[1] == 1

        for family in (ramanujan, eq6, eq9, eq13):
            assert verify_cubic_identity(family)


def test_criterion_05_numeric_examples_and_search():
    with criterion(5, "numeric examples, taxicab tags, grid search"):
        start = time.perf_counter()
        eq6, _ = content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))
        eq9, _ = content_reduce(sandor_generate(CubicQuadruple(7, 14, 17, 20)))
        eq13 = sandor_generate(CubicQuadruple(1, 8, 6, 9))
        assert evaluate_forms(eq6, 1, 2) == EQ7_TUPLE
        assert evaluate_forms(eq6, 6, -1) == EQ8_TUPLE
        assert evaluate_forms(eq9, -2, -3) == EQ10_TUPLE
        assert evaluate_forms(eq9, 10, 3) == EQ11_TUPLE

        assert detect_taxicab(canonicalize(evaluate_forms(eq6, 1, 2))[0]) == 1729
        assert detect_taxicab(canonicalize(evaluate_forms(eq13, -1, -3))[0]) == 4104

        cfg = SearchConfig(
            seeds=(CubicQuadruple(1, 6, 8, 9), CubicQuadruple(1, 8, 6, 9)),
            u_range=(-6, 6),
            v_range=(-6, 6),
        )
        found = {r.taxicab for r in run_search(cfg) if r.taxicab is not None}
        assert {1729, 4104} <= found
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_06_characterization():
    with criterion(6, "ratio characterization"):
        goldens = [
            (CubicQuadruple(3, 4, 5, 6), 4),
            (CubicQuadruple(1, 6, 8, 9), 3),
            (CubicQuadruple(1, 8, 6, 9), 7),
            (CubicQuadruple(7, 14, 17, 20), 4),
        ]
        for seed, ratio in goldens:
            family, _ = content_reduce(sandor_generate(seed))
            assert check_characterization(seed, family)
            assert fraction_ratio(seed) == ratio
        assert fraction_ratio(CubicQuadruple(1, 6, 8, 9)) == 3
        assert fraction_ratio(CubicQuadruple(7, 14, 17, 20)) == 4

        rng = random.Random(20260809)
        perms = ["abc", "acb", "bac", "bca", "cab", "cba"]
        for _ in range(100):
            base = CubicQuadruple(*rng.choice(BASE_SEEDS))
            seed = permute_seed(base, rng.choice(perms)).scaled(rng.randint(1, 20))
            assert check_characterization(seed, sandor_generate(seed))


def test_criterion_07_relation_goldens():
    with criterion(7, "power-sum relations, expansion, factoring"):
        eq6, _ = content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))
        cq_q = build_relation(eq6, QMode(1, 2))
        assert cq_q.common_factor == EQ19_FACTOR
        assert tuple(c.terms for c in cq_q.combos) == EQ19_COMBOS

        eq13 = sandor_generate(CubicQuadruple(1, 8, 6, 9))
        cq_f = build_relation(eq13, FMode(2))
        assert cq_f.common_factor == EQ23_FACTOR
        assert tuple(c.terms for c in cq_f.combos) == EQ23_COMBOS

        expanded_q = expand_relation(cq_q)
        assert expanded_q.scale == EQ21_SCALE
        assert tuple(p.coefficients for p in expanded_q.polys) == EQ21_POLYS

        expanded_f = expand_relation(cq_f)
        assert expanded_f.scale == EQ24_SCALE
        assert tuple(p.coefficients for p in expanded_f.polys) == EQ24_POLYS

        quotient, divisor = factor_common_root(expanded_f)
        assert divisor == Polynomial({2: 1, 3: 2, 4: 1})
        assert tuple(p.coefficients for p in quotient.polys) == EQ24_QUARTICS
        assert verify_poly_identity(quotient)

        assert expanded_q.evaluate(1) == tuple(36 * x for x in (5, 3, 4, 6))
        assert quotient.evaluate(0) == tuple(28 * x for x in (1, 8, 6, 9))


def test_criterion_08_vanishing():
    with criterion(8, "vanishing at n = 0 and n = -1"):
        rng = random.Random(8)
        for _ in range(50):
            form = BinaryQuadraticForm(
                rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            )
            k, m = rng.randint(1, 6), rng.randint(1, 6)
            for combo in (build_Q(form, k, m), build_F(form, k)):
                assert combo.evaluate(0) == 0
                assert combo.evaluate(-1) == 0


def test_criterion_09_quadratic_goldens():
    with criterion(9, "quadratic constructions"):
        triple_forms = piezas_degenerate_triple(PythagoreanQuadruple(8, 9, 12, 17), 15)
        assert tuple(f.coefficients for f in triple_forms) == DEGENERATE_TRIPLE_FORMS

        combos = powersum_quadruple(2)
        scaled, factor = extract_common_factor(combos)
        assert factor == Fraction(1, 3)
        assert tuple(c.terms for c in scaled) == QUADRUPLE_K2_SCALED
        polys = [(18 * c).to_polynomial() for c in combos]
        assert polys[0] == Polynomial(QUADRUPLE_A_POLY)
        assert polys[2] == Polynomial(QUADRUPLE_B_POLY)
        assert polys[1] == polys[0] + 18 and polys[3] == polys[2] + 18
        assert (polys[0] ** 2 + polys[1] ** 2 + polys[2] ** 2 - polys[3] ** 2).is_zero

        doubled = tuple((2 * c).terms for c in powersum_triple(3, 1))
        assert doubled == TRIPLE_31_DOUBLED
        piza = [PowerSumCombo(t) for t in PIZA_TRIPLE]
        p1, p2, p3 = (c.to_polynomial() for c in piza)
        assert (p1 * p1 + p2 * p2 - p3 * p3).is_zero

        assert equal_sums_family(17) == ((32, 69), (36, 67))
        assert 32**2 + 69**2 == 36**2 + 67**2

        assert 2 * square(3) == PowerSumCombo({5: 1, 7: 1})


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "parallel determinism"):
        cfg = SearchConfig(
            seeds=(CubicQuadruple(1, 6, 8, 9), CubicQuadruple(1, 8, 6, 9)),
            u_range=(-6, 6),
            v_range=(-6, 6),
            modes=("cubic", QMode(1, 2)),
        )
        one = tmp_path / "one.jsonl"
        many = tmp_path / "many.jsonl"
        write_records(run_search(cfg, threads=1), one)
        write_records(run_search(cfg, threads=8), many)
        assert one.read_bytes() == many.read_bytes()
        assert one.stat().st_size > 0
        for line in one.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            x1, x2, x3, x4 = (int(x) for x in obj["reduced"])
            assert x1**3 + x2**3 + x3**3 == x4**3
