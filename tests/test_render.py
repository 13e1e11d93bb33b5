from fractions import Fraction

import pytest

from powersum_forge import render
from powersum_forge.cubic import BinaryQuadraticForm, CubicQuadruple, FormQuadruple, content_reduce, sandor_generate
from powersum_forge.polynomials import Polynomial
from powersum_forge.powersums import PowerSumCombo, square
from powersum_forge.quadratic import PythagoreanQuadruple, piezas_generate
from powersum_forge.relations import FMode, QMode, build_relation, expand_relation

from goldens import EQ6_LATEX, EQ19_LATEX, EQ24_LATEX, squash


def eq6_family():
    return content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))[0]


# --- LaTeX ------------------------------------------------------------------


def test_latex_rational():
    assert render.latex_rational(Fraction(5)) == "5"
    assert render.latex_rational(Fraction(-3)) == "-3"
    assert render.latex_rational(Fraction(1, 3)) == "\\frac{1}{3}"
    assert render.latex_rational(Fraction(-7, 24)) == "-\\frac{7}{24}"


def test_form_latex_unit_coefficients():
    assert render.form_to_latex(BinaryQuadraticForm(24, -15, -1)) == "24u^2 - 15uv - v^2"
    assert render.form_to_latex(BinaryQuadraticForm(1, 0, -1)) == "u^2 - v^2"
    assert render.form_to_latex(BinaryQuadraticForm(0, 0, 0)) == "0"


def test_combo_latex():
    assert render.combo_to_latex(square(2)) == "\\frac{1}{3}S_3 + \\frac{2}{3}S_5"
    assert render.combo_to_latex(PowerSumCombo({2: 15, 3: 2, 4: 75, 5: -32})) == (
        "15S_2 + 2S_3 + 75S_4 - 32S_5"
    )
    # constant slot prints first, as a bare number
    assert render.combo_to_latex(3 + PowerSumCombo({2: 3})) == "3 + 3S_2"
    assert render.combo_to_latex(PowerSumCombo({12: 1})) == "S_{12}"


def test_poly_latex_orders():
    p = Polynomial({2: 28, 3: 270, 8: -54})
    assert render.poly_to_latex(p) == "28u^2 + 270u^3 - 54u^8"
    assert render.poly_to_latex(p, order="desc") == "-54u^8 + 270u^3 + 28u^2"
    assert render.poly_to_latex(Polynomial({1: Fraction(1, 6)}), var="n") == "\\frac{1}{6}n"
    assert render.poly_to_latex(Polynomial.zero()) == "0"
    assert render.poly_to_latex(Polynomial({10: 1})) == "u^{10}"


def test_eq6_display_tokens():
    assert squash(render.cubic_forms_latex(eq6_family())) == squash(EQ6_LATEX)


def test_eq19_display_tokens():
    cq = build_relation(eq6_family(), QMode(1, 2))
    assert squash(render.combo_quadruple_latex(cq)) == squash(EQ19_LATEX)


def test_eq24_display_tokens():
    cq = build_relation(sandor_generate(CubicQuadruple(1, 8, 6, 9)), FMode(2))
    identity = expand_relation(cq)
    assert squash(render.poly_identity_latex(identity)) == squash(EQ24_LATEX)


def test_square_display():
    sq = piezas_generate(PythagoreanQuadruple(8, 9, 12, 17))
    text = render.square_forms_latex(sq)
    assert text.startswith("(8u^2 - 34uv + 8v^2)^2")
    assert "= (17u^2 - 16uv + 17v^2)^2" in text


# --- JSON round trips ----------------------------------------------------------


def test_fraction_json_roundtrip():
    assert render.fraction_to_json(Fraction(-691, 2730)) == {"num": "-691", "den": "2730"}
    assert render.fraction_to_json(Fraction(6, -4)) == {"num": "-3", "den": "2"}


def test_combo_json_roundtrip():
    combo = 1 + square(3) - 2 * PowerSumCombo({2: Fraction(7, 5)})
    # the constant slot (exponent -1) first, then ascending exponents
    assert render.combo_to_json(combo) == {
        "terms": [
            {"exp": -1, "num": "1", "den": "1"},
            {"exp": 2, "num": "-14", "den": "5"},
            {"exp": 5, "num": "1", "den": "2"},
            {"exp": 7, "num": "1", "den": "2"},
        ]
    }


def test_poly_json_roundtrip():
    poly = Polynomial({0: Fraction(1, 3), 7: -12, 2: Fraction(-7, 24)})
    assert render.poly_to_json(poly) == {
        "terms": [
            {"exp": 0, "num": "1", "den": "3"},
            {"exp": 2, "num": "-7", "den": "24"},
            {"exp": 7, "num": "-12", "den": "1"},
        ]
    }
    assert render.poly_to_json(Polynomial.zero()) == {"terms": []}


def test_form_quadruple_json_roundtrip():
    fq = eq6_family()
    obj = render.form_quadruple_to_json(fq, content=3)
    assert obj["identity"] == "cubic"
    assert obj["seed"] == [1, 6, 8, 9]
    assert obj["content"] == "3"
    back = render.form_quadruple_from_json(obj)
    assert isinstance(back, FormQuadruple)
    assert back.coefficient_rows == fq.coefficient_rows
    assert back.seed == fq.seed


def test_square_quadruple_json_roundtrip():
    sq = piezas_generate(PythagoreanQuadruple(2, 3, 6, 7))
    back = render.form_quadruple_from_json(render.form_quadruple_to_json(sq))
    assert back.forms == sq.forms
    assert back.seed == sq.seed


def test_big_integers_survive_json():
    huge = 10**40 + 7
    form = BinaryQuadraticForm(huge, -huge, 1)
    assert render.form_from_json(render.form_to_json(form)) == form


def test_combo_quadruple_json():
    cq = build_relation(eq6_family(), QMode(1, 2))
    obj = render.combo_quadruple_to_json(cq)
    assert obj["mode"] == "Q:1,2"
    assert obj["common_factor"] == {"num": "1", "den": "6"}
    assert obj["seed"] == [1, 6, 8, 9]
    assert len(obj["combos"]) == 4


def test_poly_identity_json():
    identity = expand_relation(build_relation(eq6_family(), QMode(1, 2)))
    obj = render.poly_identity_to_json(identity)
    assert obj["scale"] == {"num": "3", "den": "1"}
    assert obj["p"][0] == {  # EQ21's first polynomial
        "terms": [
            {"exp": d, "num": str(c), "den": "1"}
            for d, c in {2: 32, 3: 93, 4: 74, 5: -3, 6: -16}.items()
        ]
    }
