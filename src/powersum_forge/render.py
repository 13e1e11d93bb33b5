"""JSON and LaTeX emitters for all value types.

JSON keeps every integer as a decimal string so arbitrary precision
survives any consumer; rationals are ``{"num": "...", "den": "..."}``
objects.  LaTeX output is deliberately plain (no sizing commands):
coefficient 1 is omitted before a symbol, zero terms are skipped, and
term order follows the established display conventions (ascending
exponents for combinations and identity polynomials, descending for the
power-sum polynomial table).

The value types are imported where they are built or told apart, so
rendering a Bernoulli number loads no form or relation module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .exactcore import json_int, json_ints

if TYPE_CHECKING:
    from .cubic import BinaryQuadraticForm, FormQuadruple
    from .polynomials import ExactCombination, Polynomial
    from .powersums import PowerSumCombo
    from .quadratic import SquareFormQuadruple
    from .relations import ComboQuadruple, PolyIdentity

__all__ = [
    "fraction_to_json",
    "combo_to_json",
    "poly_to_json",
    "form_to_json",
    "form_from_json",
    "form_quadruple_to_json",
    "form_quadruple_from_json",
    "combo_quadruple_to_json",
    "poly_identity_to_json",
    "latex_rational",
    "poly_to_latex",
    "combo_to_latex",
    "form_to_latex",
    "power_display",
    "cubic_forms_latex",
    "square_forms_latex",
    "combo_quadruple_latex",
    "poly_identity_latex",
]


# --- JSON ---------------------------------------------------------------


def fraction_to_json(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def poly_to_json(combination: ExactCombination) -> dict:
    """A polynomial or a power-sum combo as ``{"terms": [...]}``, keys ascending."""
    return {
        "terms": [
            {"exp": k, "num": str(c.numerator), "den": str(c.denominator)}
            for k, c in combination.coefficients.items()
        ]
    }


combo_to_json = poly_to_json


def form_to_json(form: BinaryQuadraticForm) -> dict:
    return {"alpha": str(form.alpha), "beta": str(form.beta), "gamma": str(form.gamma)}


def form_from_json(obj: dict, field: str = "form") -> BinaryQuadraticForm:
    """A form from its JSON object; a missing or non-integer entry raises
    ValueError naming ``field`` and the key."""
    from .cubic import BinaryQuadraticForm

    if not isinstance(obj, dict):
        raise ValueError(f"{field} must be an object with alpha, beta and gamma")
    values = []
    for key in ("alpha", "beta", "gamma"):
        if key not in obj:
            raise ValueError(f"{field} has no {key!r} field")
        values.append(json_int(obj[key], f"{field}.{key}"))
    return BinaryQuadraticForm(*values)


def form_quadruple_to_json(
    fq: FormQuadruple | SquareFormQuadruple,
    content: int | None = None,
) -> dict:
    from .cubic import FormQuadruple

    identity = "cubic" if isinstance(fq, FormQuadruple) else "square"
    out: dict = {"identity": identity, "q": [form_to_json(f) for f in fq.forms]}
    if fq.seed is not None:
        out["seed"] = list(fq.seed.as_tuple)
    if content is not None:
        out["content"] = str(content)
    return out


def form_quadruple_from_json(obj: dict) -> FormQuadruple | SquareFormQuadruple:
    """A form quadruple from its JSON object; malformed input raises
    ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError("a form quadruple must be a JSON object")
    raw_forms = obj.get("q")
    if not isinstance(raw_forms, list) or len(raw_forms) != 4:
        raise ValueError("field 'q' must be a list of 4 forms")
    forms = [form_from_json(f, f"q[{i}]") for i, f in enumerate(raw_forms)]
    seed_values = obj.get("seed")
    if seed_values:
        seed_values = json_ints(seed_values, "seed", 4)
    if obj.get("identity", "cubic") == "square":
        from .quadratic import PythagoreanQuadruple, SquareFormQuadruple

        seed = PythagoreanQuadruple(*seed_values) if seed_values else None
        return SquareFormQuadruple(*forms, seed=seed)
    from .cubic import CubicQuadruple, FormQuadruple

    seed = CubicQuadruple(*seed_values) if seed_values else None
    return FormQuadruple(*forms, seed=seed)


def combo_quadruple_to_json(cq: ComboQuadruple) -> dict:
    out: dict = {
        "mode": cq.mode.label,
        "combos": [combo_to_json(c) for c in cq.combos],
        "common_factor": fraction_to_json(cq.common_factor),
    }
    if cq.forms.seed is not None:
        out["seed"] = list(cq.forms.seed.as_tuple)
    return out


def poly_identity_to_json(pi: PolyIdentity) -> dict:
    return {
        "p": [poly_to_json(p) for p in pi.polys],
        "scale": fraction_to_json(pi.scale),
    }


# --- LaTeX --------------------------------------------------------------


def latex_rational(q: Fraction | int) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _join_terms(parts: Sequence[tuple[Fraction, str]]) -> str:
    """Signed sum of (coefficient, symbol) terms; symbol may be empty."""
    chunks: list[str] = []
    for coeff, symbol in parts:
        if not coeff:
            continue
        magnitude = abs(coeff)
        if symbol and magnitude == 1:
            body = symbol
        elif symbol:
            body = f"{latex_rational(magnitude)}{symbol}"
        else:
            body = latex_rational(magnitude)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(chunks) if chunks else "0"


def _power_symbol(var: str, degree: int) -> str:
    if degree == 0:
        return ""
    if degree == 1:
        return var
    return f"{var}^{degree}" if degree < 10 else f"{var}^{{{degree}}}"


def poly_to_latex(poly: Polynomial, var: str = "u", order: str = "asc") -> str:
    terms = sorted(poly.coefficients.items(), reverse=(order == "desc"))
    return _join_terms([(c, _power_symbol(var, d)) for d, c in terms])


def _subscript_symbol(exp: int) -> str:
    return f"S_{exp}" if exp < 10 else f"S_{{{exp}}}"


def combo_to_latex(combo: PowerSumCombo) -> str:
    from .powersums import CONSTANT_EXP

    # terms ascend by exponent, so the constant slot comes first
    return _join_terms(
        [(c, "" if e == CONSTANT_EXP else _subscript_symbol(e)) for e, c in combo.terms.items()]
    )


def form_to_latex(form: BinaryQuadraticForm) -> str:
    return _join_terms(
        [
            (Fraction(form.alpha), "u^2"),
            (Fraction(form.beta), "uv"),
            (Fraction(form.gamma), "v^2"),
        ]
    )


def power_display(parts: Sequence[str], exponent: int) -> str:
    """``(p1)^e + ... + (p_{n-1})^e = (pn)^e``."""
    *lhs, rhs = [f"({p})^{exponent}" for p in parts]
    return f"{' + '.join(lhs)} = {rhs}"


def cubic_forms_latex(fq: FormQuadruple) -> str:
    return power_display([form_to_latex(f) for f in fq.forms], 3)


def square_forms_latex(sq: SquareFormQuadruple) -> str:
    return power_display([form_to_latex(f) for f in sq.forms], 2)


def combo_quadruple_latex(cq: ComboQuadruple) -> str:
    return power_display([combo_to_latex(c) for c in cq.combos], 3)


def poly_identity_latex(pi: PolyIdentity) -> str:
    return power_display([poly_to_latex(p) for p in pi.polys], 3)
