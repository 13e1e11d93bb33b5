"""powersum-forge: exact Diophantine identity families.

Builds and exactly verifies two-parameter solutions of
``a^3 + b^3 + c^3 = d^3`` as quadruples of binary quadratic forms,
rewrites them as relations among power sums ``S_k = 1^k + ... + n^k``,
expands those to plain polynomial identities, mirrors the construction
for the quadratic equations ``a^2 + b^2 + c^2 = d^2`` and
``a^2 + b^2 = c^2``, and searches the generated families for numeric
solutions such as taxicab numbers.  All arithmetic is exact.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a caller pays only
for the layers it touches.
"""

import importlib

__version__ = "0.1.0"

#: Module of each public name, in ``__all__`` order.
_EXPORTS = {
    "exactcore": ("bernoulli",),
    "polynomials": ("ExactCombination", "Polynomial", "joint_content", "powers_telescope"),
    "powersums": (
        "CONSTANT_EXP",
        "PowerSumCombo",
        "S",
        "faulhaber",
        "product",
        "square",
        "s1_power",
        "s2_s1_power",
        "extract_common_factor",
    ),
    "cubic": (
        "BinaryQuadraticForm",
        "CubicQuadruple",
        "FormQuadruple",
        "permute_seed",
        "sandor_generate",
        "verify_cubic_identity",
        "content_reduce",
        "substitute",
        "evaluate_forms",
        "fraction_ratio",
        "check_characterization",
    ),
    "relations": (
        "QMode",
        "FMode",
        "parse_mode",
        "build_Q",
        "build_F",
        "ComboQuadruple",
        "build_relation",
        "PolyIdentity",
        "expand_relation",
        "factor_common_root",
    ),
    "quadratic": (
        "PythagoreanQuadruple",
        "SquareFormQuadruple",
        "verify_square_identity",
        "piezas_generate",
        "piezas_degenerate_triple",
        "powersum_quadruple",
        "powersum_triple",
        "equal_sums_family",
        "equal_sums_polynomials",
    ),
    "search": (
        "GRID_GUARDRAIL",
        "SolutionRecord",
        "SearchConfig",
        "SearchStats",
        "canonicalize",
        "detect_taxicab",
        "run_search",
        "write_records",
        "load_records",
        "verify_record",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
