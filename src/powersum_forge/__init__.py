"""powersum-forge: exact Diophantine identity families.

Builds and exactly verifies two-parameter solutions of
``a^3 + b^3 + c^3 = d^3`` as quadruples of binary quadratic forms,
rewrites them as relations among power sums ``S_k = 1^k + ... + n^k``,
expands those to plain polynomial identities, mirrors the construction
for the quadratic equations ``a^2 + b^2 + c^2 = d^2`` and
``a^2 + b^2 = c^2``, and searches the generated families for numeric
solutions such as taxicab numbers.  All arithmetic is exact.
"""

from .exactcore import bernoulli
from .polynomials import ExactCombination, Polynomial, joint_content, powers_telescope
from .powersums import (
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
from .cubic import (
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
from .relations import (
    ComboQuadruple,
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
from .quadratic import (
    PythagoreanQuadruple,
    SquareFormQuadruple,
    equal_sums_family,
    equal_sums_polynomials,
    piezas_degenerate_triple,
    piezas_generate,
    powersum_quadruple,
    powersum_triple,
    verify_square_identity,
)
from .search import (
    GRID_GUARDRAIL,
    SearchConfig,
    SearchStats,
    SolutionRecord,
    canonicalize,
    detect_taxicab,
    load_records,
    run_search,
    verify_record,
    write_records,
)

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "ExactCombination",
    "Polynomial",
    "joint_content",
    "powers_telescope",
    "CONSTANT_EXP",
    "PowerSumCombo",
    "S",
    "faulhaber",
    "product",
    "square",
    "s1_power",
    "s2_s1_power",
    "extract_common_factor",
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
    "PythagoreanQuadruple",
    "SquareFormQuadruple",
    "verify_square_identity",
    "piezas_generate",
    "piezas_degenerate_triple",
    "powersum_quadruple",
    "powersum_triple",
    "equal_sums_family",
    "equal_sums_polynomials",
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
]
