"""Independent checks of the CLI's outputs.

Nothing here imports powersum_forge: every claim is re-checked with
plain integers (and ``fractions.Fraction`` where the output itself is
rational), so a defect in the library cannot hide itself by also
breaking its own verifier.  Each check returns a list of problems; an
empty list means the output holds.  Polynomial identities are proven by
evaluation: a nonzero polynomial of degree at most ``D`` has at most
``D`` roots, so vanishing at ``D + 1`` distinct integers proves it zero.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

MAX_PROBLEMS = 5  # per output; the first few are enough to diagnose


class Ops:
    """Operations attempted and failed; every CLI call is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:MAX_PROBLEMS])
        return not problems


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def parse_json(text: str, what: str) -> tuple[dict | None, list[str]]:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return None, [f"{what} is not JSON: {exc}"]
    if not isinstance(obj, dict):
        return None, [f"{what} is not a JSON object"]
    return obj, []


# --- search and verify ----------------------------------------------------


def _expected_taxicab(reduced: list[int]) -> int | None:
    """Common value when ``y^3 + z^3 = d^3 + x^3`` in two distinct ways."""
    *firsts, d = reduced
    negatives = [x for x in firsts if x < 0]
    positives = sorted(x for x in firsts if x > 0)
    if d <= 0 or len(negatives) != 1 or len(positives) != 2:
        return None
    if positives == sorted((-negatives[0], d)):
        return None
    return positives[0] ** 3 + positives[1] ** 3


def record_problems(rec: dict, seeds: list[list[int]]) -> list[str]:
    """What is wrong with one JSONL solution record."""
    try:
        seed = [int(x) for x in rec["seed"]]
        raw = [int(x) for x in rec["raw"]]
        reduced = [int(x) for x in rec["reduced"]]
        content = int(rec["content"])
        num, den = int(rec["ratio"]["num"]), int(rec["ratio"]["den"])
        taxicab = None if rec["taxicab"] is None else int(rec["taxicab"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {exc!r}"]
    if len(raw) != 4 or len(reduced) != 4:
        return ["raw and reduced must have four entries"]
    problems = []
    a, b, c, d = reduced
    if a**3 + b**3 + c**3 != d**3:
        problems.append(f"reduced {reduced} fails a^3+b^3+c^3=d^3")
    p, q, r, s = raw
    if p**3 + q**3 + r**3 != s**3:
        problems.append(f"raw {raw} fails a^3+b^3+c^3=d^3")
    if 0 in raw or content != math.gcd(*raw):
        problems.append(f"content {content} is not the gcd of raw {raw}")
    elif sorted(abs(x) for x in raw) != sorted(abs(content * x) for x in reduced):
        problems.append(f"reduced {reduced} times content {content} is not raw {raw} up to order and sign")
    if d <= 0 or reduced[:3] != sorted(reduced[:3]):
        problems.append(f"reduced {reduced} is not in canonical order and sign")
    if seed not in seeds:
        problems.append(f"seed {seed} was not searched")
    elif den <= 0 or math.gcd(num, den) != 1 or num * (seed[3] - seed[1]) != den * (seed[0] + seed[2]):
        problems.append(f"ratio {num}/{den} is not (a+c)/(d-b) of seed {seed}")
    if taxicab != _expected_taxicab(reduced):
        problems.append(f"taxicab tag {taxicab} for {reduced}")
    return problems


def check_search(stdout: str, solutions: Path, search: dict, lattice_points: int) -> tuple[list[str], dict]:
    """Check a ``search`` call: its summary and every record it wrote."""
    summary, problems = parse_json(stdout, "search summary")
    if summary is None:
        return problems, {}
    try:
        evaluated, degenerate, duplicates, records = (
            int(summary[k]) for k in ("evaluated", "degenerate", "duplicates", "records")
        )
    except (KeyError, TypeError, ValueError) as exc:
        return [f"search summary lacks a count: {exc!r}"], {}
    if evaluated != lattice_points:
        problems.append(f"evaluated {evaluated} != {lattice_points} lattice points")
    if degenerate + duplicates + records != evaluated:
        problems.append(
            f"degenerate {degenerate} + duplicates {duplicates} + records {records} != evaluated {evaluated}"
        )
    lines = 0
    tags = 0
    seen: set[str] = set()
    try:
        fh = open(solutions, encoding="utf-8")
    except OSError as exc:
        return problems + [f"cannot read {solutions.name}: {exc}"], {}
    with fh:
        for lineno, line in enumerate(fh, start=1):
            lines += 1
            rec, bad = parse_json(line, f"line {lineno}")
            if rec is not None:
                bad = record_problems(rec, search["seeds"])
                key = repr(rec.get("reduced"))
                if search["dedupe"] and key in seen:
                    bad.append(f"duplicate reduced tuple {key}")
                seen.add(key)
                tags += rec.get("taxicab") is not None
            problems.extend(f"line {lineno}: {p}" for p in bad)
    if lines != records:
        problems.append(f"{solutions.name} has {lines} records, summary says {records}")
    counts = {
        "evaluated": evaluated,
        "degenerate": degenerate,
        "duplicates": duplicates,
        "emitted": records,
        "taxicab_tags": tags,
    }
    return problems, counts


def check_verify(stdout: str, records: int | None) -> list[str]:
    """``verify`` on a JSONL file: verified, no failures, same record count."""
    obj, problems = parse_json(stdout, "verify output")
    if obj is None:
        return problems
    if obj.get("verified") is not True or obj.get("failures"):
        problems.append(f"verify reports verified={obj.get('verified')} failures={obj.get('failures')}")
    if records is None or obj.get("records") != records:
        problems.append(f"verify read {obj.get('records')} records, search wrote {records}")
    return problems


# --- relation-expand ------------------------------------------------------


def _poly(obj: dict) -> dict[int, Fraction]:
    """``{"terms": [{"exp", "num", "den"}, ...]}`` as exponent -> coefficient."""
    out: dict[int, Fraction] = {}
    for t in obj["terms"]:
        out[int(t["exp"])] = out.get(int(t["exp"]), Fraction(0)) + Fraction(int(t["num"]), int(t["den"]))
    return out


def _degree(poly: dict) -> int:
    return max((e for e, c in poly.items() if c), default=0)


def _evaluate(poly: dict, x: int) -> Fraction:
    return sum((c * x**e for e, c in poly.items()), Fraction(0))


def _integer_polys(polys: list[dict]) -> list[dict[int, int]]:
    """Scale all polynomials by one common denominator.

    A cube-sum identity is homogeneous of degree 3 in the four
    polynomials, so joint scaling neither makes nor breaks it.
    """
    lcm = 1
    for p in polys:
        for c in p.values():
            lcm = math.lcm(lcm, c.denominator)
    return [{e: int(c * lcm) for e, c in p.items()} for p in polys]


def cube_identity_problems(polys: list[dict], what: str) -> list[str]:
    """``p1^3 + p2^3 + p3^3 = p4^3``, proven at ``3D + 1`` integers."""
    if len(polys) != 4:
        return [f"{what} has {len(polys)} polynomials, not 4"]
    if not any(any(p.values()) for p in polys):
        return [f"{what} is the trivial identity 0 = 0"]
    ints = _integer_polys(polys)
    degree = max(_degree(p) for p in ints)
    for x in range(-degree, 2 * degree + 1):  # 3D + 1 distinct integers
        v1, v2, v3, v4 = (sum(c * x**e for e, c in p.items()) for p in ints)
        if v1**3 + v2**3 + v3**3 != v4**3:
            return [f"{what}: p1^3+p2^3+p3^3 != p4^3 at u={x}"]
    return []


def _power_sums(exponents: set[int], n_max: int) -> dict[int, list[int]]:
    """``S_e(n) = 1^e + ... + n^e`` for n = 0..n_max by direct summation."""
    table = {}
    for e in exponents:
        column, total = [0], 0
        for n in range(1, n_max + 1):
            total += n**e
            column.append(total)
        table[e] = column
    return table


def check_relation(stdout: str, seed: list[int], mode: str) -> tuple[list[str], dict]:
    """Check a ``relation --expand --factor`` call.

    Proves the expanded and the factored identities, that the expanded
    polynomials are the divisor times the factored ones, and that they
    are ``scale`` times the printed power-sum combinations, with power
    sums computed by direct summation.
    """
    obj, problems = parse_json(stdout, "relation output")
    if obj is None:
        return problems, {}
    try:
        combos = [_poly(c) for c in obj["combos"]]
        expanded = [_poly(p) for p in obj["expanded"]["p"]]
        scale = Fraction(int(obj["expanded"]["scale"]["num"]), int(obj["expanded"]["scale"]["den"]))
        factored = [_poly(p) for p in obj["factored"]["p"]]
        divisor = _poly(obj["factored"]["divisor"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"relation output lacks a field: {exc!r}"], {}
    if obj.get("seed") != seed or obj.get("mode") != mode:
        problems.append(f"output is for seed {obj.get('seed')} mode {obj.get('mode')}")
    problems += cube_identity_problems(expanded, "expanded identity")
    problems += cube_identity_problems(factored, "factored identity")
    if len(combos) != 4 or len(expanded) != 4 or len(factored) != 4:
        return problems + ["combos, expanded and factored need four entries each"], {}

    degree = max(_degree(p) for p in expanded)
    for x in range(degree + 1):
        d = _evaluate(divisor, x)
        if any(_evaluate(e, x) != d * _evaluate(f, x) for e, f in zip(expanded, factored)):
            problems.append(f"expanded != divisor * factored at u={x}")
            break

    # The constant slot of a combination uses exponent -1.
    sums = _power_sums({e for c in combos for e in c if e >= 0}, degree + 1)
    for n in range(1, degree + 2):
        for i, (combo, poly) in enumerate(zip(combos, expanded), start=1):
            value = sum(c * (1 if e < 0 else sums[e][n]) for e, c in combo.items())
            if _evaluate(poly, n) != scale * value:
                problems.append(f"p{i} != scale * combo{i} at n={n}")
                break
        else:
            continue
        break

    counts = {
        "max_degree": degree,
        "max_coeff_bits": max((abs(c.numerator).bit_length() for p in expanded for c in p.values()), default=0),
        "divisor_degree": _degree(divisor),
    }
    return problems, counts


def check_family(stdout: str, seed: list[int]) -> list[str]:
    """``sandor A B C D --reduce``: four forms with ``q1^3+q2^3+q3^3 = q4^3``.

    The difference is a binary form of degree 6; it vanishes identically
    when its dehomogenisation at v = 1 vanishes at 7 integers.
    """
    obj, problems = parse_json(stdout, "sandor output")
    if obj is None:
        return problems
    try:
        forms = [(int(q["alpha"]), int(q["beta"]), int(q["gamma"])) for q in obj["q"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"sandor output lacks a form: {exc!r}"]
    if obj.get("seed") != seed:
        problems.append(f"output is for seed {obj.get('seed')}")
    if len(forms) != 4 or not any(any(f) for f in forms):
        return problems + ["need four forms, not all zero"]
    for u in range(7):
        q1, q2, q3, q4 = (a * u * u + b * u + c for a, b, c in forms)
        if q1**3 + q2**3 + q3**3 != q4**3:
            problems.append(f"forms fail q1^3+q2^3+q3^3=q4^3 at (u, v) = ({u}, 1)")
            break
    return problems


def check_verify_family(stdout: str) -> list[str]:
    """``verify`` on a form-quadruple file: identity and ratio both hold."""
    obj, problems = parse_json(stdout, "verify output")
    if obj is None:
        return problems
    if obj.get("identity") != "cubic" or obj.get("verified") is not True or obj.get("characterization") is not True:
        problems.append(f"verify reports {obj}")
    return problems
