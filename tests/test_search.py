import hashlib
import io
import itertools
import json
import math
import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powersum_forge import forks, search
from powersum_forge.cubic import (
    CubicQuadruple,
    content_reduce,
    evaluate_forms,
    fraction_ratio,
    sandor_generate,
)
from powersum_forge.polynomials import Polynomial, _horner
from powersum_forge.relations import FMode, PolyIdentity, QMode, build_relation, expand_relation
from powersum_forge.search import (
    GRID_GUARDRAIL,
    SearchConfig,
    SearchStats,
    SolutionRecord,
    canonicalize,
    detect_taxicab,
    load_records,
    resolve_workers,
    run_search,
    scan_records,
    verify_record,
    write_records,
)

from test_forks import no_child_process


def config(seeds, u=(-5, 5), v=(-5, 5), **kw):
    return SearchConfig(
        seeds=tuple(CubicQuadruple(*s) for s in seeds),
        u_range=u,
        v_range=v,
        **kw,
    )


def encode(records) -> str:
    buf = io.StringIO()
    write_records(records, buf)
    return buf.getvalue()


def record_obj(record) -> dict:
    """The JSON object of a record, as ``write_records`` writes it."""
    return json.loads(encode([record]))


def primitive_solutions(max_d):
    """Primitive ``a^3 + b^3 + c^3 = d^3`` with ``0 < a < b < c < d <= max_d``."""
    cubes = {x**3: x for x in range(1, max_d + 1)}
    return [
        (a, b, cubes[r], d)
        for d in range(2, max_d + 1)
        for a in range(1, d)
        for b in range(a + 1, d)
        if (r := d**3 - a**3 - b**3) in cubes and b < cubes[r] and math.gcd(a, b, cubes[r], d) == 1
    ]


PRIMITIVE = primitive_solutions(30)


@st.composite
def seeds(draw):
    """A primitive solution, its four terms permuted (``x^3 + y^3 + z^3 + w^3 = 0``
    read back as a seed, so signs vary) and scaled by a nonzero integer."""
    a, b, c, d = draw(st.sampled_from(PRIMITIVE))
    x, y, z, w = draw(st.permutations((a, b, c, -d)))
    t = draw(st.integers(-3, 3).filter(bool))
    return CubicQuadruple(t * x, t * y, t * z, -t * w)


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_examples():
    assert canonicalize((6, 8, 10, 12)) == ((3, 4, 5, 6), 2)
    assert canonicalize((1, 12, -10, 9)) == ((-10, 1, 12, 9), 1)
    assert canonicalize((-3, -4, -5, -6)) == ((3, 4, 5, 6), 1)
    assert canonicalize((4, 32, -18, 30)) == ((-9, 2, 16, 15), 2)


def test_canonicalize_rejects_zero_tuple():
    with pytest.raises(ValueError):
        canonicalize((0, 0, 0, 0))


def test_canonicalize_idempotent():
    first, _ = canonicalize((4, 32, -18, 30))
    again, g = canonicalize(first)
    assert again == first and g == 1


@given(st.integers(-20, 20).filter(bool), st.permutations([1, 12, -10]))
def test_canonicalize_collapses_equivalent_tuples(t, perm):
    # rescaling, reordering the first three, and global sign flips all land
    # on the same representative
    quad = tuple(t * x for x in (*perm, 9))
    assert canonicalize(quad)[0] == (-10, 1, 12, 9)
    assert canonicalize(quad)[1] == abs(t)


def canonicalize_reference(quad):
    """``canonicalize`` as it was before the single-gcd form."""
    q = tuple(int(x) for x in quad)
    if all(x == 0 for x in q):
        raise ValueError("cannot canonicalize the zero tuple")
    g = 0
    for x in q:
        g = math.gcd(g, x)
    reduced = [x // g for x in q]
    if reduced[3] < 0:
        reduced = [-x for x in reduced]
    return (*sorted(reduced[:3]), reduced[3]), g


entries = st.one_of(
    st.integers(-30, 30),
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, 2**64, -(2**64), 2**63 - 1, -(2**63)]),
)


@given(st.tuples(*[entries] * 4), st.integers(1, 2**70))
def test_canonicalize_matches_reference(quad, t):
    for q in (quad, tuple(t * x for x in quad)):
        if not any(q):
            with pytest.raises(ValueError, match="zero tuple"):
                canonicalize(q)
            continue
        assert canonicalize(q) == canonicalize_reference(q)
        assert canonicalize(list(q)) == canonicalize_reference(q)


@pytest.mark.parametrize(
    "quad",
    [(6.9, 8.2, 10.5, 12.1), (6, 8, 10, 12.0), (Fraction(6), 8, 10, 12), ("6", 8, 10, 12)],
)
def test_canonicalize_refuses_non_integers(quad):
    with pytest.raises(TypeError):
        canonicalize(quad)


# --- taxicab detection --------------------------------------------------------


def test_detect_taxicab_examples():
    assert detect_taxicab((-10, 1, 12, 9)) == 1729
    assert detect_taxicab((-9, 2, 16, 15)) == 4104
    assert detect_taxicab((3, 4, 5, 6)) is None


def test_detect_taxicab_requires_distinct_pairs():
    # (-9)^3 + 9^3 + 12^3 == 12^3 rearranges to 9^3 + 12^3 on both sides
    assert detect_taxicab((-9, 9, 12, 12)) is None


def test_detect_taxicab_scale_invariance():
    for q in [(1, 12, -10, 9), (4, 32, -18, 30), (3, 4, 5, 6)]:
        base = detect_taxicab(canonicalize(q)[0])
        for t in range(2, 6):
            scaled = tuple(t * x for x in q)
            assert detect_taxicab(canonicalize(scaled)[0]) == base


def detect_taxicab_reference(quad):
    """``detect_taxicab`` as it was before the sort-based form."""
    x1, x2, x3, d = (int(x) for x in quad)
    if d <= 0:
        return None
    negatives = [x for x in (x1, x2, x3) if x < 0]
    positives = [x for x in (x1, x2, x3) if x > 0]
    if len(negatives) != 1 or len(positives) != 2:
        return None
    pair_a = tuple(sorted(positives))
    pair_b = tuple(sorted((-negatives[0], d)))
    if pair_a == pair_b:
        return None
    return positives[0] ** 3 + positives[1] ** 3


small = st.integers(-12, 12)


@given(st.one_of(st.tuples(small, small, small, small), st.tuples(*[entries] * 4)))
def test_detect_taxicab_matches_reference(quad):
    assert detect_taxicab(quad) == detect_taxicab_reference(quad)
    if any(quad):
        reduced = canonicalize(quad)[0]
        assert detect_taxicab(reduced) == detect_taxicab_reference(reduced)


# --- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="at least one seed"):
        SearchConfig(seeds=(), u_range=(0, 1), v_range=(0, 1))
    with pytest.raises(ValueError, match="empty range"):
        config([(1, 6, 8, 9)], u=(3, 2))
    with pytest.raises(ValueError, match="mode"):
        config([(1, 6, 8, 9)], modes=("nonsense",))


def test_config_force_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "seeds": [[1, 6, 8, 9]],
                "u_range": [0, 100000],
                "v_range": [0, 1000],
                "force": True,
            }
        ),
        encoding="utf-8",
    )
    cfg = SearchConfig.from_file(path)
    assert cfg.force is True
    run_search(cfg)  # guardrail suppressed; nothing consumed


def test_config_from_dict_and_file(tmp_path):
    data = {
        "seeds": [[1, 6, 8, 9], [1, 8, 6, 9]],
        "u_range": [-5, 5],
        "v_range": [-5, 5],
        "modes": ["cubic", "Q:1,2", "F:2"],
        "dedupe": False,
        "output": "out.jsonl",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    cfg = SearchConfig.from_file(path)
    assert cfg.seeds[1].as_tuple == (1, 8, 6, 9)
    assert cfg.modes == ("cubic", QMode(1, 2), FMode(2))
    assert cfg.dedupe is False
    assert cfg.output == "out.jsonl"
    assert cfg.lattice_points == 2 * (11 * 11 + 11 + 11)


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": 5, "u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": [[1, 6, 8]], "u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [1], "v_range": [0, 1]}, "u_range"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1]}, "v_range"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "modes": "Q"}, "modes"),
        ({"seeds": [[1, 6, 8, 9.9]], "u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": [[1, 6, 8, True]], "u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0.5, 2.7], "v_range": [0, 1]}, "u_range"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1, 2], "v_range": [0, 1]}, "u_range"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": "01"}, "v_range"),
        (
            {"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "dedupe": "false"},
            "dedupe",
        ),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "force": 1}, "force"),
    ],
)
def test_config_from_dict_names_bad_field(obj, field):
    with pytest.raises(ValueError, match=field):
        SearchConfig.from_dict(obj)


def test_config_from_dict_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        SearchConfig.from_dict([])


def test_missing_config_file():
    with pytest.raises(ValueError, match="cannot read"):
        SearchConfig.from_file("/nonexistent/cfg.json")


# --- guardrail and workers ------------------------------------------------------


def test_guardrail_triggers_eagerly():
    big = config([(1, 6, 8, 9)], u=(0, 10_000), v=(0, 10_000))
    assert big.lattice_points > GRID_GUARDRAIL
    with pytest.raises(ValueError, match="guardrail"):
        run_search(big)
    # force accepts the config (lazily; nothing is evaluated here)
    run_search(config([(1, 6, 8, 9)], u=(0, 10_000), v=(0, 10_000), force=True))


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("POWERSUM_FORGE_THREADS", "2")
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("POWERSUM_FORGE_THREADS", "junk")
    assert resolve_workers(4) == 4
    monkeypatch.delenv("POWERSUM_FORGE_THREADS")
    assert resolve_workers(3) == 3


# --- the search itself ------------------------------------------------------------


def test_search_finds_paper_taxicabs():
    cfg = config([(1, 6, 8, 9), (1, 8, 6, 9)], dedupe=False)
    records = list(run_search(cfg, threads=1))
    by_uv = {(r.seed.as_tuple, r.uv): r for r in records}
    hit1729 = by_uv[((1, 6, 8, 9), (1, 2))]
    assert hit1729.raw == (1, 12, -10, 9)
    assert hit1729.reduced == (-10, 1, 12, 9)
    assert hit1729.taxicab == 1729
    assert hit1729.ratio == 3
    hit4104 = by_uv[((1, 8, 6, 9), (-1, -3))]
    assert hit4104.raw == (4, 32, -18, 30)
    assert hit4104.reduced == (-9, 2, 16, 15)
    assert hit4104.content == 2
    assert hit4104.taxicab == 4104


def test_search_finds_eq10_solution():
    cfg = config([(7, 14, 17, 20)], u=(-3, 3), v=(-3, 3), dedupe=False)
    records = list(run_search(cfg, threads=1))
    match = [r for r in records if r.uv == (-2, -3)]
    assert match and match[0].reduced == (5, 163, 164, 206)
    assert match[0].ratio == 4


def test_search_skips_degenerate_points():
    stats = SearchStats()
    records = list(run_search(config([(1, 6, 8, 9)], dedupe=False), stats=stats, threads=1))
    assert stats.evaluated == 121
    assert stats.degenerate >= 1  # at least (0, 0)
    assert stats.emitted == len(records)
    assert all(0 not in r.raw for r in records)


def test_search_every_record_satisfies_cubic():
    for record in run_search(config([(1, 6, 8, 9)]), threads=1):
        x1, x2, x3, x4 = record.raw
        assert x1**3 + x2**3 + x3**3 == x4**3
        verify_record(record)


def test_search_dedupe_is_stable():
    cfg = config([(1, 6, 8, 9), (1, 8, 6, 9)])
    first = {r.reduced for r in run_search(cfg, threads=1)}
    second = {r.reduced for r in run_search(cfg, threads=1)}
    assert first == second
    stats = SearchStats()
    dupes = list(run_search(config([(1, 6, 8, 9)], dedupe=True), stats=stats, threads=1))
    assert stats.duplicates > 0
    assert len({r.reduced for r in dupes}) == len(dupes)


def test_relation_mode_search():
    cfg = config([(1, 6, 8, 9)], u=(-4, 8), v=(0, 0), modes=(QMode(1, 2),), dedupe=False)
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats, threads=1))
    assert stats.evaluated == 13
    assert stats.degenerate == 2  # n = 0 and n = -1 vanish identically
    by_n = {r.uv[0]: r for r in records}
    assert by_n[1].reduced == (3, 4, 5, 6)  # 36*(5,3,4,6) canonicalized
    assert by_n[1].content == 36
    for r in records:
        x1, x2, x3, x4 = r.raw
        assert x1**3 + x2**3 + x3**3 == x4**3


def test_f_mode_search():
    cfg = config([(1, 8, 6, 9)], u=(1, 6), v=(0, 0), modes=(FMode(2),), dedupe=False)
    records = list(run_search(cfg, threads=1))
    assert len(records) == 6
    for r in records:
        x1, x2, x3, x4 = r.raw
        assert x1**3 + x2**3 + x3**3 == x4**3


def test_relation_mode_rejects_values_that_are_not_whole(monkeypatch):
    half = Polynomial({0: Fraction(3, 2), 1: 1})
    one = Polynomial.constant(1)
    identity = PolyIdentity((half, one, one, one), Fraction(1))
    monkeypatch.setattr(search, "expand_relation", lambda cq: identity)
    cfg = config([(1, 6, 8, 9)], u=(1, 3), v=(0, 0), modes=(QMode(1, 2),))
    records = []
    with pytest.raises(RuntimeError, match=r"seed \(1, 6, 8, 9\) mode Q:1,2.* u=1 "):
        for record in run_search(cfg):
            records.append(record)
    assert records == []  # int(3/2 + 1) would have yielded a truncated record


def test_parallel_and_serial_runs_are_byte_identical(tmp_path):
    cfg = config([(1, 6, 8, 9), (1, 8, 6, 9)], u=(-6, 6), v=(-6, 6))
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    write_records(run_search(cfg, threads=1), serial)
    write_records(run_search(cfg, threads=8), parallel)
    assert serial.read_bytes() == parallel.read_bytes()
    assert serial.stat().st_size > 0


def test_search_evaluates_lazily_on_large_grid():
    stats = SearchStats()
    cfg = config([(1, 6, 8, 9)], u=(-500, 500), v=(-500, 500))
    records = run_search(cfg, stats=stats, threads=8)
    next(records)
    records.close()
    assert 1 <= stats.evaluated <= 1001  # at most one u-stripe of the 1001 x 1001 grid


boxes = st.one_of(
    st.tuples(st.integers(-8, 8), st.integers(0, 6), st.integers(-8, 8), st.integers(0, 6)),
    # off the origin, with values past 64 bits
    st.tuples(
        st.integers(-(10**12), 10**12), st.integers(0, 3),
        st.integers(-(10**12), 10**12), st.integers(0, 3),
    ),
    # one row, one column
    st.tuples(st.integers(-40, 40), st.just(0), st.integers(-40, 40), st.integers(0, 25)),
    st.tuples(st.integers(-40, 40), st.integers(0, 25), st.integers(-40, 40), st.just(0)),
)


@given(seeds(), boxes)
def test_cubic_kernel_matches_evaluate_forms(seed, box):
    u_lo, du, v_lo, dv = box
    cfg = config([seed.as_tuple], u=(u_lo, u_lo + du), v=(v_lo, v_lo + dv))
    family, _ = content_reduce(sandor_generate(seed))
    expected = [
        ((u, v), evaluate_forms(family, u, v))
        for u in range(u_lo, u_lo + du + 1)
        for v in range(v_lo, v_lo + dv + 1)
    ]
    assert list(search._evaluate_family(seed, "cubic", cfg)) == expected


def whole(values):
    assert all(x.denominator == 1 for x in values)
    return tuple(x.numerator for x in values)


def full_scan(cfg, reduce=content_reduce, expand=expand_relation):
    """Records and counts of a dedupe-on search that evaluates every point
    of the grid: a cubic point with ``evaluate_forms``, a relation point
    with the expanded identity's ``evaluate``."""
    records, stats, seen = [], SearchStats(), set()
    (u_lo, u_hi), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    for seed in cfg.seeds:
        family, _ = reduce(sandor_generate(seed))
        ratio = fraction_ratio(seed)
        for mode in cfg.modes:
            if mode == "cubic":
                points = [
                    ((u, v), evaluate_forms(family, u, v))
                    for u in range(u_lo, u_hi + 1)
                    for v in range(v_lo, v_hi + 1)
                ]
            else:
                identity = expand(build_relation(family, mode))
                points = [((u, 0), whole(identity.evaluate(u))) for u in range(u_lo, u_hi + 1)]
            for (u, v), raw in points:
                stats.evaluated += 1
                if 0 in raw:
                    stats.degenerate += 1
                    continue
                reduced, content = canonicalize(raw)
                if reduced in seen:
                    stats.duplicates += 1
                    continue
                seen.add(reduced)
                stats.emitted += 1
                taxicab = detect_taxicab(reduced)
                records.append(SolutionRecord(seed, (u, v), raw, reduced, content, ratio, taxicab))
    return records, stats


mirror_boxes = st.one_of(
    boxes,
    # straddling 0 unevenly on both axes
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)).map(
        lambda t: (-t[0], t[0] + t[1], -t[2], t[2] + t[3])
    ),
    # the single row u = 0
    st.tuples(st.just(0), st.just(0), st.integers(-12, 4), st.integers(0, 16)),
)


@given(st.lists(seeds(), min_size=1, max_size=2), mirror_boxes)
def test_mirror_skipping_search_matches_a_full_scan(seed_list, box):
    u_lo, du, v_lo, dv = box
    cfg = config([s.as_tuple for s in seed_list], u=(u_lo, u_lo + du), v=(v_lo, v_lo + dv))
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg)


def line_vanishing_family(fq):
    """The reduced family with q1 vanishing on v = 0 (alpha = 0) and q2 on
    u = 0 (gamma = 0); the cubic identity no longer holds, which the
    search never checks."""
    family, g = content_reduce(fq)
    q1, q2, q3, q4 = family.forms
    return family._replace(q1=q1._replace(alpha=0), q2=q2._replace(gamma=0)), g


@pytest.mark.parametrize(
    "u,v", [((-6, 6), (-6, 6)), ((-3, 7), (-5, 2)), ((0, 0), (-6, 4)), ((-2, 5), (0, 3))]
)
def test_mirrored_points_of_degenerate_points_count_as_degenerate(monkeypatch, u, v):
    monkeypatch.setattr(search, "content_reduce", line_vanishing_family)
    cfg = config([(1, 6, 8, 9), (3, 4, 5, 6)], u=u, v=v)
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg, line_vanishing_family)
    # each box holds the lines u = 0 and v = 0, where every point is degenerate
    rows, cols = u[1] - u[0] + 1, v[1] - v[0] + 1
    assert stats.degenerate >= len(cfg.seeds) * (rows + cols - 1)


def ray_vanishing_family(fq):
    """The reduced family with q1 vanishing on the line v = 2u and q2 on
    v = -3u, so degenerate points lie on lines through the origin off
    the axes; the cubic identity no longer holds, which the search never
    checks."""
    family, g = content_reduce(fq)
    q1, q2, q3, q4 = family.forms
    q1 = q1._replace(alpha=-2 * q1.beta - 4 * q1.gamma)  # q1(1, 2) = 0
    q2 = q2._replace(alpha=3 * q2.beta - 9 * q2.gamma)  # q2(1, -3) = 0
    return family._replace(q1=q1, q2=q2), g


line_boxes = st.one_of(
    mirror_boxes,
    # wider than tall and taller than wide, off-centre, so that the next
    # point out on a line leaves the box on either axis first
    st.tuples(
        st.integers(-14, 2), st.integers(0, 20), st.integers(-14, 2), st.integers(0, 20)
    ),
)


@settings(deadline=None)
@given(st.lists(seeds(), min_size=1, max_size=3), line_boxes, st.booleans())
def test_line_rule_search_matches_a_full_scan(seed_list, box, vanishing):
    u_lo, du, v_lo, dv = box
    cfg = config([s.as_tuple for s in seed_list], u=(u_lo, u_lo + du), v=(v_lo, v_lo + dv))
    reduce = ray_vanishing_family if vanishing else content_reduce
    stats = SearchStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "content_reduce", reduce)
        records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg, reduce)


def outermost(u, v, cfg):
    """True unless ``(u, v)`` comes before (0, 0) in scan order and the
    next lattice point out on its line through the origin is in the box."""
    if (u, v) >= (0, 0):
        return True
    g = math.gcd(u, v)
    (u_lo, u_hi), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    return not (u_lo <= u + u // g <= u_hi and v_lo <= v + v // g <= v_hi)


@pytest.mark.parametrize(
    "u,v", [((-9, 9), (-9, 9)), ((-12, 3), (-4, 10)), ((-5, 0), (-13, 13)), ((0, 0), (-8, 8))]
)
def test_line_rule_canonicalizes_only_the_outermost_point_of_each_line(monkeypatch, u, v):
    calls = []

    def counting(quad):
        calls.append(quad)
        return canonicalize(quad)

    monkeypatch.setattr(search, "canonicalize", counting)
    cfg = config([(1, 6, 8, 9)], u=u, v=v)
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg)
    family, _ = content_reduce(sandor_generate(cfg.seeds[0]))
    (u_lo, u_hi), (v_lo, v_hi) = u, v
    # the points that are not mirror-skipped (the mirror is in the box
    # and earlier), not degenerate and not on a line with a point further out
    points = [
        ((x, y), evaluate_forms(family, x, y))
        for x in range(u_lo, u_hi + 1)
        for y in range(v_lo, v_hi + 1)
        if not ((-x, -y) < (x, y) and u_lo <= -x <= u_hi and v_lo <= -y <= v_hi)
    ]
    expected = [raw for (x, y), raw in points if 0 not in raw and outermost(x, y, cfg)]
    assert calls == expected
    assert len(calls) < sum(0 not in raw for _, raw in points)


@pytest.mark.parametrize(
    "cfg",
    [
        config([(1, 6, 8, 9), (8, 1, 6, 9)], u=(-7, 9), v=(-6, 9)),
        config([(1, 6, 8, 9), (8, 1, 6, 9)], u=(-7, 9), v=(-6, 9), dedupe=False),
        config([(1, 6, 8, 9)], u=(-30, 30), v=(0, 0), modes=("cubic", QMode(1, 2), FMode(2))),
    ],
)
def test_stats_are_current_at_every_record(cfg):
    (u_lo, u_hi), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    nu, nv = u_hi - u_lo + 1, v_hi - v_lo + 1
    stats = SearchStats()
    yielded = 0
    for record in run_search(cfg, stats=stats):
        yielded += 1
        assert stats.emitted == yielded
        assert stats.evaluated == stats.degenerate + stats.duplicates + stats.emitted
        if cfg.modes == ("cubic",):
            # every lattice point up to this record's, mirrored or not
            (u, v), seed_index = record.uv, cfg.seeds.index(record.seed)
            assert stats.evaluated == (seed_index * nu + u - u_lo) * nv + v - v_lo + 1
    assert stats.evaluated == cfg.lattice_points


relation_modes = st.one_of(
    st.builds(QMode, st.integers(1, 6), st.integers(1, 6)),
    st.builds(FMode, st.integers(1, 3)),
)

relation_boxes = st.one_of(
    # straddling -1/2 unevenly
    st.tuples(st.integers(1, 30), st.integers(0, 30)).map(lambda t: (-t[0], t[1])),
    # wholly below, wholly above
    st.tuples(st.integers(1, 40), st.integers(0, 20)).map(lambda t: (-t[0] - t[1], -t[0])),
    st.tuples(st.integers(0, 40), st.integers(0, 20)).map(lambda t: (t[0], t[0] + t[1])),
    st.sampled_from([(-1, -1), (0, 0)]),
)


@settings(deadline=None)
@given(
    st.lists(seeds(), min_size=1, max_size=2),
    st.lists(st.one_of(st.just("cubic"), relation_modes), min_size=1, max_size=3).filter(
        lambda modes: any(mode != "cubic" for mode in modes)
    ),
    relation_boxes,
    st.tuples(st.integers(-3, 1), st.integers(0, 3)),
)
def test_reflection_skipping_search_matches_a_full_scan(seed_list, modes, u, v):
    cfg = config(
        [s.as_tuple for s in seed_list], u=u, v=(v[0], v[0] + v[1]), modes=tuple(modes)
    )
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg)


@pytest.mark.parametrize(
    "mode,points",
    [
        (QMode(3, 5), [*range(-5, 0), *range(5, 10)]),  # k + m even: u = 0..4 mirror -1..-5
        (QMode(2, 6), [*range(-5, 0), *range(5, 10)]),
        (QMode(1, 2), list(range(-5, 10))),
        (FMode(2), list(range(-5, 10))),
    ],
)
def test_relation_grid_evaluates_only_points_without_an_earlier_reflection(mode, points):
    cfg = config([(1, 6, 8, 9)], u=(-5, 9), v=(0, 0), modes=(mode,))
    seed = cfg.seeds[0]
    evaluated = search._evaluate_family(seed, mode, cfg, {}, SearchStats())
    assert [u for (u, _), _ in evaluated] == points
    # with dedupe off every point is a record of its own
    assert [u for (u, _), _ in search._evaluate_family(seed, mode, cfg)] == list(range(-5, 10))


def with_symmetric_zeros(scale):
    """``expand_relation`` with every polynomial times ``scale*(u-2)(u+3)``,
    which equals its own reflection ``u -> -1-u``: a symmetric identity
    stays symmetric and gains zeros at u = 2 and u = -3."""
    factor = Polynomial({0: -6, 1: 1, 2: 1}) * scale

    def expand(cq):
        identity = expand_relation(cq)
        return identity._replace(polys=tuple(p * factor for p in identity.polys))

    return expand


@pytest.mark.parametrize("scale", [1, Fraction(1, 2)])  # 1/2: whole values over a denominator 2
@pytest.mark.parametrize("u", [(-6, 9), (-3, 2), (-2, 6), (-9, 0), (0, 4)])
def test_mirrors_of_degenerate_relation_points_count_as_degenerate(monkeypatch, u, scale):
    expand = with_symmetric_zeros(scale)
    monkeypatch.setattr(search, "expand_relation", expand)
    cfg = config([(1, 6, 8, 9)], u=u, v=(0, 0), modes=(QMode(3, 5), FMode(2)))
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg, expand=expand)
    # every polynomial vanishes at -3, -1, 0 and 2, in both modes
    zeros = sum(u[0] <= z <= u[1] for z in (-3, -1, 0, 2))
    assert stats.degenerate == 2 * zeros


def lopsided_identity(cq):
    """An identity that is not symmetric under ``u -> -1-u`` although its
    first polynomial agrees with its reflection at u = 0, 1, 2: that is
    ``R + 1`` with ``R = (2u+1) u(u+1) (u-1)(u+2) (u-2)(u+3)``, and
    ``R(-1-u) = -R(u)``.  A polynomial of degree 7 that is not symmetric
    agrees with its reflection at no more points ``u >= 0``; the other
    three are symmetric.  The cubic identity does not hold, which the
    search never checks."""
    u = Polynomial.monomial(1)
    r = (2 * u + 1) * u * (u + 1) * (u - 1) * (u + 2) * (u - 2) * (u + 3)
    sym = u * u + u
    return PolyIdentity((r + 1, sym + 2, 2 * sym + 3, sym * sym + 5), Fraction(1))


def test_relation_points_are_skipped_only_once_the_reflection_is_proven(monkeypatch):
    monkeypatch.setattr(search, "expand_relation", lopsided_identity)
    cfg = config([(1, 6, 8, 9)], u=(-12, 12), v=(0, 0), modes=(QMode(3, 5),))
    stats = SearchStats()
    records = list(run_search(cfg, stats=stats))
    assert (records, stats) == full_scan(cfg, expand=lopsided_identity)
    # u = 0, 1, 2 repeat u = -1, -2, -3; u = 3..12 are records of their own
    assert (stats.emitted, stats.duplicates, stats.degenerate) == (22, 3, 0)
    assert [r.uv[0] for r in records] == [*range(-12, 0), *range(3, 13)]


def test_stats_are_current_at_every_record_of_a_reflected_relation_grid():
    cfg = config([(1, 6, 8, 9)], u=(-30, 30), v=(0, 0), modes=(QMode(3, 5),))
    stats = SearchStats()
    yielded = 0
    for record in run_search(cfg, stats=stats):
        yielded += 1
        assert stats.emitted == yielded
        assert stats.evaluated == stats.degenerate + stats.duplicates + stats.emitted
        assert stats.evaluated == record.uv[0] - cfg.u_range[0] + 1
    assert stats.evaluated == cfg.lattice_points
    # u = 0..29 mirror u = -1..-30; u = 30 has no mirror in the range
    assert (stats.emitted, stats.degenerate, stats.duplicates) == (30, 2, 29)


def test_config_refuses_an_empty_output():
    with pytest.raises(ValueError, match="'output'"):
        config([(1, 6, 8, 9)], output="")
    with pytest.raises(ValueError, match="'output'"):
        SearchConfig.from_dict(
            {"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "output": ""}
        )


@pytest.mark.parametrize(
    "cfg,count,prefix",
    [
        # dedupe on; (8, 1, 6, 9) has ratio 7/4
        (config([(1, 6, 8, 9), (8, 1, 6, 9)], u=(-20, 20), v=(-20, 20)), 980, "5dd4b77e652e4b2a"),
        (
            config([(1, 6, 8, 9), (8, 1, 6, 9)], u=(-7, 9), v=(3, 11), dedupe=False),
            306,
            "6a437dec84d46db9",
        ),
        (
            config([(1, 6, 8, 9)], u=(-200, 200), v=(0, 0), modes=(QMode(3, 5),)),
            200,
            "9d0731e19650ef6d",
        ),
    ],
)
def test_search_output_is_byte_identical(cfg, count, prefix):
    # sha256 prefixes recorded before the row kernel and the line encoder
    text = encode(run_search(cfg))
    assert len(text.splitlines()) == count
    assert hashlib.sha256(text.encode()).hexdigest().startswith(prefix)


def test_relation_pin_is_byte_identical_from_forked_workers(monkeypatch):
    # the Q:3,5 pin above, written in blocks of 37 points on two forked workers
    cfg = config([(1, 6, 8, 9)], u=(-200, 200), v=(0, 0), modes=(QMode(3, 5),))
    monkeypatch.setattr(search, "_FORK_POINTS", 1)
    monkeypatch.setattr(search, "_BLOCK_POINTS", 37)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    workers = []
    forked_map = forks.forked_map
    monkeypatch.setattr(forks, "forked_map", lambda f, jobs, n: workers.append(n) or forked_map(f, jobs, n))
    buf = io.StringIO()
    assert search.write_search(cfg, buf, threads=2) == 200
    assert workers == [2] and no_child_process()
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest().startswith("9d0731e19650ef6d")


def packed_reference(nums, rows):
    """``(uv, raw)`` of each point of ``rows`` from four Horner passes."""
    return [((u, 0), tuple(_horner(num, u) for num in nums)) for u in rows]


def packed_points(nums, rows):
    """``search._points`` of a relation family with numerators ``nums``."""
    family = (None, nums, [1, 1, 1, 1], False)
    cfg = config([(1, 6, 8, 9)], u=(rows.start, max(rows.start, rows.stop - 1)), v=(0, 0))
    return list(search._points(cfg.seeds[0], QMode(3, 5), family, cfg, rows, range(1), None))


coefficient_lists = st.lists(
    st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**200), 2**200)), max_size=14
)

packed_ranges = st.one_of(
    st.sampled_from([(0, 0), (-1, -1), (1, 1), (-1, 1), (0, 1), (-1, 0)]),
    st.tuples(st.integers(-40, 40), st.integers(0, 40)).map(lambda t: (t[0], t[0] + t[1])),
    # far from 0, either side
    st.tuples(st.integers(10**6, 10**12), st.integers(0, 30), st.booleans()).map(
        lambda t: (t[0], t[0] + t[1]) if t[2] else (-t[0] - t[1], -t[0])
    ),
)


@settings(deadline=None)
@given(st.lists(coefficient_lists, min_size=4, max_size=4), packed_ranges, st.data())
def test_packed_pass_equals_four_horner_passes(nums, box, data):
    rows = range(box[0], box[1] + 1)
    assert packed_points(nums, rows) == packed_reference(nums, rows)
    # a sub-range, as a forked block gets it: B is chosen from its own rows
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(i, len(rows)))
    assert packed_points(nums, rows[i:j]) == packed_reference(nums, rows[i:j])


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 63, 64, 65, 300])
def test_packed_pass_reads_values_at_the_bound(bits):
    top = (1 << bits) - 1  # the largest value of ``bits`` bits
    # constants at the bound, of either sign, beside constants far below it
    for nums in ([[top], [-top], [top], [-top]], [[-top], [1], [0], [top]], [[], [top], [-1], [-top]]):
        assert packed_points(nums, range(-3, 4)) == packed_reference(nums, range(-3, 4))
    # sum_j |c_j| R^j reached exactly, at u = R and at u = -R
    nums = [[top] * 5, [(-1) ** j * top for j in range(5)], [-top] * 3, [top, 0, -top]]
    for rows in (range(-7, 8), range(7, 8), range(-7, -6)):
        assert packed_points(nums, rows) == packed_reference(nums, rows)


# --- persistence ------------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    cfg = config([(1, 6, 8, 9)], dedupe=False)
    records = list(run_search(cfg, threads=1))
    path = tmp_path / "out.jsonl"
    count = write_records(records, path)
    assert count == len(records)
    loaded = load_records(path)
    assert loaded == records


def test_jsonl_schema_fields(tmp_path):
    cfg = config([(1, 6, 8, 9)], u=(1, 2), v=(2, 2), dedupe=False)
    path = tmp_path / "out.jsonl"
    write_records(run_search(cfg, threads=1), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert set(first) == {"seed", "uv", "raw", "reduced", "content", "ratio", "taxicab"}
    assert first["seed"] == ["1", "6", "8", "9"]
    assert all(isinstance(x, str) for x in first["raw"])
    assert set(first["ratio"]) == {"num", "den"}


def test_load_rejects_corrupted_record(tmp_path):
    record = SolutionRecord(
        seed=CubicQuadruple(1, 6, 8, 9),
        uv=(1, 2),
        raw=(1, 12, -10, 9),
        reduced=(-10, 1, 12, 9),
        content=1,
        ratio=Fraction(3),
        taxicab=1729,
    )
    path = tmp_path / "bad.jsonl"
    obj = json.loads(encode([record]))
    obj["reduced"] = ["-10", "1", "12", "10"]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_records(path)
    obj = json.loads(encode([record]))
    obj["taxicab"] = "1730"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="taxicab"):
        load_records(path)


def test_scan_records_reports_each_bad_line_and_goes_on():
    good = encode([next(run_search(config([(1, 6, 8, 9)], u=(1, 1), v=(2, 2))))]).strip()
    bad_uv = json.dumps({**json.loads(good), "uv": [1.5, 2]})
    lines = [good + "\n", "\n", "not json\n", "[1, 2]\n", '{"seed": ["1"]}\n', bad_uv, good]
    items = list(scan_records(lines))
    assert [lineno for lineno, _ in items] == [1, 3, 4, 5, 6, 7]
    kinds = [isinstance(item, Exception) for _, item in items]
    assert kinds == [False, True, True, True, True, False]
    assert items[0][1].taxicab == 1729
    assert "uv[0]" in str(items[4][1])


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("seed", ["1", "6", "8"], "seed"),
        ("seed", [1, 6, 8, 9.0], "seed[3]"),
        ("uv", [1.5, 2], "uv[0]"),
        ("raw", ["1", "12", "-10", False], "raw[3]"),
        ("reduced", ["-10", "1", "12"], "reduced"),
        ("content", 1.0, "content"),
        ("ratio", {"num": "3", "den": 1.0}, "ratio.den"),
        ("taxicab", 1729.5, "taxicab"),
    ],
)
def test_record_from_json_refuses_what_it_would_truncate(key, value, field):
    obj = record_obj(next(run_search(config([(1, 6, 8, 9)], u=(1, 1), v=(2, 2)))))
    assert SolutionRecord.from_json(obj).uv == (1, 2)
    obj[key] = value
    with pytest.raises(ValueError) as err:
        SolutionRecord.from_json(obj)
    assert field in str(err.value)


def test_load_records_single_record(tmp_path):
    record = next(run_search(config([(1, 6, 8, 9)], u=(1, 1), v=(2, 2))))
    path = tmp_path / "one.jsonl"
    assert write_records([record], path) == 1
    assert load_records(path) == [record]


def test_load_records_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "out.jsonl"
    assert write_records(run_search(config([(1, 6, 8, 9)], u=(1, 3), v=(1, 3))), path) > 2
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
        load_records(path)


def test_verify_record_checks_ratio():
    record = SolutionRecord(
        seed=CubicQuadruple(1, 6, 8, 9),
        uv=(1, 2),
        raw=(1, 12, -10, 9),
        reduced=(-10, 1, 12, 9),
        content=1,
        ratio=Fraction(4),
        taxicab=1729,
    )
    with pytest.raises(ValueError, match="ratio"):
        verify_record(record)


# --- the record encoder -------------------------------------------------------------


def reference_obj(record: SolutionRecord) -> dict:
    """The record's JSON object as ``SolutionRecord.to_json`` built it."""
    return {
        "seed": [str(x) for x in record.seed.as_tuple],
        "uv": [str(record.uv[0]), str(record.uv[1])],
        "raw": [str(x) for x in record.raw],
        "reduced": [str(x) for x in record.reduced],
        "content": str(record.content),
        "ratio": {"num": str(record.ratio.numerator), "den": str(record.ratio.denominator)},
        "taxicab": str(record.taxicab) if record.taxicab is not None else None,
    }


big = st.integers(-(2**100), 2**100)
quads = st.tuples(big, big, big, big)


@st.composite
def records(draw):
    seed = draw(seeds())
    ratio = draw(
        st.one_of(
            st.just(fraction_ratio(seed)),
            st.fractions(),
            st.builds(Fraction, big, st.integers(1, 2**70)),
        )
    )
    return SolutionRecord(
        seed=seed,
        uv=draw(st.tuples(big, big)),
        raw=draw(quads),
        reduced=draw(quads),
        content=draw(st.integers(1, 2**80)),
        ratio=ratio,
        taxicab=draw(st.one_of(st.none(), st.integers(1, 2**200))),
    )


@given(st.lists(records(), max_size=4))
def test_record_lines_match_json_dumps(recs):
    lines = encode(recs).splitlines(keepends=True)
    assert lines == [json.dumps(reference_obj(r), separators=(",", ":")) + "\n" for r in recs]


def test_record_line_with_non_unit_ratio_and_null_taxicab():
    seed = CubicQuadruple(8, 1, 6, 9)
    assert fraction_ratio(seed) == Fraction(7, 4)
    record = next(r for r in run_search(config([seed.as_tuple])) if r.taxicab is None)
    assert record_obj(record) == reference_obj(record)
    assert '"ratio":{"num":"7","den":"4"},"taxicab":null}\n' in encode([record])


# --- verification ---------------------------------------------------------------------


def test_verify_refuses_a_record_with_a_zero_entry():
    record = SolutionRecord(
        seed=CubicQuadruple(1, 6, 8, 9),
        uv=(0, 0),
        raw=(2, -2, 0, 0),
        reduced=(-1, 0, 1, 0),
        content=2,
        ratio=Fraction(3),
        taxicab=None,
    )
    with pytest.raises(ValueError, match="zero entry"):
        verify_record(record)
    line = encode([record])
    items = list(scan_records([line]))
    assert len(items) == 1 and isinstance(items[0][1], ValueError)


def two_seed_lines():
    first = list(run_search(config([(1, 6, 8, 9)], u=(1, 2), v=(1, 2))))
    second = list(run_search(config([(8, 1, 6, 9)], u=(1, 2), v=(1, 2))))
    return [encode([r]) for r in first], [encode([r]) for r in second]


def test_scan_records_alternating_seeds_verify():
    a, b = two_seed_lines()
    lines = [x for pair in zip(a, b) for x in pair] + a
    items = list(scan_records(lines))
    assert len(items) == len(lines)
    assert all(isinstance(item, SolutionRecord) for _, item in items)
    seeds_read = [item.seed.as_tuple for _, item in items]
    assert seeds_read[:2] == [(1, 6, 8, 9), (8, 1, 6, 9)]
    assert [item.ratio for _, item in items[:2]] == [3, Fraction(7, 4)]


@pytest.mark.parametrize(
    "seed",
    [
        ["1", "6", "8", "10"],  # fails the cubic equation
        ["1", "6", "8"],
        ["1", "6", "8", "9.0"],
        [1.0, 6, 8, 9],  # equal to 1 as a number, but not an integer
        [True, 6, 8, 9],
        "1,6,8,9",
    ],
)
def test_scan_records_bad_seed_after_good_lines_fails_on_its_own_line(seed):
    a, _ = two_seed_lines()
    good = a[0]
    numeric = json.dumps({**json.loads(good), "seed": [1, 6, 8, 9]}) + "\n"
    bad = json.dumps({**json.loads(good), "seed": seed}) + "\n"
    items = list(scan_records([good, numeric, bad, good, numeric]))
    kinds = [isinstance(item, Exception) for _, item in items]
    assert kinds == [False, False, True, False, False]
    assert "seed" in str(items[2][1])


def test_scan_records_wrong_ratio_under_a_cached_seed_fails():
    a, _ = two_seed_lines()
    obj = json.loads(a[0])
    lines = [
        a[0],
        json.dumps({**obj, "ratio": {"num": "4", "den": "1"}}) + "\n",
        json.dumps({**obj, "ratio": {"num": "6", "den": "2"}}) + "\n",  # 3, not in lowest terms
        a[1],
    ]
    items = list(scan_records(lines))
    assert [isinstance(item, Exception) for _, item in items] == [False, True, False, False]
    assert "ratio" in str(items[1][1])
    assert items[2][1].ratio == 3


def test_scan_records_many_distinct_seeds_verify_within_the_seed_cache():
    base = CubicQuadruple(1, 6, 8, 9)
    lines = [
        encode(run_search(config([base.scaled(t).as_tuple], u=(1, 1), v=(2, 2))))
        for t in range(1, 41)
    ]
    items = list(scan_records(lines + lines[::-1]))
    assert len(items) == 80
    assert all(isinstance(item, SolutionRecord) for _, item in items)
    assert [item.seed for _, item in items[:40]] == [base.scaled(t) for t in range(1, 41)]
    info = search._seed_state.cache_info()
    assert 0 < info.currsize <= info.maxsize < 40


def test_load_records_of_a_file_alternating_two_seeds(tmp_path):
    a, b = two_seed_lines()
    path = tmp_path / "alternating.jsonl"
    path.write_text("".join(x for pair in zip(a, b) for x in pair), encoding="utf-8")
    loaded = load_records(path)
    assert [r.seed.as_tuple for r in loaded] == [(1, 6, 8, 9), (8, 1, 6, 9)] * len(a)
    assert [r.ratio for r in loaded[:2]] == [3, Fraction(7, 4)]
    assert all(r.ratio is loaded[0].ratio for r in loaded[::2])


# --- the template decoder against json.loads -------------------------------------


def reference_scan(line: str):
    """What ``json.loads``, ``from_json`` and ``verify_record`` make of one line."""
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        record = SolutionRecord.from_json(obj)
        verify_record(record)
    except (ArithmeticError, IndexError, KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return record


def scanned(line: str):
    [(lineno, item)] = list(scan_records([line]))
    assert lineno == 1
    return (type(item), str(item)) if isinstance(item, Exception) else item


INT_FIELDS = [
    *(("seed", i) for i in range(4)),
    *(("uv", i) for i in range(2)),
    *(("raw", i) for i in range(4)),
    *(("reduced", i) for i in range(4)),
    ("content",),
    ("ratio", "num"),
    ("ratio", "den"),
    ("taxicab",),
]


def with_field(obj: dict, path: tuple, value) -> dict:
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


def as_numbers(obj):
    if isinstance(obj, dict):
        return {k: as_numbers(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_numbers(v) for v in obj]
    return obj if obj is None else int(obj)


FOUND_RECORDS = list(run_search(config([(1, 6, 8, 9), (8, 1, 6, 9)], u=(-4, 4), v=(-4, 4))))

field_spellings = st.sampled_from(["+3", "007", "-0", "0", "٣", "9" * 5000, "-" + "1" * 5000])


@st.composite
def line_variants(draw):
    """A record's line as ``write_records`` writes it, or one variant of it."""
    record = draw(st.one_of(records(), st.sampled_from(FOUND_RECORDS)))
    line = encode([record])
    obj = json.loads(line)
    kind = draw(st.sampled_from(["line", "dumps", "numbers", "field", "den0", "tail"]))
    if kind == "line":
        return line
    if kind == "dumps":
        return json.dumps(obj)
    if kind == "numbers":
        return json.dumps(as_numbers(obj), separators=(",", ":"))
    if kind == "field":
        path = draw(st.sampled_from(INT_FIELDS))
        obj = with_field(obj, path, draw(field_spellings))
        return json.dumps(obj, separators=(",", ":")) + "\n"
    if kind == "den0":
        return json.dumps(with_field(obj, ("ratio", "den"), "0"), separators=(",", ":"))
    return line[:-1] + draw(st.sampled_from(["\r\n", "\x0b", " ", "\n\n", " \n"]))


@given(line_variants())
def test_scan_records_matches_json_loads_on_record_lines(line):
    assert scanned(line) == reference_scan(line)


@given(st.lists(line_variants(), min_size=2, max_size=8))
def test_scan_records_of_many_lines_matches_each_line_alone(lines):
    """A template line may take the seed and ratio read for the line before
    it; the records and errors are still those of each line on its own."""
    items = list(scan_records(lines))
    assert [n for n, _ in items] == list(range(1, len(lines) + 1))
    got = [(type(x), str(x)) if isinstance(x, Exception) else x for _, x in items]
    assert got == [scanned(line) for line in lines]


@pytest.mark.parametrize(
    "path", [("seed", 0), ("ratio", "num"), ("ratio", "den"), ("uv", 1), ("taxicab",)]
)
def test_scan_records_words_a_field_too_long_for_int_after_a_line_of_its_seed_as_from_json(path):
    line = encode([r for r in FOUND_RECORDS if r.taxicab][:1])
    bad = json.dumps(with_field(json.loads(line), path, "9" * 5000), separators=(",", ":")) + "\n"
    items = list(scan_records([line, bad, line]))
    assert [type(x) for _, x in items] == [SolutionRecord, ValueError, SolutionRecord]
    assert (ValueError, str(items[1][1])) == reference_scan(bad)
    assert items[0][1] == items[2][1]


@pytest.mark.parametrize("ratio", [("4", "1"), ("6", "2"), ("3", "0"), ("007", "1")])
def test_scan_records_reads_the_ratio_of_each_template_line_of_one_seed(ratio):
    line = encode(FOUND_RECORDS[:1])
    obj = json.loads(line)
    assert obj["ratio"] == {"num": "3", "den": "1"}
    other = json.dumps({**obj, "ratio": dict(zip(("num", "den"), ratio))}, separators=(",", ":")) + "\n"
    lines = [line, other, line, other]
    got = [(type(x), str(x)) if isinstance(x, Exception) else x for _, x in scan_records(lines)]
    assert got == [scanned(x) for x in lines]


def test_scan_records_reads_encoder_lines_only_without_json_loads(monkeypatch):
    line = encode(FOUND_RECORDS[:1])
    loads, read = search.json.loads, []
    monkeypatch.setattr(search.json, "loads", lambda text: read.append(text) or loads(text))
    assert scanned(line) == scanned(line[:-1]) == FOUND_RECORDS[0]
    assert read == []
    for other in (line[:-1] + "\r\n", line[:-1] + " ", line[:-1] + "\x0b", " " + line, line + "\n"):
        read.clear()
        assert scanned(other) == reference_scan(other)
        assert read[:1] == [other]


RELATION_RECORDS = list(
    run_search(config([(1, 6, 8, 9)], u=(-6, 6), v=(0, 0), modes=(QMode(1, 2), FMode(2))))
)

nonzero_quads = st.tuples(*[st.one_of(st.integers(-50, 50), big).filter(bool)] * 4)


@st.composite
def consistent_records(draw):
    """A found record, cubic or relation, with its ``raw`` replaced by any
    nonzero tuple and ``reduced``, ``content`` and ``taxicab`` derived from
    it: every field agrees with ``raw`` and the seed's own ratio, but
    ``raw`` need not solve the cubic equation."""
    record = draw(st.sampled_from(FOUND_RECORDS + RELATION_RECORDS))
    raw = draw(nonzero_quads)
    reduced, content = canonicalize(raw)
    return record._replace(raw=raw, reduced=reduced, content=content, taxicab=detect_taxicab(reduced))


def test_scan_records_reads_relation_records_as_json_loads_does():
    assert {r.uv[1] for r in RELATION_RECORDS} == {0} and len(RELATION_RECORDS) > 4
    lines = encode(RELATION_RECORDS).splitlines(keepends=True)
    assert [scanned(line) for line in lines] == RELATION_RECORDS
    assert [reference_scan(line) for line in lines] == RELATION_RECORDS


@given(consistent_records())
def test_scan_records_refuses_a_consistent_line_whose_raw_is_no_solution(record):
    x1, x2, x3, x4 = record.reduced
    assume(x1**3 + x2**3 + x3**3 != x4**3)
    line = encode([record])
    assert scanned(line) == reference_scan(line)
    error, message = scanned(line)
    assert error is ValueError and message.endswith("fails the cubic equation")
