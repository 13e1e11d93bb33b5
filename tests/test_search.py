import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersum_forge import search
from powersum_forge.cubic import CubicQuadruple
from powersum_forge.polynomials import Polynomial
from powersum_forge.relations import FMode, PolyIdentity, QMode
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


def config(seeds, u=(-5, 5), v=(-5, 5), **kw):
    return SearchConfig(
        seeds=tuple(CubicQuadruple(*s) for s in seeds),
        u_range=u,
        v_range=v,
        **kw,
    )


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


def test_search_evaluates_lazily_on_large_grid(monkeypatch):
    calls = 0
    evaluate_forms = search.evaluate_forms

    def counted(*args):
        nonlocal calls
        calls += 1
        return evaluate_forms(*args)

    monkeypatch.setattr(search, "evaluate_forms", counted)
    cfg = config([(1, 6, 8, 9)], u=(-500, 500), v=(-500, 500))
    records = run_search(cfg, threads=8)
    next(records)
    records.close()
    assert 1 <= calls <= 1001  # at most one u-stripe of the 1001 x 1001 grid


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
    obj = record.to_json()
    obj["reduced"] = ["-10", "1", "12", "10"]
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_records(path)
    obj = record.to_json()
    obj["taxicab"] = "1730"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="taxicab"):
        load_records(path)


def test_scan_records_reports_each_bad_line_and_goes_on():
    good = json.dumps(next(run_search(config([(1, 6, 8, 9)], u=(1, 1), v=(2, 2)))).to_json())
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
    obj = next(run_search(config([(1, 6, 8, 9)], u=(1, 1), v=(2, 2)))).to_json()
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
