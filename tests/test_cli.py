import contextlib
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powersum_forge
from powersum_forge import cli, forks, search
from powersum_forge.cli import main
from powersum_forge.cubic import CubicQuadruple
from powersum_forge.search import SearchConfig, SearchStats, run_search, scan_records, write_records

from goldens import EQ6_LATEX, EQ19_LATEX, EQ24_QUARTICS, TABLE1, squash
from test_forks import no_child_process
from test_search import line_vanishing_family, ray_vanishing_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bernoulli_json(capsys):
    obj = run_json(capsys, "bernoulli", "12")
    assert obj == {"k": 12, "value": {"num": "-691", "den": "2730"}}


def test_bernoulli_latex(capsys):
    code, out, _ = run(capsys, "bernoulli", "12", "--latex")
    assert code == 0
    assert out == "B_{12} = -\\frac{691}{2730}"


def test_faulhaber_table_golden(capsys):
    obj = run_json(capsys, "faulhaber", "5")
    terms = {int(t["exp"]): (int(t["num"]), int(t["den"])) for t in obj["polynomial"]["terms"]}
    expected = {d: (c.numerator, c.denominator) for d, c in TABLE1[5].items()}
    assert terms == expected


def test_faulhaber_latex(capsys):
    code, out, _ = run(capsys, "faulhaber", "5", "--latex")
    assert out == "S_5 = \\frac{1}{6}n^6 + \\frac{1}{2}n^5 + \\frac{5}{12}n^4 - \\frac{1}{12}n^2"


def test_combo_square_latex(capsys):
    code, out, _ = run(capsys, "combo", "square", "2", "--latex")
    assert code == 0
    assert out == "\\frac{1}{3}S_3 + \\frac{2}{3}S_5"


def test_combo_product_json(capsys):
    obj = run_json(capsys, "combo", "product", "1", "2")
    assert obj["combo"]["terms"] == [
        {"exp": 2, "num": "1", "den": "6"},
        {"exp": 4, "num": "5", "den": "6"},
    ]


def test_combo_arity_error(capsys):
    code, _, err = run(capsys, "combo", "product", "1")
    assert code == 2
    assert "argument" in err


@pytest.mark.parametrize("argv", [["product", "0", "0"], ["product", "0", "3"], ["square", "0"]])
def test_combo_exponent_zero_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "combo", *argv)
    assert code == 2 and out == ""
    assert err == "error: product of power sums requires exponents >= 1"


def test_sandor_reduce_json(capsys):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    assert obj["content"] == "3"
    assert obj["q"][0] == {"alpha": "3", "beta": "15", "gamma": "-8"}
    assert obj["seed"] == [1, 6, 8, 9]


def test_sandor_latex_golden(capsys):
    code, out, _ = run(capsys, "sandor", "1", "6", "8", "9", "--reduce", "--latex")
    assert squash(out) == squash(EQ6_LATEX)


def test_sandor_subst(capsys):
    obj = run_json(capsys, "sandor", "3", "4", "5", "6", "--reduce", "--subst", "1/2,0,0,1")
    assert obj["q"][0] == {"alpha": "3", "beta": "5", "gamma": "-5"}


@pytest.mark.parametrize("matrix", ["1_0,0,0,1", "\u0661,0,0,1", "1/2,0,0,1 1", "1 /2,0,0,1"])
def test_sandor_subst_needs_plain_ascii_entries(capsys, matrix):
    code, out, err = run(capsys, "sandor", "3", "4", "5", "6", "--reduce", "--subst", matrix)
    assert code == 2 and out == ""
    assert err == f"error: bad matrix entries {matrix!r}"


def test_sandor_subst_allows_spaces_around_commas(capsys):
    obj = run_json(capsys, "sandor", "3", "4", "5", "6", "--reduce", "--subst", " 1/2 , 0,0 ,1")
    assert obj["q"][0] == {"alpha": "3", "beta": "5", "gamma": "-5"}


def test_sandor_invalid_seed(capsys):
    code, _, err = run(capsys, "sandor", "1", "1", "1", "1")
    assert code == 2
    assert "invalid seed" in err


def test_relation_eq19(capsys):
    obj = run_json(capsys, "relation", "--seed", "1,6,8,9", "--mode", "Q:1,2")
    assert obj["common_factor"] == {"num": "1", "den": "6"}
    first = {int(t["exp"]): int(t["num"]) for t in obj["combos"][0]["terms"]}
    assert first == {2: 15, 3: 2, 4: 75, 5: -32}


def test_relation_eq19_latex(capsys):
    code, out, _ = run(capsys, "relation", "--seed", "1,6,8,9", "--mode", "Q:1,2", "--latex")
    assert squash(out) == squash(EQ19_LATEX)


def test_relation_expand_factor(capsys):
    obj = run_json(
        capsys, "relation", "--seed", "1,8,6,9", "--mode", "F:2", "--expand", "--factor"
    )
    assert obj["expanded"]["scale"] == {"num": "12", "den": "1"}
    quartics = tuple(
        {int(t["exp"]): int(t["num"]) for t in poly["terms"]} for poly in obj["factored"]["p"]
    )
    assert quartics == EQ24_QUARTICS
    divisor = {int(t["exp"]): int(t["num"]) for t in obj["factored"]["divisor"]["terms"]}
    assert divisor == {2: 1, 3: 2, 4: 1}


def test_relation_bad_mode(capsys):
    code, _, err = run(capsys, "relation", "--seed", "1,6,8,9", "--mode", "Z:9")
    assert code == 2


@pytest.mark.parametrize("seed", ["\u0661,6,8,9", "1,6,8,9\u0669", "1_0,6,8,9", "1,6,8,9.0"])
def test_relation_seed_needs_ascii_integers(capsys, seed):
    code, out, err = run(capsys, "relation", "--seed", seed, "--mode", "Q:1,2")
    assert code == 2 and out == ""
    assert err == f"error: --seed needs integers, got {seed!r}"


def test_relation_seed_allows_spaces_around_commas(capsys):
    obj = run_json(capsys, "relation", "--seed", " 1, 6 ,8,+9", "--mode", "Q:1,2")
    assert obj["common_factor"] == {"num": "1", "den": "6"}


def test_relation_mode_with_a_non_ascii_digit_is_usage_error(capsys):
    code, _, err = run(capsys, "relation", "--seed", "1,6,8,9", "--mode", "F:\u0663")
    assert code == 2
    assert err == "error: malformed relation mode 'F:\u0663'"


def test_verify_roundtrip(capsys, tmp_path):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    path = tmp_path / "family.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_detects_corruption(capsys, tmp_path):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    obj["q"][0]["gamma"] = "-7"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["verified"] is False


@pytest.mark.parametrize("seed", [0, [], "", False, {}])
def test_verify_refuses_a_form_file_whose_seed_is_malformed(capsys, tmp_path, seed):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**obj, "seed": seed}), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: field 'seed' must be a list of 4 integers, got {seed!r}"


def test_verify_form_file_with_a_null_seed_skips_the_characterization(capsys, tmp_path):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**obj, "seed": None}), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out) == {"file": str(path), "identity": "cubic", "verified": True}


def test_verify_jsonl(capsys, tmp_path):
    cfg = {
        "seeds": [[1, 6, 8, 9]],
        "u_range": [-3, 3],
        "v_range": [-3, 3],
        "output": str(tmp_path / "out.jsonl"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    summary = run_json(capsys, "search", "--config", str(cfg_path))
    assert summary["records"] > 0
    code, out, _ = run(capsys, "verify", str(tmp_path / "out.jsonl"))
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True and report["records"] == summary["records"]


def test_search_stdout_mode(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "search", "--config", str(cfg_path))
    assert code == 0
    record = json.loads(out.splitlines()[0])
    assert record["raw"] == ["1", "12", "-10", "9"]
    assert record["taxicab"] == "1729"
    assert json.loads(err)["records"] == 1


def test_search_stdout_matches_output_file(capsys, tmp_path):
    cfg = {
        "seeds": [[1, 6, 8, 9], [3, 4, 5, 6]],
        "u_range": [-5, 5],
        "v_range": [-5, 5],
        "modes": ["cubic", "Q:1,2", "F:2"],
    }
    assert main(["search", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.err)
    out_path = tmp_path / "out.jsonl"
    cfg["output"] = str(out_path)
    assert main(["search", "--config", write_config(tmp_path, cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert captured.out and captured.out == out_path.read_text(encoding="utf-8")
    assert report == {"output": str(out_path), **summary}


@pytest.mark.parametrize("dedupe", [True, False])
def test_search_writes_the_bytes_of_write_records(capsys, tmp_path, dedupe):
    cfg = {
        "seeds": [[1, 6, 8, 9], [3, 4, 5, 6], [1, 8, 6, 9]],
        "u_range": [-7, 5],
        "v_range": [-4, 6],
        "modes": ["cubic", "Q:1,2", "F:2"],
        "dedupe": dedupe,
    }
    stats = SearchStats()
    expected = io.StringIO()
    write_records(run_search(SearchConfig.from_dict(cfg), stats), expected)
    summary = {
        "records": stats.emitted,
        "evaluated": stats.evaluated,
        "degenerate": stats.degenerate,
        "duplicates": stats.duplicates,
    }
    assert main(["search", "--config", write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected.getvalue()
    assert json.loads(captured.err) == summary
    out_path = tmp_path / "out.jsonl"
    cfg["output"] = str(out_path)
    assert main(["search", "--config", write_config(tmp_path, cfg)]) == 0
    assert out_path.read_bytes() == expected.getvalue().encode()
    assert json.loads(capsys.readouterr().out) == {"output": str(out_path), **summary}


@pytest.mark.parametrize("text", ["0", "-3", "-0"])
def test_search_threads_below_one_is_usage_error(capsys, tmp_path, text):
    cfg = write_config(tmp_path, {"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1]})
    with pytest.raises(SystemExit) as exc:
        main(["search", "--config", cfg, "--threads", text])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument --threads: must be at least 1, got {text!r}" in captured.err


def test_search_into_closed_stdout_exits_1_without_traceback(tmp_path):
    # about 800 KB of records, far more than a pipe buffers
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [-60, 60], "v_range": [-60, 60]}
    src = str(Path(powersum_forge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "powersum_forge", "search", "--config", write_config(tmp_path, cfg)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(16)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize("argv", [["quadruple", "2"], ["triple", "1", "3"], ["equal-sums", "3"]])
def test_degenerate_outside_piezas_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "quad", *argv, "--degenerate", "5")
    assert code == 2 and out == ""
    assert err == "error: --degenerate applies to the piezas construction"


def test_quad_piezas(capsys):
    obj = run_json(capsys, "quad", "piezas", "2", "3", "6", "7")
    assert obj["identity"] == "square"
    assert obj["q"][0] == {"alpha": "2", "beta": "-14", "gamma": "2"}


def test_quad_degenerate_triple_latex(capsys):
    code, out, _ = run(
        capsys, "quad", "piezas", "8", "9", "12", "17", "--degenerate", "15", "--latex"
    )
    assert out == (
        "(8u^2 - 34uv + 8v^2)^2 + (15u^2 - 15v^2)^2 = (17u^2 - 16uv + 17v^2)^2"
    )


def test_quad_quadruple_display(capsys):
    code, out, _ = run(capsys, "quad", "quadruple", "2", "--latex")
    assert out == "(3S_2)^2 + (3 + 3S_2)^2 + (3S_2 + S_3 + 2S_5)^2 = (3 + 3S_2 + S_3 + 2S_5)^2"


def test_quad_triple_eval(capsys):
    obj = run_json(capsys, "quad", "triple", "1", "3", "--eval", "2")
    a, b, c = (int(x) for x in obj["values"])
    assert a * a + b * b == c * c
    assert obj["common_factor"] == {"num": "1", "den": "2"}


def test_quad_equal_sums(capsys):
    obj = run_json(capsys, "quad", "equal-sums", "17")
    assert obj["lhs"] == ["32", "69"]
    assert obj["rhs"] == ["36", "67"]
    code, out, _ = run(capsys, "quad", "equal-sums", "17", "--latex")
    assert out == "32^2 + 69^2 = 36^2 + 67^2"


def test_quad_arity_error(capsys):
    code, _, err = run(capsys, "quad", "triple", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["piezas", "2", "3", "6"], "quad piezas takes 4 integer argument(s)"),
        (["quadruple", "2", "3"], "quad quadruple takes 1 integer argument(s)"),
        (["triple", "1", "3", "5"], "quad triple takes 2 integer argument(s)"),
        (["equal-sums", "1", "2", "--eval", "3"], "quad equal-sums takes 1 integer argument(s)"),
    ],
)
def test_quad_arity_error_names_the_construction(capsys, argv, message):
    code, out, err = run(capsys, "quad", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}"


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_search_guardrail_cli(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"seeds": [[1, 6, 8, 9]], "u_range": [0, 100000], "v_range": [0, 1000]}
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "search", "--config", str(cfg_path))
    assert code == 2
    assert "guardrail" in err


def write_config(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [1], "v_range": [0, 1]}, "u_range"),
        ({"seeds": 1689, "u_range": [0, 1], "v_range": [0, 1]}, "seeds"),
        ([], "JSON object"),
        ({"seeds": [[1, 6, 8, 9.9]], "u_range": [0, 1], "v_range": [0, 1]}, "seeds[0][3]"),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0.5, 2.7], "v_range": [0, 1]}, "u_range[0]"),
        (
            {"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "dedupe": "false"},
            "dedupe",
        ),
        ({"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "force": "yes"}, "force"),
    ],
)
def test_search_malformed_config_is_usage_error(capsys, tmp_path, obj, field):
    code, _, err = run(capsys, "search", "--config", write_config(tmp_path, obj))
    assert code == 2
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


def test_verify_single_record_jsonl(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
    code, out, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    assert code == 0 and len(out.splitlines()) == 1
    path = tmp_path / "one.jsonl"
    path.write_text(out + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out) == {"file": str(path), "records": 1, "verified": True, "failures": []}


def test_verify_pretty_printed_sandor_output(capsys, tmp_path):
    code, out, _ = run(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    assert code == 0 and len(out.splitlines()) > 1
    path = tmp_path / "family.json"
    path.write_text(out + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "cubic" and report["characterization"] is True


def test_verify_compact_one_line_form_file(capsys, tmp_path):
    obj = run_json(capsys, "quad", "piezas", "2", "3", "6", "7")
    path = tmp_path / "square.json"
    path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["identity"] == "square"


@pytest.mark.parametrize("padding,after", [(0, "record"), (0, "form"), (cli._BLOCK_BYTES, "record")])
def test_verify_reads_every_line_after_a_one_line_form(capsys, tmp_path, padding, after):
    form = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    lines = [json.dumps({**form, "pad": "x" * padding} if padding else form)]
    if after == "form":
        lines.append(json.dumps(form))
    else:
        cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
        _, good, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
        lines.append(json.dumps({**json.loads(good), "content": "2"}))  # it is 1
    path = tmp_path / "form-then-more.json"
    path.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run(capsys, "verify", str(path))
    report = json.loads(out)
    assert code == 1 and report["records"] == 2 and len(report["failures"]) == 2
    assert report["failures"][0].startswith("line 1: ")
    if after == "record":
        assert report["failures"][1] == (
            "line 2: raw tuple (1, 12, -10, 9) canonicalizes to (-10, 1, 12, 9) content 1, "
            "record says (-10, 1, 12, 9) content 2"
        )


def test_verify_jsonl_reports_bad_lines(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
    _, good, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    bad_uv = json.dumps({**json.loads(good), "uv": [1.5, 2]})
    path = tmp_path / "mixed.jsonl"
    path.write_text(f"not json\n{good}\n[1]\n{bad_uv}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["records"] == 4
    assert [f.split(":")[0] for f in report["failures"]] == ["line 1", "line 3", "line 4"]
    assert "uv[0]" in report["failures"][2]


@pytest.mark.parametrize(
    "key,value",
    [("content", "0_1"), ("reduced", [" -10 ", "1", "12", "9"]), ("uv", ["\u0661", "2"])],
)
def test_verify_jsonl_refuses_integer_strings_int_would_trim(capsys, tmp_path, key, value):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
    _, good, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    path = tmp_path / "loose.jsonl"
    path.write_text(json.dumps({**json.loads(good), key: value}) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["records"] == 1
    assert len(report["failures"]) == 1 and report["failures"][0].startswith("line 1:")
    assert key in report["failures"][0]


def test_verify_jsonl_refuses_a_record_with_a_zero_entry(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
    _, good, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    degenerate = {
        "seed": ["1", "6", "8", "9"],
        "uv": ["0", "0"],
        "raw": ["2", "-2", "0", "0"],
        "reduced": ["-1", "0", "1", "0"],
        "content": "2",
        "ratio": {"num": "3", "den": "1"},
        "taxicab": None,
    }
    path = tmp_path / "degenerate.jsonl"
    path.write_text(f"{good}\n{json.dumps(degenerate)}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["records"] == 2
    assert len(report["failures"]) == 1
    assert report["failures"][0].startswith("line 2:") and "zero entry" in report["failures"][0]


FORM = {"alpha": "1", "beta": "0", "gamma": "2"}


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"q": []}, "'q'"),
        ({"q": [{"alpha": "1"}]}, "'q'"),
        ({"q": [{"alpha": "1", "gamma": "2"}] * 4}, "q[0] has no 'beta'"),
        ({"q": [{"alpha": "1", "beta": "x", "gamma": "2"}] * 4}, "q[0].beta"),
        ({"q": [1, 2, 3, 4]}, "q[0]"),
        ({"q": [FORM] * 4, "seed": "1689"}, "'seed'"),
        ({"q": [FORM] * 4, "seed": [1, 6, "x", 9]}, "seed[2]"),
    ],
)
def test_verify_malformed_form_file_is_usage_error(capsys, tmp_path, obj, field):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize("identity", [["x"], "Cubic", "", None, 3])
def test_verify_form_file_with_an_unknown_identity_is_usage_error(capsys, tmp_path, identity):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    path = tmp_path / "forms.json"
    path.write_text(json.dumps({**obj, "identity": identity}), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "'identity'" in err


def test_verify_form_file_without_an_identity_is_cubic(capsys, tmp_path):
    obj = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
    del obj["identity"]
    path = tmp_path / "forms.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["identity"] == "cubic"


DEGENERATE_PIEZAS = ("quad", "piezas", "8", "9", "12", "17", "--degenerate", "15")


@pytest.mark.parametrize("indent", [2, None])
def test_verify_proves_the_degenerate_piezas_triple(capsys, tmp_path, indent):
    obj = run_json(capsys, *DEGENERATE_PIEZAS)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(obj, indent=indent), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"file": str(path), "identity": "pythagorean-triple", "verified": True}


@pytest.mark.parametrize("form,key", [(0, "alpha"), (1, "gamma"), (2, "beta")])
def test_verify_fails_a_degenerate_piezas_triple_with_a_moved_coefficient(capsys, tmp_path, form, key):
    obj = run_json(capsys, *DEGENERATE_PIEZAS)
    obj["q"][form][key] = str(int(obj["q"][form][key]) + 1)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out) == {"file": str(path), "identity": "pythagorean-triple", "verified": False}


@pytest.mark.parametrize("forms", [4, 2, 0])
def test_verify_degenerate_piezas_triple_needs_three_forms(capsys, tmp_path, forms):
    obj = run_json(capsys, *DEGENERATE_PIEZAS)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({**obj, "q": (obj["q"] * 2)[:forms]}), encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: field 'q' must be a list of 3 forms"


def test_verify_degenerate_piezas_triple_reads_neither_seed_nor_e(capsys, tmp_path):
    obj = run_json(capsys, *DEGENERATE_PIEZAS)
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({**obj, "seed": "x", "e": 1.5}), encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["verified"] is True


def test_verify_jsonl_reports_a_line_that_is_not_utf8_and_reads_on(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [-1, 1], "v_range": [1, 3], "dedupe": False}
    _, out, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    lines = out.encode().split(b"\n")
    assert len(lines) == 9
    lines[3] = lines[3].replace(b",", b"\xff", 1)
    path = tmp_path / "bytes.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["records"] == 9
    assert len(report["failures"]) == 1 and report["failures"][0].startswith("line 4:")


def test_search_config_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "x": "\xff"}')
    code, out, err = run(capsys, "search", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read search config {path}")


# deeper than any recursion limit, so json.loads raises RecursionError
DEEP = "[" * 200_000


def test_verify_deeply_nested_line_fails_on_its_line(capsys, tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text(DEEP + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["records"] == 1 and report["verified"] is False
    assert report["failures"][0].startswith("line 1: maximum recursion depth exceeded")


def test_verify_deeply_nested_line_after_a_good_record(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2]}
    _, good, _ = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    path = tmp_path / "deep.jsonl"
    path.write_text(f"{good}\n{DEEP}\n{good}\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["records"] == 3 and len(report["failures"]) == 1
    assert report["failures"][0].startswith("line 2: maximum recursion depth exceeded")


def test_search_deeply_nested_config_is_usage_error(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(DEEP, encoding="utf-8")
    code, out, err = run(capsys, "search", "--config", str(path))
    assert code == 2 and out == ""
    assert err == f"error: search config {path} nests too deeply to read"


@pytest.mark.parametrize("output", [5, ["out.jsonl"], True])
def test_search_non_string_output_is_usage_error(capsys, tmp_path, output):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [1, 1], "v_range": [2, 2], "output": output}
    code, _, err = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert err.startswith("error:") and "'output'" in err


# --- fuzzing: malformed inputs never escape as exceptions -----------------------

# Small numbers only: a well-formed config must stay a tiny search.
fuzz_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.floats(-4, 4, allow_nan=False),
    st.text(alphabet="abx:,-1", max_size=4),
)
fuzz_value = st.one_of(fuzz_scalar, st.lists(fuzz_scalar, max_size=3))
fuzz_form = st.one_of(
    fuzz_value,
    st.fixed_dictionaries({"alpha": fuzz_value, "beta": fuzz_value, "gamma": fuzz_value}),
    st.dictionaries(st.sampled_from(["alpha", "beta", "gamma", "delta"]), fuzz_value, max_size=4),
)
fuzz_form_file = st.fixed_dictionaries(
    {"q": st.one_of(fuzz_value, st.lists(fuzz_form, max_size=6))},
    optional={
        "seed": st.one_of(
            fuzz_value, st.sampled_from([[1, 6, 8, 9], [2, 3, 6, 7], ["1", "6", "8", "9"]])
        ),
        "identity": st.sampled_from(["cubic", "square", 3, None]),
    },
)
fuzz_range = st.one_of(fuzz_value, st.lists(st.integers(-3, 3), min_size=2, max_size=2))
fuzz_seeds = st.one_of(
    fuzz_value,
    st.lists(st.one_of(fuzz_value, st.sampled_from([[1, 6, 8, 9], [3, 4, 5, 6]])), max_size=3),
)
fuzz_modes = st.one_of(
    fuzz_value,
    st.lists(
        st.sampled_from(["cubic", "Q:1,2", "F:2", "Q:0,1", "F:x", "Z:1", 3, None, []]), max_size=3
    ),
)
fuzz_fields = {
    "seeds": fuzz_seeds,
    "u_range": fuzz_range,
    "v_range": fuzz_range,
    "modes": fuzz_modes,
    "dedupe": fuzz_scalar,
    # a string output is always redirected into the test's own directory
    "output": st.one_of(fuzz_value, st.sampled_from(["OUT", "MISSING"])),
}
VALID_CONFIG = {
    "seeds": [[1, 6, 8, 9]],
    "u_range": [-2, 2],
    "v_range": [-2, 2],
    "modes": ["cubic", "F:2"],
}
fuzz_config = st.one_of(
    fuzz_value,
    # a valid config with one field replaced
    st.sampled_from(sorted(fuzz_fields)).flatmap(
        lambda name: fuzz_fields[name].map(lambda value: {**VALID_CONFIG, name: value})
    ),
    # any subset of the fields
    st.fixed_dictionaries({}, optional=fuzz_fields),
)


def run_quietly(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=150, deadline=None)
@given(doc=fuzz_form_file)
def test_fuzz_verify_form_files(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "forms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_quietly("verify", str(path)) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(cfg=fuzz_config)
def test_fuzz_search_configs(tmp_path_factory, cfg):
    directory = tmp_path_factory.mktemp("fuzz")
    if isinstance(cfg, dict) and isinstance(cfg.get("output"), str):
        name = "missing/out.jsonl" if cfg["output"] == "MISSING" else "out.jsonl"
        cfg["output"] = str(directory / name)
    path = directory / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_quietly("search", "--config", str(path)) in (0, 1, 2)


# --- the verify report of a file mixing good and bad record lines ---------------


def mixed_jsonl() -> str:
    """Good record lines interleaved with one line of every kind ``verify`` must
    refuse, and lines in other JSON spellings of a good record."""
    cfg = SearchConfig(
        seeds=(CubicQuadruple(1, 6, 8, 9), CubicQuadruple(8, 1, 6, 9)),
        u_range=(-2, 2),
        v_range=(-2, 2),
    )
    buf = io.StringIO()
    write_records(run_search(cfg), buf)
    good = buf.getvalue().splitlines()
    obj = json.loads(good[0])
    other = next(json.loads(line) for line in good if json.loads(line)["seed"][0] == "8")
    tagged = next(json.loads(line) for line in good if json.loads(line)["taxicab"])

    def line(**fields):
        return json.dumps({**obj, **fields}, separators=(",", ":"))

    def numbers(o):
        if isinstance(o, dict):
            return {k: numbers(v) for k, v in o.items()}
        if isinstance(o, list):
            return [numbers(v) for v in o]
        return o if o is None else int(o)

    variants = [
        json.dumps(obj),  # default separators
        json.dumps(numbers(obj)),  # JSON numbers
        json.dumps(dict(reversed(list(obj.items())))),  # other key order
        line(seed=["+1", "6", "8", "9"]),
        line(uv=["007", "-0"]),
        line(content="٣"),  # an Arabic-Indic digit
        good[1] + "\r",
        good[1] + "\x0b",
        good[1] + " ",
        line(uv=["9" * 5000, "1"]),
        line(ratio={"num": "3", "den": "0"}),
        line(ratio={"num": "6", "den": "2"}),
        line(ratio={"num": "4", "den": "1"}),
        line(seed=["1", "6", "8", "10"]),
        line(seed=["1", "6", "8"]),
        line(seed=[1.0, 6, 8, 9]),
        line(seed=[True, 6, 8, 9]),
        line(uv=[1.5, 2]),
        line(content="0_1"),
        line(reduced=[" -10 ", "1", "12", "9"]),
        line(raw=["2", "-2", "0", "0"]),
        line(reduced=["1", "2", "3", "4"]),
        line(content="2"),
        line(taxicab="1729"),
        json.dumps({**tagged, "taxicab": None}),
        json.dumps({**tagged, "taxicab": int(tagged["taxicab"])}),
        line(seed=["\\u0031", "6", "8", "9"]).replace("\\\\", "\\"),
        json.dumps({k: v for k, v in obj.items() if k != "raw"}),
        json.dumps(other),
        "not json",
        "[1]",
        "",
        "{}",
        '{"seed":["1","6","8","9"]} trailing',
    ]
    lines = [x for pair in itertools.zip_longest(good, variants) for x in pair if x is not None]
    return "\n".join(lines) + "\n"


def test_verify_report_of_a_mixed_file_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("mixed.jsonl").write_text(mixed_jsonl(), encoding="utf-8")
    code = main(["verify", "mixed.jsonl"])
    out = capsys.readouterr().out
    # recorded before record lines were decoded by a pattern
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e5cf71ddd898170da240b1599477fea1b4e0b0114950421e358592a631f5fca"
    )


#: One command line per kind of integer argument, with ``{}`` where the integer goes.
INTEGER_ARGUMENTS = {
    "k": ["bernoulli", "{}"],
    "args": ["combo", "product", "2", "{}"],
    "a..d": ["sandor", "1", "6", "8", "{}"],
    "values": ["quad", "quadruple", "{}"],
    "--degenerate": ["quad", "piezas", "12", "3", "4", "13", "--degenerate", "{}"],
    "--eval": ["quad", "quadruple", "2", "--eval", "{}"],
    "--threads": ["search", "--config", "search.json", "--threads", "{}"],
}


@pytest.mark.parametrize("text", ["\u0661_\u0662", " 3 ", "1_2", "3.0", "", "+"])
@pytest.mark.parametrize("kind", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_need_ascii_digits(capsys, kind, text):
    """Every integer argument is an optional sign and ASCII digits, as json_int reads it."""
    argv = [a.replace("{}", text) for a in INTEGER_ARGUMENTS[kind]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"invalid integer value: {text!r}" in captured.err


@pytest.mark.parametrize("kind", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_take_a_sign(capsys, monkeypatch, tmp_path, kind):
    """A leading ``+`` still parses; the call then runs as with the bare digits."""
    monkeypatch.chdir(tmp_path)
    config = {"seeds": [[1, 6, 8, 9]], "u_range": [-2, 2], "v_range": [-2, 2]}
    (tmp_path / "search.json").write_text(json.dumps(config), encoding="utf-8")
    argv = INTEGER_ARGUMENTS[kind]
    value = {"a..d": "9", "--degenerate": "5"}.get(kind, "2")
    results = []
    for text in ("+" + value, value):
        code = main([a.replace("{}", text) for a in argv])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        results.append((captured.out, captured.err))
    assert results[0] == results[1]


def test_bernoulli_arabic_indic_digits_exit_2_from_the_shell():
    proc = subprocess.run(
        [sys.executable, "-m", "powersum_forge", "bernoulli", "\u0661_\u0662"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


RELATION_ARGV = ["relation", "--seed", "1,6,8,9", "--mode", "Q:15,20"]


@pytest.mark.parametrize("flags", [[], ["--expand"], ["--factor"], ["--expand", "--factor"]])
def test_relation_without_latex_renders_no_latex(capsys, monkeypatch, flags):
    expected = run(capsys, *RELATION_ARGV, *flags)

    def refuse(*args, **kwargs):
        raise AssertionError("LaTeX rendered without --latex")

    monkeypatch.setattr(powersum_forge.render, "poly_identity_latex", refuse)
    monkeypatch.setattr(powersum_forge.render, "combo_quadruple_latex", refuse)
    assert expected[0] == 0
    assert run(capsys, *RELATION_ARGV, *flags) == expected


@pytest.mark.parametrize("flags", [[], ["--expand"], ["--factor"], ["--expand", "--factor"]])
def test_relation_latex_prints_the_last_stage(capsys, flags):
    from powersum_forge import render
    from powersum_forge.cubic import content_reduce, sandor_generate
    from powersum_forge.relations import (
        build_relation,
        expand_relation,
        factor_common_root,
        parse_mode,
    )

    family, _ = content_reduce(sandor_generate(CubicQuadruple(1, 6, 8, 9)))
    cq = build_relation(family, parse_mode("Q:15,20"))
    if "--factor" in flags:
        expected = render.poly_identity_latex(factor_common_root(expand_relation(cq))[0])
    elif flags:
        expected = render.poly_identity_latex(expand_relation(cq))
    else:
        expected = render.combo_quadruple_latex(cq)
    code, out, _ = run(capsys, *RELATION_ARGV, *flags, "--latex")
    assert code == 0 and out == expected.strip()


def test_search_config_with_empty_output_is_usage_error(capsys, tmp_path):
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [0, 1], "v_range": [0, 1], "output": ""}
    code, out, err = run(capsys, "search", "--config", write_config(tmp_path, cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'output'" in err
    assert "Traceback" not in err


# --- verify in newline-aligned blocks, serially or on a pool ------------------------


def serial_verify(path: str) -> tuple[int, str]:
    """``verify``'s exit code and stdout for a JSONL file, from one
    :func:`scan_records` pass over the whole file opened as text."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        items = list(scan_records(fh))
    failures = [f"line {lineno}: {item}" for lineno, item in items if isinstance(item, Exception)]
    report = {"file": path, "records": len(items), "verified": not failures, "failures": failures}
    return int(bool(failures)), json.dumps(report, indent=2) + "\n"


def pool_sizes(monkeypatch, cpus: int) -> list[int]:
    """Let this process run on ``cpus`` CPUs; the list returned gets the
    worker count of each fork map that checks blocks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    sizes: list[int] = []
    forked_map = forks.forked_map

    def spy(function, jobs, workers):
        sizes.append(workers)
        return forked_map(function, jobs, workers)

    monkeypatch.setattr(forks, "forked_map", spy)
    return sizes


def boundary_jsonl() -> bytes:
    """Record lines with one line ending at byte 64 and one at byte 4096."""
    good = mixed_jsonl().encode().split(b"\n")[0]
    out = b"x" * 63 + b"\n"
    while len(out) + 2 * (len(good) + 1) <= 4096:
        out += good + b"\n"
    out += good + b" " * (4096 - len(out) - len(good) - 1) + b"\n"
    assert len(out) == 4096
    return out + (good + b"\n") * 3


def verify_files() -> dict[str, bytes]:
    mixed = mixed_jsonl()
    lines = mixed.encode().split(b"\n")
    lines[2] = lines[2].replace(b",", b"\xff", 1)  # a byte that is not UTF-8
    lines[4] += b"\xe2\x82"  # a UTF-8 sequence cut short by the newline
    lines[6] = lines[6].replace(b'"6"', '"é"'.encode(), 1)
    return {
        "mixed": mixed.encode(),
        "crlf": mixed.replace("\n", "\r\n").encode(),
        "lone-cr": mixed.replace("\n", "\r").encode(),
        "blank-lines": ("\n \n" + mixed.replace("\n", "\n\n\t\n")).encode(),
        "not-utf8": b"\n".join(lines),
        "no-final-newline": mixed.rstrip("\n").encode(),
        "block-boundary": boundary_jsonl(),
        "empty": b"",
    }


VERIFY_FILES = sorted(verify_files())


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("block", [1, 7, 64, 4096])
@pytest.mark.parametrize("name", VERIFY_FILES)
def test_verify_in_blocks_reports_as_one_serial_scan(capsys, monkeypatch, tmp_path, name, block, cpus):
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(verify_files()[name])
    expected = serial_verify(str(path))
    sizes = pool_sizes(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", block)
    code = main(["verify", str(path)])
    assert (code, capsys.readouterr().out) == expected
    with path.open("rb") as raw:
        spans = len(list(cli._blocks(raw)))
    assert sizes == ([2] if cpus == 2 and spans > 1 else [])


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_report_of_a_mixed_file_is_pinned_in_tiny_blocks(capsys, tmp_path, monkeypatch, cpus):
    monkeypatch.chdir(tmp_path)
    Path("mixed.jsonl").write_text(mixed_jsonl(), encoding="utf-8")
    sizes = pool_sizes(monkeypatch, cpus)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 7)
    code = main(["verify", "mixed.jsonl"])
    out = capsys.readouterr().out
    assert code == 1 and len(sizes) == cpus - 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e5cf71ddd898170da240b1599477fea1b4e0b0114950421e358592a631f5fca"
    )


def test_verify_in_blocks_leaves_no_worker_and_runs_again(capsys, monkeypatch, tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(mixed_jsonl(), encoding="utf-8")
    sizes = pool_sizes(monkeypatch, 2)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 64)
    reports = []
    for _ in range(2):
        reports.append((main(["verify", str(path)]), capsys.readouterr().out))
        assert no_child_process()
    assert sizes == [2, 2]
    assert reports[0] == reports[1] == serial_verify(str(path))


#: Runs ``verify`` on two CPUs whatever the machine has, then reports
#: whether a child process is left, running or not yet reaped, and the
#: worker count of each fork map that ran.
NO_CHILD_PROBE = """
import os, sys
from powersum_forge import cli, forks
os.sched_getaffinity = lambda pid: {0, 1}
workers = []
forked_map = forks.forked_map
forks.forked_map = lambda function, jobs, n: workers.append(n) or forked_map(function, jobs, n)
code = cli.main(["verify", sys.argv[1]])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child process")
print("workers", workers)
sys.exit(code)
"""


def test_verify_subprocess_leaves_no_process_running(tmp_path):
    cfg = SearchConfig(seeds=(CubicQuadruple(1, 6, 8, 9),), u_range=(-6, 6), v_range=(-6, 6))
    buf = io.StringIO()
    write_records(run_search(cfg), buf)
    path = tmp_path / "large.jsonl"
    copies = 2 * cli._BLOCK_BYTES // len(buf.getvalue()) + 1
    path.write_text(buf.getvalue() * copies, encoding="utf-8")
    assert path.stat().st_size > 2 * cli._BLOCK_BYTES
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # run() returns once stdout is closed, which a worker left running would hold open
    proc = subprocess.run(
        [sys.executable, "-c", NO_CHILD_PROBE, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report, tail = proc.stdout.split("}\n")
    assert json.loads(report + "}")["verified"] is True
    assert tail == "no child process\nworkers [2]\n"


@pytest.mark.parametrize("kind", ["jsonl", "form", "pretty-form"])
def test_verify_reads_a_pipe(capsys, tmp_path, kind):
    if kind == "jsonl":
        data = mixed_jsonl().encode()
    else:
        form = run_json(capsys, "sandor", "1", "6", "8", "9", "--reduce")
        data = json.dumps(form, indent=2 if kind == "pretty-form" else None).encode() + b"\n"
    path = tmp_path / "data"
    path.write_bytes(data)
    code, out, _ = run(capsys, "verify", str(path))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "powersum_forge", "verify", "/dev/stdin"],
        input=data,
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert json.loads(proc.stdout) == {**json.loads(out), "file": "/dev/stdin"}


def test_verify_reads_a_fifo_in_blocks_in_this_process(capsys, monkeypatch, tmp_path):
    data = verify_files()["crlf"]
    regular = tmp_path / "mixed.jsonl"
    regular.write_bytes(data)
    code, out = serial_verify(str(regular))
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    sizes = pool_sizes(monkeypatch, 2)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 7)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert main(["verify", str(fifo)]) == code
    writer.join(timeout=60)
    assert not writer.is_alive()
    expected = json.dumps({**json.loads(out), "file": str(fifo)}, indent=2) + "\n"
    assert capsys.readouterr().out == expected
    assert sizes == []


def test_verify_holds_one_block_of_a_file_with_a_malformed_first_line(capsys, monkeypatch, tmp_path):
    cfg = SearchConfig(seeds=(CubicQuadruple(1, 6, 8, 9),), u_range=(-6, 6), v_range=(-6, 6))
    buf = io.StringIO()
    write_records(run_search(cfg), buf)
    path = tmp_path / "large.jsonl"
    path.write_text("not json\n\n" + buf.getvalue() * ((8 << 20) // len(buf.getvalue())))
    del buf
    size = path.stat().st_size
    pool_sizes(monkeypatch, 1)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        code = main(["verify", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["failures"] == ["line 1: Expecting value: line 1 column 1 (char 0)"]
    assert peak < size // 2


# --- verify's line check against scan_records, line by line ------------------------


def template_line(record) -> str:
    buf = io.StringIO()
    write_records([record], buf)
    return buf.getvalue()


#: Records of 21 distinct seeds, more than the seed cache holds, with
#: points on ``u = 0`` among them.
POOL = [
    record
    for seed in [CubicQuadruple(1, 6, 8, 9).scaled(t) for t in range(1, 21)] + [CubicQuadruple(8, 1, 6, 9)]
    for record in run_search(SearchConfig(seeds=(seed,), u_range=(0, 1), v_range=(1, 2)))
]
POOL_LINES = [template_line(record) for record in POOL]


def consistent_line(raw) -> str:
    """The template line of the first record with ``raw`` and the fields
    the search derives from it: only :func:`verify_record`'s zero and cube
    checks can refuse it."""
    reduced, content = search.canonicalize(raw)
    record = POOL[0]._replace(raw=raw, reduced=reduced, content=content, taxicab=search.detect_taxicab(reduced))
    return template_line(record)


REFUSED_TEMPLATE_LINES = [consistent_line((2, -2, 0, 0)), consistent_line((1, 2, 3, 4))]

#: The fields a record line's template reader reads.
KEY_FIELDS = [*(("seed", i) for i in range(4)), ("uv", 0), ("uv", 1), *(("raw", i) for i in range(4))]

#: Texts of a field that ``int`` reads, or cannot, where the encoder writes none of them.
ODD_TEXTS = ["08", "+8", " 8", "1_0", "\u0668", "9" * 5000, "-0", "007"]


def respelled(line: str, key: str, i: int, text: str) -> str:
    obj = json.loads(line)
    obj[key][i] = text
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n"


def spellings(text: str) -> list[str]:
    """Other texts of the integer ``text`` that ``int`` reads as the same value."""
    sign, digits = ("-", text[1:]) if text.startswith("-") else ("", text)
    odd = [sign + "0" + digits, " " + text, sign + digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]
    odd.append(sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits))
    return odd if sign else odd + ["+" + text]


def line_by_line(lines: list[str]) -> tuple[int, int, list[tuple[int, str]]]:
    """What ``cli._check_block`` gives for ``lines``, from :func:`scan_records`
    run on each line alone."""
    records, failures = 0, []
    for lineno, line in enumerate(lines, start=1):
        for _, item in scan_records([line]):
            records += 1
            if isinstance(item, Exception):
                failures.append((lineno, str(item)))
    return len(lines), records, failures


def verify_output(path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    return code, out.getvalue()


def assert_checked_as_line_by_line(lines: list[str]) -> None:
    """``_check_block`` and ``verify``, in one block in this process and in
    tiny blocks on two forked workers, agree with :func:`line_by_line`,
    which does not change when the template reader refuses every line."""
    expected = line_by_line(lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_encoded_fields", lambda line: None)
        assert line_by_line(lines) == expected
    block = "".join(lines).encode()
    assert cli._check_block(block) == expected
    _, records, failures = expected
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(block)
        messages = [f"line {lineno}: {message}" for lineno, message in failures]
        report = {"file": str(path), "records": records, "verified": not failures, "failures": messages}
        output = int(bool(failures)), json.dumps(report, indent=2) + "\n"
        assert verify_output(path) == output
        sizes = pool_sizes(mp, 2)
        mp.setattr(cli, "_BLOCK_BYTES", 7)
        assert verify_output(path) == output
        with path.open("rb") as raw:
            assert sizes == ([2] if len(list(cli._blocks(raw))) > 1 else [])


def test_verify_checks_odd_texts_evicted_and_alternating_seeds_as_line_by_line():
    by_seed = {record.seed.as_tuple: line for record, line in zip(POOL, POOL_LINES)}
    eights, tens = by_seed[(1, 6, 8, 9)], by_seed[(10, 60, 80, 90)]
    zero_u = next(line for record, line in zip(POOL, POOL_LINES) if record.uv[0] == 0)
    odd = [respelled(eights, "seed", 2, text) for text in ["08", "+8", " 8", "\u0668"]]
    odd += [respelled(tens, "seed", 0, "1_0"), respelled(eights, "seed", 0, "9" * 5000)]
    odd += [respelled(zero_u, "uv", 0, "-0"), respelled(eights, "raw", 0, "007")]
    odd += [respelled(line, "raw", 3, "00" + json.loads(line)["raw"][3]) for line in POOL_LINES[:2]]
    alternating = [line for pair in zip(POOL_LINES[:6], POOL_LINES[-6:]) for line in pair]
    lines = POOL_LINES + POOL_LINES[::-1] + alternating + odd + REFUSED_TEMPLATE_LINES + ["\n", "[1]\n"]
    assert len({line.split("]")[0] for line in POOL_LINES}) == 21
    assert_checked_as_line_by_line(lines)


@st.composite
def verify_lines(draw) -> str:
    """A pool line, one of its key fields spelled otherwise, a template line
    that :func:`verify_record` refuses, or another line."""
    kind = draw(st.sampled_from(["pool", "spelling", "odd", "refused", "other"]))
    line = draw(st.sampled_from(POOL_LINES))
    if kind == "pool":
        return line
    if kind == "refused":
        return draw(st.sampled_from(REFUSED_TEMPLATE_LINES))
    if kind == "other":
        return draw(st.sampled_from(["\n", " \n", "not json\n", "[1]\n"]))
    key, i = draw(st.sampled_from(KEY_FIELDS))
    texts = spellings(json.loads(line)[key][i]) if kind == "spelling" else ODD_TEXTS
    return respelled(line, key, i, draw(st.sampled_from(texts)))


@settings(max_examples=40, deadline=None)
@given(st.lists(verify_lines(), min_size=1, max_size=40))
def test_verify_checks_drawn_lines_as_line_by_line(lines):
    assert_checked_as_line_by_line(lines)


# --- search on forked workers -----------------------------------------------------


#: Configs for the forked search, with the ``content_reduce`` each runs under.
FORKED_CONFIGS = {
    "cubic": (
        {"seeds": [[1, 6, 8, 9], [3, 4, 5, 6]], "u_range": [-9, 9], "v_range": [-9, 9]},
        None,
    ),
    "mixed-modes": (
        {
            "seeds": [[1, 6, 8, 9], [1, 8, 6, 9]],
            "u_range": [-7, 5],
            "v_range": [-4, 6],
            "modes": ["cubic", "Q:1,2", "F:2"],
        },
        None,
    ),
    "no-dedupe": (
        {
            "seeds": [[1, 6, 8, 9], [8, 1, 6, 9]],
            "u_range": [-6, 6],
            "v_range": [-6, 6],
            "dedupe": False,
        },
        None,
    ),
    "off-origin": ({"seeds": [[1, 6, 8, 9]], "u_range": [3, 17], "v_range": [-11, 4]}, None),
    "asymmetric": (
        {"seeds": [[7, 14, 17, 20], [3, 4, 5, 6]], "u_range": [-13, 4], "v_range": [-3, 12]},
        None,
    ),
    "line-vanishing": (
        {"seeds": [[1, 6, 8, 9], [3, 4, 5, 6]], "u_range": [-3, 7], "v_range": [-5, 2]},
        line_vanishing_family,
    ),
    "ray-vanishing": (
        {"seeds": [[1, 6, 8, 9], [3, 4, 5, 6]], "u_range": [-8, 6], "v_range": [-9, 7]},
        ray_vanishing_family,
    ),
}


def fork_every_grid(monkeypatch, cpus: int, points: int) -> list[int]:
    """Let this process run on ``cpus`` CPUs and search every grid, however
    small, in blocks of at most ``points`` points on forked workers; the
    list returned gets the worker count of each fork map."""
    monkeypatch.setattr(search, "_FORK_POINTS", 1)
    monkeypatch.setattr(search, "_BLOCK_POINTS", points)
    return pool_sizes(monkeypatch, cpus)


# Blocks of 1 and 7 points cut every cubic row of these configs, blocks of
# 19 points hold one to two whole rows, and of 40 points two to five.
@pytest.mark.parametrize("name", sorted(FORKED_CONFIGS))
@pytest.mark.parametrize("points", [1, 7, 19, 40])
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_forked_search_writes_the_bytes_and_counts_of_a_serial_run(
    capsys, monkeypatch, tmp_path, name, points, threads
):
    cfg, reduce = FORKED_CONFIGS[name]
    if reduce is not None:
        monkeypatch.setattr(search, "content_reduce", reduce)
    stats = SearchStats()
    expected = io.StringIO()
    write_records(run_search(SearchConfig.from_dict(cfg), stats), expected)
    summary = {
        "records": stats.emitted,
        "evaluated": stats.evaluated,
        "degenerate": stats.degenerate,
        "duplicates": stats.duplicates,
    }
    assert expected.getvalue()
    sizes = fork_every_grid(monkeypatch, 3, points)
    argv = ["search", "--config", write_config(tmp_path, cfg), "--threads", str(threads)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert no_child_process()
    assert captured.out == expected.getvalue()
    assert json.loads(captured.err) == summary
    out_path = tmp_path / "out.jsonl"
    argv[2] = write_config(tmp_path, {**cfg, "output": str(out_path)})
    assert main(argv) == 0
    assert no_child_process()
    assert out_path.read_bytes() == expected.getvalue().encode()
    assert json.loads(capsys.readouterr().out) == {"output": str(out_path), **summary}
    assert sizes == ([] if threads == 1 else [threads, threads])


def test_search_threads_are_capped_by_the_cpus(capsys, monkeypatch, tmp_path):
    cfg = write_config(tmp_path, FORKED_CONFIGS["cubic"][0])
    assert main(["search", "--config", cfg, "--threads", "1"]) == 0
    serial = capsys.readouterr()
    sizes = fork_every_grid(monkeypatch, 2, 20)
    for threads in [["--threads", "99999999999999999999"], []]:
        assert main(["search", "--config", cfg, *threads]) == 0
        assert capsys.readouterr() == serial
    assert sizes == [2, 2]


def test_search_under_the_fork_threshold_runs_in_process(capsys, monkeypatch, tmp_path):
    sizes = pool_sizes(monkeypatch, 2)
    cfg = {"seeds": [[1, 6, 8, 9]], "u_range": [-90, 90], "v_range": [-90, 89]}
    assert SearchConfig.from_dict(cfg).lattice_points < search._FORK_POINTS
    assert main(["search", "--config", write_config(tmp_path, cfg)]) == 0
    assert capsys.readouterr().out
    assert sizes == []


#: Runs ``search`` on two CPUs whatever the machine has, every grid in
#: blocks of at most 50 points on forked workers, then reports on stderr
#: whether a child process is left, running or not yet reaped, and the
#: worker count of each fork map that ran.  With ``fail`` as its first
#: argument, ``canonicalize`` raises on the first point with an entry over
#: 5000; with ``die``, the process that calls it there is killed instead.
SEARCH_PROBE = """
import os, sys
from powersum_forge import cli, forks, search
os.sched_getaffinity = lambda pid: {0, 1}
search._FORK_POINTS = 1
search._BLOCK_POINTS = 50
workers = []
forked_map = forks.forked_map
forks.forked_map = lambda function, jobs, n: workers.append(n) or forked_map(function, jobs, n)
if sys.argv[1] in ("fail", "die"):
    import signal

    canonicalize = search.canonicalize

    def failing(quad):
        if max(map(abs, quad)) > 5000:
            if sys.argv[1] == "die":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError(f"injected fault at {quad}")
        return canonicalize(quad)

    search.canonicalize = failing
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child process", file=sys.stderr)
print("workers", workers, file=sys.stderr)
sys.exit(code)
"""


def limit_file_size(size: int | None):
    """A ``preexec_fn`` that limits the size of a file the process writes
    (``ulimit -f``) to ``size`` bytes, or None for no limit."""
    if size is None:
        return None
    import resource

    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))


def search_probe(
    tmp_path, mode: str, *argv: str, file_size: int | None = None, output: str | None = None
) -> subprocess.Popen:
    # about 670 KB of records, far more than a pipe buffers
    cfg = {"seeds": [[1, 6, 8, 9], [3, 4, 5, 6]], "u_range": [-40, 40], "v_range": [-40, 40]}
    if output is not None:
        cfg["output"] = output
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    args = ["search", "--config", write_config(tmp_path, cfg), *argv]
    return subprocess.Popen(
        [sys.executable, "-c", SEARCH_PROBE, mode, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=limit_file_size(file_size),
    )


def test_forked_search_subprocess_leaves_no_process_running(tmp_path):
    with search_probe(tmp_path, "run") as proc:
        out, err = proc.communicate(timeout=120)
    with search_probe(tmp_path, "run", "--threads", "1") as proc:
        serial, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out == serial and len(out) > 1 << 16
    assert err.decode().endswith("no child process\nworkers [2]\n")


def test_forked_search_into_closed_stdout_exits_1_and_leaves_no_process(tmp_path):
    with search_probe(tmp_path, "run") as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert err.endswith("no child process\nworkers [2]\n")


def test_a_forked_search_worker_error_reads_as_the_serial_one(tmp_path):
    reports = {}
    for threads in ["1", "2"]:
        with search_probe(tmp_path, "fail", "--threads", threads) as proc:
            _, err = proc.communicate(timeout=120)
        reports[threads] = proc.returncode, err.decode()
    assert reports["1"][1].endswith("no child process\nworkers []\n")
    assert reports["2"][1].endswith("no child process\nworkers [2]\n")
    serial, forked = (report[1].splitlines()[0] for report in (reports["1"], reports["2"]))
    assert serial.startswith("error: injected fault at (")
    assert (reports["2"][0], forked) == (reports["1"][0], serial) == (2, serial)


def test_forked_search_under_a_file_size_limit_writes_the_serial_bytes(tmp_path):
    # each block's result, about 10 KB, is over the limit for a file
    with search_probe(tmp_path, "run", file_size=4096) as proc:
        out, err = proc.communicate(timeout=120)
    with search_probe(tmp_path, "run", "--threads", "1") as serial_proc:
        serial, _ = serial_proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert out == serial
    assert err.decode().endswith("no child process\nworkers [2]\n")


def test_a_killed_search_worker_is_an_error_line_and_leaves_no_process(tmp_path):
    with search_probe(tmp_path, "die", "--threads", "2") as proc:
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode() == (
        "error: a worker process ended without sending its result\n"
        "no child process\nworkers [2]\n"
    )


@pytest.mark.parametrize(
    "u_range,v_range,mode",
    [
        ([-3, 4], [-600_000, 600_000], "cubic"),  # rows of 1,200,001 points
        ([-20_000, 20_000], [0, 0], "cubic"),  # rows of one point
        ([-150, 150], [-150, 150], "cubic"),
        ([-20_000, 20_000], [-5, 5], "Q:1,2"),
    ],
)
def test_forked_search_jobs_hold_at_most_block_points_in_scan_order(
    monkeypatch, u_range, v_range, mode
):
    cfg = SearchConfig.from_dict(
        {"seeds": [[1, 6, 8, 9]], "u_range": u_range, "v_range": v_range, "modes": [mode]}
    )
    cfg = cfg._replace(dedupe=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    taken = []

    def spy(function, jobs, workers):
        taken.extend(jobs)
        raise KeyboardInterrupt  # before any worker is forked

    monkeypatch.setattr(forks, "forked_map", spy)
    with pytest.raises(KeyboardInterrupt):
        search.write_search(cfg, io.StringIO(), threads=2)
    us, vs = range(u_range[0], u_range[1] + 1), range(v_range[0], v_range[1] + 1)
    if mode != "cubic":
        vs = range(1)
    u, v = us.start, vs.start  # the first point no job has covered yet
    for _, rows, columns in taken:
        columns = columns if mode == "cubic" else vs
        assert (rows.start, columns.start) == (u, v)
        assert len(rows) * len(columns) <= search._BLOCK_POINTS
        if columns.stop == vs.stop:
            u, v = rows.stop, vs.start
        else:
            assert len(rows) == 1
            v = columns.stop
    assert (u, v) == (us.stop, vs.start)


def test_verify_subprocess_under_a_file_size_limit(tmp_path):
    buf = io.StringIO()
    write_records(run_search(SearchConfig.from_dict(FORKED_CONFIGS["cubic"][0])), buf)
    path = tmp_path / "large.jsonl"
    path.write_text(buf.getvalue() * (2 * cli._BLOCK_BYTES // len(buf.getvalue()) + 1))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NO_CHILD_PROBE, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=limit_file_size(4096),
    )
    assert proc.returncode == 0, proc.stderr
    report, tail = proc.stdout.split("}\n")
    assert json.loads(report + "}")["verified"] is True
    assert tail == "no child process\nworkers [2]\n"


def rewrite_truncated(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-100])


def rewrite_shifted(path: Path) -> None:
    # the same size and mtime, each line end moved on by one byte
    info = path.stat()
    data = path.read_bytes()
    path.write_bytes(b" " + data[:-1])
    os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))


def rewrite_appended(path: Path) -> None:
    with path.open("ab") as fh:
        fh.write(b"\n")


@pytest.mark.parametrize("rewrite", [rewrite_truncated, rewrite_shifted, rewrite_appended])
def test_verify_of_a_file_changed_while_checked_is_an_error(capsys, monkeypatch, tmp_path, rewrite):
    path = tmp_path / "mixed.jsonl"
    path.write_text(mixed_jsonl(), encoding="utf-8")
    sizes = pool_sizes(monkeypatch, 2)
    forked_map = forks.forked_map  # the spy, which counts the workers

    def rewrite_first(function, jobs, workers):
        rewrite(path)
        return forked_map(function, jobs, workers)

    monkeypatch.setattr(forks, "forked_map", rewrite_first)
    monkeypatch.setattr(cli, "_BLOCK_BYTES", 64)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == "error: the file changed while it was checked\n"
    assert sizes == [2]
    assert no_child_process()


def test_a_killed_search_worker_is_not_a_write_error_with_an_output_file(tmp_path):
    out = tmp_path / "out.jsonl"
    with search_probe(tmp_path, "die", "--threads", "2", output=str(out)) as proc:
        stdout, err = proc.communicate(timeout=120)
    assert (proc.returncode, stdout) == (2, b"")
    assert err.decode() == (
        "error: a worker process ended without sending its result\n"
        "no child process\nworkers [2]\n"
    )


# --- the exit path: run() and the parser of one subcommand ------------------------


def child_env(*paths) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, [*paths, src]))}


def test_python_m_keeps_the_exit_codes_and_the_output_of_main(capsys, tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(run_json(capsys, "sandor", "1", "6", "8", "9")), encoding="utf-8")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(mixed_jsonl(), encoding="utf-8")
    for argv, code in [(["verify", str(form)], 0), (["verify", str(mixed)], 1), (["bernoulli", "x"], 2)]:
        try:
            expected = main(argv)
        except SystemExit as exc:
            expected = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "powersum_forge", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=120,
        )
        assert proc.returncode == expected == code
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


def test_an_atexit_handler_of_a_sitecustomize_still_runs(tmp_path):
    marker = tmp_path / "marker"
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, pathlib\n"
        f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'ran')\n",
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "powersum_forge", "bernoulli", "4"],
        capture_output=True,
        text=True,
        env=child_env(tmp_path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == {"num": "-1", "den": "30"}
    assert marker.read_text() == "ran"


#: Runs ``cli.run`` as the script does, on two CPUs whatever the machine
#: has, every grid in blocks of at most 50 points on forked workers; an
#: ``atexit`` handler then reports on stderr whether a child process is
#: left, running or not yet reaped, and the worker count of each fork map.
RUN_PROBE = """
import atexit, os, sys
from powersum_forge import cli, forks, search
os.sched_getaffinity = lambda pid: {0, 1}
search._FORK_POINTS = 1
search._BLOCK_POINTS = 50
workers = []
forked_map = forks.forked_map
forks.forked_map = lambda function, jobs, n: workers.append(n) or forked_map(function, jobs, n)


def report():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child process", file=sys.stderr)
    print("workers", workers, file=sys.stderr)


atexit.register(report)
sys.argv = ["powersum-forge", *sys.argv[1:]]
cli.run()
"""


def run_probe(tmp_path, *argv: str) -> subprocess.Popen:
    # about 670 KB of records, far more than a pipe buffers
    cfg = {"seeds": [[1, 6, 8, 9], [3, 4, 5, 6]], "u_range": [-40, 40], "v_range": [-40, 40]}
    args = ["search", "--config", write_config(tmp_path, cfg), *argv]
    return subprocess.Popen(
        [sys.executable, "-c", RUN_PROBE, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )


def test_a_forked_search_through_run_writes_the_serial_bytes_to_a_pipe(tmp_path):
    with run_probe(tmp_path) as proc:
        out, err = proc.communicate(timeout=120)
    with run_probe(tmp_path, "--threads", "1") as serial_proc:
        serial, serial_err = serial_proc.communicate(timeout=120)
    assert proc.returncode == serial_proc.returncode == 0
    assert out == serial and len(out) > 1 << 16
    summary = serial_err.decode().removesuffix("no child process\nworkers []\n")
    assert err.decode() == summary + "no child process\nworkers [2]\n"
    assert json.loads(summary)["records"] == len(out.splitlines())


def test_ctrl_c_in_a_forked_search_is_one_error_line_and_leaves_no_process(tmp_path):
    with run_probe(tmp_path) as proc:
        assert proc.stdout.readline()  # the workers are searching
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert err.decode() == "error: interrupted\nno child process\nworkers [2]\n"


ARGV_OF_EVERY_KIND = [
    ["--help"],
    ["frobnicate"],
    ["frobnicate", "--config", "x"],
    *[[name, "--help"] for name in cli._COMMANDS],
    *[[name] for name in cli._COMMANDS],  # missing arguments, for all but search's --config too
    ["search", "--threads", "2"],
    ["relation", "--seed", "1,6,8,9"],
    ["combo", "cube", "2"],
    ["bernoulli", "x"],
    ["bernoulli", "3", "--bogus"],
    ["quad", "piezas", "1", "2", "3", "4", "--eval"],
]


@pytest.mark.parametrize("argv", ARGV_OF_EVERY_KIND, ids=" ".join)
def test_the_parser_of_one_subcommand_reads_as_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as one:
        main(argv)
    assert one.value.code == full.value.code
    assert capsys.readouterr() == expected


#: A good argument list of each subcommand.
GOOD_ARGV = {
    "bernoulli": ["bernoulli", "12", "--latex"],
    "faulhaber": ["faulhaber", "3"],
    "combo": ["combo", "product", "2", "3"],
    "sandor": ["sandor", "1", "6", "8", "9", "--reduce", "--subst", "1,0,0,1"],
    "verify": ["verify", "file.jsonl"],
    "relation": ["relation", "--seed", "1,6,8,9", "--mode", "Q:1,2", "--expand"],
    "quad": ["quad", "triple", "1", "3", "--eval", "5"],
    "search": ["search", "--config", "cfg.json", "--threads", "2", "--force"],
}


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_build_parser_builds_only_the_subcommand_it_is_given(name):
    def subcommands(parser):
        (action,) = parser._subparsers._group_actions
        return list(action.choices)

    assert subcommands(cli.build_parser(name)) == [name]
    assert subcommands(cli.build_parser()) == list(cli._COMMANDS)
    assert subcommands(cli.build_parser("frobnicate")) == list(cli._COMMANDS)
    argv = GOOD_ARGV[name]
    assert cli.build_parser(name).parse_args(argv) == cli.build_parser().parse_args(argv)
