"""Command-line interface.

Subcommands mirror the library surface: ``bernoulli``, ``faulhaber``,
``combo``, ``sandor``, ``verify``, ``relation``, ``quad`` and
``search``.  Output is JSON by default; ``--latex`` switches to the
display form where one exists.  Exit codes: 0 success, 1 verification
failure or a reader that closed stdout early, 2 usage or input error,
or a worker process that ended without its result, 130 on Ctrl-C (one
line, ``error: interrupted``).  The script runs :func:`run`, which exits
without the interpreter's teardown; only its subcommand's parser is built.

Each handler imports the modules it runs when it runs, so a call pays
only for its own subcommand: ``relation`` never loads ``search`` or
``quadratic``.  Every integer argument is read as :func:`json_int`
reads a decimal string, an optional sign and ASCII digits.

``verify`` reads its file as bytes, in blocks that each end on a line's
end, and never seeks, so it reads a pipe as it reads a file.  A file of
one block holding one JSON object with a ``q`` key is a form file, whose
identity is checked; anything else is JSON lines.  Each block of a JSON
lines file is decoded as the whole file would be, and each line checked
as :func:`search.scan_records` checks it, but a line its template
reader accepts is only counted; the blocks' counts and failures are
merged in order, their line numbers offset, so the report is the same
bytes however the file is cut.  A regular file of more than one block
is checked by forked worker processes, up to one for each CPU and one
for each block.

``search`` writes a large grid's records from forked worker processes,
up to one for each CPU or ``--threads``, as :func:`search.write_search`
says; ``--threads 1`` searches in this process.
"""

from __future__ import annotations

import argparse
import atexit
import io
import itertools
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, BinaryIO, Iterator

from . import render
from .exactcore import bernoulli, json_int

if TYPE_CHECKING:
    from .search import SearchStats

OK = 0
VERIFICATION_FAILED = 1
USAGE_ERROR = 2
INTERRUPTED = 130


def _emit(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without the pure-Python
    encoder an ``indent`` selects: str and int leaves and non-empty dicts
    (str keys), lists and tuples are written here, anything else by ``json.dumps``."""

    def emit(value, newline: str) -> str:
        if type(value) is str:
            return encode_basestring_ascii(value)
        if type(value) is int:
            return str(value)
        inner = newline + "  "
        if isinstance(value, dict) and value:
            items = [f"{encode_basestring_ascii(k)}: {emit(v, inner)}" for k, v in value.items()]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        if isinstance(value, (list, tuple)) and value:
            return "[" + inner + ("," + inner).join([emit(v, inner) for v in value]) + newline + "]"
        return json.dumps(value)

    return emit(obj, "\n")


def integer(text: str) -> int:
    """An integer argument; argparse reports a refusal as ``invalid integer value``."""
    return json_int(text, "argument")


def positive(text: str) -> int:
    """An integer argument of at least 1."""
    try:
        value = integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _parse_csv_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    """``count`` comma-separated integers, whitespace around each ignored;
    each is an optional sign and ASCII digits, as :func:`json_int` reads it."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return tuple(json_int(p, what) for p in parts)
    except ValueError:
        raise ValueError(f"{what} needs integers, got {text!r}") from None


def cmd_bernoulli(args) -> tuple[int, str]:
    value = bernoulli(args.k)
    if args.latex:
        return OK, f"B_{{{args.k}}} = {render.latex_rational(value)}"
    return OK, _emit({"k": args.k, "value": render.fraction_to_json(value)})


def cmd_faulhaber(args) -> tuple[int, str]:
    from .powersums import faulhaber

    poly = faulhaber(args.k)
    if args.latex:
        sub = str(args.k) if args.k < 10 else f"{{{args.k}}}"
        return OK, f"S_{sub} = {render.poly_to_latex(poly, var='n', order='desc')}"
    return OK, _emit({"k": args.k, "polynomial": render.poly_to_json(poly)})


#: Each combo op's arity and the :mod:`powersums` closed form it calls.
_COMBO_OPS = {
    "product": (2, "product"),
    "square": (1, "square"),
    "s1pow": (1, "s1_power"),
    "s2s1pow": (1, "s2_s1_power"),
}


def cmd_combo(args) -> tuple[int, str]:
    from . import powersums

    arity, name = _COMBO_OPS[args.op]
    if len(args.args) != arity:
        raise ValueError(f"combo {args.op} takes {arity} integer argument(s)")
    combo = getattr(powersums, name)(*args.args)
    if args.latex:
        return OK, render.combo_to_latex(combo)
    return OK, _emit({"op": args.op, "args": args.args, "combo": render.combo_to_json(combo)})


def _parse_matrix(text: str):
    """Four comma-separated rationals, whitespace around each ignored.

    Each is read by ``Fraction`` (``1/2``, ``-3``, ``0.5``), but an
    underscore, inner whitespace or a non-ASCII character is refused,
    where ``Fraction`` alone would read ``1_0`` as 10.
    """
    from fractions import Fraction

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("substitution matrix needs 4 comma-separated entries m11,m12,m21,m22")
    try:
        if not all(p.isascii() and "_" not in p and not any(map(str.isspace, p)) for p in parts):
            raise ValueError
        m11, m12, m21, m22 = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad matrix entries {text!r}") from None
    return ((m11, m12), (m21, m22))


def cmd_sandor(args) -> tuple[int, str]:
    from .cubic import CubicQuadruple, content_reduce, sandor_generate, substitute

    seed = CubicQuadruple(args.a, args.b, args.c, args.d)
    fq = sandor_generate(seed)
    content = None
    if args.reduce:
        fq, content = content_reduce(fq)
    if args.subst:
        fq = substitute(fq, _parse_matrix(args.subst))
    if args.latex:
        return OK, render.cubic_forms_latex(fq)
    return OK, _emit(render.form_quadruple_to_json(fq, content=content))


#: Bytes ``verify`` reads of a file at a time; each block it checks runs
#: on to the end of the line they end in.
_BLOCK_BYTES = 1 << 20


def _blocks(raw: BinaryIO) -> Iterator[bytes]:
    """A binary stream in blocks of ``_BLOCK_BYTES`` and the rest of the
    line they end in: a block holds whole lines, so neither a ``\\r\\n`` nor
    a UTF-8 sequence straddles two blocks."""
    while block := raw.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += raw.readline()
        yield block


def _text(block: bytes) -> io.TextIOWrapper:
    """A block as text, decoded as a text file is opened for ``verify``:
    UTF-8 with universal newlines, where a byte that is not UTF-8 becomes a
    surrogate escape and fails only its own line."""
    return io.TextIOWrapper(io.BytesIO(block), encoding="utf-8", errors="surrogateescape")


def _check_block(block: bytes) -> tuple[int, int, list[tuple[int, str]]]:
    """A block's count of lines and of records, and ``(line, message)`` for
    each record that fails, its line numbered from 1 in the block.  Lines
    are read as :func:`search.scan_records` reads them, but a line its
    template reader accepts is counted with no record built."""
    from .search import _encoded_fields, _json_record

    lines = _text(block).readlines()
    records = 0
    failures = []
    for lineno, line in enumerate(lines, start=1):
        item = _encoded_fields(line) or _json_record(line)  # None for a blank line
        records += item is not None
        if isinstance(item, Exception):
            failures.append((lineno, str(item)))
    return len(lines), records, failures


def _check_blocks(
    blocks: Iterator[bytes], fd: int, info: os.stat_result | None
) -> list[tuple[int, int, list[tuple[int, str]]]]:
    """:func:`_check_block` of each block, in order: in this process when
    ``info`` is None, else by forked worker processes.

    ``info`` is the ``os.fstat`` of the regular file ``fd``, taken before
    it was read.  The workers (:func:`forks.forked_map`) are one for each
    CPU this process may run on and at most one for each block.  This
    process reads the blocks only to find where they start and end; each
    worker reads its own blocks from the file with ``os.pread``, so no
    block's bytes cross a pipe.  As the workers read the file again, a
    change to it while it is checked is a ValueError, not a report on
    other bytes than those this process read.  The CLI starts no thread
    before the workers, so ``fork`` is safe here, and a forked worker
    starts with the modules loaded instead of importing them.
    """
    if info is None:
        return list(map(_check_block, blocks))
    from . import forks

    lengths = [len(block) for block in blocks]
    spans = list(zip(lengths, itertools.accumulate(lengths, initial=0)))  # (size, offset)
    end = sum(lengths)
    workers = forks.worker_count(None, len(spans))
    with forks.forked_map(lambda span: _check_span(fd, end, *span), spans, workers) as checked:
        results = list(checked)
    changed = os.fstat(fd)
    if (changed.st_size, changed.st_mtime_ns) != (info.st_size, info.st_mtime_ns):
        raise ValueError("the file changed while it was checked")
    return results


def _check_span(fd: int, end: int, size: int, offset: int) -> tuple[int, int, list]:
    """:func:`_check_block` of the ``size`` bytes at ``offset`` of the file
    ``fd``, read again there; they must still be ``size`` bytes that end a
    line, or end at ``end``, where the file ended when it was first read."""
    block = os.pread(fd, size, offset)
    if len(block) != size or not (block.endswith(b"\n") or offset + size == end):
        raise ValueError("the file changed while it was checked")
    return _check_block(block)


def _form_document(block: bytes) -> dict | None:
    """The form object a file's one block holds, or None.

    A form file is one block holding one JSON object with a ``q`` key,
    on one line or pretty-printed; anything else is JSON lines.
    """
    try:
        obj = json.loads(_text(block).read())
    except (ValueError, RecursionError):  # RecursionError: nested too deeply
        return None
    return obj if isinstance(obj, dict) and "q" in obj else None


def cmd_verify(args) -> tuple[int, str]:
    """Check a form file or a JSON lines file, chosen from at most its
    first two blocks: one block holding a form object is a form file, and
    JSON lines are checked on forked workers only when a regular file has
    a second block and this process may run on a second CPU."""
    from pathlib import Path

    path = Path(args.file)
    try:
        raw = path.open("rb")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with raw:
        info = os.fstat(raw.fileno())
        blocks = _blocks(raw)
        head = [next(blocks, b""), *itertools.islice(blocks, 1)]
        obj = _form_document(head[0]) if len(head) == 1 else None
        if obj is None:
            forked = len(head) > 1 and stat.S_ISREG(info.st_mode)
            if forked:
                from . import forks, search  # noqa: F401  (search loaded once here, not in each worker)

                forked = forks.worker_count(None, 2) > 1  # a second CPU to run on
            # Check from the first block again without seeking, as a pipe
            # cannot; the chain drops each block once it is past it.
            blocks = itertools.chain(head, blocks)
            del head
            failures: list[str] = []
            count = offset = 0
            for lines, records, failed in _check_blocks(blocks, raw.fileno(), info if forked else None):
                failures += [f"line {offset + lineno}: {message}" for lineno, message in failed]
                count += records
                offset += lines
            ok = not failures
            return (OK if ok else VERIFICATION_FAILED), _emit(
                {"file": str(path), "records": count, "verified": ok, "failures": failures}
            )

    from .cubic import FormQuadruple, check_characterization, verify_cubic_identity

    if obj.get("identity") == "pythagorean-triple":  # ``quad piezas --degenerate``
        from .polynomials import powers_telescope

        if not isinstance(obj["q"], list) or len(obj["q"]) != 3:
            raise ValueError("field 'q' must be a list of 3 forms")
        forms = [render.form_from_json(f, f"q[{i}]") for i, f in enumerate(obj["q"])]
        ok = powers_telescope([f.dehomogenize() for f in forms], 2)
        detail = {"identity": "pythagorean-triple", "verified": ok}
    elif isinstance(fq := render.form_quadruple_from_json(obj), FormQuadruple):
        ok = verify_cubic_identity(fq)
        detail = {"identity": "cubic", "verified": ok}
        if ok and fq.seed is not None:
            detail["characterization"] = check_characterization(fq.seed, fq)
            ok = ok and detail["characterization"]
    else:
        from .quadratic import verify_square_identity

        ok = verify_square_identity(fq)
        detail = {"identity": "square", "verified": ok}
    return (OK if ok else VERIFICATION_FAILED), _emit({"file": str(path), **detail})


def cmd_relation(args) -> tuple[int, str]:
    from .cubic import CubicQuadruple, content_reduce, sandor_generate
    from .relations import build_relation, expand_relation, factor_common_root, parse_mode

    seed = CubicQuadruple(*_parse_csv_ints(args.seed, 4, "--seed"))
    mode = parse_mode(args.mode)
    fq, _ = content_reduce(sandor_generate(seed))
    cq = build_relation(fq, mode)
    out = render.combo_quadruple_to_json(cq)
    if not (args.expand or args.factor):
        return OK, render.combo_quadruple_latex(cq) if args.latex else _emit(out)
    identity = expand_relation(cq)
    out["expanded"] = render.poly_identity_to_json(identity)
    if args.factor:
        identity, divisor = factor_common_root(identity)
        out["factored"] = render.poly_identity_to_json(identity)
        out["factored"]["divisor"] = render.poly_to_json(divisor)
    # --latex prints the last stage computed, and only that is rendered.
    return OK, render.poly_identity_latex(identity) if args.latex else _emit(out)


_QUAD_ARITY = {"piezas": 4, "quadruple": 1, "triple": 2, "equal-sums": 1}


def cmd_quad(args) -> tuple[int, str]:
    from .powersums import extract_common_factor
    from .quadratic import (
        PythagoreanQuadruple,
        equal_sums_family,
        piezas_degenerate_triple,
        piezas_generate,
        powersum_quadruple,
        powersum_triple,
    )

    arity = _QUAD_ARITY[args.construction]
    if len(args.values) != arity:
        raise ValueError(f"quad {args.construction} takes {arity} integer argument(s)")
    if args.construction in ("piezas", "equal-sums") and args.eval_at is not None:
        raise ValueError("--eval applies to quadruple and triple constructions")
    if args.construction != "piezas" and args.degenerate is not None:
        raise ValueError("--degenerate applies to the piezas construction")
    if args.construction == "piezas":
        seed = PythagoreanQuadruple(args.values[0], args.values[1], args.values[2], args.values[3])
        if args.degenerate is not None:
            forms = piezas_degenerate_triple(seed, args.degenerate)
            if args.latex:
                return OK, render.power_display([render.form_to_latex(f) for f in forms], 2)
            return OK, _emit(
                {
                    "identity": "pythagorean-triple",
                    "q": [render.form_to_json(f) for f in forms],
                    "seed": list(seed.as_tuple),
                    "e": str(args.degenerate),
                }
            )
        sq = piezas_generate(seed)
        if args.latex:
            return OK, render.square_forms_latex(sq)
        return OK, _emit(render.form_quadruple_to_json(sq))

    if args.construction == "quadruple":
        combos = powersum_quadruple(args.values[0])
    elif args.construction == "triple":
        combos = powersum_triple(args.values[0], args.values[1])
    else:  # equal-sums
        (a, b), (c, d) = equal_sums_family(args.values[0])
        if args.latex:
            def fmt(x: int) -> str:
                return f"({x})" if x < 0 else str(x)

            return OK, f"{fmt(a)}^2 + {fmt(b)}^2 = {fmt(c)}^2 + {fmt(d)}^2"
        return OK, _emit(
            {
                "u": str(args.values[0]),
                "lhs": [str(a), str(b)],
                "rhs": [str(c), str(d)],
                "sum": str(a * a + b * b),
            }
        )

    scaled, factor = extract_common_factor(combos)
    out = {
        "construction": args.construction,
        "args": args.values,
        "combos": [render.combo_to_json(c) for c in scaled],
        "common_factor": render.fraction_to_json(factor),
    }
    if args.eval_at is not None:
        out["values"] = [str(c.evaluate(args.eval_at)) for c in scaled]
    if args.latex:
        return OK, render.power_display([render.combo_to_latex(c) for c in scaled], 2)
    return OK, _emit(out)


def cmd_search(args) -> tuple[int, str]:
    from .search import SearchConfig, SearchStats, write_search

    cfg = SearchConfig.from_file(args.config)
    if args.force:
        cfg = cfg._replace(force=True)
    stats = SearchStats()
    if cfg.output is not None:
        write_search(cfg, cfg.output, stats, args.threads)
        return OK, _emit({"output": cfg.output, **_search_summary(stats)})
    write_search(cfg, sys.stdout, stats, args.threads)
    print(_emit(_search_summary(stats)), file=sys.stderr)
    return OK, ""


def _search_summary(stats: SearchStats) -> dict:
    return {
        "records": stats.emitted,
        "evaluated": stats.evaluated,
        "degenerate": stats.degenerate,
        "duplicates": stats.duplicates,
    }


#: The subcommands, in the order ``--help`` lists them.
_COMMANDS = ("bernoulli", "faulhaber", "combo", "sandor", "verify", "relation", "quad", "search")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser, with every subcommand's parser, or only that of
    ``command`` when it names one.  Such a parser reads ``command``'s
    arguments, and words its help and its errors, as the full one does:
    the top-level usage names every subcommand either way."""
    names = (command,) if command in _COMMANDS else _COMMANDS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--latex", action="store_true", help="emit LaTeX instead of JSON")

    parser = argparse.ArgumentParser(
        prog="powersum-forge",
        description="Exact families of cubic and quadratic Diophantine identities "
        "from binary quadratic forms and power sums.",
    )
    metavar = "{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name: str, help: str, handler) -> argparse.ArgumentParser | None:
        if name not in names:
            return None
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        return p

    if p := add("bernoulli", "Bernoulli number B_k", cmd_bernoulli):
        p.add_argument("k", type=integer)

    if p := add("faulhaber", "S_k as a polynomial in n", cmd_faulhaber):
        p.add_argument("k", type=integer)

    if p := add("combo", "closed-form power-sum combination", cmd_combo):
        p.add_argument("op", choices=sorted(_COMBO_OPS))
        p.add_argument("args", type=integer, nargs="+", help="exponent argument(s)")

    if p := add("sandor", "form quadruple from a cubic seed", cmd_sandor):
        p.add_argument("a", type=integer)
        p.add_argument("b", type=integer)
        p.add_argument("c", type=integer)
        p.add_argument("d", type=integer)
        p.add_argument("--reduce", action="store_true", help="divide out the joint content")
        p.add_argument("--subst", metavar="M11,M12,M21,M22", help="compose with a linear map")

    if p := add("verify", "verify a quadruple or solutions file", cmd_verify):
        p.add_argument("file")

    if p := add("relation", "power-sum relation from a seed", cmd_relation):
        p.add_argument("--seed", required=True, metavar="A,B,C,D")
        p.add_argument("--mode", required=True, metavar="Q:k,m|F:k")
        p.add_argument("--expand", action="store_true", help="expand to polynomial identity")
        p.add_argument("--factor", action="store_true", help="strip common u^s (u+1)^t roots")

    if p := add("quad", "quadratic (square) constructions", cmd_quad):
        p.add_argument("construction", choices=["piezas", "quadruple", "triple", "equal-sums"])
        p.add_argument("values", type=integer, nargs="+")
        p.add_argument("--degenerate", type=integer, metavar="E", help="piezas: collapse to a triple")
        p.add_argument("--eval", dest="eval_at", type=integer, metavar="N", help="also evaluate at n=N")

    if p := add("search", "grid search over families", cmd_search):
        p.add_argument("--config", required=True)
        p.add_argument(
            "--threads",
            type=positive,
            help="at least 1; most worker processes for a large grid (default: one per CPU); "
            "1 searches in this process",
        )
        p.add_argument("--force", action="store_true", help="override the lattice guardrail")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        code, text = args.handler(args)
        if text:
            print(text)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so the
        # interpreter's final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return VERIFICATION_FAILED
    except ChildProcessError as exc:  # a worker process was killed
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:  # a proof gate failed
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILED
    except KeyboardInterrupt:  # forked workers are killed and reaped on the way out
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED
    return code


def run() -> None:
    """The script and ``python -m powersum_forge``: :func:`main`, the
    ``atexit`` handlers, a flush of stdout and stderr (a reader that closed
    either makes the exit code 1) and ``os._exit``, which skips the
    interpreter's teardown of its modules and objects.  ``SystemExit``
    (``--help``, a usage error) and an exception ``main`` does not catch
    leave the normal way."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = VERIFICATION_FAILED
    os._exit(code)


if __name__ == "__main__":
    run()
