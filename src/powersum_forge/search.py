"""Grid search over generated families, with canonical deduplication.

For each seed the family is generated once (content reduced), then
evaluated over an inclusive integer grid.  Numeric quadruples are
normalized to a canonical representative so that rescaled, reordered or
globally negated tuples collapse together, and each canonical quadruple
is tagged when it exhibits a two-cubes coincidence (an integer that is a
sum of two positive cubes in two distinct ways).

Evaluation order is fixed: seeds in configuration order, then mode,
then u ascending, then v ascending.  The search runs on one thread and
evaluates lazily, one point at a time; with ``dedupe`` off its memory
stays bounded however large the grid.  The ``threads`` argument changes
nothing, so every run emits byte-identical records.

Cubic mode evaluates the reduced family with a row kernel: for each
``u`` it folds ``alpha*u^2`` and ``beta*u`` of every form into two
constants, so each point costs ``A + (B + gamma*v)*v`` per form
(:func:`cubic.evaluate_forms` is the same value, one point at a time).
Relation modes (``Q:k,m`` / ``F:k``) scan the integers ``u`` of
``u_range`` and evaluate the expanded univariate identity by Horner's
rule on its integer numerators; the record stores ``uv = [u, 0]`` for
those, and ``v_range`` is ignored.  A value that is not a whole number
raises RuntimeError instead of being truncated.

One reflection rule serves both modes: a point ``x`` of a scan line has
the raw tuple of ``c - x``.  Each cubic form is homogeneous of degree 2,
so ``(u, v)`` and ``(-u, -v)`` agree: ``v`` on row ``u`` reflects to
``-v`` on row ``-u`` (``c = 0``).  As ``S_k(-1-n) = (-1)^(k+1) S_k(n)``,
every expanded polynomial of ``Q:k,m`` with ``k + m`` even satisfies
``P(-1-u) = P(u)``, and those of ``F:k`` do not: ``u`` reflects to
``-1-u`` (``c = -1``).  The search never goes by the mode's name: once
per seed and mode it checks ``P(t) == P(-1-t)`` at ``t = 0..D``, ``D``
the largest degree, which proves the identity exactly (a nonzero
polynomial of degree at most ``D`` has at most ``D`` roots).  With
``dedupe`` on, a point whose reflection is in the grid and earlier in
scan order is not evaluated, only counted: degenerate if its reflection
was, a duplicate otherwise.  ``evaluated`` counts every lattice point
visited, these included, so records and counts are those of a full scan.

One canonicalizer, :func:`canonicalize`, serves both the search and
:func:`verify_record`.  One record-line encoder, a single ``%``-format
template in :func:`write_records`, writes every record, to a file or to
stdout; :func:`scan_records` reads those lines back and re-verifies
each one, taking a seed's :class:`CubicQuadruple` and ratio from one
small cache keyed on its integers, :func:`_seed_state`.  A line in the
template's exact form is read by one regular expression derived from
that template, and takes the seed and ratio of the template line before
it when their strings are the same; any other line is read by
``json.loads`` and :meth:`SolutionRecord.from_json`, which alone word
the errors, and every record, read either way, goes through
:func:`verify_record`.  The lines are independent of each other, so
``verify`` scans a large file's blocks of lines in parallel processes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence, Union

from .cubic import CubicQuadruple, _Validated, content_reduce, fraction_ratio, sandor_generate
from .exactcore import json_int, json_ints
from .polynomials import _horner
from .relations import FMode, QMode, RelationMode, build_relation, expand_relation, parse_mode

__all__ = [
    "GRID_GUARDRAIL",
    "THREADS_ENV",
    "SolutionRecord",
    "SearchConfig",
    "SearchStats",
    "canonicalize",
    "detect_taxicab",
    "resolve_workers",
    "run_search",
    "write_records",
    "load_records",
    "scan_records",
    "verify_record",
]

#: Hard ceiling on lattice points per run unless explicitly forced.
GRID_GUARDRAIL = 10_000_000

#: Environment variable capping :func:`resolve_workers`.
THREADS_ENV = "POWERSUM_FORGE_THREADS"

SearchMode = Union[str, RelationMode]  # "cubic" | QMode | FMode

IntQuad = tuple[int, int, int, int]


def canonicalize(quad: Sequence[int]) -> tuple[IntQuad, int]:
    """Canonical representative of a numeric solution tuple.

    Divides out the content (gcd of the four entries), flips the global
    sign so the last entry is positive (cubes are odd, so this preserves
    the equation), and sorts the first three entries ascending.  Returns
    ``(canonical, content)``.  The all-zero tuple is rejected, and an
    entry that is not an integer raises TypeError instead of being
    truncated.
    """
    x1, x2, x3, x4 = quad
    g = math.gcd(x1, x2, x3, x4)
    if not g:
        raise ValueError("cannot canonicalize the zero tuple")
    if x4 < 0:
        g = -g
    x1 //= g
    x2 //= g
    x3 //= g
    if x1 > x2:
        x1, x2 = x2, x1
    if x2 > x3:
        x2, x3 = x3, x2
        if x1 > x2:
            x1, x2 = x2, x1
    return (x1, x2, x3, x4 // g), abs(g)


def detect_taxicab(quad: Sequence[int]) -> int | None:
    """Two-cubes coincidence exposed by a canonical quadruple.

    If exactly one of the first three entries is negative, say ``-x``,
    the identity rearranges to ``y^3 + z^3 = d^3 + x^3`` with all four
    positive.  When the two pairs are distinct as multisets, that common
    value is a number expressible as a sum of two positive cubes in two
    ways, and is returned; otherwise None.

    Canonicalization makes this invariant under rescaling of the raw
    tuple (the content is stripped before the pairs are compared).
    """
    x1, x2, x3, d = quad
    if d <= 0:
        return None
    x, y, z = sorted((x1, x2, x3))
    if not x < 0 < y:  # exactly one negative entry and two positive ones
        return None
    if (y, z) == ((-x, d) if -x < d else (d, -x)):
        return None
    return y**3 + z**3


class SolutionRecord(NamedTuple):
    """One numeric solution with provenance and classification."""

    seed: CubicQuadruple
    uv: tuple[int, int]
    raw: IntQuad
    reduced: IntQuad
    content: int
    ratio: Fraction
    taxicab: int | None

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionRecord":
        """A record from its JSON object; a field that is not a whole
        number (or a list of them) raises ValueError naming it.

        The record shares the ratio object of :func:`_seed_state` when
        its own ``ratio`` matches it term for term.
        """
        seed, ratio = _seed_state(json_ints(obj["seed"], "seed", 4))
        num = json_int(obj["ratio"]["num"], "ratio.num")
        den = json_int(obj["ratio"]["den"], "ratio.den")
        if num != ratio.numerator or den != ratio.denominator:
            ratio = Fraction(num, den)
        taxicab = obj.get("taxicab")
        return cls(
            seed,
            json_ints(obj["uv"], "uv", 2),
            json_ints(obj["raw"], "raw", 4),
            json_ints(obj["reduced"], "reduced", 4),
            json_int(obj["content"], "content"),
            ratio,
            None if taxicab is None else json_int(taxicab, "taxicab"),
        )


@functools.lru_cache(maxsize=16)
def _seed_state(values: IntQuad) -> tuple[CubicQuadruple, Fraction]:
    """The seed of four integers (validated by :func:`json_ints`, so
    ``1.0`` or ``true`` never reach the key) and its ratio."""
    seed = CubicQuadruple(*values)
    return seed, fraction_ratio(seed)


def verify_record(record: SolutionRecord) -> None:
    """Re-derive a record's fields from ``raw`` and ``seed``; raise ValueError on mismatch.

    A ``raw`` tuple with a zero entry is refused, as the search never
    emits one.  ``raw`` itself is not re-evaluated from ``seed`` and ``uv``.
    """
    if 0 in record.raw:
        raise ValueError(f"raw tuple {record.raw} has a zero entry")
    x1, x2, x3, x4 = record.reduced
    if x1**3 + x2**3 + x3**3 != x4**3:
        raise ValueError(f"reduced tuple {record.reduced} fails the cubic equation")
    reduced, content = canonicalize(record.raw)
    if reduced != record.reduced or content != record.content:
        raise ValueError(
            f"raw tuple {record.raw} canonicalizes to {reduced} content {content}, "
            f"record says {record.reduced} content {record.content}"
        )
    ratio = _seed_state(record.seed.as_tuple)[1]
    # A record read by from_json shares this ratio object when they agree.
    if record.ratio is not ratio and record.ratio != ratio:
        raise ValueError(f"seed {record.seed.as_tuple} has ratio {ratio}")
    if detect_taxicab(record.reduced) != record.taxicab:
        raise ValueError(f"taxicab tag mismatch for {record.reduced}")


class SearchStats:
    """Counters of one search run, updated as it streams."""

    __slots__ = ("evaluated", "degenerate", "duplicates", "emitted")

    def __init__(self, evaluated: int = 0, degenerate: int = 0, duplicates: int = 0, emitted: int = 0):
        self.evaluated = evaluated
        self.degenerate = degenerate
        self.duplicates = duplicates
        self.emitted = emitted

    def __eq__(self, other):
        if type(other) is not SearchStats:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # mutable

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"SearchStats({fields})"


class _ConfigFields(NamedTuple):
    seeds: tuple[CubicQuadruple, ...]
    u_range: tuple[int, int]
    v_range: tuple[int, int]
    modes: tuple[SearchMode, ...] = ("cubic",)
    dedupe: bool = True
    output: str | None = None
    force: bool = False


class SearchConfig(_Validated, _ConfigFields):
    """Validated search parameters; ranges are inclusive."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.seeds:
            raise ValueError("search config needs at least one seed")
        if not self.modes:
            raise ValueError("search config needs at least one mode")
        for lo, hi in (self.u_range, self.v_range):
            if lo > hi:
                raise ValueError(f"empty range [{lo}, {hi}]")
        for mode in self.modes:
            if mode != "cubic" and not isinstance(mode, (QMode, FMode)):
                raise ValueError(f"unsupported search mode {mode!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ValueError(
                f"search config field 'output' must be a string or null, got {self.output!r}"
            )
        if self.output == "":
            raise ValueError("search config field 'output' must name a file, or be null for stdout")
        return self

    @property
    def lattice_points(self) -> int:
        nu = self.u_range[1] - self.u_range[0] + 1
        nv = self.v_range[1] - self.v_range[0] + 1
        per_seed = sum(nu * nv if mode == "cubic" else nu for mode in self.modes)
        return per_seed * len(self.seeds)

    @classmethod
    def from_dict(cls, obj: dict) -> "SearchConfig":
        """Config from parsed JSON; any malformed field raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("search config must be a JSON object")
        return cls(
            seeds=_config_field(obj, "seeds", _parse_seeds),
            u_range=_config_field(obj, "u_range", lambda raw: json_ints(raw, "u_range", 2)),
            v_range=_config_field(obj, "v_range", lambda raw: json_ints(raw, "v_range", 2)),
            modes=_config_field(obj, "modes", _parse_modes) if "modes" in obj else ("cubic",),
            dedupe=_config_bool(obj, "dedupe", True),
            output=obj.get("output"),
            force=_config_bool(obj, "force", False),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SearchConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read search config {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError(f"search config {path} nests too deeply to read") from None
        return cls.from_dict(obj)


def _config_field(obj: dict, name: str, parse):
    """``parse(obj[name])``, reporting a missing or malformed field as ValueError."""
    if name not in obj:
        raise ValueError(f"search config has no {name!r} field")
    try:
        return parse(obj[name])
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"search config field {name!r} is malformed: {exc!r}") from None


def _config_bool(obj: dict, name: str, default: bool) -> bool:
    value = obj.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(f"search config field {name!r} must be true or false, got {value!r}")
    return value


def _parse_seeds(raw) -> tuple[CubicQuadruple, ...]:
    return tuple(CubicQuadruple(*json_ints(s, f"seeds[{i}]", 4)) for i, s in enumerate(raw))


def _parse_modes(raw) -> tuple[SearchMode, ...]:
    if isinstance(raw, str):
        raise TypeError("modes must be a list")
    return tuple(m if m == "cubic" else parse_mode(str(m)) for m in raw)


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: requested (or cpu count), capped by the env var.

    Only reported; the search itself is single-threaded.
    """
    workers = requested if requested else (os.cpu_count() or 1)
    raw_cap = os.environ.get(THREADS_ENV)
    if raw_cap:
        try:
            workers = min(workers, max(1, int(raw_cap)))
        except ValueError:
            pass
    return max(1, workers)


def run_search(
    cfg: SearchConfig,
    stats: SearchStats | None = None,
    threads: int | None = None,
) -> Iterator[SolutionRecord]:
    """Stream solution records for a config, in deterministic order.

    Tuples containing a zero entry (including the all-zero tuple at
    (0, 0)) are skipped and counted in ``stats.degenerate``.  With
    ``dedupe`` enabled, only the first occurrence of each canonical
    quadruple is emitted, so every distinct one is held in memory until
    the run ends, and a point whose reflection was visited earlier is
    counted without arithmetic (see the module docstring).
    ``stats.evaluated`` counts every lattice point visited, reflected
    points included, and every count is current at each record
    yielded.  The guardrail on total lattice points is checked eagerly,
    before any evaluation.  ``threads`` is accepted for compatibility
    and ignored: the search is single-threaded.
    """
    points = cfg.lattice_points
    if points > GRID_GUARDRAIL and not cfg.force:
        raise ValueError(
            f"search grid has {points} lattice points, over the {GRID_GUARDRAIL} "
            "guardrail; set force to run anyway"
        )
    if stats is None:
        stats = SearchStats()
    return _search_iter(cfg, stats)


def _search_iter(cfg: SearchConfig, stats: SearchStats) -> Iterator[SolutionRecord]:
    seen: set[IntQuad] = set()
    for seed in cfg.seeds:
        ratio = fraction_ratio(seed)
        for mode in cfg.modes:
            # With dedupe on, a point whose reflection came earlier is
            # counted by _evaluate_family, not evaluated: zeros keeps, by
            # u, the v of the degenerate points scanned so far.
            zeros: dict[int, list[int]] | None = {} if cfg.dedupe else None
            for uv, raw in _evaluate_family(seed, mode, cfg, zeros, stats):
                stats.evaluated += 1
                if 0 in raw:
                    stats.degenerate += 1
                    if zeros is not None:
                        zeros.setdefault(uv[0], []).append(uv[1])
                    continue
                reduced, content = canonicalize(raw)
                if cfg.dedupe:
                    if reduced in seen:
                        stats.duplicates += 1
                        continue
                    seen.add(reduced)
                stats.emitted += 1
                taxicab = detect_taxicab(reduced)
                yield SolutionRecord(seed, uv, raw, reduced, content, ratio, taxicab)


def _skip_reflected(
    line: range,
    lo: int,
    hi: int,
    centre: int,
    zeros: Iterable[int],
    stats: SearchStats,
) -> Iterator[range]:
    """The two segments of ``line`` left to evaluate once its points
    ``lo..hi`` (clipped to the line), each the reflection ``centre - x``
    of a point ``x`` scanned earlier, are taken out.

    Those points are counted into ``stats`` when the second segment is
    asked for, which the caller does only after the consumer has taken
    every point of the first: one is degenerate if its reflection was
    (``zeros`` holds the degenerate ``x`` and is read only then, as a
    line may reflect into its own first segment) and a duplicate
    otherwise, as its reflection's canonical quadruple is already seen.
    """
    lo, hi = max(lo, line.start), min(hi, line.stop - 1)
    if lo > hi:
        yield line
        return
    yield range(line.start, lo)
    n = hi - lo + 1
    degenerate = sum(lo <= centre - x <= hi for x in zeros)
    stats.evaluated += n
    stats.degenerate += degenerate
    stats.duplicates += n - degenerate
    yield range(hi + 1, line.stop)


def _reflection_holds(nums: Sequence[Sequence[int]]) -> bool:
    """True iff every polynomial (numerators ``nums``) satisfies
    ``P(-1-t) == P(t)`` identically.

    ``P(t) - P(-1-t)`` has degree at most ``D``, the largest degree, so
    agreement at the ``D + 1`` points ``t = 0..D`` proves it is zero.
    """
    top = max(map(len, nums))  # D + 1
    return all(_horner(num, t) == _horner(num, -1 - t) for num in nums for t in range(top))


def _evaluate_family(
    seed: CubicQuadruple,
    mode: SearchMode,
    cfg: SearchConfig,
    zeros: dict[int, list[int]] | None = None,
    stats: SearchStats | None = None,
) -> Iterator[tuple[tuple[int, int], IntQuad]]:
    """``(uv, raw)`` at each point of the family's grid, in scan order.

    Given ``zeros`` (dedupe on; the caller's record of degenerate points)
    and ``stats``, a point whose reflection is in the grid and earlier in
    scan order is not yielded but counted into ``stats`` by
    :func:`_skip_reflected` (the rule is in the module docstring).
    """
    u_lo, u_hi = cfg.u_range
    family, _ = content_reduce(sandor_generate(seed))
    if mode == "cubic":
        v_lo, v_hi = cfg.v_range
        row = range(v_lo, v_hi + 1)
        # Row kernel: q_i(u, v) = alpha_i*u^2 + beta_i*u*v + gamma_i*v^2
        # is A_i + (B_i + gamma_i*v)*v with A_i = alpha_i*u^2 and
        # B_i = beta_i*u fixed for the whole row.
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) = family.coefficient_rows
        for u in range(u_lo, u_hi + 1):
            uu = u * u
            A1, A2, A3, A4 = a1 * uu, a2 * uu, a3 * uu, a4 * uu
            B1, B2, B3, B4 = b1 * u, b2 * u, b3 * u, b4 * u
            if zeros is None or not 0 <= u <= -u_lo:
                segments = (row,)
            else:  # row -u is in the box; row 0 reflects into its own v < 0,
                # so it gets the list it is still filling, not a copy
                lo = -v_hi if u else 1
                segments = _skip_reflected(row, lo, -v_lo, 0, zeros.setdefault(-u, []), stats)
            for vs in segments:
                for v in vs:
                    yield (u, v), (
                        A1 + (B1 + c1 * v) * v,
                        A2 + (B2 + c2 * v) * v,
                        A3 + (B3 + c3 * v) * v,
                        A4 + (B4 + c4 * v) * v,
                    )
    else:
        identity = expand_relation(build_relation(family, mode))
        n1, n2, n3, n4 = nums = [p._num for p in identity.polys]
        dens = [p._den for p in identity.polys]
        whole = dens == [1, 1, 1, 1]
        line = range(u_lo, u_hi + 1)
        segments = (line,)
        if zeros is not None and _reflection_holds(nums):
            segments = _skip_reflected(line, 0, -1 - u_lo, -1, zeros, stats)
        for us in segments:
            for u in us:
                raw = _horner(n1, u), _horner(n2, u), _horner(n3, u), _horner(n4, u)
                if not whole:
                    if any(x % d for x, d in zip(raw, dens)):
                        values = identity.evaluate(u)
                        raise RuntimeError(
                            f"seed {seed.as_tuple} mode {mode.label}: identity value "
                            f"{tuple(map(str, values))} at u={u} is not whole"
                        )
                    raw = tuple(x // d for x, d in zip(raw, dens))
                yield (u, 0), raw


#: The one record encoder: a JSONL line with every integer as a decimal
#: string, byte for byte ``json.dumps`` of the record's object with
#: ``separators=(",", ":")``.
_RECORD_LINE = (
    '{"seed":["%d","%d","%d","%d"],"uv":["%d","%d"],'
    '"raw":["%d","%d","%d","%d"],"reduced":["%d","%d","%d","%d"],'
    '"content":"%d","ratio":{"num":"%d","den":"%d"},"taxicab":%s}\n'
)


#: The reading side of ``_RECORD_LINE``: each ``%d`` becomes a group of
#: an optional minus and ASCII digits, and the taxicab ``%s`` is ``null``
#: or such a group in quotes.  Nothing else may differ, not even
#: whitespace, so every line it matches is a line ``json.loads`` reads
#: as the same record.  It is compiled by :func:`scan_records`, not at import.
_RECORD_PATTERN = (
    re.escape(_RECORD_LINE[:-1])
    .replace("%d", "(-?[0-9]+)")
    .replace("%s", '(?:null|"(-?[0-9]+)")')
    + r"\n?\Z"
)


def write_records(records: Iterable[SolutionRecord], destination: str | Path | IO[str]) -> int:
    """Write records as JSON lines; returns the number written."""
    if isinstance(destination, (str, Path)):
        try:
            with open(destination, "w", encoding="utf-8") as fh:
                return write_records(records, fh)
        except OSError as exc:
            raise ValueError(f"cannot write solutions file {destination}: {exc}") from exc
    write = destination.write
    count = 0
    for r in records:
        taxicab = "null" if r.taxicab is None else '"%d"' % r.taxicab
        ratio = r.ratio.numerator, r.ratio.denominator
        write(
            _RECORD_LINE
            % (*r.seed, *r.uv, *r.raw, *r.reduced, r.content, *ratio, taxicab)
        )
        count += 1
    return count


def scan_records(lines: Iterable[str]) -> Iterator[tuple[int, SolutionRecord | Exception]]:
    """Decode and re-verify JSONL solution records one line at a time.

    Yields ``(line_number, record)`` for every non-blank line; a line
    that fails to decode or verify yields its exception in place of the
    record, and scanning goes on.  It holds no more than the line it is
    on, so its memory is that of whatever holds ``lines``: one line for
    an open file, one block of lines for ``verify`` on a large file.

    A line exactly as :func:`write_records` writes it is decoded by
    ``_RECORD_PATTERN``; every other line, and one whose fields the
    pattern's decoder cannot convert, goes through ``json.loads`` and
    :meth:`SolutionRecord.from_json`.  A template line whose seed and
    ratio strings are those of the template line before it takes that
    line's seed and ratio without reading them again.
    """
    match = re.compile(_RECORD_PATTERN).match  # cached by re after the first call
    seed_text = seed_state = None  # the last template line's seed and ratio strings, read
    for lineno, line in enumerate(lines, start=1):
        template = match(line)
        if template is None and not line.strip():
            continue
        try:
            record = None
            if template is not None:
                groups = template.groups()
                try:
                    text = groups[:4] + groups[15:17]
                    if text != seed_text:
                        seed_state = _template_seed(text)
                        seed_text = text
                    record = _record_from_groups(groups, seed_state)
                except (ArithmeticError, ValueError):
                    pass  # reported by from_json below, in its own words
            if record is None:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("not a JSON object")
                record = SolutionRecord.from_json(obj)
            verify_record(record)
        except (ArithmeticError, IndexError, KeyError, TypeError, ValueError, RecursionError) as exc:
            yield lineno, exc
        else:
            yield lineno, record


def _template_seed(text: tuple[str, ...]) -> tuple[CubicQuadruple, Fraction]:
    """The seed and ratio of a template line's four seed and two ratio
    strings, as :meth:`SolutionRecord.from_json` reads them: the ratio of
    :func:`_seed_state` when the line's own matches it term for term.
    Raises ValueError for a field over ``int``'s digit limit, and as
    :func:`_seed_state` or ``Fraction`` do."""
    a, b, c, d, num, den = map(int, text)
    seed, ratio = _seed_state((a, b, c, d))
    if num != ratio.numerator or den != ratio.denominator:
        ratio = Fraction(num, den)
    return seed, ratio


def _record_from_groups(
    groups: tuple[str | None, ...], seed_state: tuple[CubicQuadruple, Fraction]
) -> SolutionRecord:
    """The record of one ``_RECORD_PATTERN`` match whose seed and ratio
    :func:`_template_seed` has read; raises ValueError for a field over
    ``int``'s digit limit."""
    u, v, r1, r2, r3, r4, x1, x2, x3, x4, content = map(int, groups[4:15])
    taxicab = None if groups[17] is None else int(groups[17])
    seed, ratio = seed_state
    fields = seed, (u, v), (r1, r2, r3, r4), (x1, x2, x3, x4), content, ratio, taxicab
    return SolutionRecord._make(fields)


def load_records(path: str | Path) -> list[SolutionRecord]:
    """Read a JSONL solutions file, re-verifying each record; the first
    bad line, a byte that is not UTF-8 included, raises ValueError naming
    ``path:lineno``."""
    out: list[SolutionRecord] = []
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, item in scan_records(fh):
                if isinstance(item, Exception):
                    raise ValueError(f"{path}:{lineno}: {item}") from item
                out.append(item)
    except OSError as exc:
        raise ValueError(f"cannot read solutions file {path}: {exc}") from exc
    return out
