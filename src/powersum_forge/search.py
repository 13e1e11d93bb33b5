"""Grid search over generated families, with canonical deduplication.

For each seed the family is generated, and so proven, once (content
reduced); for each mode it is derived once into a grid (:func:`_grids`),
then evaluated over an inclusive integer box.  Numeric quadruples are
normalized to a canonical representative so that rescaled, reordered or
globally negated tuples collapse together, and each canonical quadruple
is tagged when it exhibits a two-cubes coincidence (an integer that is a
sum of two positive cubes in two distinct ways).

Evaluation order is fixed: seeds in configuration order, then mode,
then u ascending, then v ascending.  :func:`run_search` runs in one
process and evaluates lazily, one point at a time; with ``dedupe`` off
its memory stays bounded however large the grid.  :func:`write_search`
runs a large grid on forked worker processes, in blocks of a bounded
number of points, and writes the same bytes: a point's raw tuple depends
only on the point, and the state shared across blocks (the dedupe set,
and the degenerate points the reflection rule reads) is kept in the
writing process, so with ``dedupe`` off its memory stays bounded too.

Cubic mode evaluates the reduced family with a row kernel: for each
``u`` it folds ``alpha*u^2`` and ``beta*u`` of every form into two
constants, so each point costs ``A + (B + gamma*v)*v`` per form
(:func:`cubic.evaluate_forms` is the same value, one point at a time).
Relation modes (``Q:k,m`` / ``F:k``) scan the integers ``u`` of
``u_range`` and evaluate the expanded univariate identity by one Horner
pass per point on its four packed integer numerator lists,
``C_j = sum_i c_ij * 2^(B*i)`` (:func:`polynomials._packed`): the four
values are read back as balanced base-``2^B`` digits.  ``B`` is chosen
per block of rows, ``R`` the largest ``|u|`` among them, so that
``|p_i(u)| <= sum_j |c_ij| * R^j < 2^(B-2)`` for every polynomial, which
makes each digit exact.  The record stores ``uv = [u, 0]`` for those,
and ``v_range`` is ignored.  An expanded identity that is not integral
is refused, with RuntimeError, before any of its points.

One reflection rule serves both modes: a point ``x`` of a scan line has
the raw tuple of ``c - x``.  Each cubic form is homogeneous of degree 2,
so ``(u, v)`` and ``(-u, -v)`` agree: ``v`` on row ``u`` reflects to
``-v`` on row ``-u`` (``c = 0``).  As ``S_k(-1-n) = (-1)^(k+1) S_k(n)``,
every expanded polynomial of ``Q:k,m`` with ``k + m`` even satisfies
``P(-1-u) = P(u)``, and those of ``F:k`` do not: ``u`` reflects to
``-1-u`` (``c = -1``).  The search never goes by the mode's name: once
per seed and mode it checks ``P(t) == P(-1-t)`` at ``t = 0..ceil(D/2)-1``,
``D`` the largest degree, which proves the identity exactly: ``P(t) -
P(-1-t)`` is odd about ``-1/2``, so it then has ``2*ceil(D/2) + 1 > D``
roots, more than a nonzero polynomial of degree at most ``D`` has.  With
``dedupe`` on, a point whose reflection is in the grid and earlier in
scan order is not evaluated, only counted: degenerate if its reflection
was, a duplicate otherwise.  ``evaluated`` counts every lattice point
visited, these included, so records and counts are those of a full scan.

Cubic mode with ``dedupe`` on has a second rule, the line rule, for a
point ``p = (u, v)`` before ``(0, 0)`` in scan order (``u < 0``, or
``u = 0`` and ``v < 0``) whose raw tuple has no zero entry.  With
``g = gcd(u, v)``, if ``p + p/g`` is in the grid, ``p`` is counted as a
duplicate without being canonicalized.  Proof: ``p = g*d`` for a
primitive ``d``, and ``p + p/g = (g+1)*d`` comes earlier in scan order;
their raw tuples are ``g^2*raw(d)`` and ``(g+1)^2*raw(d)``, with the
same canonical quadruple and the same zero entries.  ``(g+1)*d`` is
before ``(0, 0)`` too, so it is never reflected away; by induction
outwards along the line its canonical quadruple is already seen.  The
point is evaluated first, so degenerate points are counted, and their
reflections found, exactly as before.

One canonicalizer, :func:`canonicalize`, serves both the search and
:func:`verify_record`.  One record-line encoder, a single ``%``-format
template, ``_RECORD_LINE``, writes every record, to a file or to
stdout.  Once per seed and ratio their fields are filled in, and the
rest of each line is filled in from the search loop's values by
:func:`write_search`, which the CLI runs, or from a record's fields by
:func:`write_records`.  :func:`scan_records` reads those lines back and
re-verifies each one.  A line is first read by re-encoding it: the
seed's :class:`CubicQuadruple`, ratio and line encoder come from one
small cache, :func:`_seed_state`, keyed on the seed's four texts, so a
hit parses no seed integer; ``uv`` and ``raw`` are read, every other
field is derived from them with the search's own code, and the line is
accepted when the seed's encoder writes it byte for byte (which refuses
a seed text that ``int`` reads and the encoder never writes).  Any other
line is read by ``json.loads`` and :meth:`SolutionRecord.from_json`, and
checked by :func:`verify_record`, which alone word the errors.
``verify`` only counts a line the re-encoding accepts.  The lines are
independent of each other, so ``verify`` scans a large file's blocks of
lines in parallel processes.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from fractions import Fraction
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .cubic import CubicQuadruple, _Validated, content_reduce, fraction_ratio, sandor_generate
from .exactcore import json_int, json_ints
from .polynomials import _horner, _packed
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
    "write_search",
    "load_records",
    "scan_records",
    "verify_record",
]

#: Hard ceiling on lattice points per run unless explicitly forced.
GRID_GUARDRAIL = 10_000_000

#: Environment variable capping :func:`resolve_workers`.
THREADS_ENV = "POWERSUM_FORGE_THREADS"

#: Lattice points from which :func:`write_search` may search on forked
#: workers; a smaller grid takes less time than forking them.
_FORK_POINTS = 32_768

#: Most lattice points of one grid that a forked worker scans as one
#: block: whole rows (values of ``u``) where a row holds no more, pieces
#: of one row otherwise.  A cubic row holds every ``v`` of the box, a
#: relation row one point.  A block's lines are held whole on both sides
#: of the fork, so this bounds the search's memory, with ``dedupe`` off.
_BLOCK_POINTS = 2_048

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
    x, y, z, d = quad
    if d <= 0:
        return None
    if x > y:  # sort the first three, as canonicalize does
        x, y = y, x
    if y > z:
        y, z = z, y
        if x > y:
            x, y = y, x
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
        number (or a list of them) raises ValueError naming it."""
        seed = _seed_state(*json_ints(obj["seed"], "seed", 4))[0]
        num = json_int(obj["ratio"]["num"], "ratio.num")
        ratio = Fraction(num, json_int(obj["ratio"]["den"], "ratio.den"))
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
def _seed_state(*values: int | str) -> tuple[CubicQuadruple, Fraction, Callable[..., str]]:
    """The seed of four integers (validated by :func:`json_ints`, so
    ``1.0`` or ``true`` never reach the key) or of their four texts in a
    record line, its ratio and the :func:`_line_encoder` of both.  A text
    is read by ``int`` only on a miss; ``int`` also reads texts the
    encoder never writes (``"08"``, ``" 8"``, ``"1_0"``), which the line's
    byte comparison then refuses."""
    seed = CubicQuadruple(*map(int, values))
    ratio = fraction_ratio(seed)
    return seed, ratio, _line_encoder(seed, ratio)


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
    ratio = _seed_state(*record.seed.as_tuple)[1]
    if record.ratio != ratio:
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

    Only reported: :func:`write_search` counts its workers with
    :func:`forks.worker_count`, from its ``threads`` and the CPUs.
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
    the run ends; a point whose reflection was visited earlier is
    counted without arithmetic, and a cubic point with a point further
    out on its line through the origin in the grid is counted as a
    duplicate without being canonicalized (both rules are in the module
    docstring).  ``stats.evaluated`` counts every lattice point visited,
    reflected points included, and every count is current at each
    record yielded.  The guardrail on total lattice points is checked
    eagerly, before any evaluation.  ``threads`` is accepted and
    ignored: the records are made in this process, one at a time.
    """
    _check_guardrail(cfg)
    return _search_iter(cfg, stats, _record_encoder)


def write_search(
    cfg: SearchConfig,
    destination: str | Path | IO[str],
    stats: SearchStats | None = None,
    threads: int | None = 1,
) -> int:
    """Run a search and write its records as JSON lines; returns the
    number written.

    The bytes are those of ``write_records(run_search(cfg, stats),
    destination)``, and ``stats`` is updated the same way, but each line
    is formatted in the search loop from a template holding the seed and
    ratio, with no :class:`SolutionRecord` built.  The guardrail is
    checked before ``destination`` is opened.

    With ``threads`` above 1, or None for no cap, a grid of at least
    ``_FORK_POINTS`` lattice points is searched in blocks of at most
    ``_BLOCK_POINTS`` points on forked worker processes, at most
    ``threads`` of them and one for each CPU this process may run on; the
    bytes and counts are the same.  Each worker scans a block with a
    ``seen`` set of its own and sends its result down a pipe, which holds
    the worker to about one block ahead of this process
    (:func:`forks.forked_map`); this process dedupes the blocks' records
    in scan order against one set, as :func:`_merge_blocks` says.
    """
    _check_guardrail(cfg)
    if stats is None:
        stats = SearchStats()
    emitted = stats.emitted
    workers = 1
    if threads != 1 and cfg.lattice_points >= _FORK_POINTS:
        from . import forks

        blocks = {mode: _blocks(cfg, mode) for mode in cfg.modes}
        jobs = len(cfg.seeds) * sum(map(len, blocks.values()))
        workers = forks.worker_count(threads, jobs)
    if workers < 2:
        _write_lines(_search_iter(cfg, stats, _line_encoder), destination)
        return stats.emitted - emitted
    jobs = [(grid, *block) for grid in _grids(cfg) for block in blocks[grid.mode]]
    with forks.forked_map(functools.partial(_scan_block, cfg), jobs, workers) as results:
        _write_lines(_merge_blocks(results, jobs, cfg.dedupe, stats), destination)
    return stats.emitted - emitted


def _blocks(cfg: SearchConfig, mode: SearchMode) -> list[tuple[range, range]]:
    """A grid of ``mode`` cut, in scan order, into blocks of at most
    ``_BLOCK_POINTS`` points, each as its rows (values of ``u``) and its
    columns (values of ``v``; a relation grid has one, which is ignored)."""
    (u_lo, u_hi), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    us, vs = range(u_lo, u_hi + 1), range(v_lo, v_hi + 1)
    if mode != "cubic" or len(vs) <= _BLOCK_POINTS:
        step = _BLOCK_POINTS // (len(vs) if mode == "cubic" else 1)
        return [(us[i : i + step], vs) for i in range(0, len(us), step)]
    pieces = range(0, len(vs), _BLOCK_POINTS)
    return [(us[i : i + 1], vs[j : j + _BLOCK_POINTS]) for i in range(len(us)) for j in pieces]


def _scan_block(cfg: SearchConfig, job: tuple) -> tuple:
    """One block of one grid, scanned by :func:`_scan` with a
    ``seen`` set and degenerate points of its own: its four counts, its
    degenerate points by ``u``, the reflected intervals it took out,
    uncounted, as ``(key, lo, hi, centre)``, the ``_REDUCED`` text of
    each record (dedupe on), and the text of its lines.
    """
    grid, rows, columns = job
    stats = SearchStats()
    zeros = seen = settle = keys = None
    intervals: list[tuple] = []
    if cfg.dedupe:
        zeros, seen, keys = {}, set(), []
        settle = lambda *interval: intervals.append(interval)  # noqa: E731
    points = _points(grid, cfg, rows, columns, settle)
    line_rule = cfg.dedupe and grid.mode == "cubic"
    encode = _line_encoder(grid.seed, grid.ratio, keys)
    lines = list(_scan(points, cfg, line_rule, zeros, seen, stats, encode))
    counts = stats.evaluated, stats.degenerate, stats.duplicates, stats.emitted
    return counts, zeros, intervals, keys, "".join(lines)


def _merge_blocks(
    blocks: Iterable[tuple], jobs: list[tuple], dedupe: bool, stats: SearchStats
) -> Iterator[str]:
    """The text of the search from each job's :func:`_scan_block` result,
    in order, with ``stats`` updated as the serial search updates it.

    With dedupe on, each grid's degenerate points are gathered as the
    serial search gathers them, each reflected interval is counted by
    :func:`_settle` against them (its reflections are in this block or an
    earlier one), and a record whose canonical quadruple an earlier block
    emitted is dropped as a duplicate.
    """
    seen: set[str] = set()
    grid = zeros = None
    for (grid_of_job, *_), result in zip(jobs, blocks):
        counts, block_zeros, intervals, keys, text = result
        evaluated, degenerate, duplicates, emitted = counts
        stats.evaluated += evaluated
        stats.degenerate += degenerate
        stats.duplicates += duplicates
        stats.emitted += emitted
        if not dedupe:
            yield text
            continue
        if grid_of_job is not grid:
            grid, zeros = grid_of_job, {}
        for u, vs in block_zeros.items():
            zeros.setdefault(u, []).extend(vs)
        for interval in intervals:
            _settle(zeros, stats, *interval)
        if not seen.isdisjoint(keys):
            # A record line is ASCII digits, quotes and punctuation with one
            # trailing "\n", so splitlines cuts the text into its lines.
            lines = text.splitlines(keepends=True)
            kept = [line for key, line in zip(keys, lines) if key not in seen]
            stats.emitted -= len(lines) - len(kept)
            stats.duplicates += len(lines) - len(kept)
            text = "".join(kept)
        seen.update(keys)
        yield text


def _check_guardrail(cfg: SearchConfig) -> None:
    points = cfg.lattice_points
    if points > GRID_GUARDRAIL and not cfg.force:
        raise ValueError(
            f"search grid has {points} lattice points, over the {GRID_GUARDRAIL} "
            "guardrail; set force to run anyway"
        )


def _search_iter(cfg: SearchConfig, stats: SearchStats | None, encoder) -> Iterator:
    """What ``encoder(seed, ratio)(uv, raw, reduced, content, taxicab)``
    makes of each record of the search, ``encoder`` called once per grid."""
    if stats is None:
        stats = SearchStats()
    dedupe = cfg.dedupe
    seen: set[IntQuad] | None = set() if dedupe else None
    (u_lo, u_hi), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    rows, columns = range(u_lo, u_hi + 1), range(v_lo, v_hi + 1)
    for grid in _grids(cfg):
        # With dedupe on, a point whose reflection came earlier is counted
        # by _settle, not evaluated: zeros keeps, by u, the v of the
        # degenerate points scanned so far.
        zeros: dict[int, list[int]] | None = {} if dedupe else None
        settle = None if zeros is None else functools.partial(_settle, zeros, stats)
        points = _points(grid, cfg, rows, columns, settle)
        line_rule = dedupe and grid.mode == "cubic"
        yield from _scan(points, cfg, line_rule, zeros, seen, stats, encoder(grid.seed, grid.ratio))


def _scan(
    points: Iterable[tuple[tuple[int, int], IntQuad]],
    cfg: SearchConfig,
    line_rule: bool,
    zeros: dict[int, list[int]] | None,
    seen: set | None,
    stats: SearchStats,
    encode,
) -> Iterator:
    """``encode(uv, raw, reduced, content, taxicab)`` of each record among
    ``points``: a degenerate point is counted and, given ``zeros``, kept
    there; with ``line_rule``, a cubic point before (0, 0) in scan order
    is a duplicate, without canonicalize, when the next lattice point out
    on its line through the origin is in the grid; given ``seen``, a
    canonical quadruple seen before is a duplicate."""
    (u_lo, _), (v_lo, v_hi) = cfg.u_range, cfg.v_range
    for uv, raw in points:
        stats.evaluated += 1
        if 0 in raw:
            stats.degenerate += 1
            if zeros is not None:
                zeros.setdefault(uv[0], []).append(uv[1])
            continue
        if line_rule and uv < (0, 0):
            u, v = uv
            g = math.gcd(u, v)
            if u_lo <= u + u // g and v_lo <= v + v // g <= v_hi:
                stats.duplicates += 1
                continue
        reduced, content = canonicalize(raw)
        if seen is not None:
            if reduced in seen:
                stats.duplicates += 1
                continue
            seen.add(reduced)
        stats.emitted += 1
        yield encode(uv, raw, reduced, content, detect_taxicab(reduced))


def _record_encoder(seed: CubicQuadruple, ratio: Fraction):
    def record(uv, raw, reduced, content, taxicab) -> SolutionRecord:
        return SolutionRecord(seed, uv, raw, reduced, content, ratio, taxicab)

    return record


def _line_encoder(seed: Sequence[int], ratio: Fraction, keys: list[str] | None = None):
    """The record-line encoder of one seed and ratio: ``_RECORD_LINE``
    with their six fields filled in once, and the other twelve per line.
    Given ``keys``, it appends to it each line's four reduced entries as
    they stand in the line, ``_REDUCED``'s text, which names the line's
    canonical quadruple."""
    seed_fields = ["%d" % x for x in seed]
    ratio_fields = "%d" % ratio.numerator, "%d" % ratio.denominator
    fields = (*seed_fields, *["%d"] * 6, "%s", "%d", *ratio_fields, "%s")
    reduced_field = '"reduced":["' + _REDUCED
    template = _RECORD_LINE.replace(reduced_field, '"reduced":["%s').replace("%d", "%s") % fields

    def line(uv, raw, reduced, content, taxicab) -> str:
        text = _REDUCED % reduced
        if keys is not None:
            keys.append(text)
        tag = "null" if taxicab is None else '"%d"' % taxicab
        return template % (*uv, *raw, text, content, tag)

    return line


def _skip_reflected(
    line: range, lo: int, hi: int, centre: int, key: int | None, settle
) -> Iterator[range]:
    """The two segments of ``line`` left to evaluate once its points
    ``lo..hi`` (clipped to the line), each the reflection ``centre - x``
    of a point ``x`` scanned earlier, are taken out.

    ``settle(key, lo, hi, centre)`` is told of those points when the
    second segment is asked for, which the caller does only after the
    consumer has taken every point of the first; ``key`` names the scan
    line of the points ``x`` for :func:`_settle`.
    """
    lo, hi = max(lo, line.start), min(hi, line.stop - 1)
    if lo > hi:
        yield line
        return
    yield range(line.start, lo)
    settle(key, lo, hi, centre)
    yield range(hi + 1, line.stop)


def _settle(
    zeros: dict[int, list[int]], stats: SearchStats, key: int | None, lo: int, hi: int, centre: int
) -> None:
    """Count the points ``lo..hi`` that :func:`_skip_reflected` took out
    into ``stats``: one is degenerate if its reflection ``x`` was, and a
    duplicate otherwise, as the canonical quadruple of ``x`` is already
    seen.  The degenerate ``x`` are ``zeros[key]``, or the keys of
    ``zeros`` when ``key`` is None, and are read only now, as a line may
    reflect into its own first segment.
    """
    n = hi - lo + 1
    degenerate = sum(lo <= centre - x <= hi for x in (zeros if key is None else zeros.get(key, ())))
    stats.evaluated += n
    stats.degenerate += degenerate
    stats.duplicates += n - degenerate


def _reflection_holds(nums: Sequence[Sequence[int]]) -> bool:
    """True iff every polynomial (numerators ``nums``) satisfies
    ``P(-1-t) == P(t)`` identically.

    ``R(t) = P(t) - P(-1-t)`` has degree at most ``D``, the largest
    degree, and ``R(-1-t) = -R(t)``, so each root ``t`` gives a second,
    ``-1-t``, and ``-1/2`` is a root: agreement at ``t = 0..ceil(D/2)-1``
    gives ``2*ceil(D/2) + 1 > D`` roots, which proves ``R`` is zero.
    """
    top = max(map(len, nums))  # D + 1, so top // 2 is ceil(D/2)
    return all(_horner(num, t) == _horner(num, -1 - t) for num in nums for t in range(top // 2))


class _Grid(NamedTuple):
    """One seed and mode of a search, derived once: what :func:`_points`
    evaluates, ``family``, is the reduced family's coefficient rows
    (cubic) or the expanded identity's integer numerators (relation);
    ``reflects`` is whether the grid is proven symmetric under its
    reflection, which a cubic grid is by homogeneity."""

    seed: CubicQuadruple
    ratio: Fraction
    mode: SearchMode
    family: Sequence
    reflects: bool


def _grids(cfg: SearchConfig) -> Iterator[_Grid]:
    """The grids of a search, in scan order, each made when it is asked
    for.  Each seed's family is generated, and so proven, and content
    reduced once.  A relation identity that is not integral is refused
    with RuntimeError, before any of its points; whether it reflects is
    proven by :func:`_reflection_holds`, whatever ``dedupe`` is."""
    for seed in cfg.seeds:
        reduced, _ = content_reduce(sandor_generate(seed))
        ratio = fraction_ratio(seed)
        for mode in cfg.modes:
            if mode == "cubic":
                yield _Grid(seed, ratio, mode, reduced.coefficient_rows, True)
                continue
            polys = expand_relation(build_relation(reduced, mode)).polys
            if any(p._den != 1 for p in polys):
                raise RuntimeError(f"seed {seed.as_tuple} mode {mode.label}: expanded identity is not integral")
            nums = [p._num for p in polys]
            yield _Grid(seed, ratio, mode, nums, _reflection_holds(nums))


def _points(
    grid: _Grid, cfg: SearchConfig, rows: range, columns: range, settle
) -> Iterator[tuple[tuple[int, int], IntQuad]]:
    """``(uv, raw)`` at each point of ``grid`` in ``rows`` (values of
    ``u``) and, in cubic mode, ``columns`` (values of ``v``), in scan
    order; given ``settle``, the points whose reflection is in the box
    of ``cfg`` and earlier in scan order go to it instead, through
    :func:`_skip_reflected`."""
    u_lo = cfg.u_range[0]
    if grid.mode == "cubic":
        v_lo, v_hi = cfg.v_range
        # Row kernel: q_i(u, v) = alpha_i*u^2 + beta_i*u*v + gamma_i*v^2
        # is A_i + (B_i + gamma_i*v)*v with A_i = alpha_i*u^2 and
        # B_i = beta_i*u fixed for the whole row.
        (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) = grid.family
        for u in rows:
            uu = u * u
            A1, A2, A3, A4 = a1 * uu, a2 * uu, a3 * uu, a4 * uu
            B1, B2, B3, B4 = b1 * u, b2 * u, b3 * u, b4 * u
            if settle is None or not 0 <= u <= -u_lo:
                segments = (columns,)
            else:  # row -u is in the box; row 0 reflects into its own v < 0
                segments = _skip_reflected(columns, -v_hi if u else 1, -v_lo, 0, -u, settle)
            for vs in segments:
                for v in vs:
                    yield (u, v), (
                        A1 + (B1 + c1 * v) * v,
                        A2 + (B2 + c2 * v) * v,
                        A3 + (B3 + c3 * v) * v,
                        A4 + (B4 + c4 * v) * v,
                    )
    else:
        # One Horner pass per point: the four values are the digits of one
        # packed value (polynomials._packed), each read back less 2^(B-1).
        packed, b1 = _packed(grid.family, max(-rows.start, rows.stop - 1, 0))
        b2, b3, m, h = 2 * b1, 3 * b1, (1 << b1) - 1, 1 << (b1 - 1)  # shifts, digit mask, 2^(B-1)
        segments = (rows,)
        if settle is not None and grid.reflects:
            segments = _skip_reflected(rows, 0, -1 - u_lo, -1, None, settle)
        for us in segments:
            for u in us:
                x = _horner(packed, u)
                yield (u, 0), ((x & m) - h, (x >> b1 & m) - h, (x >> b2 & m) - h, (x >> b3) - h)


#: The one record encoder: a JSONL line with every integer as a decimal
#: string, byte for byte ``json.dumps`` of the record's object with
#: ``separators=(",", ":")``.
_RECORD_LINE = (
    '{"seed":["%d","%d","%d","%d"],"uv":["%d","%d"],'
    '"raw":["%d","%d","%d","%d"],"reduced":["%d","%d","%d","%d"],'
    '"content":"%d","ratio":{"num":"%d","den":"%d"},"taxicab":%s}\n'
)


#: The four reduced entries of a record line, as ``_RECORD_LINE`` writes them.
_REDUCED = '%d","%d","%d","%d'


#: The texts of the ten integers of a record line that the others are
#: derived from, ``seed``, ``uv`` and ``raw``, from its ``line.split('"')``.
_key_texts = operator.itemgetter(*[i for i, p in enumerate(_RECORD_LINE.split('"')) if p == "%d"][:10])


def write_records(records: Iterable[SolutionRecord], destination: str | Path | IO[str]) -> int:
    """Write records as JSON lines; returns the number written."""
    return _write_lines(_record_lines(records), destination)


def _record_lines(records: Iterable[SolutionRecord]) -> Iterator[str]:
    """The line of each record, from the encoder of its seed and ratio,
    made again whenever the seed object or the ratio's value changes."""
    seed = ratio = object()
    for r in records:
        if r.seed is not seed or r.ratio is not ratio and r.ratio != ratio:
            seed, ratio = r.seed, r.ratio
            line = _line_encoder(seed, ratio)
        yield line(r.uv, r.raw, r.reduced, r.content, r.taxicab)


def _write_lines(lines: Iterable[str], destination: str | Path | IO[str]) -> int:
    if isinstance(destination, (str, Path)):
        try:
            with open(destination, "w", encoding="utf-8") as fh:
                return _write_lines(lines, fh)
        except ChildProcessError:  # a worker's error, not the file's
            raise
        except OSError as exc:
            raise ValueError(f"cannot write solutions file {destination}: {exc}") from exc
    write = destination.write
    count = 0
    for line in lines:
        write(line)
        count += 1
    return count


def scan_records(lines: Iterable[str]) -> Iterator[tuple[int, SolutionRecord | Exception]]:
    """Decode and re-verify JSONL solution records one line at a time.

    Yields ``(line_number, record)`` for every non-blank line; a line
    that fails to decode or verify yields its exception in place of the
    record, and scanning goes on.  It holds no more than the line it is
    on, so its memory is that of whatever holds ``lines``: one line for
    an open file, one block of lines for ``verify`` on a large file.

    A line exactly as :func:`write_records` writes it, with or without
    its final newline, is read by :func:`_encoded_fields`; every other
    line by :func:`_json_record`, whose ``json.loads``,
    :meth:`SolutionRecord.from_json` and :func:`verify_record` alone word
    the errors.
    """
    for lineno, line in enumerate(lines, start=1):
        fields = _encoded_fields(line)
        record = _json_record(line) if fields is None else SolutionRecord._make(fields)
        if record is not None:
            yield lineno, record


def _json_record(line: str) -> SolutionRecord | Exception | None:
    """The record of a line read by ``json.loads`` and checked by
    :func:`verify_record`, or the exception that refuses it; None for a
    blank line."""
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
        record = SolutionRecord.from_json(obj)
        verify_record(record)
    except (ArithmeticError, IndexError, KeyError, TypeError, ValueError, RecursionError) as exc:
        return exc
    return record


def _encoded_fields(line: str) -> tuple | None:
    """The fields of the record of a line that its seed's encoder writes
    byte for byte, with or without the final newline, in
    :class:`SolutionRecord`'s order; None for any other line.

    Only ``seed``, ``uv`` and ``raw`` are read, the seed by its texts
    through :func:`_seed_state`.  ``raw`` must have no zero entry and
    canonicalize to a solution of the cubic equation, as
    :func:`verify_record` asks; the other fields are derived from it as
    the search derives them, so an accepted line is one that
    :func:`verify_record` passes.  A line too short, an integer ``int``
    cannot read (over its digit limit, say) or an invalid seed gives None.
    """
    try:
        a, b, c, d, u, v, r1, r2, r3, r4 = _key_texts(line.split('"', 26))  # split no further than r4
        seed, ratio, encode = _seed_state(a, b, c, d)
        uv = int(u), int(v)
        raw = int(r1), int(r2), int(r3), int(r4)
        if 0 in raw:
            return None
        reduced, content = canonicalize(raw)
        x1, x2, x3, x4 = reduced
        if x1 * x1 * x1 + x2 * x2 * x2 + x3 * x3 * x3 != x4 * x4 * x4:
            return None
        taxicab = detect_taxicab(reduced)
        text = encode(uv, raw, reduced, content, taxicab)  # a taxicab over int's digit limit
    except (IndexError, ValueError):
        return None
    if line != text and line != text[:-1]:
        return None
    return seed, uv, raw, reduced, content, ratio, taxicab


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
