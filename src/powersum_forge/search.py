"""Grid search over generated families, with canonical deduplication.

For each seed the family is generated once (content reduced), then
evaluated over an inclusive integer grid.  Numeric quadruples are
normalized to a canonical representative so that rescaled, reordered or
globally negated tuples collapse together, and each canonical quadruple
is tagged when it exhibits a two-cubes coincidence (an integer that is a
sum of two positive cubes in two distinct ways).

Evaluation order is fixed: seeds in configuration order, then mode,
then u ascending, then v ascending.  The search runs on one thread and
evaluates lazily, one point at a time, so memory stays bounded however
large the grid; the ``threads`` argument is accepted for compatibility
and changes nothing, so every run emits byte-identical records.

Relation modes (``Q:k,m`` / ``F:k``) evaluate the expanded univariate
identity at each integer ``u`` in ``u_range``; the record stores
``uv = [u, 0]`` for those, and ``v_range`` is ignored.  A value that is
not a whole number raises RuntimeError instead of being truncated.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

from .cubic import (
    CubicQuadruple,
    content_reduce,
    evaluate_forms,
    fraction_ratio,
    sandor_generate,
)
from .exactcore import json_int, json_ints
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
    ``(canonical, content)``.  The all-zero tuple is rejected.
    """
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
    x1, x2, x3, d = (int(x) for x in quad)
    if d <= 0:
        return None
    negatives = [x for x in (x1, x2, x3) if x < 0]
    positives = [x for x in (x1, x2, x3) if x > 0]
    if len(negatives) != 1 or len(positives) != 2:
        return None
    x = -negatives[0]
    pair_a = tuple(sorted(positives))
    pair_b = tuple(sorted((x, d)))
    if pair_a == pair_b:
        return None
    return positives[0] ** 3 + positives[1] ** 3


@dataclass(frozen=True)
class SolutionRecord:
    """One numeric solution with provenance and classification."""

    seed: CubicQuadruple
    uv: tuple[int, int]
    raw: IntQuad
    reduced: IntQuad
    content: int
    ratio: Fraction
    taxicab: int | None

    def to_json(self) -> dict:
        return {
            "seed": [str(x) for x in self.seed.as_tuple],
            "uv": [str(self.uv[0]), str(self.uv[1])],
            "raw": [str(x) for x in self.raw],
            "reduced": [str(x) for x in self.reduced],
            "content": str(self.content),
            "ratio": {"num": str(self.ratio.numerator), "den": str(self.ratio.denominator)},
            "taxicab": str(self.taxicab) if self.taxicab is not None else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionRecord":
        """A record from its JSON object; a field that is not a whole
        number (or a list of them) raises ValueError naming it."""
        taxicab = obj.get("taxicab")
        return cls(
            seed=CubicQuadruple(*json_ints(obj["seed"], "seed", 4)),
            uv=json_ints(obj["uv"], "uv", 2),
            raw=json_ints(obj["raw"], "raw", 4),
            reduced=json_ints(obj["reduced"], "reduced", 4),
            content=json_int(obj["content"], "content"),
            ratio=Fraction(
                json_int(obj["ratio"]["num"], "ratio.num"),
                json_int(obj["ratio"]["den"], "ratio.den"),
            ),
            taxicab=json_int(taxicab, "taxicab") if taxicab is not None else None,
        )


def verify_record(record: SolutionRecord) -> None:
    """Re-derive a record's fields from ``raw`` and ``seed``; raise ValueError on mismatch.

    ``raw`` itself is not re-evaluated from ``seed`` and ``uv``.
    """
    x1, x2, x3, x4 = record.reduced
    if x1**3 + x2**3 + x3**3 != x4**3:
        raise ValueError(f"reduced tuple {record.reduced} fails the cubic equation")
    reduced, content = canonicalize(record.raw)
    if reduced != record.reduced or content != record.content:
        raise ValueError(
            f"raw tuple {record.raw} canonicalizes to {reduced} content {content}, "
            f"record says {record.reduced} content {record.content}"
        )
    if fraction_ratio(record.seed) != record.ratio:
        raise ValueError(f"seed {record.seed.as_tuple} has ratio {fraction_ratio(record.seed)}")
    if detect_taxicab(record.reduced) != record.taxicab:
        raise ValueError(f"taxicab tag mismatch for {record.reduced}")


@dataclass
class SearchStats:
    evaluated: int = 0
    degenerate: int = 0
    duplicates: int = 0
    emitted: int = 0


@dataclass(frozen=True)
class SearchConfig:
    """Validated search parameters; ranges are inclusive."""

    seeds: tuple[CubicQuadruple, ...]
    u_range: tuple[int, int]
    v_range: tuple[int, int]
    modes: tuple[SearchMode, ...] = ("cubic",)
    dedupe: bool = True
    output: str | None = None
    force: bool = False

    def __post_init__(self):
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
        except OSError as exc:
            raise ValueError(f"cannot read search config {path}: {exc}") from exc
        return cls.from_dict(json.loads(text))


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
    quadruple is emitted.  The guardrail on total lattice points is
    checked eagerly, before any evaluation.  ``threads`` is accepted for
    compatibility and ignored: the search is single-threaded.
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
            for uv, raw in _evaluate_family(seed, mode, cfg):
                stats.evaluated += 1
                if any(x == 0 for x in raw):
                    stats.degenerate += 1
                    continue
                reduced, content = canonicalize(raw)
                if cfg.dedupe:
                    if reduced in seen:
                        stats.duplicates += 1
                        continue
                    seen.add(reduced)
                stats.emitted += 1
                yield SolutionRecord(
                    seed=seed,
                    uv=uv,
                    raw=raw,
                    reduced=reduced,
                    content=content,
                    ratio=ratio,
                    taxicab=detect_taxicab(reduced),
                )


def _evaluate_family(
    seed: CubicQuadruple,
    mode: SearchMode,
    cfg: SearchConfig,
) -> Iterator[tuple[tuple[int, int], IntQuad]]:
    u_lo, u_hi = cfg.u_range
    v_lo, v_hi = cfg.v_range
    family, _ = content_reduce(sandor_generate(seed))
    if mode == "cubic":
        for u in range(u_lo, u_hi + 1):
            for v in range(v_lo, v_hi + 1):
                yield (u, v), evaluate_forms(family, u, v)
    else:
        identity = expand_relation(build_relation(family, mode))
        for u in range(u_lo, u_hi + 1):
            values = identity.evaluate(u)
            if any(x.denominator != 1 for x in values):
                raise RuntimeError(
                    f"seed {seed.as_tuple} mode {mode.label}: identity value "
                    f"{tuple(map(str, values))} at u={u} is not whole"
                )
            yield (u, 0), tuple(x.numerator for x in values)


def write_records(records: Iterable[SolutionRecord], destination: str | Path | IO[str]) -> int:
    """Write records as JSON lines; returns the number written."""
    if isinstance(destination, (str, Path)):
        try:
            with open(destination, "w", encoding="utf-8") as fh:
                return write_records(records, fh)
        except OSError as exc:
            raise ValueError(f"cannot write solutions file {destination}: {exc}") from exc
    count = 0
    for record in records:
        destination.write(json.dumps(record.to_json(), separators=(",", ":")))
        destination.write("\n")
        count += 1
    return count


def scan_records(lines: Iterable[str]) -> Iterator[tuple[int, SolutionRecord | Exception]]:
    """Decode and re-verify JSONL solution records one line at a time.

    Yields ``(line_number, record)`` for every non-blank line; a line
    that fails to decode or verify yields its exception in place of the
    record, and scanning goes on.  Only one line is held in memory at a time.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            record = SolutionRecord.from_json(obj)
            verify_record(record)
        except (ArithmeticError, IndexError, KeyError, TypeError, ValueError) as exc:
            yield lineno, exc
        else:
            yield lineno, record


def load_records(path: str | Path) -> list[SolutionRecord]:
    """Read a JSONL solutions file, re-verifying each record."""
    out: list[SolutionRecord] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, item in scan_records(fh):
                if isinstance(item, Exception):
                    raise ValueError(f"{path}:{lineno}: {item}") from item
                out.append(item)
    except OSError as exc:
        raise ValueError(f"cannot read solutions file {path}: {exc}") from exc
    return out
