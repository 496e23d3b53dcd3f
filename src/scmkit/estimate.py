"""Datasets, empirical joints, plug-in estimates and bootstrap intervals.

Reading data and grouping or decoding code rows need numpy alone; the
estimand algebra and its evaluator are imported only by the functions that
evaluate an estimand, so commands that only read data load neither.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .expr import Estimand, JointTable

__all__ = [
    "MISSING_TOKEN",
    "Dataset",
    "Estimate",
    "DataError",
    "MissingDataPresent",
    "TooManyDegenerateResamples",
    "load_table",
    "group_rows",
    "decode_rows",
    "empirical_joint",
    "plug_in",
    "bootstrap_interval",
]

MISSING_TOKEN = "NA"

# bootstrap replicates evaluated together; bounds memory for any B
BOOTSTRAP_BLOCK = 256
# at about 40 us a replicate (20,000 rows, 81 cells), some 40 s of resampling
_BOOTSTRAP_MAX = 1_000_000


class DataError(ValueError):
    """Malformed data file or dataset."""


class MissingDataPresent(DataError):
    """The operation needs complete data; route through recoverability first."""


class TooManyDegenerateResamples(ArithmeticError):
    """Too large a share of bootstrap resamples hit an empty stratum."""


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """Rectangular categorical data, stored as integer codes.

    ``codes`` is a read-only ``(n, columns)`` array: each cell's index in its
    column's ``domains`` entry (the sorted distinct observed values), -1 for a
    missing cell, in the smallest signed dtype that also holds one past the
    widest domain.
    """

    columns: tuple[str, ...]
    domains: dict[str, tuple[str, ...]]
    codes: np.ndarray

    def __init__(self, columns: Iterable[str], rows: Sequence[Sequence[str | None]]):
        """Encode rows of cells; ``None`` marks a missing cell."""
        columns = _distinct(columns)
        if not rows:
            raise DataError("dataset needs at least one row")
        widths = np.fromiter(map(len, rows), np.intp, len(rows))
        ragged = np.flatnonzero(widths != len(columns))
        bad = int(ragged[0]) if ragged.size else len(rows)
        # the first bad row wins: the rows above a ragged one are checked for
        # empty cells before it is refused
        tokens = _tokens(rows[:bad], len(columns))
        self._set(columns, *_encode(columns, tokens, bad))
        if bad < len(rows):
            raise DataError(
                f"row {bad + 1} has {widths[bad]} cells, expected {len(columns)}"
            )

    @classmethod
    def _coded(cls, columns, domains, codes) -> "Dataset":
        """A dataset over columns already encoded."""
        d = cls.__new__(cls)
        d._set(columns, domains, codes)
        return d

    def _set(self, columns, domains, codes) -> None:
        codes.flags.writeable = False
        for name, value in (("columns", columns), ("domains", domains), ("codes", codes)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt through _coded, so a copy's codes are read-only and its
        # cached views are recomputed
        return Dataset._coded, (self.columns, self.domains, self.codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @cached_property
    def rows(self) -> tuple[tuple[str | None, ...], ...]:
        """The cells decoded row by row on first use, ``None`` for a missing
        cell; the engine itself reads ``codes``."""
        return tuple(decode_rows(self.codes, [self.domains[c] for c in self.columns]))

    @cached_property
    def has_missing(self) -> bool:
        return bool((self.codes < 0).any())

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows of ``codes`` in lexicographic order and how many
        times each occurs, both read-only: every count over the dataset reads
        these, so its rows are grouped once."""
        group, rows = group_rows(self.codes)
        count = np.bincount(group)
        rows.flags.writeable = count.flags.writeable = False
        return rows, count

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"no column named {name}") from None

    def select(self, names: Iterable[str]) -> "Dataset":
        idx = [self.column_index(c) for c in names]
        columns = _distinct(self.columns[i] for i in idx)
        domains = {c: self.domains[c] for c in columns}
        codes = self.codes[:, idx].astype(_code_dtype(domains))
        return Dataset._coded(columns, domains, codes)


def group_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group of every row of an integer matrix, and the distinct rows in
    lexicographic order; group ``g`` is distinct row ``g``."""
    order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(len(codes))
    ranked = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(first) - 1
    return group, ranked[first]


def decode_rows(codes: np.ndarray, domains) -> list[tuple]:
    """Rows of an integer matrix decoded through each column's domain; -1 or
    a code past the end of a domain decodes to ``None``."""
    cols = [
        np.array((*dom, None), dtype=object)[codes[:, j]].tolist()
        for j, dom in enumerate(domains)
    ]
    return list(zip(*cols)) if cols else [()] * len(codes)


def _distinct(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DataError("duplicate column names")
    return names


def _code_dtype(domains: Mapping[str, tuple[str, ...]]) -> np.dtype:
    return np.min_scalar_type(-1 - max(map(len, domains.values()), default=0))


def _tokens(
    rows: Sequence[Sequence], width: int, clean=None
) -> Iterator[tuple[list, np.ndarray]]:
    """Per column of ``rows``: its distinct tokens, passed through ``clean``
    once each, and every cell's index among them."""
    for j in range(width):
        col = list(map(itemgetter(j), rows))
        pos = {t: i for i, t in enumerate(dict.fromkeys(col))}
        values = list(map(clean, pos)) if clean else list(pos)
        yield values, np.array(list(map(pos.__getitem__, col)), dtype=np.intp)


def _encode(
    columns: tuple[str, ...], tokens: Iterable[tuple[Sequence, np.ndarray]], n: int
) -> tuple[dict[str, tuple[str, ...]], np.ndarray]:
    """Domains and codes of ``n`` rows, from each column's candidate values
    (``None`` for missing; repeated values and values no cell takes are
    allowed) and each cell's index among them.  An empty cell is refused."""
    domains, coded, empty = {}, [], n
    for c, (values, index) in zip(columns, tokens):
        taken = np.bincount(index, minlength=len(values)).astype(bool).tolist()
        domains[c] = tuple(sorted({v for v, t in zip(values, taken) if t and v is not None}))
        rank = {v: i for i, v in enumerate(domains[c])}
        lut = np.array([rank.get(v, -1) for v in values], np.min_scalar_type(-1 - len(rank)))
        coded.append(lut[index])
        if "" in rank:
            empty = min(empty, int(np.argmax(coded[-1] == rank[""])))
    if empty < n:
        raise DataError(f"row {empty + 1} has an empty cell")
    codes = np.empty((n, len(columns)), dtype=_code_dtype(domains))
    for j, col in enumerate(coded):
        codes[:, j] = col
    return domains, codes


def load_table(source: str | os.PathLike | IO[str]) -> Dataset:
    """Read comma-separated data with a header row; ``NA`` marks missing.
    A path is read as UTF-8, with or without a byte-order mark."""
    if hasattr(source, "read"):
        return _read_csv(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8-sig", newline="") as fh:
        return _read_csv(fh)


def _clean(token: str) -> str | None:
    token = token.strip()
    return None if token == MISSING_TOKEN else token


def _read_csv(fh: IO[str]) -> Dataset:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file") from None
    columns = tuple(h.strip() for h in header)
    if any(not c for c in columns):
        raise DataError("empty column name in header")
    if len(set(columns)) != len(columns):
        raise DataError("duplicate header names")
    records: list[list[str]] = []
    try:
        records.extend(reader)
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    finally:
        # a ragged line is reported before a malformed line below it
        widths = np.fromiter(map(len, records), np.intp, len(records))
        ragged = np.flatnonzero((widths != len(columns)) & (widths > 0))
        if ragged.size:
            i = int(ragged[0])
            raise DataError(
                f"line {i + 2}: row has {widths[i]} cells, expected {len(columns)}"
            )
    rows = list(filter(None, records))  # blank lines are skipped
    if not rows:
        raise DataError("no data rows")
    tokens = _tokens(rows, len(columns), _clean)
    return Dataset._coded(columns, *_encode(columns, tokens, len(rows)))


@dataclass(frozen=True)
class Estimate:
    value: float
    n: int
    interval: tuple[float, float, float] | None = None  # (low, high, level)

    def __post_init__(self):
        if self.interval is not None:
            low, high, level = self.interval
            if not low <= self.value <= high:
                raise DataError("interval does not contain the point estimate")
            if not 0 < level < 1:
                raise DataError("confidence level must be in (0, 1)")


def empirical_joint(d: Dataset) -> JointTable:
    """Relative frequencies of the distinct rows of complete data, in sorted
    order; refuses missing data."""
    from .expr import JointTable

    if d.has_missing:
        raise MissingDataPresent(
            "dataset contains missing cells; run recoverability analysis instead"
        )
    rows, count = d.distinct
    return JointTable._coded(d.columns, d.domains, rows, count / d.n)


def plug_in(
    e: Estimand, d: Dataset, binding: Mapping[str, str] | None = None
) -> Estimate:
    """Evaluate the estimand on the empirical joint of the data."""
    from .expr import eval_estimand

    return Estimate(value=eval_estimand(e, empirical_joint(d), binding), n=d.n)


def bootstrap_interval(
    e: Estimand,
    d: Dataset,
    binding: Mapping[str, str] | None = None,
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> Estimate:
    """Percentile bootstrap over row resamples.

    Replicate RNG streams are derived from (seed, replicate index), so the
    interval does not depend on execution order.  The resampled count
    vectors are evaluated together, ``BOOTSTRAP_BLOCK`` replicates at a time,
    as weight rows over the distinct rows of the data.  Resamples that hit an
    empty stratum are dropped; more than 10% of them dropped is an error.
    """
    from .evaluate import eval_rows
    from .expr import ConditioningOnZero, EstimandError, eval_estimand

    if B < 100:
        raise DataError(f"B={B} is too small; need at least 100 resamples")
    if B > _BOOTSTRAP_MAX:
        raise DataError(f"B={B} is too large; at most {_BOOTSTRAP_MAX} resamples")
    if not 0 < level < 1:
        raise DataError("confidence level must be in (0, 1)")
    if seed < 0:
        raise DataError(f"seed={seed} is negative; need a non-negative integer")
    n = d.n
    joint = empirical_joint(d)
    point = eval_estimand(e, joint, binding)
    pvals = joint.weights

    values: list[np.ndarray] = []
    dropped = 0
    for start in range(0, B, BOOTSTRAP_BLOCK):
        reps = range(start, min(start + BOOTSTRAP_BLOCK, B))
        draws = np.array(
            [np.random.default_rng([seed, rep]).multinomial(n, pvals) for rep in reps]
        )
        short = np.flatnonzero(draws.sum(axis=1) != n)
        if short.size:
            raise EstimandError(f"resample {reps[short[0]]} does not have {n} rows")
        try:
            block, marked = eval_rows(e, joint, draws / n, binding)
        except ConditioningOnZero:
            # every replicate of the block hit an empty stratum
            dropped += len(reps)
            continue
        values.append(block[~marked])
        dropped += int(marked.sum())
    if dropped > 0.10 * B:
        raise TooManyDegenerateResamples(
            f"{dropped} of {B} resamples hit an empty stratum"
        )
    lo_q = (1.0 - level) / 2.0
    lo, hi = _quantiles(np.concatenate(values), [lo_q, 1.0 - lo_q])
    # widen if needed so the interval always contains the point estimate
    lo = min(lo, point)
    hi = max(hi, point)
    return Estimate(value=point, n=n, interval=(lo, hi, level))


def _quantiles(values: np.ndarray, levels: Sequence[float]) -> list[float]:
    """Quantiles of ``values`` by numpy's default ``linear`` rule, equal to
    ``np.quantile`` bit for bit; ``np.quantile`` reaches ``np.unique``, which
    imports ``numpy.ma`` on first use."""
    ranked = np.sort(values).tolist()
    last = len(ranked) - 1
    out = []
    for q in levels:
        virt = last * q
        if virt >= last:
            out.append(ranked[-1])
            continue
        i = math.floor(virt)
        a, b, g = ranked[i], ranked[i + 1], virt - i
        # numpy's two-sided interpolation, so the values match it exactly
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return out
