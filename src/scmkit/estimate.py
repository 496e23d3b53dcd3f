"""Datasets, empirical joints, plug-in estimates and bootstrap intervals.

A dataset is stored in plain Python: its distinct code rows, sorted, as one
list of codes per column, with their counts, and each row's index among
them.  Reading data, projecting columns, the G-squared tests of ``fit`` and
``discover --data``, the empirical joint (a ``JointTable`` over the same
code lists) and plug-in estimates read that storage and never load numpy.
Only the bootstrap, whose draws numpy's generator defines, imports numpy,
and the estimand algebra is imported only by the functions that evaluate
an estimand.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from array import array
from collections import Counter
from functools import cached_property
from operator import itemgetter
from typing import IO, TYPE_CHECKING, Iterable, Mapping, Sequence

from . import ScmkitError, _undecodable
from .record import Record

if TYPE_CHECKING:
    import numpy as np

    from .expr import Estimand, JointTable

__all__ = [
    "MISSING_TOKEN",
    "Dataset",
    "Estimate",
    "DataError",
    "MissingDataPresent",
    "TooManyDegenerateResamples",
    "load_table",
    "empirical_joint",
    "plug_in",
    "bootstrap_interval",
]

MISSING_TOKEN = "NA"

# bootstrap replicates evaluated together; bounds memory for any B
BOOTSTRAP_BLOCK = 256
# at about 40 us a replicate (20,000 rows, 81 cells), some 40 s of resampling
_BOOTSTRAP_MAX = 1_000_000


class DataError(ScmkitError, ValueError):
    """Malformed data file or dataset."""


class MissingDataPresent(DataError):
    """The operation needs complete data; route through recoverability first."""
    exit_code = 3


class TooManyDegenerateResamples(ScmkitError, ArithmeticError):
    """Too large a share of bootstrap resamples hit an empty stratum."""
    exit_code = 3


class Dataset(Record, eq=False):
    """Rectangular categorical data, stored as integer codes.

    A cell's code is its index in its column's ``domains`` entry (the sorted
    distinct observed values), -1 for a missing cell.  The dataset keeps its
    distinct code rows in lexicographic order as one list of codes per column
    (``_cols``), how many times each occurs (``_count``), and each row's index
    among them (``_index``, an ``array``); every count over the data reads
    these, so its rows are grouped once.
    """

    columns: tuple[str, ...]
    domains: dict[str, tuple[str, ...]]

    def __init__(self, columns: Iterable[str], rows: Sequence[Sequence[str | None]]):
        """Encode rows of cells; ``None`` marks a missing cell."""
        columns = _distinct(columns)
        if not rows:
            raise DataError("dataset needs at least one row")
        seen: dict[tuple, int] = {}
        first = list(map(seen.setdefault, map(tuple, rows), itertools.count()))
        keys = list(seen)
        bad = next((k for k, key in enumerate(keys) if len(key) != len(columns)), len(keys))
        # the first bad row wins: the rows above a ragged one are checked for
        # empty cells before it is refused
        domains, coded, empty = _encode(columns, keys[:bad])
        if empty < bad:
            raise DataError(f"row {seen[keys[empty]] + 1} has an empty cell")
        if bad < len(keys):
            raise DataError(
                f"row {seen[keys[bad]] + 1} has {len(keys[bad])} cells,"
                f" expected {len(columns)}"
            )
        self._set(columns, domains, *_stored(coded, list(seen.values()), first))

    @classmethod
    def _coded(cls, columns, domains, cols, count, index) -> "Dataset":
        """A dataset over distinct code rows already grouped and sorted;
        ``index`` gives each row's index among them."""
        d = cls.__new__(cls)
        d._set(columns, domains, cols, count, index)
        return d

    def _set(self, columns, domains, cols, count, index) -> None:
        for name, value in (("columns", columns), ("domains", domains), ("_cols", cols),
                            ("_count", count), ("_index", array("q", index))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt through _coded, so a copy's cached views are recomputed
        return Dataset._coded, (self.columns, self.domains, self._cols, self._count, self._index)

    @property
    def n(self) -> int:
        return len(self._index)

    @cached_property
    def rows(self) -> tuple[tuple[str | None, ...], ...]:
        """The cells decoded row by row on first use, ``None`` for a missing
        cell; the engine itself reads the codes."""
        decoded = [
            list(map((*self.domains[c], None).__getitem__, col))
            for c, col in zip(self.columns, self._cols)
        ]
        distinct = list(zip(*decoded)) if decoded else [()] * len(self._count)
        return tuple(map(distinct.__getitem__, self._index))

    @cached_property
    def has_missing(self) -> bool:
        return any(-1 in col for col in self._cols)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"no column named {name}") from None

    def select(self, names: Iterable[str]) -> "Dataset":
        idx = [self.column_index(c) for c in names]
        columns = _distinct(self.columns[i] for i in idx)
        domains = {c: self.domains[c] for c in columns}
        picked = [self._cols[i] for i in idx]
        coded = list(zip(*picked)) if picked else [()] * len(self._count)
        cols, count, slot = _grouped(coded, self._count)
        return Dataset._coded(columns, domains, cols, count, map(slot.__getitem__, self._index))


def _stored(
    coded: list[tuple[int, ...]], at: list[int], first: list[int], blank: int | None = None
):
    """Dataset storage from the code rows of distinct records, the position
    where each first occurs, and each record's first-occurrence position;
    records first seen at ``blank`` (blank lines) are skipped."""
    counts = Counter(first)
    cols, count, slot = _grouped(coded, map(counts.__getitem__, at))
    where = [0] * (max(at) + 1)
    for position, s in zip(at, slot):
        where[position] = s
    rows = first if blank is None else filter(blank.__ne__, first)
    return cols, count, list(map(where.__getitem__, rows))


def _grouped(
    coded: list[tuple[int, ...]], counts: Iterable[int]
) -> tuple[tuple[list[int], ...], list[int], list[int]]:
    """The distinct rows of ``coded`` (repeats allowed) in sorted order, as
    one list of codes per column; the summed ``counts`` of each; and each
    row of ``coded``'s index among them."""
    ranked = sorted(set(coded))
    slot = list(map(dict(zip(ranked, range(len(ranked)))).__getitem__, coded))
    count = [0] * len(ranked)
    for s, c in zip(slot, counts):
        count[s] += c
    return tuple(map(list, zip(*ranked))), count, slot


def _encode(
    columns: tuple[str, ...], keys: Sequence[Sequence], clean=None
) -> tuple[dict[str, tuple[str, ...]], list[tuple[int, ...]], int]:
    """Domains of the distinct rows of cells ``keys``, each distinct token
    passed through ``clean`` once (``None`` is missing); each key's code row;
    and the position of the first key with an empty cell, ``len(keys)`` if
    none has one."""
    domains, coded, empty = {}, [], len(keys)
    for j, c in enumerate(columns):
        col = list(map(itemgetter(j), keys))
        tokens = list(dict.fromkeys(col))
        values = list(map(clean, tokens)) if clean else tokens
        domains[c] = tuple(sorted({v for v in values if v is not None}))
        rank = dict(zip(domains[c], range(len(domains[c]))))
        code = {t: rank.get(v, -1) for t, v in zip(tokens, values)}
        coded.append(list(map(code.__getitem__, col)))
        if "" in rank:
            empty = min(empty, coded[-1].index(rank[""]))
    return domains, list(zip(*coded)) if coded else [()] * len(keys), empty


def _distinct(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DataError("duplicate column names")
    return names


def load_table(source: str | os.PathLike | IO[str]) -> Dataset:
    """Read comma-separated data with a header row; ``NA`` marks missing.
    A path is read as UTF-8, with or without a byte-order mark; a byte that
    does not decode is refused, with its line if the source is a path."""
    try:
        if hasattr(source, "read"):
            return _read_csv(source)  # type: ignore[arg-type]
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _read_csv(fh)
    except UnicodeDecodeError as exc:  # its position counts from the chunk it decoded
        # a path is read again to find the byte's line; a stream cannot be
        raise DataError(_undecodable(source) if not hasattr(source, "read") else
                        f"cannot decode byte 0x{exc.object[exc.start]:02x}"
                        f" as {exc.encoding}: {exc.reason}") from None


def _clean(token: str) -> str | None:
    token = token.strip()
    return None if token == MISSING_TOKEN else token


def _unread(exc: Exception | None) -> Iterable[str]:
    """No lines: the error that reading a file stopped at, if any, raised
    where the csv module reads on past the lines read before it."""
    if exc is not None:
        raise exc
    yield from ()


# data lines read before the reader decides whether keying them pays
_SAMPLE = 1024


class _Nul(DataError, csv.Error):
    """A line holding NUL, refused before the csv module reads it, as the
    module itself refuses it before Python 3.11."""


def _refuse_nul(line: str) -> str:
    if "\0" not in line:
        return line
    raise _Nul("line contains NUL")


def _read_csv(fh: IO[str]) -> Dataset:
    """Each record is keyed to the position of its first occurrence; only
    the distinct records are kept, cleaned and encoded.  The file is read as
    a stream of lines.  While most lines repeat and none holds a quote,
    every line is one record, so the csv module reads each distinct line
    once; otherwise it reads every line in file order."""
    lines = iter(fh)
    # each distinct data line keyed to the position where it first occurs,
    # and that position for every data line: for a sample, and for the rest
    # if at most half of the sample is distinct
    distinct: dict[str, int] = {}
    position: list[int] = []
    head, unread, keyed = "", None, True
    try:
        head = next(lines, "")
        sample = itertools.islice(lines, _SAMPLE)
        position.extend(map(distinct.setdefault, sample, itertools.count()))
        keyed = len(distinct) <= _SAMPLE // 2
        if keyed:
            position.extend(map(distinct.setdefault, lines, itertools.count(_SAMPLE)))
    except (OSError, ValueError) as exc:  # an undecodable byte: raised where csv meets it
        unread = exc
    in_order = not keyed or '"' in head or '"' in "".join(distinct)
    read: Iterable[str] = ()
    if in_order:
        line_at = dict(zip(distinct.values(), distinct))
        read = map(line_at.__getitem__, position)
    # the lines in file order: those already read, then the rest of the file
    reader = csv.reader(map(_refuse_nul, itertools.chain(
        [head] if head else (), read, _unread(unread), lines if in_order else ())))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file") from None
    except csv.Error as exc:  # a refused NUL line is not yet counted
        raise DataError(f"line {reader.line_num + isinstance(exc, _Nul)}: {exc}") from None
    columns = tuple(h.strip() for h in header)
    if any(not c for c in columns):
        raise DataError("empty column name in header")
    if len(set(columns)) != len(columns):
        raise DataError("duplicate header names")
    starts = list(distinct.values())
    records = reader if in_order else csv.reader(map(_refuse_nul, distinct))
    seen: dict[tuple[str, ...], int] = {}
    first: list[int] = []
    malformed = None
    try:
        first.extend(map(seen.setdefault, map(tuple, records),
                         itertools.count() if in_order else starts))
    except csv.Error as exc:
        line = reader.line_num + isinstance(exc, _Nul) if in_order else starts[len(first)] + 2
        malformed = DataError(f"line {line}: {exc}")
    if not in_order and malformed is None:
        if unread is not None:
            raise unread
        if len(seen) < len(first):
            # lines that give the same record, as "0,1\n" and "0,1\r\n", merge
            position = list(map(dict(zip(starts, first)).__getitem__, position))
        first = position
    # a ragged line is reported before a malformed line below it
    for key, at in seen.items():
        if key and len(key) != len(columns):
            raise DataError(
                f"line {at + 2}: row has {len(key)} cells, expected {len(columns)}"
            )
    if malformed is not None:
        raise malformed
    blank = seen.pop((), None)  # blank lines are skipped
    if not seen:
        raise DataError("no data rows")
    keys = list(seen)
    domains, coded, empty = _encode(columns, keys, _clean)
    if empty < len(keys):
        at = seen[keys[empty]]
        # blank lines do not count in row numbers
        raise DataError(f"row {at + 1 - first[:at].count(blank)} has an empty cell")
    return Dataset._coded(columns, domains, *_stored(coded, list(seen.values()), first, blank))


class Estimate(Record):
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
    order; refuses missing data.  The table shares the dataset's code lists."""
    from .expr import JointTable

    if d.has_missing:
        raise MissingDataPresent(
            "dataset contains missing cells; run recoverability analysis instead"
        )
    n = d.n
    return JointTable._coded(d.columns, d.domains, d._cols, [c / n for c in d._count])


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
    from .expr import ConditioningOnZero, EstimandError, eval_estimand, eval_rows

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
    # after every check and the point estimate, so a refusal loads no numpy
    import numpy as np

    pvals = np.array(joint._weights)

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
    ``np.quantile`` bit for bit; ``np.quantile`` imports ``numpy.ma`` on
    first use."""
    import numpy as np

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
