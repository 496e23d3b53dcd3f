"""Datasets, empirical joints, plug-in estimates and bootstrap intervals."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Mapping

import numpy as np

from .evaluate import Cells, eval_rows, group_rows
from .expr import ConditioningOnZero, Estimand, EstimandError, JointTable

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


class DataError(ValueError):
    """Malformed data file or dataset."""


class MissingDataPresent(DataError):
    """The operation needs complete data; route through recoverability first."""


class TooManyDegenerateResamples(ArithmeticError):
    """Too large a share of bootstrap resamples hit an empty stratum."""


@dataclass(frozen=True)
class Dataset:
    """Rectangular categorical data; ``None`` cells are missing marks."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str | None, ...], ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise DataError("duplicate column names")
        if not self.rows:
            raise DataError("dataset needs at least one row")
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise DataError(
                    f"row {i + 1} has {len(row)} cells, expected {len(self.columns)}"
                )
            for cell in row:
                if cell == "":
                    raise DataError(f"row {i + 1} has an empty cell")

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def domains(self) -> dict[str, tuple[str, ...]]:
        """Sorted distinct non-missing tokens per column."""
        return {
            c: tuple(sorted(set(col) - {None}))
            for c, col in zip(self.columns, zip(*self.rows))
        }

    @cached_property
    def codes(self) -> np.ndarray:
        """``(n, columns)`` index of each cell in its column's domain; -1 marks
        a missing cell.  The dtype also holds one past the widest domain."""
        width = max(map(len, self.domains.values()), default=0)
        out = np.empty((self.n, len(self.columns)), dtype=np.min_scalar_type(-1 - width))
        for j, (c, col) in enumerate(zip(self.columns, zip(*self.rows))):
            lut = {None: -1} | {val: i for i, val in enumerate(self.domains[c])}
            out[:, j] = [lut[cell] for cell in col]
        return out

    @cached_property
    def has_missing(self) -> bool:
        return bool((self.codes < 0).any())

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DataError(f"no column named {name}") from None

    def select(self, names: Iterable[str]) -> "Dataset":
        idx = [self.column_index(c) for c in names]
        return Dataset(
            tuple(self.columns[i] for i in idx),
            tuple(tuple(row[i] for i in idx) for row in self.rows),
        )


def load_table(source: str | os.PathLike | IO[str]) -> Dataset:
    """Read comma-separated data with a header row; ``NA`` marks missing."""
    if hasattr(source, "read"):
        return _read_csv(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8", newline="") as fh:
        return _read_csv(fh)


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
    rows: list[tuple[str | None, ...]] = []
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(columns):
            raise DataError(
                f"line {lineno}: row has {len(rec)} cells, expected {len(columns)}"
            )
        rows.append(
            tuple(
                None if cell.strip() == MISSING_TOKEN else cell.strip()
                for cell in rec
            )
        )
    if not rows:
        raise DataError("no data rows")
    return Dataset(columns, tuple(rows))


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


def _counted_cells(d: Dataset) -> tuple[Cells, np.ndarray]:
    """The distinct rows of complete data, in sorted order, and their counts."""
    if d.has_missing:
        raise MissingDataPresent(
            "dataset contains missing cells; run recoverability analysis instead"
        )
    group, distinct = group_rows(d.codes)
    return Cells(d.columns, d.domains, distinct), np.bincount(group)


def empirical_joint(d: Dataset) -> JointTable:
    """Relative frequencies over complete rows; refuses missing data."""
    cells, counts = _counted_cells(d)
    doms = [d.domains[c] for c in d.columns]
    keys = [tuple(dom[i] for dom, i in zip(doms, row)) for row in cells.codes.tolist()]
    return JointTable(d.columns, d.domains, dict(zip(keys, (counts / d.n).tolist())))


def plug_in(
    e: Estimand, d: Dataset, binding: Mapping[str, str] | None = None
) -> Estimate:
    """Evaluate the estimand on the empirical joint of the data."""
    cells, counts = _counted_cells(d)
    values, _ = eval_rows(e, cells, counts[None, :] / d.n, binding)
    return Estimate(value=float(values[0]), n=d.n)


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
    if B < 100:
        raise DataError(f"B={B} is too small; need at least 100 resamples")
    if not 0 < level < 1:
        raise DataError("confidence level must be in (0, 1)")
    if seed < 0:
        raise DataError(f"seed={seed} is negative; need a non-negative integer")
    n = d.n
    cells, counts = _counted_cells(d)
    point = float(eval_rows(e, cells, counts[None, :] / n, binding)[0][0])
    pvals = counts / n

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
            block, marked = eval_rows(e, cells, draws / n, binding)
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
    lo, hi = np.quantile(np.concatenate(values), [lo_q, 1.0 - lo_q])
    # widen if needed so the interval always contains the point estimate
    lo = min(float(lo), point)
    hi = max(float(hi), point)
    return Estimate(value=point, n=n, interval=(lo, hi, level))
