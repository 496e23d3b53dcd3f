"""Fit indices: test the graph's implied independencies against data.

Each testable implication gets a likelihood-ratio (G-squared) test of
conditional independence for categorical data, stratified over the
conditioning set.  An empty implication list means the assumptions have no
testable content; the report is then rendered as the literal ``NULL``.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import add, floordiv, ge, mod, mul, truediv
from typing import Iterable

from .estimate import DataError, Dataset, MissingDataPresent
from .graph import Admg, CiStatement, testable_implications
from .record import Record

__all__ = [
    "FitEntry",
    "FitReport",
    "fit_indices",
    "g_squared_ci",
    "render_fit_report",
]

MIN_STRATUM = 5  # strata with fewer observations are pooled out of the statistic


class FitEntry(Record):
    statement: CiStatement
    statistic: float
    dof: int
    p_value: float
    rejected: bool
    used_strata: int
    pooled_strata: int


class FitReport(Record):
    entries: tuple[FitEntry, ...]
    alpha: float
    bonferroni: bool = False

    @property
    def null(self) -> bool:
        return not self.entries


def g_squared_ci(
    d: Dataset, u: str, v: str, given: tuple[str, ...]
) -> tuple[float, int, float, int, int]:
    """G-squared test of u independent of v within strata of ``given``.

    Returns (statistic, degrees of freedom, p-value, used strata,
    pooled-out strata).  Degrees of freedom count
    (|dom u| - 1)(|dom v| - 1) per retained stratum, with column domains
    taken globally.  A missing cell in a tested column raises
    :class:`MissingDataPresent`.
    """
    names = (u, v) + tuple(given)
    # the dataset's distinct rows, weighted by their counts, stand in for its
    # n rows: every count below is an exact integer
    cols = [d._cols[d.column_index(c)] for c in names]
    for c, col in zip(names, cols):
        if -1 in col:
            raise MissingDataPresent(
                f"column {c} has missing cells; run recoverability analysis"
            )
    # one mixed-radix key per distinct row over (given..., u, v), built at C
    # speed column by column, so a key is a cell of the (stratum, u, v) table
    # and key // (|u| |v|) its stratum; only the observed cells are counted,
    # so memory follows the rows and never |dom u| x |dom v|
    ordered = list(zip(names, cols))
    ordered = ordered[2:] + ordered[:2]
    key = iter(ordered[0][1])
    for c, col in ordered[1:]:
        key = map(add, map(mul, key, repeat(len(d.domains[c]))), col)
    nv = len(d.domains[v])
    nuv = len(d.domains[u]) * nv
    cells = _totals(key, d._count)
    keys, observed = list(cells), list(cells.values())
    stratum = list(map(floordiv, keys, repeat(nuv)))
    by_u = list(map(floordiv, keys, repeat(nv)))
    by_v = list(map(add, map(mul, stratum, repeat(nv)), map(mod, keys, repeat(nv))))
    size = _totals(stratum, observed)
    row_tot, col_tot = _totals(by_u, observed), _totals(by_v, observed)
    cell_size = list(map(size.__getitem__, stratum))
    expected = map(
        truediv,
        map(mul, map(row_tot.__getitem__, by_u), map(col_tot.__getitem__, by_v)),
        cell_size,
    )
    terms = map(mul, observed, map(math.log, map(truediv, observed, expected)))
    large = map(ge, cell_size, repeat(MIN_STRATUM))
    stat = 2.0 * math.fsum(compress(terms, large))
    used = sum(n >= MIN_STRATUM for n in size.values())
    dof = used * (len(d.domains[u]) - 1) * (nv - 1)
    p = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return stat, dof, p, used, len(size) - used


def _totals(keys: Iterable[int], counts: Iterable[int]) -> dict[int, int]:
    """The summed count of each distinct key, in order of first occurrence."""
    total: dict[int, int] = {}
    get = total.get
    for k, c in zip(keys, counts):
        total[k] = get(k, 0) + c
    return total


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi-squared with ``dof`` degrees of freedom > x).

    For integer ``dof`` the tail is a finite series in lam = x/2: the Poisson
    sum over j < dof/2 of e^-lam lam^j / j! for even ``dof``, and for odd
    ``dof`` erfc(sqrt(lam)) plus the same sum over half-integer powers,
    e^-lam lam^(j+1/2) / Gamma(j+3/2).  The terms rise to a single peak near
    j = lam and fall on both sides.  The peak term is taken in Loader's
    saddle-point form, whose relative error stays near machine precision at
    any lam, and each neighbour from the one before it by the ratio
    lam / (j + h + 1) of consecutive terms (h = 1/2 for odd ``dof``, else 0).
    The series is summed outward from the peak, and each side stops at the
    first term too small to change the sum: the work grows with sqrt(x), not
    with ``dof``.
    """
    if x <= 0.0:
        return 1.0
    lam = 0.5 * x
    half = 0.5 * (dof % 2)
    count = dof // 2
    total = math.erfc(math.sqrt(lam)) if half else 0.0
    if not count:
        return min(total, 1.0)
    peak = min(int(lam - half), count - 1)
    top = _poisson_term(peak + half, lam)
    series = term = top
    for j in range(peak, 0, -1):
        term *= (j + half) / lam
        if series + term == series:
            break
        series += term
    term = top
    for j in range(peak + 1, count):
        term *= lam / (j + half)
        if series + term == series:
            break
        series += term
    return min(total + series, 1.0)


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _poisson_term(k: float, lam: float) -> float:
    """e^-lam lam^k / Gamma(k + 1) for real k >= 0, as
    e^(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k) (Loader 2000, "Fast and
    accurate computation of binomial probabilities"), so no large logarithms
    cancel."""
    if k == 0.0:
        return math.exp(-lam)
    return math.exp(-_stirlerr(k) - _bd0(k, lam)) / math.sqrt(2.0 * math.pi * k)


def _stirlerr(k: float) -> float:
    """log Gamma(k + 1) - log(sqrt(2 pi k) (k/e)^k), the error of Stirling's
    formula: directly up to k = 15, where the subtraction loses at most a few
    units in 1e-15, and by its asymptotic series above."""
    if k <= 15.0:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LOG_SQRT_2PI
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(k: float, lam: float) -> float:
    """k log(k / lam) + lam - k, the deviance term, by a series in
    (k - lam) / (k + lam) where the two sides nearly cancel."""
    if abs(k - lam) >= 0.1 * (k + lam):
        return k * math.log(k / lam) + lam - k
    v = (k - lam) / (k + lam)
    s = (k - lam) * v
    ej = 2.0 * k * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s
        s, j = s1, j + 2


def fit_indices(
    g: Admg, d: Dataset, alpha: float = 0.05, bonferroni: bool = False
) -> FitReport:
    """Test every implied independence of ``g`` against the data."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    missing_cols = sorted(set(g.nodes) - set(d.columns))
    if missing_cols:
        raise DataError(f"dataset lacks graph columns: {missing_cols}")
    if any(-1 in col for c, col in zip(d.columns, d._cols) if c in g.nodes):
        raise MissingDataPresent(
            "missing cells in graph columns; run recoverability analysis"
        )
    statements = testable_implications(g)
    cutoff = alpha / len(statements) if (bonferroni and statements) else alpha
    entries = []
    for st in statements:
        (u,) = sorted(st.left)
        (v,) = sorted(st.right)
        stat, dof, p, used, pooled = g_squared_ci(d, u, v, tuple(sorted(st.given)))
        entries.append(
            FitEntry(
                statement=st,
                statistic=stat,
                dof=dof,
                p_value=p,
                rejected=p < cutoff,
                used_strata=used,
                pooled_strata=pooled,
            )
        )
    return FitReport(tuple(entries), alpha=alpha, bonferroni=bonferroni)


def render_fit_report(report: FitReport, porcelain: bool = False) -> str:
    """Aligned text, or the tab-separated lines format under ``porcelain``."""
    if report.null:
        return "NULL"
    if porcelain:
        return "\n".join(
            f"{e.statement.render()}\t{e.statistic:.6f}\t{e.dof}\t{e.p_value:.6f}"
            for e in report.entries
        )
    width = max(len(e.statement.render()) for e in report.entries)
    lines = []
    for e in report.entries:
        verdict = "reject" if e.rejected else "pass"
        line = (
            f"{e.statement.render():<{width}}  G2={e.statistic:>10.4f}  "
            f"df={e.dof:>3}  p={e.p_value:.4f}  {verdict}"
        )
        if e.pooled_strata:
            line += f"  [{e.pooled_strata} strata pooled out]"
        lines.append(line)
    return "\n".join(lines)
