"""Fit indices: test the graph's implied independencies against data.

Each testable implication gets a likelihood-ratio (G-squared) test of
conditional independence for categorical data, stratified over the
conditioning set.  An empty implication list means the assumptions have no
testable content; the report is then rendered as the literal ``NULL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import DataError, Dataset, MissingDataPresent, group_rows
from .graph import Admg, CiStatement, testable_implications

__all__ = [
    "FitEntry",
    "FitReport",
    "fit_indices",
    "g_squared_ci",
    "render_fit_report",
]

MIN_STRATUM = 5  # strata with fewer observations are pooled out of the statistic


@dataclass(frozen=True)
class FitEntry:
    statement: CiStatement
    statistic: float
    dof: int
    p_value: float
    rejected: bool
    used_strata: int
    pooled_strata: int


@dataclass(frozen=True)
class FitReport:
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
    # n rows: every count below is an integer-valued float, exact
    rows, count = d.distinct
    codes = rows[:, [d.column_index(c) for c in names]]
    gaps = [c for c, gap in zip(names, (codes < 0).any(axis=0)) if gap]
    if gaps:
        raise MissingDataPresent(
            f"column {gaps[0]} has missing cells; run recoverability analysis"
        )
    stratum, _ = group_rows(codes[:, 2:])
    size = np.bincount(stratum, weights=count)
    large = size >= MIN_STRATUM
    # counts of the observed (stratum, u, v) cells only, with their row and
    # column totals, so memory follows the rows and never |dom u| x |dom v|
    cell, seen = group_rows(np.column_stack([stratum, codes[:, :2]]))
    kept = large[seen[:, 0]]
    observed, seen = np.bincount(cell, weights=count)[kept], seen[kept]
    by_u, by_v = group_rows(seen[:, :2])[0], group_rows(seen[:, ::2])[0]
    row_tot = np.bincount(by_u, weights=observed)[by_u]
    col_tot = np.bincount(by_v, weights=observed)[by_v]
    expected = row_tot * col_tot / size[seen[:, 0]]
    stat = 2.0 * float(np.sum(observed * np.log(observed / expected)))
    used = int(np.count_nonzero(large))
    dof = used * (len(d.domains[u]) - 1) * (len(d.domains[v]) - 1)
    p = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return stat, dof, p, used, len(size) - used


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi-squared with ``dof`` degrees of freedom > x).

    For integer ``dof`` the tail is a finite series in lam = x/2: the Poisson
    sum over j < dof/2 of e^-lam lam^j / j! for even ``dof``, and for odd
    ``dof`` erfc(sqrt(lam)) plus the same sum over half-integer powers,
    e^-lam lam^(j+1/2) / Gamma(j+3/2).  Terms are taken from their
    logarithms, so none overflows or underflows early at large x.  The terms
    rise to a single peak near j = lam and fall on both sides, so the series
    is summed outward from its largest term, and each side stops at the
    first term too small to change the sum: the work grows with sqrt(x), not
    with ``dof``.
    """
    if x <= 0.0:
        return 1.0
    lam = 0.5 * x
    half = 0.5 * (dof % 2)
    log_lam = math.log(lam)
    count = dof // 2
    peak = min(int(lam - half), count - 1)
    series = 0.0
    for side in (range(peak, -1, -1), range(peak + 1, count)):
        for j in side:
            term = math.exp((j + half) * log_lam - lam - math.lgamma(j + half + 1.0))
            if series + term == series:
                break
            series += term
    total = math.erfc(math.sqrt(lam)) if half else 0.0
    return min(total + series, 1.0)


def fit_indices(
    g: Admg, d: Dataset, alpha: float = 0.05, bonferroni: bool = False
) -> FitReport:
    """Test every implied independence of ``g`` against the data."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    missing_cols = sorted(set(g.nodes) - set(d.columns))
    if missing_cols:
        raise DataError(f"dataset lacks graph columns: {missing_cols}")
    graph_cols = [j for j, c in enumerate(d.columns) if c in g.nodes]
    if (d.codes[:, graph_cols] < 0).any():
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
