"""Fit indices: test the graph's implied independencies against data.

Each testable implication gets a likelihood-ratio (G-squared) test of
conditional independence for categorical data, stratified over the
conditioning set.  An empty implication list means the assumptions have no
testable content; the report is then rendered as the literal ``NULL``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .estimate import DataError, Dataset, MissingDataPresent
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
    taken globally.
    """
    iu = d.column_index(u)
    iv = d.column_index(v)
    ig = [d.column_index(c) for c in given]
    strata: dict[tuple, Counter] = defaultdict(Counter)
    for row in d.rows:
        strata[tuple(row[i] for i in ig)][(row[iu], row[iv])] += 1

    du = len(d.domains[u])
    dv = len(d.domains[v])
    per_stratum_dof = (du - 1) * (dv - 1)
    stat = 0.0
    dof = 0
    used = 0
    pooled = 0
    for cells in strata.values():
        total = sum(cells.values())
        if total < MIN_STRATUM:
            pooled += 1
            continue
        used += 1
        dof += per_stratum_dof
        row_tot: Counter = Counter()
        col_tot: Counter = Counter()
        for (a, b), c in cells.items():
            row_tot[a] += c
            col_tot[b] += c
        for (a, b), observed in cells.items():
            expected = row_tot[a] * col_tot[b] / total
            if observed > 0:
                stat += 2.0 * observed * math.log(observed / expected)
    p = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return stat, dof, p, used, pooled


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi-squared with ``dof`` degrees of freedom > x).

    For integer ``dof`` the tail is a finite series in lam = x/2: the Poisson
    sum over j < dof/2 of e^-lam lam^j / j! for even ``dof``, and for odd
    ``dof`` erfc(sqrt(lam)) plus the same sum over half-integer powers,
    e^-lam lam^(j+1/2) / Gamma(j+3/2).  Terms are taken from their
    logarithms, so none overflows or underflows early at large x.
    """
    if x <= 0.0:
        return 1.0
    lam = 0.5 * x
    half = 0.5 * (dof % 2)
    log_lam = math.log(lam)
    total = math.erfc(math.sqrt(lam)) if half else 0.0
    total += sum(
        math.exp((j + half) * log_lam - lam - math.lgamma(j + half + 1.0))
        for j in range(dof // 2)
    )
    return min(total, 1.0)


def fit_indices(
    g: Admg, d: Dataset, alpha: float = 0.05, bonferroni: bool = False
) -> FitReport:
    """Test every implied independence of ``g`` against the data."""
    if not 0 < alpha < 1:
        raise DataError("alpha must be in (0, 1)")
    missing_cols = sorted(set(g.nodes) - set(d.columns))
    if missing_cols:
        raise DataError(f"dataset lacks graph columns: {missing_cols}")
    graph_cols = [c for c in d.columns if c in g.nodes]
    for row in d.rows:
        for c in graph_cols:
            if row[d.column_index(c)] is None:
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
