"""Recoverability of probabilistic queries from incomplete data.

An m-graph is the causal graph over substantive variables plus one binary
missingness indicator per partially observed variable.  Three sound criteria
are implemented, tried in order; a refusal means no implemented criterion
applies, or the order search was skipped as too large, never that recovery
is impossible.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Union

from . import ScmkitError
from .estimate import DataError, Dataset, Estimate, _grouped
from .expr import (
    Estimand, JointTable, ProbTerm, Val, eval_estimand, lit, prod_of, sum_over, sym,
)
from .graph import Admg, GraphError, d_separated, parse_graph
from .record import Record

__all__ = [
    "MGraph",
    "Recoverable",
    "NotRecoverable",
    "RecoverabilityResult",
    "NotRecoverableError",
    "OBSERVED",
    "MISSING",
    "parse_mgraph",
    "recoverability",
    "recover_estimate",
]

OBSERVED = "obs"
MISSING = "miss"
_ORDER_SEARCH_LIMIT = 8  # most substantive variables whose orders are searched


class NotRecoverableError(ScmkitError, ValueError):
    """Estimation was requested without an established recovery route."""
    exit_code = 3


class MGraph(Record):
    """Combined graph over substantive variables and missingness indicators.

    ``partial`` lists the substantive variables that can be missing; each has
    an indicator node named ``R_<var>`` inside ``graph``.
    """

    graph: Admg
    partial: frozenset[str]

    def __post_init__(self):
        indicators = {self.indicator(v) for v in self.partial}
        for v in self.partial:
            if v not in self.graph.nodes:
                raise GraphError(f"partially observed variable {v} is not a node")
            if self.indicator(v) not in self.graph.nodes:
                raise GraphError(f"missing indicator node {self.indicator(v)}")
        for r in indicators:
            bad_children = self.graph.children(r) - indicators
            if bad_children:
                raise GraphError(
                    f"indicator {r} may not cause substantive variables: "
                    f"{sorted(bad_children)}"
                )

    @staticmethod
    def indicator(v: str) -> str:
        return f"R_{v}"

    @property
    def indicators(self) -> frozenset[str]:
        return frozenset(self.indicator(v) for v in self.partial)

    @property
    def substantive(self) -> frozenset[str]:
        return self.graph.nodes - self.indicators

    @property
    def fully_observed(self) -> frozenset[str]:
        return self.substantive - self.partial


def parse_mgraph(text: str) -> MGraph:
    """Graph file format plus ``missing Y`` lines declaring indicators."""
    partial: list[str] = []
    passthrough: list[str] = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("missing ") or stripped == "missing":
            name = stripped[len("missing"):].strip()
            if not name:
                raise GraphError("missing declaration needs a variable name")
            partial.append(name)
            passthrough.append(f"var {MGraph.indicator(name)}")
        else:
            passthrough.append(raw)
    owner = {MGraph.indicator(v): v for v in partial}
    for v in partial:
        if v in owner:
            raise GraphError(f"missing {v}: {v} is the missingness indicator of {owner[v]}")
    g = parse_graph("\n".join(passthrough))
    for v in partial:
        if v not in g.nodes:
            raise GraphError(f"missing declaration for undeclared variable {v}")
    return MGraph(g, frozenset(partial))


class Recoverable(Record):
    estimand: Estimand
    criterion: str


class NotRecoverable(Record):
    """No implemented criterion applies (not a proof of impossibility)."""

    reason: str


RecoverabilityResult = Union[Recoverable, NotRecoverable]


def _r_conds(mg: MGraph, vars_needing_r: set[str]) -> tuple[Val, ...]:
    return tuple(
        lit(mg.indicator(v), OBSERVED) for v in sorted(vars_needing_r)
    )


def recoverability(mg: MGraph, target: frozenset[str] | set[str]) -> RecoverabilityResult:
    """Decide whether P(target) can be consistently recovered.

    Criteria, in order: (i) indicators jointly independent of all
    substantive variables; (ii) indicators independent of the partially
    observed variables given the fully observed ones; (iii) an ordered
    factorization whose factors each shield their conditioning prefix and own
    variable from the needed indicators.
    """
    target = frozenset(target)
    if not target:
        raise GraphError("target must be nonempty")
    if not target <= mg.substantive:
        raise GraphError(
            f"target outside the substantive variables: {sorted(target - mg.substantive)}"
        )
    g = mg.graph
    rs = mg.indicators
    if not rs:
        return Recoverable(
            ProbTerm(tuple(sym(v) for v in sorted(target))), criterion="mcar"
        )

    # (i) missingness completely at random w.r.t. the model
    if d_separated(g, rs, mg.substantive, frozenset()):
        term = ProbTerm(
            tuple(sym(v) for v in sorted(target)),
            _r_conds(mg, set(mg.partial)),
        )
        return Recoverable(term, criterion="mcar")

    # (ii) missingness at random given the fully observed variables
    full = mg.fully_observed
    if full and d_separated(g, rs, mg.partial, full):
        t_part = sorted(target & mg.partial)
        t_full = sorted(target & full)
        if not t_part:
            return Recoverable(
                ProbTerm(tuple(sym(v) for v in t_full)), criterion="mar"
            )
        cond_term = ProbTerm(
            tuple(sym(v) for v in t_part),
            tuple(sym(v) for v in sorted(full)) + _r_conds(mg, set(mg.partial)),
        )
        weight = ProbTerm(tuple(sym(v) for v in sorted(full)))
        body = prod_of([cond_term, weight])
        out = sum_over(((v, v.lower()) for v in sorted(full - target)), body)
        return Recoverable(out, criterion="mar")

    # (iii) ordered factorization over the substantive variables
    subs = sorted(mg.substantive)
    if len(subs) > _ORDER_SEARCH_LIMIT:
        return NotRecoverable(
            f"ordered-factorization search skipped: {len(subs)} substantive "
            f"variables exceed its limit of {_ORDER_SEARCH_LIMIT}"
        )
    for perm in itertools.permutations(subs):
        factors = _ordered_factors(mg, perm)
        if factors is None:
            continue
        body = prod_of(factors)
        out = sum_over(((v, v.lower()) for v in sorted(set(subs) - target)), body)
        return Recoverable(out, criterion="ordered-factorization")

    return NotRecoverable("no implemented criterion applies")


def _ordered_factors(mg: MGraph, perm: tuple[str, ...]) -> list[Estimand] | None:
    g = mg.graph
    factors: list[Estimand] = []
    for i, v in enumerate(perm):
        prefix = perm[:i]
        needed = {u for u in prefix if u in mg.partial}
        if v in mg.partial:
            needed.add(v)
        if needed:
            r_nodes = {mg.indicator(u) for u in needed}
            if not d_separated(g, {v}, r_nodes, frozenset(prefix)):
                return None
        factors.append(
            ProbTerm(
                (sym(v),),
                tuple(sym(u) for u in sorted(prefix)) + _r_conds(mg, needed),
            )
        )
    return factors


# --- estimation -------------------------------------------------------------------


def _augmented_joint(mg: MGraph, d: Dataset) -> JointTable:
    """Empirical joint over substantive variables plus indicator columns.

    A missing cell of ``v`` gets the code ``len(domain of v)``, one past the
    domain, paired with ``R_v = miss``.  No domain value names that code, so
    no term and no ``sum_{...}`` ever refers to a missing cell; a column with
    no observed cell has an empty domain, and a sum over it is refused.
    """
    subs = sorted(mg.substantive)
    for v in subs:
        if v not in d.columns:
            raise DataError(f"dataset lacks column {v}")
    cols = [d._cols[d.column_index(v)] for v in subs]
    for v, col in zip(subs, cols):
        if v not in mg.partial and -1 in col:
            raise DataError(
                f"column {v} has missing cells but the m-graph declares it "
                "fully observed"
            )
    partial = [j for j, v in enumerate(subs) if v in mg.partial]
    # a missing code becomes one past its domain; indicator codes index
    # (MISSING, OBSERVED)
    coded = [
        [len(d.domains[v]) if c < 0 else c for c in col] for v, col in zip(subs, cols)
    ]
    coded += [[int(c >= 0) for c in cols[j]] for j in partial]
    cells, count, _ = _grouped(list(zip(*coded)), d._count)
    variables = tuple(subs) + tuple(mg.indicator(subs[j]) for j in partial)
    domains = {v: d.domains[v] if v in subs else (MISSING, OBSERVED) for v in variables}
    n = d.n
    return JointTable._coded(variables, domains, cells, [c / n for c in count])


def recover_estimate(
    mg: MGraph, d: Dataset, target: Mapping[str, str]
) -> Estimate:
    """Evaluate the recovery estimand for one target assignment.

    Only rows satisfying each term's indicator conditions contribute to that
    term, which is exactly what conditioning on ``R_v = obs`` does in the
    augmented empirical joint.
    """
    result = recoverability(mg, frozenset(target))
    if isinstance(result, NotRecoverable):
        raise NotRecoverableError(result.reason)
    return _evaluate(result, mg, d, target)


def _evaluate(
    decision: Recoverable, mg: MGraph, d: Dataset, target: Mapping[str, str]
) -> Estimate:
    """The estimate of a target already decided recoverable."""
    value = eval_estimand(decision.estimand, _augmented_joint(mg, d), dict(target))
    return Estimate(value=value, n=d.n)
