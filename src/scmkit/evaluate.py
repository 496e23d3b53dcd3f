"""Evaluation of estimands over integer-coded cells, with numpy.

:func:`eval_rows` evaluates an estimand on many distributions at once, each a
row of weights over the distinct cells of one
:class:`~scmkit.expr.JointTable`.  :func:`scmkit.expr.eval_estimand` and
:meth:`~scmkit.expr.JointTable.prob` evaluate a table's own weights as one
row; the estimand algebra itself stays free of numpy.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .expr import (
    ConditioningOnZero,
    Estimand,
    EstimandError,
    JointTable,
    One,
    ProbTerm,
    Product,
    Quotient,
    Sum,
    UnboundSymbol,
    Val,
    _walk,
)

__all__ = ["eval_rows"]


def eval_rows(
    e: Estimand,
    table: JointTable,
    weights: np.ndarray,
    binding: Mapping[str, str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate an estimand on each row of an ``(R, K)`` weight matrix.

    Row ``r`` is the distribution putting ``weights[r, k]`` on cell ``k`` of
    ``table``.  Returns the ``R`` values and the rows marked by a zero
    conditioning event or quotient denominator; a marked row's value is
    meaningless.  Nodes are visited in one fixed order for all rows, and
    :class:`ConditioningOnZero` is raised, with the context of the event that
    marked the last row, as soon as every row is marked.  With one row that
    is the first zero event, so a refusal takes precedence over a later
    :class:`UnboundSymbol` exactly as in a single evaluation.
    """
    binding = dict(binding or {})
    for var in binding:
        if var not in table.domains:
            raise UnboundSymbol(f"variable {var} not in the joint table")
    ev = _RowEvaluation(table, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _walk(ev.eval, e, binding, {})
    return values, ev.marked


def _resolve(val: Val, binding: Mapping[str, str], env: Mapping[str, str]) -> str:
    if val.literal:
        return val.token
    if val.token in env:
        return env[val.token]
    if val.var in binding:
        return binding[val.var]
    raise UnboundSymbol(f"no value bound for symbol {val.token!r} (variable {val.var})")


class _RowEvaluation:
    """State of one :func:`eval_rows` pass: marginals computed so far and the
    marked rows."""

    def __init__(self, table: JointTable, weights: np.ndarray):
        self.table = table
        self.weights = weights
        rows = weights.shape[0]
        self.marked = np.zeros(rows, dtype=bool)
        self.zero = np.zeros(rows)
        self.marginals: dict[tuple[int, ...], np.ndarray] = {}

    def mark(self, zero: np.ndarray, context) -> None:
        if zero.any():
            self.marked |= zero
            if self.marked.all():
                raise ConditioningOnZero(context())

    def prob(self, assignment: list[tuple[int, int | None]]) -> np.ndarray:
        """Per-row probability of (column, code) pairs; a ``None`` code is a
        value outside the domain and carries zero mass."""
        assignment = sorted(assignment)
        cols = tuple(c for c, _ in assignment)
        codes = tuple(code for _, code in assignment)
        inverse, count, lookup = self.table.groups(cols)
        g = lookup.get(codes)
        if g is None:
            return self.zero
        marginal = self.marginals.get(cols)
        if marginal is None:
            rows = len(self.weights)
            flat = (np.arange(rows)[:, None] * count + inverse).ravel()
            marginal = np.bincount(
                flat, weights=self.weights.ravel(), minlength=rows * count
            ).reshape(rows, count)
            self.marginals[cols] = marginal
        return marginal[:, g]

    def eval(self, e: Estimand, binding: Mapping[str, str], env: dict[str, str]):
        """A visit for ``_walk``: the per-row values of ``e``."""
        if isinstance(e, One):
            return self.zero + 1.0
        if isinstance(e, ProbTerm):
            # values outside a column's observed domain simply carry zero mass;
            # a zero-mass conditioning event marks the row
            assignment = []
            for val in e.joint + e.given:
                col = self.table.index(val.var)
                token = _resolve(val, binding, env)
                assignment.append((col, self.table.value_codes[val.var].get(token)))
            p_all = self.prob(assignment)
            if not e.given:
                return p_all
            p_given = self.prob(assignment[len(e.joint):])
            self.mark(p_given == 0.0, lambda: ",".join(
                f"{v.var}={_resolve(v, binding, env)}" for v in e.given
            ))
            return p_all / p_given
        if isinstance(e, Sum):
            if e.token in env:
                raise EstimandError(f"symbol {e.token!r} bound twice along one path")
            if e.var not in self.table.domains:
                raise UnboundSymbol(f"variable {e.var} not in the joint table")
            if not self.table.domains[e.var]:
                raise ConditioningOnZero(f"no observed value of {e.var}")
            total = self.zero
            for value in self.table.domains[e.var]:
                env[e.token] = value
                total = total + (yield e.body, binding, env)
            del env[e.token]
            return total
        if isinstance(e, Product):
            out = self.zero + 1.0
            for f in e.factors:
                out = out * (yield f, binding, env)
            return out
        if isinstance(e, Quotient):
            den = yield e.den, binding, env
            self.mark(den == 0.0, lambda: "quotient denominator is zero")
            return (yield e.num, binding, env) / den
        raise EstimandError(f"not an estimand node: {e!r}")
