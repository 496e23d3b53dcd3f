"""Evaluation of estimands over the coded cells of a joint table.

One visit, :meth:`_Evaluation.eval`, walks an estimand and combines values
only by ``+``, ``*``, ``/`` and ``== 0.0``, so the same visit serves two
backends:

- :class:`_Evaluation`, entered by :func:`scmkit.expr.eval_estimand` and
  :meth:`~scmkit.expr.JointTable.prob`, evaluates the table's own weights
  in plain Python floats and loads no numpy.  Each marginal is summed in
  cell order, as ``np.bincount`` sums it, so its values are those of the
  numpy backend bit for bit.
- :func:`eval_rows` evaluates many distributions at once with numpy, each a
  row of weights over the table's cells; the bootstrap uses it for its
  blocks of replicates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

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

if TYPE_CHECKING:
    import numpy as np

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
    :class:`UnboundSymbol` exactly as in
    :func:`~scmkit.expr.eval_estimand`.
    """
    import numpy as np

    ev = _RowEvaluation(table, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _evaluate(ev, e, binding)
    return values, ev.marked


def _evaluate(ev: "_Evaluation", e: Estimand, binding: Mapping[str, str] | None):
    binding = dict(binding or {})
    for var in binding:
        if var not in ev.table.domains:
            raise UnboundSymbol(f"variable {var} not in the joint table")
    return _walk(ev.eval, e, binding, {})


def _resolve(val: Val, binding: Mapping[str, str], env: Mapping[str, str]) -> str:
    if val.literal:
        return val.token
    if val.token in env:
        return env[val.token]
    if val.var in binding:
        return binding[val.var]
    raise UnboundSymbol(f"no value bound for symbol {val.token!r} (variable {val.var})")


class _Evaluation:
    """State of one evaluation of the table's own weights, in plain floats:
    the marginals computed so far, each indexed by the groups of
    :meth:`~scmkit.expr.JointTable.groups` on its columns."""

    zero = 0.0

    def __init__(self, table: JointTable):
        self.table = table
        self.marginals: dict[tuple[int, ...], object] = {}

    def mark(self, zero: bool, context) -> None:
        if zero:
            raise ConditioningOnZero(context())

    def sums(self, cols: tuple[int, ...]) -> dict[int, float]:
        """Each present group's weight on ``cols``, added in cell order."""
        marginal: dict[int, float] = {}
        get = marginal.get
        for k, w in zip(self.table.groups(cols), self.table._weights):
            marginal[k] = get(k, 0.0) + w
        return marginal

    def prob(self, assignment: list[tuple[int, int | None]]):
        """Probability of (column, code) pairs; a ``None`` code is a value
        outside the domain and carries zero mass."""
        assignment = sorted(assignment)
        cols = tuple(c for c, _ in assignment)
        codes = [code for _, code in assignment]
        if None in codes:
            return self.zero
        marginal = self.marginals.get(cols)
        if marginal is None:
            marginal = self.marginals[cols] = self.sums(cols)
        try:
            return marginal[self.table.group_of(cols, codes)]
        except KeyError:  # no cell has these codes
            return self.zero

    def eval(self, e: Estimand, binding: Mapping[str, str], env: dict[str, str]):
        """A visit for ``_walk``: the value of ``e``."""
        if isinstance(e, One):
            return self.zero + 1.0
        if isinstance(e, ProbTerm):
            # values outside a column's observed domain simply carry zero mass;
            # a zero-mass conditioning event marks the distribution
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


class _RowEvaluation(_Evaluation):
    """State of one :func:`eval_rows` pass: the marked rows, and marginals
    that map each group present to its row of values."""

    def __init__(self, table: JointTable, weights: np.ndarray):
        import numpy as np

        super().__init__(table)
        self.weights = weights
        rows = weights.shape[0]
        self.marked = np.zeros(rows, dtype=bool)
        self.zero = np.zeros(rows)

    def mark(self, zero: np.ndarray, context) -> None:
        if zero.any():
            self.marked |= zero
            if self.marked.all():
                raise ConditioningOnZero(context())

    def sums(self, cols: tuple[int, ...]) -> dict[int, np.ndarray]:
        """Each present group's row of weights on ``cols``, added in cell
        order by ``np.bincount`` over the groups numbered as they first
        occur."""
        import numpy as np

        keys = self.table.groups(cols)
        number = {k: g for g, k in enumerate(dict.fromkeys(keys))}
        inverse = np.array(list(map(number.__getitem__, keys)), np.intp)
        rows, count = len(self.weights), len(number)
        flat = (np.arange(rows)[:, None] * count + inverse).ravel()
        marginal = np.bincount(flat, weights=self.weights.ravel(), minlength=rows * count)
        return dict(zip(number, marginal.reshape(rows, count).T))
