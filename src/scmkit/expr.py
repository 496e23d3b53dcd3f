"""Symbolic probability expressions and exact evaluation on joint tables.

The estimand language covers conditional-probability terms, products,
quotients and sums over a variable's domain:

    expr       := factor (('*' | '/') factor)*
    factor     := 'P(' terms ('|' terms)? ')'
                | 'sum_{' sym (',' sym)* '}' expr
                | '(' expr ')'
                | '1'
    terms      := assignment (',' assignment)*
    assignment := lowercase-symbol | VAR '=' VALUE

A lowercase symbol such as ``y`` names a value of the same-named uppercase
variable ``Y``.  The explicit form ``VAR=token`` covers everything else: the
token is a bound symbol when an enclosing ``sum_{...}`` binds it, otherwise a
literal domain value.

Estimands are evaluated on the coded cells of a :class:`JointTable` by one
visit, :meth:`_Evaluation.eval`, in plain floats for one distribution
(:func:`eval_estimand`) and, importing numpy only there, on the bootstrap's
rows of weights (:func:`eval_rows`).
"""

from __future__ import annotations

import threading
import weakref
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from . import ScmkitError
from .lexer import NAME_RE, SYM_RE, VALUE_RE, Scanner
from .record import Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Val",
    "ProbTerm",
    "Sum",
    "Product",
    "Quotient",
    "One",
    "ONE",
    "Estimand",
    "JointTable",
    "EstimandError",
    "EstimandParseError",
    "ConditioningOnZero",
    "UnboundSymbol",
    "eval_estimand",
    "eval_rows",
    "simplify",
    "render",
    "parse_estimand",
    "free_variables",
    "prod_of",
    "sum_over",
]


class EstimandError(ScmkitError, ValueError):
    """Malformed estimand or evaluation request."""


class EstimandParseError(EstimandError):
    """Grammar violation, with the character position that triggered it."""

    def __init__(self, msg: str, pos: int):
        self.pos = pos
        super().__init__(f"column {pos + 1}: {msg}")


class ConditioningOnZero(ScmkitError, ArithmeticError):
    """A conditioning event (or a quotient denominator) has probability zero.

    Signals that the estimand is inapplicable to the given distribution,
    e.g. an empty stratum in empirical data.
    """
    exit_code = 3

    def __init__(self, context: str):
        self.context = context
        super().__init__(f"conditioning on a zero-probability event: {context}")


class UnboundSymbol(EstimandError):
    """A free symbol had no value in the supplied binding."""


class _Node:
    """Base of the estimand nodes, which are interned (hash-consed).

    Building a node with the fields of a live node returns that node, so
    nodes compare and hash by identity and a fixpoint test is ``is``.  The
    table holds nodes weakly.  Each node caches two facts as bit sets over a
    registry of symbols and (symbol, variable) pairs: ``_syms``, the symbols
    it mentions, bound or free, and ``_free``, the pairs of its free
    non-literal references.  ``_kids`` are its estimand children.
    """

    __slots__ = ("_kids", "_syms", "_free", "__weakref__")

    def __reduce__(self):
        # rebuilt through the constructor, so a copy is the interned node
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)}>"


_LOCK = threading.Lock()
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_BITS: dict = {}  # symbol, or (symbol, variable) pair -> its bit index
_KEYS: list = []  # bit index -> symbol or pair
_PAIRS: dict[str, int] = {}  # symbol -> bit set of the pairs holding it


def _intern(cls, *fields):
    key = (cls, *fields)
    with _LOCK:  # one node per key, also when threads race to build it
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            for name, value in zip(_Node.__slots__, node._facts()):
                object.__setattr__(node, name, value)
            _NODES[key] = node
    return node


def _bit(key) -> int:
    """The bit of a symbol or a (symbol, variable) pair; called under _LOCK.
    Bits are never reused, so the registry grows with the distinct symbols
    and pairs the process has built nodes with."""
    i = _BITS.get(key)
    if i is None:
        i = _BITS[key] = len(_KEYS)
        _KEYS.append(key)
        if isinstance(key, tuple):
            _PAIRS[key[0]] = _PAIRS.get(key[0], 0) | 1 << i
    return 1 << i


def _check_estimand(e) -> None:
    if not isinstance(e, (ProbTerm, Sum, Product, Quotient, One)):
        raise EstimandError(f"not an estimand node: {e!r}")


def _union(parts, kids=()) -> tuple:
    """Facts of a node built from ``parts``, whose ``kids`` are estimands."""
    for kid in kids:
        _check_estimand(kid)
    syms = free = 0
    for part in parts:
        syms |= part._syms
        free |= part._free
    return kids, syms, free


class Val(_Node):
    """One variable-value reference inside a probability term.

    ``token`` is a literal domain value when ``literal`` is true, otherwise a
    symbol resolved through an enclosing sum binder or the caller's binding.
    """

    __slots__ = ("var", "token", "literal")

    def __new__(cls, var: str, token: str, literal: bool = False):
        return _intern(cls, var, token, bool(literal))

    def _facts(self) -> tuple:
        if not NAME_RE.fullmatch(self.var):
            raise EstimandError(f"invalid variable name: {self.var!r}")
        if not self.token or not VALUE_RE.fullmatch(self.token):
            raise EstimandError(f"invalid value token: {self.token!r}")
        if self.literal:
            return (), 0, 0
        return (), _bit(self.token), _bit((self.token, self.var))

    def __repr__(self) -> str:
        return f"Val({self.var!r}, {self.token!r}, literal={self.literal})"

    def render(self) -> str:
        if (
            not self.literal
            and self.token == self.var.lower()
            and self.token.upper() == self.var
            and SYM_RE.fullmatch(self.token)
        ):
            return self.token
        return f"{self.var}={self.token}"


def sym(var: str, token: str | None = None) -> Val:
    """Symbolic value reference; defaults to the lowercase of the variable."""
    return Val(var, token if token is not None else var.lower(), literal=False)


def lit(var: str, value: str) -> Val:
    """Literal value reference."""
    return Val(var, value, literal=True)


class ProbTerm(_Node):
    __slots__ = ("joint", "given")

    def __new__(cls, joint: tuple[Val, ...], given: tuple[Val, ...] = ()):
        return _intern(cls, tuple(joint), tuple(given))

    def _facts(self) -> tuple:
        if not self.joint:
            raise EstimandError("probability term needs at least one joint entry")
        vars_seen = [v.var for v in self.joint + self.given]
        if len(set(vars_seen)) != len(vars_seen):
            raise EstimandError(
                "a variable may appear only once in a probability term"
            )
        return _union(self.joint + self.given)

    def render(self) -> str:
        inner = ",".join(map(Val.render, self.joint))
        if self.given:
            inner += "|" + ",".join(map(Val.render, self.given))
        return f"P({inner})"


class Sum(_Node):
    """Sum of ``body`` over the domain of ``var``; ``token`` is the bound symbol."""

    __slots__ = ("var", "token", "body")

    def __new__(cls, var: str, token: str, body: Estimand):
        return _intern(cls, var, token, body)

    def _facts(self) -> tuple:
        kids, syms, free = _union((self.body,), (self.body,))
        return kids, syms | _bit(self.token), free & ~_PAIRS.get(self.token, 0)


class Product(_Node):
    __slots__ = ("factors",)

    def __new__(cls, factors: Iterable[Estimand]):
        flat: list[Estimand] = []
        for f in factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if len(flat) < 2:
            raise EstimandError("a product needs at least two factors")
        return _intern(cls, tuple(flat))

    def _facts(self) -> tuple:
        return _union(self.factors, self.factors)


class Quotient(_Node):
    __slots__ = ("num", "den")

    def __new__(cls, num: Estimand, den: Estimand):
        return _intern(cls, num, den)

    def _facts(self) -> tuple:
        kids = (self.num, self.den)
        return _union(kids, kids)


class One(_Node):
    __slots__ = ()

    def __new__(cls):
        return _intern(cls)

    def _facts(self) -> tuple:
        return (), 0, 0


ONE = One()

Estimand = Union[ProbTerm, Sum, Product, Quotient, One]


def prod_of(factors: Iterable[Estimand]) -> Estimand:
    """Product of the factors, degenerating gracefully for 0 or 1 of them."""
    fs = [f for f in factors if not isinstance(f, One)]
    if not fs:
        return ONE
    if len(fs) == 1:
        return fs[0]
    return Product(tuple(fs))


def sum_over(binders: Iterable[tuple[str, str]], body: Estimand) -> Estimand:
    """Wrap ``body`` in sums; binders are (variable, symbol) outermost first."""
    out = body
    for var, token in reversed(list(binders)):
        out = Sum(var, token, out)
    return out


# --- joint tables ------------------------------------------------------------


class JointTable(Record, eq=False):
    """Exact distribution over finite discrete variables, as coded cells.

    The table is stored in plain Python, the way a ``Dataset`` stores its
    distinct rows: one list of codes per variable (``_cols``) and one list of
    cell probabilities (``_weights``).  A cell's code for ``variables[j]`` is
    the index of its value in that variable's domain, and the code one past
    the end of a domain is a value no estimand token names.  Zero-mass cells
    may be omitted.  :func:`eval_estimand` reads these lists and loads no
    numpy.  Tables compare by identity.
    """

    variables: tuple[str, ...]
    domains: Mapping[str, tuple[str, ...]]

    def __init__(
        self,
        variables: tuple[str, ...],
        domains: Mapping[str, tuple[str, ...]],
        mass: Mapping[tuple[str, ...], float],
    ):
        """Encode ``mass``, full assignments (tuples aligned with ``variables``)
        to probabilities, in insertion order; its total must be 1 within 1e-12."""
        if len(set(variables)) != len(variables):
            raise EstimandError("duplicate variable in joint table")
        for v in variables:
            dom = domains.get(v)
            if not dom:
                raise EstimandError(f"empty or missing domain for {v}")
            if len(set(dom)) != len(dom):
                raise EstimandError(f"duplicate values in domain of {v}")
        ranks = [{val: i for i, val in enumerate(domains[v])} for v in variables]
        codes: list[list[int]] = []
        total = 0.0
        for key, p in mass.items():
            if len(key) != len(variables):
                raise EstimandError("assignment width does not match variables")
            if not p >= 0:  # NaN fails this test too
                what = "negative" if p < 0 else "invalid"
                raise EstimandError(f"{what} mass {p} for {key}")
            for v, val, rank in zip(variables, key, ranks):
                if val not in rank:
                    raise EstimandError(f"{val!r} not in the domain of {v}")
            codes.append([rank[val] for val, rank in zip(key, ranks)])
            total += p
        if not abs(total - 1.0) <= 1e-12:
            raise EstimandError(f"total mass {total!r} is not 1")
        self._set(variables, domains, tuple(map(list, zip(*codes))),
                  list(map(float, mass.values())))

    @classmethod
    def _coded(cls, variables, domains, cols, weights) -> "JointTable":
        """A table over distinct cells already encoded, one list of codes per
        variable, with a list of their weights.  The engine builds these from
        counts and enumerations, so the total is not checked again."""
        t = cls.__new__(cls)
        t._set(variables, domains, cols, weights)
        return t

    def _set(self, variables, domains, cols, weights) -> None:
        self.__dict__.update(variables=variables, domains=domains, _cols=cols,
                             _weights=weights, _grouped={})

    def __reduce__(self):
        # rebuilt through _coded, so a copy's cached views are recomputed
        return JointTable._coded, (self.variables, self.domains, self._cols, self._weights)

    @cached_property
    def mass(self) -> dict[tuple[str | None, ...], float]:
        """Probabilities keyed by full assignments, in cell order, decoded on
        first use; the code past the end of a domain decodes to ``None``."""
        decoded = [
            list(map((*self.domains[v], None).__getitem__, col))
            for v, col in zip(self.variables, self._cols)
        ]
        keys = zip(*decoded) if decoded else [()] * len(self._weights)
        return dict(zip(keys, self._weights))

    @cached_property
    def value_codes(self) -> dict[str, dict[str, int]]:
        """Each variable's map from a domain value to its code."""
        return {
            v: {val: i for i, val in enumerate(self.domains[v])} for v in self.variables
        }

    def index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnboundSymbol(f"variable {var} not in the joint table") from None

    def groups(self, cols: tuple[int, ...]) -> list[int]:
        """Every cell's group by its codes on ``cols``.  A group is the codes
        read as one mixed-radix number (:meth:`group_of`), in which each
        digit also has room for the code one past the end of its domain."""
        keys = self._grouped.get(cols)
        if keys is None:
            keys = [0] * len(self._weights)
            for i, j in enumerate(cols):
                digits = len(self.domains[self.variables[j]]) + 1
                col = self._cols[j]
                # the first column's codes are its groups already
                keys = [k * digits + c for k, c in zip(keys, col)] if i else col
            self._grouped[cols] = keys
        return keys

    def group_of(self, cols: tuple[int, ...], codes) -> int:
        """The group of the cells whose codes on ``cols`` are ``codes``."""
        group = 0
        for j, c in zip(cols, codes):
            group = group * (len(self.domains[self.variables[j]]) + 1) + c
        return group

    def prob(self, assignment: Mapping[str, str]) -> float:
        """Marginal probability of a partial assignment; a value outside a
        variable's domain has probability zero."""
        pairs = [(self.index(v), self.value_codes[v].get(x)) for v, x in assignment.items()]
        return _Evaluation(self).prob(pairs)


# --- evaluation --------------------------------------------------------------


def eval_estimand(
    e: Estimand,
    table: JointTable,
    binding: Mapping[str, str] | None = None,
) -> float:
    """Evaluate an estimand exactly against a joint table.

    ``binding`` maps variable names to values for the estimand's free symbols.
    Raises :class:`ConditioningOnZero` when a conditioning event or quotient
    denominator has zero probability, and :class:`UnboundSymbol` when a free
    symbol has no binding.
    """
    return _evaluate(_Evaluation(table), e, binding)


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
    :class:`UnboundSymbol` exactly as in :func:`eval_estimand`.
    """
    import numpy as np

    ev = _RowEvaluation(table, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _evaluate(ev, e, binding)
    return values, ev.marked


def _evaluate(ev: _Evaluation, e: Estimand, binding: Mapping[str, str] | None):
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
    :meth:`JointTable.groups` on its columns."""

    zero = 0.0

    def __init__(self, table: JointTable):
        self.table = table
        self.marginals: dict[tuple[int, ...], object] = {}

    def mark(self, zero: bool, context) -> None:
        if zero:
            raise ConditioningOnZero(context())

    def sums(self, cols: tuple[int, ...]) -> dict[int, float]:
        """Each present group's weight on ``cols``, added in cell order as
        ``np.bincount`` adds it, so both backends agree bit for bit."""
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
        # a group that no cell holds carries zero mass
        return marginal.get(self.table.group_of(cols, codes), self.zero)

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
        self.marked = np.zeros(len(weights), dtype=bool)
        self.zero = np.zeros(len(weights))

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


# --- walks and symbol facts --------------------------------------------------------


def _walk(visit, *args):
    """``visit(*args)``, run on an explicit stack of generators.  A visit
    yields the arguments of each sub-walk it needs, is sent that walk's
    result, and returns its own; so it reads like plain recursion, runs its
    steps in the same order, and never meets the recursion limit."""
    stack, value = [visit(*args)], None
    while True:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(visit(*sub))
            value = None


def free_variables(e: Estimand) -> frozenset[str]:
    """Variables referenced through free (unbound, non-literal) symbols."""
    _check_estimand(e)
    bits = enumerate(reversed(bin(e._free)))  # bit i is the i-th digit from the right
    return frozenset(_KEYS[i][1] for i, bit in bits if bit == "1")


def _mentions(e: Estimand, token: str) -> bool:
    i = _BITS.get(token)
    return i is not None and e._syms >> i & 1 == 1


# --- simplification ------------------------------------------------------------


def simplify(e: Estimand) -> Estimand:
    """Conservative rewriting to a fixpoint.

    Rules: product flattening and unit elimination; chain-rule merging
    P(a|b,C) * P(b|C) -> P(a,b|C); collapse of a sum whose bound symbol occurs
    in exactly one joint position, sum_{z} P(...,z,...|C) -> P(...|C); and
    cancellation of syntactically identical quotient factors.  The result
    evaluates identically to the input on every joint table.  Each pass
    rewrites every distinct node once, after its children, and a node's
    rewrite is kept for later passes.
    """
    _check_estimand(e)
    once: dict[Estimand, Estimand] = {}

    def rewrite(node: Estimand):
        if node not in once:
            for kid in node._kids:
                yield (kid,)
            once[node] = _rewrite(node, once)
        return once[node]

    for _ in range(1000):
        e2 = _walk(rewrite, e)
        if e2 is e:
            return e
        e = e2
    return e


def _rewrite(e: Estimand, once: Mapping[Estimand, Estimand]) -> Estimand:
    """One rewriting step at ``e``, whose children rewrite as in ``once``."""
    if isinstance(e, Product):
        return prod_of(_merge_chain([once[f] for f in e.factors if once[f] is not ONE]))
    if isinstance(e, Quotient):
        num, den = once[e.num], once[e.den]
        if num is den:
            return ONE
        if den is ONE:
            return num
        out = _cancel(num, den)
        if isinstance(out, Quotient):
            extracted = _extract_conditional(out)
            if extracted is not None:
                return extracted
        return out
    if isinstance(e, Sum):
        return _collapse_sum(Sum(e.var, e.token, once[e.body]))
    return e


def _merge_chain(factors: list[Estimand]) -> list[Estimand]:
    """Merge one P(a|b,C) * P(b|C) pair into P(a,b|C), if any."""
    for i, a in enumerate(factors):
        if not isinstance(a, ProbTerm):
            continue
        for j, b in enumerate(factors):
            if i == j or not isinstance(b, ProbTerm):
                continue
            if set(a.given) != set(b.joint) | set(b.given):
                continue
            joint_vars = {v.var for v in a.joint} | {v.var for v in b.joint}
            if len(joint_vars) != len(a.joint) + len(b.joint):
                continue
            merged = ProbTerm(
                joint=tuple(sorted(a.joint + b.joint, key=lambda v: v.var)),
                given=b.given,
            )
            lo, hi = min(i, j), max(i, j)
            return factors[:lo] + [merged] + factors[lo + 1 : hi] + factors[hi + 1 :]
    return factors


def _collapse_sum(e: Sum) -> Estimand:
    token = e.token
    body = e.body
    if isinstance(body, ProbTerm):
        candidates = [body]
        rest: list[Estimand] = []
    elif isinstance(body, Product):
        candidates = [f for f in body.factors if _mentions(f, token)]
        rest = [f for f in body.factors if not _mentions(f, token)]
    else:
        return e
    if len(candidates) != 1 or not isinstance(candidates[0], ProbTerm):
        return e
    term = candidates[0]
    in_joint = [v for v in term.joint if not v.literal and v.token == token]
    in_given = [v for v in term.given if not v.literal and v.token == token]
    if len(in_joint) != 1 or in_given:
        return e
    remaining = tuple(v for v in term.joint if v is not in_joint[0])
    reduced: Estimand = ProbTerm(remaining, term.given) if remaining else ONE
    return prod_of(rest + [reduced]) if rest else reduced


def _extract_conditional(q: Quotient) -> Estimand | None:
    """P(J|G) / P(K|G) with K a proper subset of J becomes P(J-K | K,G)."""
    num, den = q.num, q.den
    if not (isinstance(num, ProbTerm) and isinstance(den, ProbTerm)):
        return None
    if set(num.given) != set(den.given):
        return None
    if not set(den.joint) < set(num.joint):
        return None
    remaining = tuple(v for v in num.joint if v not in set(den.joint))
    given = tuple(sorted(den.joint + num.given, key=lambda v: v.var))
    return ProbTerm(remaining, given)


def _factor_list(e: Estimand) -> list[Estimand]:
    return list(e.factors) if isinstance(e, Product) else [e]


def _cancel(num: Estimand, den: Estimand) -> Estimand:
    nf = _factor_list(num)
    df = _factor_list(den)
    changed = False
    for d in list(df):
        if d in nf:
            nf.remove(d)
            df.remove(d)
            changed = True
    if not changed:
        return Quotient(num, den)
    if not df:
        return prod_of(nf)
    return Quotient(prod_of(nf), prod_of(df))


# --- rendering -----------------------------------------------------------------


def render(e: Estimand) -> str:
    """Canonical text for an estimand; ``parse_estimand`` inverts it."""
    _check_estimand(e)
    out: list[str] = []
    _walk(_render, e, out)
    return "".join(out)


def _render(e: Estimand, out: list[str]):
    """A visit: writes the text of ``e`` to ``out``."""
    if isinstance(e, Sum):
        out.append(f"sum_{{{e.token}}} ")
        yield e.body, out
    elif isinstance(e, Product):
        last = len(e.factors) - 1
        for i, f in enumerate(e.factors):
            wrap = (isinstance(f, Sum) and i < last) or (isinstance(f, Quotient) and i > 0)
            yield from _operand(f, out, " * " if i else "", wrap)
    elif isinstance(e, Quotient):
        yield from _operand(e.num, out, "", isinstance(e.num, (Product, Sum)))
        yield from _operand(e.den, out, " / ", isinstance(e.den, (Product, Quotient, Sum)))
    else:
        out.append(e.render() if isinstance(e, ProbTerm) else "1")


def _operand(e: Estimand, out: list[str], before: str, wrap: bool):
    """Part of a visit: writes ``before``, then ``e`` in parentheses if ``wrap``."""
    out.append(before + "(" if wrap else before)
    yield e, out
    if wrap:
        out.append(")")


# --- parsing -------------------------------------------------------------------


class _Parser(Scanner):
    """The grammar as a visit per ``expr``, run by ``_walk``; each open
    binder's variable is taken from its first use in the body."""

    def error(self, msg: str) -> EstimandParseError:
        return EstimandParseError(msg, self.pos)

    def parse(self) -> Estimand:
        self.binders: dict[str, str | None] = {}
        e = _walk(self.expr)
        if self.pos != len(self.text):
            raise self.error("unexpected trailing text")
        return e

    def expr(self):
        """A visit: the ``expr`` at the cursor, with a sub-walk for the
        ``expr`` inside each sum or parenthesis."""
        e = op = None
        while True:
            self.skip_ws()
            if self.literal("sum_{"):
                binders = self.binder_list()
                f = yield ()
                for tok in reversed(binders):
                    f = Sum(self.binders.pop(tok) or tok.upper(), tok, f)
            elif self.literal("("):
                f = yield ()
                self.expect(")")
            else:
                f = self.atom()
            e = f if op is None else Product((e, f)) if op == "*" else Quotient(e, f)
            self.skip_ws()
            op = self.peek()
            if op not in ("*", "/"):
                return e
            self.pos += 1

    def binder_list(self) -> list[str]:
        binders: list[str] = []
        while True:
            self.skip_ws()
            tok = self.match_re(SYM_RE, "a bound symbol")
            if tok in self.binders:
                self.pos -= len(tok)
                raise self.error(f"duplicate bound variable {tok!r}")
            self.binders[tok] = None
            binders.append(tok)
            self.skip_ws()
            if not self.literal(","):
                self.expect("}")
                return binders

    def atom(self) -> Estimand:
        if self.literal("P("):
            sides: list[list[Val]] = [[]]  # the joint, then the given terms
            while True:
                self.skip_ws()
                sides[-1].append(self.assignment())
                self.skip_ws()
                if not self.literal(","):
                    if len(sides) == 2 or not self.literal("|"):
                        break
                    sides.append([])
            self.expect(")")
            try:
                return ProbTerm(*map(tuple, sides))
            except EstimandError as exc:
                raise self.error(str(exc)) from None
        if self.peek() == "1" and not VALUE_RE.match(self.text, self.pos + 1):
            self.pos += 1
            return ONE
        raise self.error("expected a probability term, sum, or parenthesis")

    def assignment(self) -> Val:
        start = self.pos
        name = self.match_re(NAME_RE, "a variable or symbol")
        self.skip_ws()
        if self.literal("="):
            self.skip_ws()
            value = self.match_re(VALUE_RE, "a value token")
            if value not in self.binders:
                return Val(name, value, literal=True)
            val = Val(name, value, literal=False)
        elif SYM_RE.fullmatch(name):
            val = Val(name.upper(), name, literal=False)
        else:
            self.pos = start
            raise self.error(
                f"{name!r} needs an explicit '=value' (bare symbols are lowercase)"
            )
        if self.binders.get(val.token, "") is None:
            # the first use of a bound symbol names the variable it ranges over
            self.binders[val.token] = val.var
        return val


def parse_estimand(text: str) -> Estimand:
    """Parse estimand text; structural inverse of :func:`render`."""
    return _Parser(text).parse()
