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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .lexer import NAME_RE, SYM_RE, VALUE_RE, Scanner

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
    "simplify",
    "render",
    "parse_estimand",
    "free_variables",
    "prod_of",
    "sum_over",
]


class EstimandError(ValueError):
    """Malformed estimand or evaluation request."""


class EstimandParseError(EstimandError):
    """Grammar violation, with the character position that triggered it."""

    def __init__(self, msg: str, pos: int):
        self.pos = pos
        super().__init__(f"column {pos + 1}: {msg}")


class ConditioningOnZero(ArithmeticError):
    """A conditioning event (or a quotient denominator) has probability zero.

    Signals that the estimand is inapplicable to the given distribution,
    e.g. an empty stratum in empirical data.
    """

    def __init__(self, context: str):
        self.context = context
        super().__init__(f"conditioning on a zero-probability event: {context}")


class UnboundSymbol(EstimandError):
    """A free symbol had no value in the supplied binding."""


@dataclass(frozen=True)
class Val:
    """One variable-value reference inside a probability term.

    ``token`` is a literal domain value when ``literal`` is true, otherwise a
    symbol resolved through an enclosing sum binder or the caller's binding.
    """

    var: str
    token: str
    literal: bool = False

    def __post_init__(self):
        if not NAME_RE.fullmatch(self.var):
            raise EstimandError(f"invalid variable name: {self.var!r}")
        if not self.token or not VALUE_RE.fullmatch(self.token):
            raise EstimandError(f"invalid value token: {self.token!r}")

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


@dataclass(frozen=True)
class ProbTerm:
    joint: tuple[Val, ...]
    given: tuple[Val, ...] = ()

    def __post_init__(self):
        if not self.joint:
            raise EstimandError("probability term needs at least one joint entry")
        vars_seen = [v.var for v in self.joint + self.given]
        if len(set(vars_seen)) != len(vars_seen):
            raise EstimandError(
                "a variable may appear only once in a probability term"
            )

    def render(self) -> str:
        inner = ",".join(v.render() for v in self.joint)
        if self.given:
            inner += "|" + ",".join(v.render() for v in self.given)
        return f"P({inner})"


@dataclass(frozen=True)
class Sum:
    """Sum of ``body`` over the domain of ``var``; ``token`` is the bound symbol."""

    var: str
    token: str
    body: "Estimand"


@dataclass(frozen=True)
class Product:
    factors: tuple["Estimand", ...]

    def __post_init__(self):
        flat: list[Estimand] = []
        for f in self.factors:
            if isinstance(f, Product):
                flat.extend(f.factors)
            else:
                flat.append(f)
        object.__setattr__(self, "factors", tuple(flat))
        if len(self.factors) < 2:
            raise EstimandError("a product needs at least two factors")


@dataclass(frozen=True)
class Quotient:
    num: "Estimand"
    den: "Estimand"


@dataclass(frozen=True)
class One:
    pass


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


@dataclass(frozen=True, init=False, eq=False)
class JointTable:
    """Exact distribution over finite discrete variables, as coded cells.

    ``codes`` is a read-only ``(K, V)`` array of distinct cells: ``[k, j]`` is
    the index of cell ``k``'s value in the domain of ``variables[j]``, and a
    code past the end of a domain is a value no estimand token names.
    ``weights`` holds the cells' probabilities (read-only; zero-mass cells may
    be omitted).  Tables compare by identity.
    """

    variables: tuple[str, ...]
    domains: Mapping[str, tuple[str, ...]]
    codes: np.ndarray
    weights: np.ndarray

    def __init__(
        self,
        variables: tuple[str, ...],
        domains: Mapping[str, tuple[str, ...]],
        mass: Mapping[tuple[str, ...], float],
    ):
        """Encode ``mass``, full assignments (tuples aligned with ``variables``)
        to probabilities, in insertion order; its total must be 1 within 1e-12."""
        import numpy as np

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
        shape = (len(codes), len(variables))
        self._set(variables, domains, np.array(codes, np.intp).reshape(shape),
                  np.fromiter(mass.values(), float, len(codes)))

    @classmethod
    def _coded(cls, variables, domains, codes, weights) -> "JointTable":
        """A table over distinct cells already encoded and weighted.  The
        engine builds these from counts and enumerations, so the total is
        not checked again."""
        t = cls.__new__(cls)
        t._set(variables, domains, codes, weights)
        return t

    def _set(self, variables, domains, codes, weights) -> None:
        codes.flags.writeable = weights.flags.writeable = False
        self.__dict__.update(variables=variables, domains=domains, codes=codes,
                             weights=weights, _grouped={})

    def __reduce__(self):
        # rebuilt through _coded, so a copy's arrays are read-only and its
        # cached views are recomputed
        return JointTable._coded, (self.variables, self.domains, self.codes, self.weights)

    @cached_property
    def mass(self) -> dict[tuple[str | None, ...], float]:
        """Probabilities keyed by full assignments, in cell order, decoded on
        first use; a code past the end of a domain decodes to ``None``."""
        from .estimate import decode_rows

        keys = decode_rows(self.codes, [self.domains[v] for v in self.variables])
        return dict(zip(keys, self.weights.tolist()))

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

    def groups(self, cols: tuple[int, ...]) -> tuple[np.ndarray, int, dict]:
        """Group of every cell by its codes on ``cols``, the group count, and
        a map from a code tuple to its group."""
        got = self._grouped.get(cols)
        if got is None:
            from .estimate import group_rows

            group, distinct = group_rows(self.codes[:, list(cols)])
            lookup = {tuple(row): g for g, row in enumerate(distinct.tolist())}
            got = self._grouped[cols] = (group, len(distinct), lookup)
        return got

    def prob(self, assignment: Mapping[str, str]) -> float:
        """Marginal probability of a partial assignment; a value outside a
        variable's domain has probability zero."""
        from .evaluate import _RowEvaluation

        pairs = [(self.index(v), self.value_codes[v].get(x)) for v, x in assignment.items()]
        return float(_RowEvaluation(self, self.weights[None, :]).prob(pairs)[0])


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
    symbol has no binding.  The numpy evaluator is imported here, so the
    algebra, parser and renderer load without numpy.
    """
    from .evaluate import eval_rows

    values, _ = eval_rows(e, table, table.weights[None, :], binding)
    return float(values[0])


# --- free variables ------------------------------------------------------------


def free_variables(e: Estimand) -> frozenset[str]:
    """Variables referenced through free (unbound, non-literal) symbols."""
    out: set[str] = set()

    def walk(node: Estimand, bound: frozenset[str]) -> None:
        if isinstance(node, ProbTerm):
            for val in node.joint + node.given:
                if not val.literal and val.token not in bound:
                    out.add(val.var)
        elif isinstance(node, Sum):
            walk(node.body, bound | {node.token})
        elif isinstance(node, Product):
            for f in node.factors:
                walk(f, bound)
        elif isinstance(node, Quotient):
            walk(node.num, bound)
            walk(node.den, bound)

    walk(e, frozenset())
    return frozenset(out)


def _mentions(e: Estimand, token: str) -> bool:
    if isinstance(e, ProbTerm):
        return any(
            not v.literal and v.token == token for v in e.joint + e.given
        )
    if isinstance(e, Sum):
        return e.token == token or _mentions(e.body, token)
    if isinstance(e, Product):
        return any(_mentions(f, token) for f in e.factors)
    if isinstance(e, Quotient):
        return _mentions(e.num, token) or _mentions(e.den, token)
    return False


# --- simplification ------------------------------------------------------------


def simplify(e: Estimand) -> Estimand:
    """Conservative rewriting to a fixpoint.

    Rules: product flattening and unit elimination; chain-rule merging
    P(a|b,C) * P(b|C) -> P(a,b|C); collapse of a sum whose bound symbol occurs
    in exactly one joint position, sum_{z} P(...,z,...|C) -> P(...|C); and
    cancellation of syntactically identical quotient factors.  The result
    evaluates identically to the input on every joint table.
    """
    for _ in range(1000):
        e2 = _simplify_once(e)
        if e2 == e:
            return e
        e = e2
    return e


def _simplify_once(e: Estimand) -> Estimand:
    if isinstance(e, (One, ProbTerm)):
        return e
    if isinstance(e, Product):
        factors = [_simplify_once(f) for f in e.factors]
        factors = [f for f in factors if not isinstance(f, One)]
        merged = _merge_chain(factors)
        return prod_of(merged)
    if isinstance(e, Quotient):
        num = _simplify_once(e.num)
        den = _simplify_once(e.den)
        if num == den:
            return ONE
        if isinstance(den, One):
            return num
        out = _cancel(num, den)
        if isinstance(out, Quotient):
            extracted = _extract_conditional(out)
            if extracted is not None:
                return extracted
        return out
    if isinstance(e, Sum):
        body = _simplify_once(e.body)
        return _collapse_sum(Sum(e.var, e.token, body))
    raise EstimandError(f"not an estimand node: {e!r}")


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
    return _render(e)


def _render(e: Estimand) -> str:
    if isinstance(e, One):
        return "1"
    if isinstance(e, ProbTerm):
        return e.render()
    if isinstance(e, Sum):
        return f"sum_{{{e.token}}} " + _render(e.body)
    if isinstance(e, Product):
        parts = []
        last = len(e.factors) - 1
        for i, f in enumerate(e.factors):
            needs_parens = (isinstance(f, Sum) and i < last) or (
                isinstance(f, Quotient) and i > 0
            )
            parts.append(f"({_render(f)})" if needs_parens else _render(f))
        return " * ".join(parts)
    if isinstance(e, Quotient):
        num = e.num
        num_txt = f"({_render(num)})" if isinstance(num, (Product, Sum)) else _render(num)
        den = e.den
        den_txt = (
            f"({_render(den)})"
            if isinstance(den, (Product, Quotient, Sum))
            else _render(den)
        )
        return f"{num_txt} / {den_txt}"
    raise EstimandError(f"not an estimand node: {e!r}")


# --- parsing -------------------------------------------------------------------


class _Parser(Scanner):
    def error(self, msg: str) -> EstimandParseError:
        return EstimandParseError(msg, self.pos)

    # grammar ------------------------------------------------------------

    def parse(self) -> Estimand:
        self.skip_ws()
        e = self.expr(frozenset())
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing text")
        return e

    def expr(self, bound: frozenset[str]) -> Estimand:
        out = self.factor(bound)
        while True:
            self.skip_ws()
            if self.literal("*"):
                self.skip_ws()
                rhs = self.factor(bound)
                out = Product((out, rhs))
            elif self.literal("/"):
                self.skip_ws()
                rhs = self.factor(bound)
                out = Quotient(out, rhs)
            else:
                return out

    def factor(self, bound: frozenset[str]) -> Estimand:
        self.skip_ws()
        if self.literal("sum_{"):
            binders: list[str] = []
            while True:
                self.skip_ws()
                tok = self.match_re(SYM_RE, "a bound symbol")
                if tok in bound or tok in binders:
                    self.pos -= len(tok)
                    raise self.error(f"duplicate bound variable {tok!r}")
                binders.append(tok)
                self.skip_ws()
                if self.literal(","):
                    continue
                self.expect("}")
                break
            body = self.expr(bound | set(binders))
            out = body
            for tok in reversed(binders):
                out = Sum(_binder_var(out, tok), tok, out)
            return out
        if self.literal("P("):
            joint = self.terms(bound)
            given: tuple[Val, ...] = ()
            self.skip_ws()
            if self.literal("|"):
                given = self.terms(bound)
                self.skip_ws()
            self.expect(")")
            try:
                return ProbTerm(joint, given)
            except EstimandError as exc:
                raise self.error(str(exc)) from None
        if self.literal("("):
            inner = self.expr(bound)
            self.skip_ws()
            self.expect(")")
            return inner
        if self.peek() == "1" and not VALUE_RE.match(self.text, self.pos + 1):
            self.pos += 1
            return ONE
        raise self.error("expected a probability term, sum, or parenthesis")

    def terms(self, bound: frozenset[str]) -> tuple[Val, ...]:
        out: list[Val] = []
        while True:
            self.skip_ws()
            out.append(self.assignment(bound))
            self.skip_ws()
            if not self.literal(","):
                return tuple(out)

    def assignment(self, bound: frozenset[str]) -> Val:
        start = self.pos
        name = self.match_re(NAME_RE, "a variable or symbol")
        self.skip_ws()
        if self.literal("="):
            self.skip_ws()
            value = self.match_re(VALUE_RE, "a value token")
            if value in bound:
                return Val(name, value, literal=False)
            return Val(name, value, literal=True)
        if not SYM_RE.fullmatch(name):
            self.pos = start
            raise self.error(
                f"{name!r} needs an explicit '=value' (bare symbols are lowercase)"
            )
        return Val(name.upper(), name, literal=False)


def _binder_var(body: Estimand, token: str) -> str:
    """Variable a binder ranges over: first matching symbol occurrence wins."""

    def walk(node: Estimand) -> str | None:
        if isinstance(node, ProbTerm):
            for val in node.joint + node.given:
                if not val.literal and val.token == token:
                    return val.var
            return None
        if isinstance(node, Sum):
            if node.token == token:
                return None  # shadowed deeper; cannot happen after parse checks
            return walk(node.body)
        if isinstance(node, Product):
            for f in node.factors:
                got = walk(f)
                if got:
                    return got
            return None
        if isinstance(node, Quotient):
            return walk(node.num) or walk(node.den)
        return None

    return walk(body) or token.upper()


def parse_estimand(text: str) -> Estimand:
    """Parse estimand text; structural inverse of :func:`render`."""
    return _Parser(text).parse()
