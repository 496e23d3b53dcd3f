"""Causal queries in the three-layer hierarchy and their text form.

A query such as ``P(Y | do(X))`` or ``P(Y_{X=1}=1 | X=0)`` parses to a
:class:`CausalQuery`; :func:`query_layer` classifies it as association,
intervention or counterfactual.  Identification and the counterfactual
command both read queries, so this module needs only the lexer.
"""

from __future__ import annotations

from . import ScmkitError
from .lexer import NAME_RE, VALUE_RE, Scanner
from .record import Record

__all__ = ["QueryTerm", "CausalQuery", "QueryError", "parse_query", "query_layer"]


class QueryError(ScmkitError, ValueError):
    """Malformed causal query, or a query outside this operation's layer."""


class QueryTerm(Record):
    """One variable reference in a query.

    ``token`` is a value symbol (``literal=False``) or an explicit value.
    ``dos`` carries the counterfactual subscript, e.g. Y_{X=1}.
    """

    var: str
    token: str
    literal: bool = False
    dos: tuple[tuple[str, str], ...] = ()


class CausalQuery(Record):
    outcome: tuple[QueryTerm, ...]
    do: tuple[QueryTerm, ...] = ()
    condition: tuple[QueryTerm, ...] = ()

    def __post_init__(self):
        if not self.outcome:
            raise QueryError("query outcome must be nonempty")
        for group, name in ((self.outcome, "outcome"), (self.do, "do"),
                            (self.condition, "condition")):
            seen = [t.var for t in group]
            if len(set(seen)) != len(seen):
                raise QueryError(f"variable repeated in the {name} part")
        outcome_vars = {t.var for t in self.outcome}
        do_vars = {t.var for t in self.do}
        cond_vars = {t.var for t in self.condition}
        counterfactual = any(t.dos for t in self.outcome)
        overlaps = [outcome_vars & do_vars]
        if not counterfactual:
            # in a counterfactual query the evidence describes the factual
            # world, so it may name outcome variables
            overlaps += [outcome_vars & cond_vars, do_vars & cond_vars]
        for shared in overlaps:
            if shared:
                raise QueryError(
                    f"outcome/do/condition variables must be disjoint: {sorted(shared)}"
                )
        for t in self.do + self.condition:
            if t.dos:
                raise QueryError("counterfactual subscripts belong on outcome terms")


def query_layer(q: CausalQuery) -> int:
    """Hierarchy layer: 1 association, 2 intervention, 3 counterfactual."""
    if any(t.dos for t in q.outcome):
        return 3
    if q.do:
        return 2
    return 1


# --- query text form ----------------------------------------------------------


def parse_query(text: str) -> CausalQuery:
    """Parse query text such as ``P(Y | do(X))`` or ``P(Y_{X=1}=1 | X=0, Y=0)``."""
    p = _QueryParser(text)
    return p.parse()


class _QueryParser(Scanner):
    def error(self, msg: str) -> QueryError:
        return QueryError(f"column {self.pos + 1}: {msg}")

    def parse(self) -> CausalQuery:
        self.skip_ws()
        self.expect("P(")
        outcome = [self.qterm()]
        self.skip_ws()
        while self.literal(","):
            outcome.append(self.qterm())
            self.skip_ws()
        do: list[QueryTerm] = []
        condition: list[QueryTerm] = []
        if self.literal("|"):
            while True:
                self.skip_ws()
                if self.text.startswith("do(", self.pos):
                    self.pos += 3
                    do.append(self.qterm(allow_subscript=False))
                    self.skip_ws()
                    self.expect(")")
                else:
                    condition.append(self.qterm(allow_subscript=False))
                self.skip_ws()
                if not self.literal(","):
                    break
        self.expect(")")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing text")
        try:
            return CausalQuery(tuple(outcome), tuple(do), tuple(condition))
        except QueryError as exc:
            raise self.error(str(exc)) from None

    def qterm(self, allow_subscript: bool = True) -> QueryTerm:
        self.skip_ws()
        name = self.match_re(NAME_RE, "a variable name")
        dos: list[tuple[str, str]] = []
        if name.endswith("_") and self.text.startswith("{", self.pos):
            if not allow_subscript:
                raise self.error("subscripts are not allowed here")
            name = name[:-1]
            if not name:
                raise self.error("expected a variable name before subscript")
            self.pos += 1
            while True:
                self.skip_ws()
                sub_var = self.match_re(NAME_RE, "a subscript variable")
                self.skip_ws()
                self.expect("=")
                self.skip_ws()
                sub_val = self.match_re(VALUE_RE, "a subscript value")
                dos.append((sub_var, sub_val))
                self.skip_ws()
                if self.literal(","):
                    continue
                self.expect("}")
                break
        self.skip_ws()
        if self.literal("="):
            self.skip_ws()
            value = self.match_re(VALUE_RE, "a value token")
            return QueryTerm(name, value, literal=True, dos=tuple(dos))
        if name == name.lower():
            return QueryTerm(name.upper(), name, literal=False, dos=tuple(dos))
        return QueryTerm(name, name.lower(), literal=False, dos=tuple(dos))
