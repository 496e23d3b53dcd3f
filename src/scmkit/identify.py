"""Identification of interventional queries from a causal graph.

Given an ADMG and a query (see :mod:`scmkit.query`), this module searches
for back-door adjustment sets and runs the complete c-component
identification algorithm.  The result is either a symbolic estimand over the
observational distribution or a refusal carrying the pair of nested
confounded node sets (the "hedge") that blocks identification.  From the
hedge, ``nonidentifiability_witness`` builds two explicit binary models that
agree observationally but disagree interventionally, certifying each refusal.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Union

from .expr import (
    Estimand,
    EstimandError,
    ProbTerm,
    Product,
    Quotient,
    Sum,
    Val,
    _walk,
    free_variables,
    prod_of,
    sum_over,
    sym,
)
from .graph import Admg, UnknownVariable, _components, _minimal_separators, _reach
from .lexer import SYM_RE
from .query import CausalQuery, QueryError, QueryTerm, parse_query, query_layer
from .record import Record

if TYPE_CHECKING:
    from .scm import DiscreteScm

__all__ = [
    "QueryTerm",
    "CausalQuery",
    "QueryError",
    "Identified",
    "NonIdentifiable",
    "IdentifyResult",
    "WitnessPair",
    "parse_query",
    "query_layer",
    "backdoor_sets",
    "identify",
    "nonidentifiability_witness",
]


# --- back-door sets -------------------------------------------------------------


def backdoor_sets(g: Admg, x: str, y: str) -> list[frozenset[str]]:
    """All minimal back-door admissible sets for the effect of x on y.

    A set qualifies when none of its members descends from x and it
    d-separates x from y once x's outgoing directed edges are removed.
    Results are ordered by size, then lexicographically.
    """
    if x == y:
        raise QueryError("x and y must differ")
    g._check(x, y)
    candidates = sorted(g.nodes - {x, y} - g.descendants([x]))
    return list(_minimal_separators(g.without_outgoing([x]), x, y, candidates))


# --- identification ---------------------------------------------------------------


class Identified(Record):
    estimand: Estimand


class NonIdentifiable(Record):
    """Refusal with the offending hedge: two nested confounded node sets."""

    hedge_forest: frozenset[str]
    hedge_subforest: frozenset[str]

    def describe(self) -> str:
        f = "{" + ", ".join(sorted(self.hedge_forest)) + "}"
        fp = "{" + ", ".join(sorted(self.hedge_subforest)) + "}"
        return f"hedge: F={f} F'={fp}"


IdentifyResult = Union[Identified, NonIdentifiable]


class _Hedge(Exception):
    def __init__(self, forest: frozenset[str], subforest: frozenset[str]):
        self.forest = forest
        self.subforest = subforest


def _pt(joint_vars: Iterable[str], given_vars: Iterable[str] = ()) -> ProbTerm:
    return ProbTerm(
        tuple(sym(v, v) for v in sorted(joint_vars)),
        tuple(sym(v, v) for v in sorted(given_vars)),
    )


class _Dist(Record):
    """Distribution over ``order`` threaded through the sub-walks of ``_id``.

    When ``expr`` is a plain probability term covering exactly ``order``,
    marginals and conditionals stay plain terms; otherwise they are built
    from explicit sums and quotients.
    """

    order: tuple[str, ...]
    expr: Estimand

    def _plain(self) -> ProbTerm | None:
        if isinstance(self.expr, ProbTerm) and {
            v.var for v in self.expr.joint
        } == set(self.order):
            return self.expr
        return None

    def marginal(self, keep: frozenset[str]) -> "_Dist":
        new_order = tuple(v for v in self.order if v in keep)
        drop = [v for v in self.order if v not in keep]
        if not drop:
            return self
        plain = self._plain()
        if plain is not None:
            return _Dist(new_order, _pt(new_order, (v.var for v in plain.given)))
        return _Dist(new_order, sum_over(((u, u) for u in sorted(drop)), self.expr))

    def conditional(self, v: str, pred: tuple[str, ...]) -> Estimand:
        plain = self._plain()
        if plain is not None:
            given = tuple(pred) + tuple(g.var for g in plain.given)
            return _pt([v], given)
        num_drop = [u for u in self.order if u != v and u not in pred]
        den_drop = [u for u in self.order if u not in pred]
        num = sum_over(((u, u) for u in sorted(num_drop)), self.expr)
        if not pred:
            return num
        den = sum_over(((u, u) for u in sorted(den_drop)), self.expr)
        return Quotient(num, den)


def _smaller(sub: tuple, x: frozenset[str], v: frozenset[str]) -> tuple:
    """``sub``, the arguments of a sub-walk of ``_id`` on ``x`` and ``v``.
    Every step of ID lowers (|v|, |v - x|) in lexicographic order, which is
    why the walk ends: lines 2 and 7 shrink v, line 3 grows x and line 4
    gives each component a smaller v - x.  A step that does not is a bug,
    raised here rather than walked forever."""
    before = (len(v), len(v - x))
    after = (len(sub[3]), len(sub[3] - sub[1]))
    if after >= before:
        raise RuntimeError(f"identify: a step of ID took (|v|, |v - x|) from {before} to {after}")
    return sub


def _id(y: frozenset[str], x: frozenset[str], P: _Dist, v: frozenset[str], g: Admg):
    """A visit for ``_walk``: the estimand of P(y | do(x)) from ``P`` on the
    subgraph of ``g`` induced by ``v``, read off ``g`` by walks kept within
    node sets, so no graph is built.  Cutting the edges into ``x`` only
    matters through ``x``, so those ancestors are the ones within ``v - x``."""
    if not x:
        return P.marginal(y).expr
    anc = frozenset(_reach(y, g._parents, v))
    if v != anc:
        return (yield _smaller((y, x & anc, P.marginal(anc), anc, g), x, v))
    w = (v - x) - _reach(y, g._parents, v - x)
    if w:
        return (yield _smaller((y, x | w, P, v, g), x, v))
    comps = _components(g, v - x)
    if len(comps) > 1:
        factors = []
        for s in comps:
            factors.append((yield _smaller((s, v - s, P, v, g), x, v)))
        return sum_over(((u, u) for u in sorted(v - y - x)), prod_of(factors))
    s = comps[0]
    comps_v = _components(g, v)
    if len(comps_v) == 1:
        raise _Hedge(forest=v, subforest=s)
    s_prime = next(c for c in comps_v if s <= c)
    pos = {u: i for i, u in enumerate(P.order)}
    ordered = sorted(s_prime, key=pos.__getitem__)
    factors = [P.conditional(u, P.order[: pos[u]]) for u in ordered]
    if s == s_prime:
        return sum_over(((u, u) for u in sorted(s - y)), prod_of(factors))
    P2 = _Dist(tuple(ordered), prod_of(factors))
    return (yield _smaller((y, x & s_prime, P2, s_prime, g), x, v))


def _fresh(var: str, used: set[str]) -> str:
    base = var.lower()
    if not SYM_RE.fullmatch(base):
        base = "v"
    if base not in used:
        used.add(base)
        return base
    k = 2
    while f"{base}{k}" in used:
        k += 1
    used.add(f"{base}{k}")
    return f"{base}{k}"


def _standardize(e: Estimand, env: dict[str, Val], used: set[str]):
    """A visit for ``_walk``: ``e`` with internal placeholder symbols replaced
    by query symbols (``env`` maps each variable to its symbol in scope) and
    fresh binders.

    Occurrences are visited in written order, so a node reached twice is
    rewritten in each scope and binders get fresh symbols in the order they
    are written.  ``env`` is one dict for the whole walk: a ``Sum`` binds its
    variable for the visit of its body and then restores the entry it
    shadowed, which the depth-first order makes safe.
    """
    if isinstance(e, ProbTerm):
        for val in e.joint + e.given:
            if val.var not in env:
                raise EstimandError(f"no symbol in scope for {val.var}")
        return ProbTerm(tuple(env[v.var] for v in e.joint), tuple(env[v.var] for v in e.given))
    if isinstance(e, Sum):
        token = _fresh(e.var, used)
        shadowed = env.get(e.var)
        env[e.var] = Val(e.var, token)
        body = yield e.body, env, used
        if shadowed is None:
            del env[e.var]
        else:
            env[e.var] = shadowed
        return Sum(e.var, token, body)
    if isinstance(e, Product):
        factors = []
        for f in e.factors:
            factors.append((yield f, env, used))
        return Product(factors)
    if isinstance(e, Quotient):
        return Quotient((yield e.num, env, used), (yield e.den, env, used))
    return e


def identify(g: Admg, q: CausalQuery) -> IdentifyResult:
    """Complete identification of a layer-1/2 query from the graph.

    Returns :class:`Identified` with an estimand over observational
    probabilities, or :class:`NonIdentifiable` with the hedge witness.
    Conditional interventional queries are identified jointly and divided,
    so a zero-probability conditioning event surfaces only at evaluation.
    """
    layer = query_layer(q)
    if layer == 3:
        raise QueryError(
            "counterfactual (layer-3) queries are outside identify's scope"
        )
    for t in q.outcome + q.do + q.condition:
        if t.var not in g.nodes:
            raise UnknownVariable(f"query variable {t.var} not in the graph")
    y = frozenset(t.var for t in q.outcome)
    xs = frozenset(t.var for t in q.do)
    zs = frozenset(t.var for t in q.condition)

    if not xs:
        internal: Estimand = _pt(y, zs)
    else:
        p0 = _Dist(g.topological_order(), _pt(g.nodes))
        try:
            num = _walk(_id, y | zs, xs, p0, g.nodes, g)
        except _Hedge as h:
            return NonIdentifiable(frozenset(h.forest), frozenset(h.subforest))
        if zs:
            internal = Quotient(num, sum_over(((u, u) for u in sorted(y)), num))
        else:
            internal = num

    # wrap any non-query free variable s as sum_{s} P(s) * (...): the body is
    # constant in s, so averaging it against the marginal of s is exact
    query_vars = y | xs | zs
    extra = sorted(free_variables(internal) - query_vars)
    for s_var in reversed(extra):
        internal = Sum(s_var, s_var, prod_of([_pt([s_var]), internal]))

    free_vals = {
        t.var: Val(t.var, t.token, t.literal) for t in q.outcome + q.do + q.condition
    }
    used = {t.token for t in q.outcome + q.do + q.condition}
    return Identified(_walk(_standardize, internal, free_vals, used))


# --- non-identifiability witness ----------------------------------------------------


class WitnessPair(Record):
    """Two models certifying a refusal: same observables, different effect."""

    model_a: DiscreteScm
    model_b: DiscreteScm
    observational_gap: float
    interventional_gap: float


_WITNESS_MIN_GAP = 1e-3


def _hedge(g: Admg, x: str, y: str) -> _Hedge | None:
    """The hedge on which ID refuses P(y | do(x)) in ``g``, or None."""
    try:
        _walk(_id, frozenset([y]), frozenset([x]), _Dist(g.topological_order(), _pt(g.nodes)),
              g.nodes, g)
    except _Hedge as h:
        return h
    return None


def _toward(
    targets: Iterable[str], step: dict[str, frozenset[str]], within: frozenset[str]
) -> dict[str, str | None]:
    """Each node of ``within`` that ``step`` leads to from ``targets`` inside
    ``within``, mapped to the node it was reached from first, breadth-first;
    ``targets`` map to None.  Over parents, that is its child on a shortest
    directed path into ``targets``; over siblings, a spanning tree."""
    found: dict[str, str | None] = dict.fromkeys(sorted(targets))
    frontier = list(found)
    for v in frontier:
        for w in sorted(step[v] & within):
            if w not in found:
                found[w] = v
                frontier.append(w)
    return found


def nonidentifiability_witness(g: Admg, x: str, y: str) -> WitnessPair | None:
    """Two SCMs compatible with ``g`` (latent projection a subgraph of it)
    that share a positive observational joint but differ on P(y | do(x)),
    or None when ``identify`` answers the query.

    The pair is built from a hedge, as in the completeness proof of ID
    (Shpitser & Pearl 2006).  ``g`` is first cut to a minimal subgraph on
    which ID still refuses, and the hedge F ⊋ F' it raises there is narrowed
    so that F' reaches y around F - F' and every node of F - F' reaches F'
    inside F.  Every variable is binary.  In model a each node of F is the
    parity of its coins (one fair coin per bidirected edge of a spanning
    tree of F that spans F' too) and of the nodes that step to it on
    shortest directed paths, toward F' within F and toward y from F'.
    Model b is model a with F' blind to F - F' and to the coins that touch
    it.  The node of F' nearest y and the path on to y add private noise,
    and every other node is a private fair coin.  The exact sweep checks
    the pair before it is returned.
    """
    if x == y:
        raise QueryError("x and y must differ")
    g._check(x, y)
    hedge = _hedge(g, x, y)
    if hedge is None:
        return None
    # a refusal on a subgraph is a refusal on g, so one pass leaves a
    # subgraph from which no node or edge can go
    h = g
    cuts = [("node", v) for v in sorted(g.nodes - {x, y})]
    cuts += [("directed", e) for e in sorted(g.directed)]
    cuts += [("bidirected", e) for e in sorted(g.bidirected)]
    for kind, cut in cuts:
        if kind == "node":
            sub = Admg(h.nodes - {cut}, [e for e in h.directed if cut not in e],
                       [e for e in h.bidirected if cut not in e])
        elif kind == "directed":
            sub = Admg(h.nodes, h.directed - {cut}, h.bidirected)
        else:
            sub = Admg(h.nodes, h.directed, h.bidirected - {cut})
        found = _hedge(sub, x, y)
        if found is not None:
            h, hedge = sub, found
    # F' may reach y only through F - F'; keep the c-component of what does
    # not that holds the node nearest y, and of F what reaches it, until
    # neither changes
    f, fp = hedge.forest, hedge.subforest
    while True:
        reach_y = [v for v in _toward([y], h._parents, h.nodes - (f - fp)) if v in fp]
        fp_next = frozenset(_reach(reach_y[:1], h._siblings, frozenset(reach_y)))
        reach_fp = frozenset(_reach(fp_next, h._parents, f))
        f_next = frozenset(_reach(fp_next, h._siblings, reach_fp))
        if (f_next, fp_next) == (f, fp):
            break
        f, fp = f_next, fp_next
    if not fp or x not in f - fp or y in f - fp:
        raise RuntimeError(f"nonidentifiability_witness: no hedge through {x} for {y}")
    return _parity_pair(g, h, x, y, f, fp)


def _parity_pair(
    g: Admg, h: Admg, x: str, y: str, f: frozenset[str], fp: frozenset[str]
) -> WitnessPair:
    """The pair of ``nonidentifiability_witness`` from the hedge ``f`` ⊋
    ``fp`` of the subgraph ``h`` of ``g``, checked by the sweep on the nodes
    it builds; the rest are fair coins of their own."""
    from .scm import DiscreteScm, EndogenousVar, ExogenousVar, _sweep

    to_y = _toward([y], h._parents, h.nodes - (f - fp))
    path: set[str] = set()
    for v in fp:
        while v is not None and v not in path:
            path.add(v)
            v = to_y[v]
    noisy = {next(v for v in to_y if v in fp)} | (path - fp)
    used = set(g.nodes)

    def fresh(name: str) -> str:
        k, out = 1, name
        while out in used:
            k += 1
            out = f"{name}_{k}"
        used.add(out)
        return out

    binary = ("0", "1")
    exogenous: dict[str, ExogenousVar] = {}
    inputs: dict[str, list[str]] = {v: [] for v in g.nodes}
    # a spanning tree of F' grown to one of F, a coin per edge; F' does not
    # read F - F' in model b, nor a coin that touches it
    unread = set(f - fp)
    tree = itertools.chain(_toward([min(fp)], h._siblings, fp).items(),
                           _toward(fp, h._siblings, f).items())
    for a, b in tree:
        if b is not None:
            u = fresh(f"U_{min(a, b)}_{max(a, b)}")
            exogenous[u] = ExogenousVar(binary, (0.5, 0.5))
            inputs[a].append(u)
            inputs[b].append(u)
            if a not in fp:
                unread.add(u)
    eps = 1 / (4 * len(noisy))
    for v in sorted(g.nodes - f - path | noisy):
        u = fresh(f"U_{v}")
        exogenous[u] = ExogenousVar(binary, (1 - eps, eps) if v in noisy else (0.5, 0.5))
        inputs[v].append(u)
    steps = itertools.chain(_toward(fp, h._parents, f).items(), ((u, to_y[u]) for u in path))
    for u, v in steps:
        if v is not None:
            inputs[v].append(u)
    models = []
    for blind in (False, True):
        endogenous = {}
        for v in sorted(g.nodes):
            parents = tuple(u for u in inputs[v] if not (blind and v in fp and u in unread))
            table = {key: binary[key.count("1") % 2]
                     for key in itertools.product(binary, repeat=len(parents))}
            endogenous[v] = EndogenousVar(parents, table)
        models.append(DiscreteScm(exogenous, endogenous, dict.fromkeys(g.nodes, binary)))
    built = sorted(f | path)
    measured = []
    for m in models:
        masses, _ = _sweep(m, [{}, {x: "0"}, {x: "1"}], [(1, y), (2, y)] + [(0, v) for v in built])
        obs: dict[tuple[int, ...], float] = {}
        for key, w in masses.items():
            obs[key[3:]] = obs.get(key[3:], 0.0) + w
        # binary codes equal their values, so code 1 is y = "1"
        measured.append((obs, [sum(w for key, w in masses.items() if key[i]) for i in (1, 2)]))
    (obs_a, do_a), (obs_b, do_b) = measured
    # the sweep keeps no cell of zero mass
    positive = len(obs_a) == len(obs_b) == 2 ** len(built)
    obs_gap = max(abs(w - obs_b.get(c, 0.0)) for c, w in obs_a.items())
    do_gap = max(abs(a - b) for a, b in zip(do_a, do_b))
    if not positive or obs_gap > 1e-9 or do_gap < _WITNESS_MIN_GAP:
        raise RuntimeError(
            f"nonidentifiability_witness: the pair for P({y} | do({x})) has an observational"
            f" gap of {obs_gap}, an interventional gap of {do_gap} and positive={positive}")
    return WitnessPair(models[0], models[1], obs_gap, do_gap)
