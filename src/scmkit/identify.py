"""Identification of interventional queries from a causal graph.

Given an ADMG and a query (see :mod:`scmkit.query`), this module searches
for back-door adjustment sets and runs the complete c-component
identification algorithm.  The result is either a symbolic estimand over the
observational distribution or a refusal carrying the pair of nested
confounded node sets (the "hedge") that blocks identification.  A companion
search constructs two explicit models that agree observationally but disagree
interventionally, certifying each refusal.
"""

from __future__ import annotations

import itertools
import zlib
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


def _id(y: frozenset[str], x: frozenset[str], P: _Dist, v: frozenset[str], g: Admg):
    """A visit for ``_walk``: the estimand of P(y | do(x)) from ``P`` on the
    subgraph of ``g`` induced by ``v``, read off ``g`` by walks kept within
    node sets, so no graph is built.  Cutting the edges into ``x`` only
    matters through ``x``, so those ancestors are the ones within ``v - x``."""
    if not x:
        return P.marginal(y).expr
    anc = frozenset(_reach(y, g._parents, v))
    if v != anc:
        return (yield y, x & anc, P.marginal(anc), anc, g)
    w = (v - x) - _reach(y, g._parents, v - x)
    if w:
        return (yield y, x | w, P, v, g)
    comps = _components(g, v - x)
    if len(comps) > 1:
        factors = []
        for s in comps:
            factors.append((yield s, v - s, P, v, g))
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
    return (yield y, x & s_prime, P2, s_prime, g)


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
_WITNESS_MAX_TYPES = 70_000


def nonidentifiability_witness(
    g: Admg,
    x: str,
    y: str,
) -> WitnessPair | None:
    """Search for two SCMs compatible with ``g`` (latent projection a subgraph
    of it) that share an observational joint but differ on P(y | do(x)).

    The search varies the response-type distribution of one bidirected edge
    at a time inside the null space of the observational-moment map; the
    returned pair is checked by the exact model sweep before being reported.
    Edges with more than ``_WITNESS_MAX_TYPES`` response types are skipped,
    and the pair must differ on P(y | do(x)) by at least ``_WITNESS_MIN_GAP``.
    """
    g._check(x, y)
    for edge in sorted(g.bidirected):
        for attempt in range(6):
            pair = _witness_via_edge(g, x, y, edge, attempt)
            if pair is not None:
                return pair
    return None


def _stable_seed(*parts: str) -> int:
    return zlib.crc32("|".join(parts).encode())


def _witness_via_edge(
    g: Admg,
    x: str,
    y: str,
    edge: tuple[str, str],
    attempt: int,
) -> WitnessPair | None:
    # numpy and the model kernel serve only the witness search, so
    # identification itself loads neither
    import numpy as np

    from .scm import DiscreteScm, EndogenousVar, ExogenousVar, _sweep

    a, b = edge
    rng = np.random.default_rng(
        _stable_seed("witness", ",".join(sorted(g.nodes)), x, y, a, b, str(attempt))
    )
    binary = ("0", "1")
    pa = {v: tuple(sorted(g.parents(v))) for v in g.nodes}

    # every other bidirected edge stays active as an independent fair coin,
    # so confounding paths through several edges remain expressible
    exogenous: dict[str, ExogenousVar] = {}
    incident: dict[str, list[str]] = {v: [] for v in g.nodes}
    for other in sorted(g.bidirected):
        if other == tuple(sorted(edge)):
            continue
        u = f"U_{other[0]}_{other[1]}"
        exogenous[u] = ExogenousVar(binary, (0.5, 0.5))
        incident[other[0]].append(u)
        incident[other[1]].append(u)

    # the varied edge's endpoints respond to their directed parents plus
    # their incident coins; a type fixes the response at every such input
    inputs = {v: pa[v] + tuple(sorted(incident[v])) for v in (a, b)}
    assign = {
        v: list(itertools.product(binary, repeat=len(inputs[v]))) for v in (a, b)
    }
    total_types = 2 ** len(assign[a]) * 2 ** len(assign[b])
    if total_types > _WITNESS_MAX_TYPES:
        return None
    types = {
        v: list(itertools.product(binary, repeat=len(assign[v]))) for v in (a, b)
    }

    fixed_tables: dict[str, dict[tuple[str, ...], str]] = {}
    fixed_parents: dict[str, tuple[str, ...]] = {}
    for v in sorted(g.nodes):
        if v in (a, b):
            continue
        parents = pa[v] + tuple(sorted(incident[v]))
        if not parents:
            u = f"U_{v}"
            exogenous[u] = ExogenousVar(binary, (0.5, 0.5))
            fixed_parents[v] = (u,)
            fixed_tables[v] = {("0",): "0", ("1",): "1"}
            continue
        fixed_parents[v] = parents
        table = {
            key: binary[rng.integers(0, 2)]
            for key in itertools.product(binary, repeat=len(parents))
        }
        if len(set(table.values())) == 1:
            # a constant mechanism would mute every channel through v
            last = sorted(table)[-1]
            table[last] = "1" if table[last] == "0" else "0"
        fixed_tables[v] = table

    order = g.topological_order()
    if total_types * 2 ** len(exogenous) > 600_000:
        return None
    u_edge = f"U_{a}_{b}"

    def build(q: np.ndarray) -> DiscreteScm:
        q = np.clip(q, 0.0, None)
        q = q / q.sum()
        exo = dict(exogenous)
        exo[u_edge] = ExogenousVar(
            tuple(f"t{i}" for i in range(total_types)), tuple(float(p) for p in q)
        )
        endogenous: dict[str, EndogenousVar] = {}
        pair_types = list(itertools.product(types[a], types[b]))
        for v in order:
            if v in (a, b):
                parents = inputs[v] + (u_edge,)
                table: dict[tuple[str, ...], str] = {}
                for k, key in enumerate(assign[v]):
                    for i, (ta, tb) in enumerate(pair_types):
                        table[key + (f"t{i}",)] = (ta if v == a else tb)[k]
                endogenous[v] = EndogenousVar(parents, table)
            else:
                endogenous[v] = EndogenousVar(fixed_parents[v], fixed_tables[v])
        return DiscreteScm(exo, endogenous, endo_domains={v: binary for v in order})

    n_obs = 2 ** len(order)

    def moments(model: DiscreteScm) -> tuple[np.ndarray, np.ndarray]:
        """Mass of each observable cell, and P(y=1 | do(x)) per x, by type."""
        masses, _ = _sweep(model, [{}] + [{x: xv} for xv in binary],
                           [(0, u_edge), (1, y), (2, y)] + [(0, v) for v in order])
        cells, weights = np.array(list(masses)), np.array(list(masses.values()))
        t = cells[:, 1]
        obs = np.ravel_multi_index(cells[:, 4:].T, (2,) * len(order))
        m_obs = np.bincount(obs * total_types + t, weights, n_obs * total_types)
        # binary codes equal their values, so code 1 is y = "1"
        m_do = [np.bincount(t, weights * (cells[:, col] == 1), total_types) for col in (2, 3)]
        return m_obs.reshape(n_obs, total_types), np.stack(m_do)

    # under uniform type weights each state weighs its coin assignment's
    # weight over total_types; all factors are powers of two, so scaling back
    # by total_types is exact
    q0 = np.full(total_types, 1.0 / total_types)
    m_obs, m_do = (total_types * mat for mat in moments(build(q0)))

    a_mat = np.vstack([m_obs, np.ones((1, total_types))])
    # m_do on the null space of the observational-moment map (plus
    # normalization); reduced SVDs only, as a full one is T x T for T types
    _, sv, vt = np.linalg.svd(a_mat, full_matrices=False)
    row = vt[sv > 1e-10]
    d = m_do - (m_do @ row.T) @ row
    if np.max(np.abs(d)) < 1e-9:
        return None
    _, _, dvt = np.linalg.svd(d, full_matrices=False)
    w = dvt[0]
    w /= np.max(np.abs(w))
    with np.errstate(divide="ignore"):
        t_max = np.min(np.where(np.abs(w) > 1e-12, q0 / np.abs(w), np.inf))
    step = 0.9 * t_max
    q_hi = q0 + step * w
    q_lo = q0 - step * w
    if np.max(np.abs(m_do @ (q_hi - q_lo))) < _WITNESS_MIN_GAP:
        return None

    model_a = build(q_hi)
    model_b = build(q_lo)
    (obs_a, do_a), (obs_b, do_b) = moments(model_a), moments(model_b)
    obs_gap = float(np.max(np.abs(obs_a.sum(axis=1) - obs_b.sum(axis=1))))
    if obs_gap > 1e-9:
        return None
    do_gap = float(np.max(np.abs(do_a.sum(axis=1) - do_b.sum(axis=1))))
    if do_gap < _WITNESS_MIN_GAP:
        return None
    return WitnessPair(model_a, model_b, obs_gap, do_gap)
