"""Constraint-based structure discovery to a CPDAG.

The classic skeleton / collider / propagation pipeline, driven by a pluggable
conditional-independence oracle: either exact d-separation on a known graph,
or the G-squared test on data.  Assumes faithfulness and causal sufficiency.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Protocol

from . import ScmkitError
from .graph import Admg, GraphError, d_separated
from .record import Record

if TYPE_CHECKING:
    from .estimate import Dataset

__all__ = [
    "Cpdag",
    "CiOracle",
    "GraphOracle",
    "DataOracle",
    "DiscoveryError",
    "discover_cpdag",
    "render_cpdag",
]


class DiscoveryError(ScmkitError, ValueError):
    """Discovery could not produce a consistent CPDAG."""


class Cpdag(Record):
    nodes: frozenset[str]
    directed: frozenset[tuple[str, str]]
    undirected: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(
            self,
            "undirected",
            frozenset(tuple(sorted(e)) for e in self.undirected),
        )
        for a, b in itertools.chain(self.directed, self.undirected):
            if a not in self.nodes or b not in self.nodes:
                raise DiscoveryError(f"edge endpoint {a}/{b} not among the nodes")
        overlap = {
            tuple(sorted(e)) for e in self.directed
        } & set(self.undirected)
        if overlap:
            raise DiscoveryError(f"edges both directed and undirected: {sorted(overlap)}")
        try:
            Admg(self.nodes, self.directed)  # acyclicity of the directed part
        except GraphError as exc:
            raise DiscoveryError(str(exc)) from None


class CiOracle(Protocol):
    def independent(self, u: str, v: str, given: tuple[str, ...]) -> bool: ...


class GraphOracle:
    """Answers independence queries by d-separation on a known graph."""

    def __init__(self, g: Admg):
        self.g = g

    def independent(self, u: str, v: str, given: tuple[str, ...]) -> bool:
        return d_separated(self.g, {u}, {v}, given)


class DataOracle:
    """Answers independence queries with the G-squared test at level alpha.

    The data layers are imported here, so discovery over a
    :class:`GraphOracle` does not load them.  They run the tests in plain
    Python over the dataset's distinct rows, so ``discover --data`` does not
    load numpy either.
    """

    def __init__(self, d: Dataset, alpha: float = 0.05):
        from .estimate import DataError

        if not 0 < alpha < 1:
            raise DataError("alpha must be in (0, 1)")
        self.d = d
        self.alpha = alpha

    def independent(self, u: str, v: str, given: tuple[str, ...]) -> bool:
        from .fitcheck import g_squared_ci

        _, _, p, _, _ = g_squared_ci(self.d, u, v, given)
        return p >= self.alpha


def discover_cpdag(oracle: CiOracle, variables: Iterable[str]) -> Cpdag:
    """Skeleton by increasing separator size, collider orientation, then
    propagation to a fixpoint.

    Variables are handled in sorted order internally, so the output does not
    depend on the input ordering.  Within one call the oracle is asked each
    (unordered pair, conditioning set) question once.
    """
    names = sorted(set(variables))
    if len(names) < 2:
        raise DiscoveryError("need at least two variables")

    adj: dict[str, set[str]] = {u: set(names) - {u} for u in names}
    sepset: dict[frozenset[str], frozenset[str]] = {}
    answers: dict[tuple[str, str, tuple[str, ...]], bool] = {}

    def independent(u: str, v: str, cond: tuple[str, ...]) -> bool:
        # each question is put to the oracle once, with its pair sorted, so
        # (u, v | S) and (v, u | S) always get the same answer
        key = (min(u, v), max(u, v), cond)
        if key not in answers:
            answers[key] = oracle.independent(*key)
        return answers[key]

    level = 0
    while True:
        any_candidate = False
        for u in names:
            for v in sorted(adj[u]):
                others = sorted(adj[u] - {v})
                if len(others) < level:
                    continue
                any_candidate = True
                for cond in itertools.combinations(others, level):
                    if independent(u, v, cond):
                        adj[u].discard(v)
                        adj[v].discard(u)
                        sepset[frozenset((u, v))] = frozenset(cond)
                        break
        if not any_candidate:
            break
        level += 1

    directed: set[tuple[str, str]] = set()

    def orient(a: str, b: str) -> None:
        if (b, a) not in directed:
            directed.add((a, b))

    # colliders: u -> w <- v for nonadjacent u, v with w outside their separator
    for w in names:
        for u, v in itertools.combinations(sorted(adj[w]), 2):
            if v in adj[u]:
                continue
            if w not in sepset[frozenset((u, v))]:
                orient(u, w)
                orient(v, w)

    def is_undirected(a: str, b: str) -> bool:
        return b in adj[a] and (a, b) not in directed and (b, a) not in directed

    # propagation rules, applied until nothing changes
    changed = True
    while changed:
        changed = False
        for a in names:
            for b in sorted(adj[a]):
                if not is_undirected(a, b):
                    continue
                # rule 1: c -> a, a - b, c and b nonadjacent  =>  a -> b
                if any(
                    (c, a) in directed and b not in adj[c] and c != b
                    for c in names
                ):
                    orient(a, b)
                    changed = True
                    continue
                # rule 2: a -> c -> b and a - b  =>  a -> b
                if any(
                    (a, c) in directed and (c, b) in directed for c in names
                ):
                    orient(a, b)
                    changed = True
                    continue
                # rule 3: a - c, a - d, c -> b, d -> b, c and d nonadjacent
                pairs = [
                    c
                    for c in sorted(adj[a])
                    if is_undirected(a, c) and (c, b) in directed
                ]
                if any(
                    d_ not in adj[c] and c != d_
                    for c, d_ in itertools.combinations(pairs, 2)
                ):
                    orient(a, b)
                    changed = True

    undirected = {
        tuple(sorted((u, v))) for u in names for v in adj[u] if is_undirected(u, v)
    }
    return Cpdag(frozenset(names), frozenset(directed), frozenset(undirected))


def render_cpdag(c: Cpdag) -> str:
    """Graph file format with ``--`` lines for undirected edges."""
    lines = [f"var {v}" for v in sorted(c.nodes)]
    lines += [f"{a} -> {b}" for a, b in sorted(c.directed)]
    lines += [f"{a} -- {b}" for a, b in sorted(c.undirected)]
    return "\n".join(lines) + "\n"
