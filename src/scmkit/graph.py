"""Acyclic directed mixed graphs and the graphical criteria built on them.

Directed edges carry causal influence.  A bidirected edge stands for an
unnamed exogenous cause shared by its two endpoints, so d-separation treats
``A <-> B`` exactly like ``A <- H -> B`` for a hidden ``H`` that can never be
conditioned on.

Graphs are immutable after construction and every function in this module is
pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from . import ScmkitError
from .lexer import NAME_RE, Scanner
from .record import Record

__all__ = [
    "Admg",
    "CiStatement",
    "GraphError",
    "CycleError",
    "UnknownVariable",
    "parse_graph",
    "serialize_graph",
    "d_separated",
    "c_components",
    "testable_implications",
]


class GraphError(ScmkitError, ValueError):
    """Malformed graph structure or graph file."""


class CycleError(GraphError):
    """The directed part of the graph contains a cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownVariable(GraphError):
    """A referenced variable is not a node of the graph."""


class Admg:
    """Acyclic directed mixed graph over named nodes.

    Parameters
    ----------
    nodes:
        Iterable of node names (identifiers).
    directed:
        Iterable of ``(parent, child)`` pairs.
    bidirected:
        Iterable of unordered pairs; each pair is stored once, canonically
        sorted.
    """

    __slots__ = ("nodes", "directed", "bidirected", "__dict__")

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ):
        self.nodes: frozenset[str] = frozenset(nodes)
        self.directed: frozenset[tuple[str, str]] = frozenset(
            (a, b) for a, b in directed
        )
        self.bidirected: frozenset[tuple[str, str]] = frozenset(
            tuple(sorted((a, b))) for a, b in bidirected
        )
        self._validate()

    def _validate(self) -> None:
        for name in self.nodes:
            if not NAME_RE.fullmatch(name):
                raise GraphError(f"invalid node name: {name!r}")
        for a, b in itertools.chain(self.directed, self.bidirected):
            if a == b:
                raise GraphError(f"self-loop on {a}")
            for end in (a, b):
                if end not in self.nodes:
                    raise GraphError(f"undeclared endpoint: {end}")
        if len(self._order) < len(self.nodes):
            raise CycleError(self._cycle(set(self._order)))

    def _cycle(self, placed: set[str]) -> list[str]:
        """A directed cycle among the nodes that Kahn's order left out.

        Each such node has a parent also left out, so walking up from the
        smallest one repeats a node; the walk's loop, reversed, is the cycle.
        """
        v = min(self.nodes - placed)
        trail: dict[str, int] = {}
        while v not in trail:
            trail[v] = len(trail)
            v = min(self._parents[v] - placed)
        return [v] + list(trail)[trail[v]:][::-1]

    # --- basic structure -------------------------------------------------

    @cached_property
    def _parents(self) -> dict[str, frozenset[str]]:
        return _neighbours(self.nodes, ((b, a) for a, b in self.directed))

    @cached_property
    def _children(self) -> dict[str, frozenset[str]]:
        return _neighbours(self.nodes, self.directed)

    @cached_property
    def _siblings(self) -> dict[str, frozenset[str]]:
        return _neighbours(
            self.nodes, itertools.chain(self.bidirected, ((b, a) for a, b in self.bidirected))
        )

    @cached_property
    def _order(self) -> tuple[str, ...]:
        """Kahn's order, lexicographic tie-break; it omits every node on or
        downstream of a directed cycle."""
        indeg = {v: len(self._parents[v]) for v in self.nodes}
        ready = sorted(v for v, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return tuple(order)

    def parents(self, v: str) -> frozenset[str]:
        self._check(v)
        return self._parents[v]

    def children(self, v: str) -> frozenset[str]:
        self._check(v)
        return self._children[v]

    def adjacent(self, u: str, v: str) -> bool:
        """True if any edge (directed either way, or bidirected) joins u, v."""
        self._check(u, v)
        return (
            (u, v) in self.directed
            or (v, u) in self.directed
            or tuple(sorted((u, v))) in self.bidirected
        )

    def _check(self, *vs: str) -> None:
        for v in vs:
            if v not in self.nodes:
                raise UnknownVariable(f"unknown variable: {v}")

    def ancestors(self, sources: Iterable[str]) -> frozenset[str]:
        """All nodes with a directed path into ``sources``, sources included."""
        sources = tuple(sources)
        self._check(*sources)
        return frozenset(_reach(sources, self._parents))

    def descendants(self, sources: Iterable[str]) -> frozenset[str]:
        """All nodes reachable from ``sources`` by directed paths, sources included."""
        sources = tuple(sources)
        self._check(*sources)
        return frozenset(_reach(sources, self._children))

    def topological_order(self) -> tuple[str, ...]:
        """Topological order of the directed part, lexicographic tie-break."""
        return self._order

    # --- derived graphs ---------------------------------------------------

    def without_outgoing(self, xs: Iterable[str]) -> "Admg":
        """Drop every directed edge leaving a member of ``xs``."""
        xs = frozenset(xs)
        return Admg(
            self.nodes,
            ((a, b) for a, b in self.directed if a not in xs),
            self.bidirected,
        )

    # --- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Admg):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.directed == other.directed
            and self.bidirected == other.bidirected
        )

    def __hash__(self) -> int:
        return hash((self.nodes, self.directed, self.bidirected))

    def __repr__(self) -> str:
        return (
            f"Admg(nodes={sorted(self.nodes)}, directed={sorted(self.directed)}, "
            f"bidirected={sorted(self.bidirected)})"
        )


class CiStatement(Record):
    """A conditional-independence statement: left independent of right given `given`."""

    left: frozenset[str]
    right: frozenset[str]
    given: frozenset[str]

    def __post_init__(self):
        if not self.left or not self.right:
            raise GraphError("left and right sides must be nonempty")
        if self.left & self.right or self.left & self.given or self.right & self.given:
            raise GraphError("left/right/given must be pairwise disjoint")

    def render(self) -> str:
        lhs = ", ".join(sorted(self.left))
        rhs = ", ".join(sorted(self.right))
        if self.given:
            return f"{lhs} _||_ {rhs} | " + ", ".join(sorted(self.given))
        return f"{lhs} _||_ {rhs}"


def _neighbours(
    nodes: frozenset[str], pairs: Iterable[tuple[str, str]]
) -> dict[str, frozenset[str]]:
    """Map each node to the second members of the pairs whose first it is."""
    found: dict[str, set[str]] = {}
    for a, b in pairs:
        found.setdefault(a, set()).add(b)
    out = dict.fromkeys(nodes, frozenset())
    out.update((v, frozenset(s)) for v, s in found.items())
    return out


def _reach(
    sources: Iterable[str],
    step: Mapping[str, Iterable[str]],
    within: frozenset[str] | None = None,
) -> set[str]:
    """The sources plus every node reachable from them through ``step``,
    passing only through members of ``within`` when it is given."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for w in step[frontier.pop()]:
            if w not in seen and (within is None or w in within):
                seen.add(w)
                frontier.append(w)
    return seen


# --- file format -----------------------------------------------------------


def parse_graph(text: str) -> Admg:
    """Parse the line-based graph format.

    ``#`` starts a comment, ``var NAME`` declares a node, ``A -> B`` adds a
    directed edge and ``A <-> B`` a bidirected one.  Declarations may appear
    in any order; every edge endpoint must be declared somewhere in the file.
    """
    declared: dict[str, int] = {}
    directed: list[tuple[str, str]] = []
    bidirected: list[tuple[str, str]] = []
    edge_lines: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        s = _LineScanner(line, lineno)
        s.skip_ws()
        first = s.match_re(NAME_RE, "a name")
        s.skip_ws()
        if first == "var" and NAME_RE.match(line, s.pos):
            name = s.match_re(NAME_RE, "a name")
            s.end("declaration")
            if name in declared:
                raise GraphError(
                    f"line {lineno}: duplicate declaration of {name}"
                    f" (first declared on line {declared[name]})"
                )
            declared[name] = lineno
            continue
        if s.literal("<->"):
            edges = bidirected
        elif s.literal("->"):
            edges = directed
        else:
            raise s.error("expected '->' or '<->'")
        s.skip_ws()
        second = s.match_re(NAME_RE, "a name")
        s.end("edge")
        edges.append((first, second))
        edge_lines.append((lineno, first, second))

    for lineno, a, b in edge_lines:
        for end in (a, b):
            if end not in declared:
                raise GraphError(f"line {lineno}: undeclared endpoint: {end}")
    return Admg(declared, directed, bidirected)


class _LineScanner(Scanner):
    def __init__(self, line: str, lineno: int):
        super().__init__(line)
        self.lineno = lineno

    def error(self, msg: str) -> GraphError:
        return GraphError(f"line {self.lineno}, column {self.pos + 1}: {msg}")

    def end(self, what: str):
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected text after {what}")


def serialize_graph(g: Admg) -> str:
    """Render a graph in the file format; ``parse_graph`` round-trips it."""
    lines = [f"var {v}" for v in sorted(g.nodes)]
    lines += [f"{a} -> {b}" for a, b in sorted(g.directed)]
    lines += [f"{a} <-> {b}" for a, b in sorted(g.bidirected)]
    return "\n".join(lines) + "\n"


# --- d-separation ----------------------------------------------------------


def d_separated(
    g: Admg,
    a: Iterable[str],
    b: Iterable[str],
    z: Iterable[str] = (),
) -> bool:
    """Decide whether node sets ``a`` and ``b`` are d-separated by ``z``.

    Runs Shachter's (1998) linear-time Bayes-ball over the graph's own
    parent, child and sibling maps; a ball that falls onto a member of z
    bounces back up.  A bidirected edge is a hidden common parent that is
    never conditioned on, so wherever the ball moves up to the parents it
    also steps across each bidirected edge, down to the sibling.  The
    exponential path-enumeration oracle lives in the test suite only.
    """
    a, b, z = frozenset(a), frozenset(b), frozenset(z)
    g._check(*a, *b, *z)
    if a & b or a & z or b & z:
        raise GraphError("a, b, z must be pairwise disjoint")
    if not a or not b:
        return True

    parents, children, siblings = g._parents, g._children, g._siblings
    # (node, direction) traversal: "up" entered from a child, "down" from a parent
    visited: set[tuple[str, bool]] = set()
    stack: list[tuple[str, bool]] = [(s, True) for s in a]
    while stack:
        node, up = stack.pop()
        if (node, up) in visited:
            continue
        visited.add((node, up))
        if node in b:
            return False
        if node not in z:
            stack.extend((c, False) for c in children[node])
        # up from a child passes on unless conditioned on; down from a
        # parent bounces back up only off a member of z
        if (node in z) != up:
            stack.extend((p, True) for p in parents[node])
            stack.extend((s, False) for s in siblings[node])
    return True


# --- c-components ------------------------------------------------------------


def c_components(g: Admg) -> tuple[frozenset[str], ...]:
    """Components of the bidirected part of ``g``, ordered by smallest node."""
    return _components(g, g.nodes)


def _components(g: Admg, within: frozenset[str]) -> tuple[frozenset[str], ...]:
    """The c-components of the subgraph of ``g`` induced by ``within``."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for v in sorted(within):
        # each component starts at its smallest node, so they come sorted
        if v not in seen:
            comp = frozenset(_reach([v], g._siblings, within))
            seen |= comp
            comps.append(comp)
    return tuple(comps)


# --- testable implications ----------------------------------------------------


def _minimal_separators(
    g: Admg, u: str, v: str, candidates: list[str]
) -> Iterator[frozenset[str]]:
    """Each subset of the sorted ``candidates`` that d-separates ``u`` from
    ``v`` and contains no subset listed before it, smallest first and
    lexicographic within a size.  A superset of a listed set is skipped
    without a test."""
    found: list[frozenset[str]] = []
    for size in range(len(candidates) + 1):
        for sub in itertools.combinations(candidates, size):
            z = frozenset(sub)
            if not any(prev <= z for prev in found) and d_separated(g, {u}, {v}, z):
                found.append(z)
                yield z


def testable_implications(g: Admg) -> list[CiStatement]:
    """Pairwise basis of conditional independencies implied by the graph.

    For every nonadjacent pair the first minimal separator among the pair's
    ancestors is emitted.  Within those ancestors separation is vertex
    separation in their moral graph, monotone in the set, so a pair without a
    separator is skipped once all its candidates together fail to separate it.
    """
    out: list[CiStatement] = []
    for u, v in itertools.combinations(sorted(g.nodes), 2):
        if g.adjacent(u, v):
            continue
        candidates = sorted((g.ancestors([u]) | g.ancestors([v])) - {u, v})
        if not d_separated(g, {u}, {v}, candidates):
            continue
        found = next(_minimal_separators(g, u, v, candidates))
        out.append(CiStatement(left=frozenset({u}), right=frozenset({v}), given=found))
    return out
