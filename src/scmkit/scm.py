"""Discrete structural causal models with exact, enumerable semantics.

All stochasticity lives in exogenous variables; endogenous variables are
deterministic tables of their parents.  That choice is what makes every
counterfactual well defined: abduction enumerates full exogenous assignments,
action replaces mechanisms, prediction reads the modified model off.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import ScmkitError
from .lexer import NAME, NAME_RE, VALUE
from .record import Record

if TYPE_CHECKING:
    from .expr import JointTable
    from .graph import Admg

__all__ = [
    "ExogenousVar",
    "EndogenousVar",
    "DiscreteScm",
    "CounterfactualQuery",
    "ScmError",
    "StateSpaceOverflow",
    "ZeroEvidence",
    "parse_scm",
    "serialize_scm",
    "observational_joint",
    "intervene",
    "counterfactual_query",
    "joint_counterfactual",
    "sample",
    "latent_projection",
]

_EXO_LINE_RE = re.compile(rf"\s*({NAME})\s*\{{(.*)\}}\s*")
_PROB = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # what float() reads
_ENDO_LINE_RE = re.compile(rf"\s*({NAME})\s*\(([^)]*)\)\s*\{{(.*)\}}\s*")
# one body entry with its trailing comma, or an empty entry (no groups)
_EXO_ENTRY_RE = re.compile(rf"\s*(?:({VALUE})\s*:\s*({_PROB})\s*)?(?:,|\Z)")
_ENDO_ENTRY_RE = re.compile(rf"\s*(?:\(([^()]*)\)\s*->\s*({VALUE})\s*)?(?:,|\Z)")
# what a malformed entry quotes: up to a comma outside parentheses, or the end
_ENTRY_RUN_RE = re.compile(r"[^,()]*(?:\([^()]*\)[^,()]*)*(?:\([^()]*)?")

DEFAULT_STATE_CAP = 10_000_000

# (do, targets) pairs: in the model surgered by do, every target holds
_Worlds = Sequence[tuple[Mapping[str, str], Mapping[str, str]]]


class ScmError(ScmkitError, ValueError):
    """Malformed model, file, or request."""


class StateSpaceOverflow(ScmError):
    """Exact enumeration would exceed the configured state cap."""


class ZeroEvidence(ScmkitError, ArithmeticError):
    """The conditioning evidence of a counterfactual has probability zero."""
    exit_code = 3


class ExogenousVar(Record):
    domain: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.domain:
            raise ScmError("exogenous domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ScmError("duplicate values in exogenous domain")
        if len(self.probs) != len(self.domain):
            raise ScmError("probability vector length does not match domain")
        if any(math.isnan(p) for p in self.probs):
            raise ScmError("NaN exogenous probability")
        if any(p < 0 for p in self.probs):
            raise ScmError("negative exogenous probability")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ScmError(f"exogenous probabilities sum to {sum(self.probs)!r}, not 1")


class EndogenousVar(Record):
    parents: tuple[str, ...]
    table: Mapping[tuple[str, ...], str]

    def __post_init__(self):
        if len(set(self.parents)) != len(self.parents):
            raise ScmError("duplicate parent")


class DiscreteScm:
    """Exogenous distributions plus deterministic structural tables.

    ``endo_domains`` may widen the inferred per-variable domains (the set of
    values a table can output); interventions use it so that a surgered model
    remembers the full domain of the variable it pinned.
    """

    def __init__(
        self,
        exogenous: Mapping[str, ExogenousVar],
        endogenous: Mapping[str, EndogenousVar],
        endo_domains: Mapping[str, tuple[str, ...]] | None = None,
    ):
        self.exogenous: dict[str, ExogenousVar] = dict(exogenous)
        self.endogenous: dict[str, EndogenousVar] = dict(endogenous)
        self._validate_names()
        self.order: tuple[str, ...] = self._topological()
        self.endo_domains: dict[str, tuple[str, ...]] = {}
        for v, spec in self.endogenous.items():
            inferred = tuple(sorted(set(spec.table.values())))
            if endo_domains and v in endo_domains:
                widened = tuple(endo_domains[v])
                if not set(inferred) <= set(widened):
                    raise ScmError(f"domain of {v} does not cover its table outputs")
                self.endo_domains[v] = widened
            else:
                self.endo_domains[v] = inferred
        # per mechanism, its output code at each parent combination
        dims = [len(self.parent_domain(v)) for v in (*self.exogenous, *self.order)]
        dtype = np.min_scalar_type(max(dims, default=1) - 1)
        self._luts: dict[str, np.ndarray] = {v: self._encode(v, dtype) for v in self.order}

    # --- validation -------------------------------------------------------

    def _validate_names(self):
        for name in itertools.chain(self.exogenous, self.endogenous):
            if not NAME_RE.fullmatch(name):
                raise ScmError(f"invalid variable name: {name!r}")
        overlap = set(self.exogenous) & set(self.endogenous)
        if overlap:
            raise ScmError(f"declared both exogenous and endogenous: {sorted(overlap)}")
        for v, spec in self.endogenous.items():
            for p in spec.parents:
                if p not in self.exogenous and p not in self.endogenous:
                    raise ScmError(f"unknown parent {p} of {v}")

    def _topological(self) -> tuple[str, ...]:
        """Depth-first post-order over sorted names and sorted parents, kept on
        a stack of iterators (all names, then one per node on ``trail``)."""
        state: dict[str, int] = {}  # 0 on the trail, 1 placed
        order: list[str] = []
        trail: list[str] = []
        stack = [iter(sorted(self.endogenous))]
        while stack:
            v = next(stack[-1], None)
            if v is None:
                stack.pop()
                if trail:
                    state[trail[-1]] = 1
                    order.append(trail.pop())
            elif state.get(v) == 0:
                raise ScmError(
                    "cyclic structural dependencies: "
                    + " -> ".join(trail[trail.index(v):] + [v])
                )
            elif v in self.endogenous and v not in state:
                state[v] = 0
                trail.append(v)
                stack.append(iter(sorted(self.endogenous[v].parents)))
        return tuple(order)

    def parent_domain(self, p: str) -> tuple[str, ...]:
        if p in self.exogenous:
            return self.exogenous[p].domain
        return self.endo_domains[p]

    def _encode(self, v: str, dtype: np.dtype) -> np.ndarray:
        """The table of ``v`` as a read-only code array over its parents' joint
        domain; one with a key per combination is total if it holds each."""
        table = self.endogenous[v].table
        doms = [self.parent_domain(p) for p in self.endogenous[v].parents]
        if len(table) == math.prod(map(len, doms)):
            out = {val: i for i, val in enumerate(self.endo_domains[v])}
            codes = [out.get(table.get(key)) for key in itertools.product(*doms)]
            if None not in codes:
                lut = np.array(codes, dtype=dtype)
                lut.flags.writeable = False
                return lut
        # the first missing keys in sorted order, and the keys of no combination
        missing = itertools.product(*map(sorted, doms))
        sets = [set(d) for d in doms]
        extra = sorted(
            key for key in table
            if len(key) != len(sets) or any(k not in d for k, d in zip(key, sets))
        )
        raise ScmError(
            f"table of {v} is not total over its parent domains (missing"
            f" {list(itertools.islice((k for k in missing if k not in table), 3))},"
            f" extra {extra[:3]})"
        )

    # --- enumeration ------------------------------------------------------

    def exo_names(self) -> tuple[str, ...]:
        return tuple(self.exogenous)

    def exo_state_count(self) -> int:
        count = 1
        for spec in self.exogenous.values():
            count *= len(spec.domain)
        return count

    def __reduce__(self):
        # rebuilt through the constructor, so a copy's stored code arrays are
        # read-only like the original's
        return DiscreteScm, (self.exogenous, self.endogenous, self.endo_domains)

    def __repr__(self) -> str:
        return (
            f"DiscreteScm(exogenous={sorted(self.exogenous)}, "
            f"endogenous={sorted(self.endogenous)})"
        )


class CounterfactualQuery(Record):
    """P(target holds in the world surgered by `antecedent` | evidence)."""

    target: tuple[tuple[str, str], ...]
    antecedent: tuple[tuple[str, str], ...] = ()
    evidence: tuple[tuple[str, str], ...] = ()


# --- operations ------------------------------------------------------------------


def _check_endo_assignment(m: DiscreteScm, pairs: Iterable[tuple[str, str]], what: str):
    for var, val in pairs:
        if var not in m.endogenous:
            raise ScmError(f"{what} variable {var} is not endogenous")
        if val not in m.endo_domains[var]:
            raise ScmError(f"{what} value {val!r} not in the domain of {var}")


def enumerate_worlds(
    m: DiscreteScm, surgeries: Sequence[Mapping[str, Union[str, np.ndarray]]]
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Abduction, action and prediction over all exogenous states at once.

    The exogenous states of nonzero weight are enumerated once, as index
    arrays, and every surgered world is solved over that one abduction by
    :func:`solve_worlds`, as in a twin network.  Returns the state weights
    and, per surgery, one code array per variable.  More states than
    ``DEFAULT_STATE_CAP``, read at each call, are refused.
    """
    count, cap = m.exo_state_count(), DEFAULT_STATE_CAP
    if count > cap:
        raise StateSpaceOverflow(f"{count} exogenous states exceed the cap of {cap}")
    names = m.exo_names()
    dims = [len(m.exogenous[u].domain) for u in names]
    dtype = np.min_scalar_type(max(dims, default=1) - 1)
    grid = np.indices(dims, dtype=dtype).reshape(len(names), count)
    weights = np.ones(count)
    for u, codes in zip(names, grid):
        weights *= np.asarray(m.exogenous[u].probs)[codes]
    keep = weights != 0.0
    weights = weights[keep]
    exo = {u: codes[keep] for u, codes in zip(names, grid)}
    return weights, solve_worlds(m, exo, len(weights), surgeries)


def solve_worlds(
    m: DiscreteScm,
    exo_codes: Mapping[str, np.ndarray],
    size: int,
    surgeries: Sequence[Mapping[str, Union[str, np.ndarray]]],
) -> list[dict[str, np.ndarray]]:
    """Action and prediction over ``size`` exogenous states, given as one
    domain-code array per exogenous variable.  Each mechanism is read from
    the code array the model stored for it, indexed by its parents' codes; a
    surgery value is a domain value or a per-state code array.  Returns, per
    surgery, one code array per variable, indexing ``m.endo_domains[v]`` or
    the exogenous domain.
    """
    dims = {v: len(m.parent_domain(v)) for v in itertools.chain(m.exo_names(), m.order)}
    worlds: list[dict[str, np.ndarray]] = []
    for surgery in surgeries:
        codes = dict(exo_codes)
        for v in m.order:
            parents = m.endogenous[v].parents
            val = surgery.get(v)
            if val is None:
                cell = np.ravel_multi_index(
                    [codes[p] for p in parents], [dims[p] for p in parents]
                )
                val = m._luts[v][cell]
            elif isinstance(val, str):
                val = m.endo_domains[v].index(val)
            # constants become read-only per-state views without copies
            codes[v] = np.broadcast_to(val, (size,))
        worlds.append(codes)
    return worlds


def holds(
    m: DiscreteScm, codes: Mapping[str, np.ndarray], assignment: Mapping[str, str]
) -> np.ndarray:
    """Per-state mask of one world of :func:`enumerate_worlds` meeting an
    endogenous assignment."""
    mask = np.ones(len(next(iter(codes.values()))), dtype=bool)
    for v, val in assignment.items():
        mask &= codes[v] == m.endo_domains[v].index(val)
    return mask


def observational_joint(m: DiscreteScm) -> JointTable:
    """Exact joint over the endogenous variables, by exogenous enumeration.
    The states are grouped by their codes read as one mixed-radix number, so
    the cells come out in lexicographic order of their codes."""
    from .expr import JointTable

    variables = tuple(sorted(m.endogenous))
    dims = [len(m.endo_domains[v]) for v in variables]
    joint_size = math.prod(dims)
    # refuse before enumerating; an exogenous overflow is reported first, and
    # a joint too wide for an int64 key is refused under any cap
    cap = min(DEFAULT_STATE_CAP, np.iinfo(np.intp).max)
    if m.exo_state_count() <= DEFAULT_STATE_CAP and cap < joint_size:
        raise StateSpaceOverflow(f"{joint_size} joint states exceed the cap of {cap}")
    weights, (codes,) = enumerate_worlds(m, [{}])
    # with no variables every state has the scalar key 0
    key = np.broadcast_to(np.ravel_multi_index([codes[v] for v in variables], dims), len(weights))
    keys, group = np.unique(key, return_inverse=True)
    cols = tuple(col.tolist() for col in np.unravel_index(keys, dims)) if variables else ()
    domains = {v: m.endo_domains[v] for v in variables}
    return JointTable._coded(variables, domains, cols, np.bincount(group, weights).tolist())


def intervene(m: DiscreteScm, do: Mapping[str, str]) -> DiscreteScm:
    """Graph surgery: replace each pinned variable's mechanism by a constant."""
    _check_endo_assignment(m, do.items(), "intervention")
    endogenous = dict(m.endogenous)
    for var, val in do.items():
        endogenous[var] = EndogenousVar(parents=(), table={(): val})
    return DiscreteScm(m.exogenous, endogenous, endo_domains=m.endo_domains)


def _conditional_pass(
    m: DiscreteScm, questions: Sequence[tuple[Mapping[str, str], _Worlds]]
) -> list[float | None]:
    """Each ``(evidence, worlds)`` question answered as by :func:`joint_counterfactual`,
    or None where its evidence has probability zero, from one enumeration that
    solves each distinct surgery once, in the order the questions first name it."""
    surgeries: list[Mapping[str, str]] = [{}]
    for evidence, worlds in questions:
        _check_endo_assignment(m, evidence.items(), "evidence")
        for do, targets in worlds:
            _check_endo_assignment(m, do.items(), "antecedent")
            _check_endo_assignment(m, targets.items(), "target")
            if do not in surgeries:
                surgeries.append(do)
    weights, solved = enumerate_worlds(m, surgeries)
    answers: list[float | None] = []
    for evidence, worlds in questions:
        ok = holds(m, solved[0], evidence)
        den = float(weights[ok].sum())
        for do, targets in worlds:
            ok &= holds(m, solved[surgeries.index(do)], targets)
        answers.append(float(weights[ok].sum()) / den if den != 0.0 else None)
    return answers


def joint_counterfactual(
    m: DiscreteScm, worlds: _Worlds, evidence: Mapping[str, str] | None = None
) -> float:
    """Probability that every (surgery, outcome) world holds, given evidence.

    Each entry of ``worlds`` is a pair ``(do, targets)``: in the model
    surgered by ``do``, all ``targets`` assignments must hold.  Evidence is
    checked in the unsurgered model.  This is the abduction-action-prediction
    computation, taken over full exogenous assignments.
    """
    evidence = dict(evidence or {})
    (value,) = _conditional_pass(m, [(evidence, worlds)])
    if value is None:
        raise ZeroEvidence(f"evidence has probability zero: {evidence}")
    return value


def counterfactual_query(m: DiscreteScm, q: CounterfactualQuery) -> float:
    """Three-step counterfactual probability for a single surgered world."""
    return joint_counterfactual(
        m, [(dict(q.antecedent), dict(q.target))], dict(q.evidence)
    )


def sample(m: DiscreteScm, n: int, seed: int) -> "Dataset":
    """Ancestral sampling; identical (model, n, seed) gives identical rows.

    Each drawn code row is keyed to its first occurrence, as the CSV reader
    keys its records, so only the distinct rows are decoded and encoded."""
    from .estimate import Dataset, _encode, _stored

    if n < 1:
        raise ScmError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    exo = {
        u: rng.choice(len(spec.domain), size=n, p=np.asarray(spec.probs))
        for u, spec in m.exogenous.items()
    }
    (codes,) = solve_worlds(m, exo, n, [{}])
    out_cols = tuple(sorted(m.endogenous))
    drawn = zip(*(codes[v].tolist() for v in out_cols)) if out_cols else [()] * n
    seen: dict[tuple[int, ...], int] = {}
    first = list(map(seen.setdefault, drawn, itertools.count()))
    doms = [m.endo_domains[v] for v in out_cols]
    domains, coded, _ = _encode(out_cols, [tuple(map(tuple.__getitem__, doms, k)) for k in seen])
    return Dataset._coded(out_cols, domains, *_stored(coded, list(seen.values()), first))


def latent_projection(m: DiscreteScm) -> Admg:
    """Project onto the endogenous variables.

    Endogenous parent relations become directed edges; every exogenous
    variable with two or more endogenous children contributes a bidirected
    edge between each pair of them.
    """
    from .graph import Admg

    nodes = set(m.endogenous)
    directed = {
        (p, v)
        for v, spec in m.endogenous.items()
        for p in spec.parents
        if p in m.endogenous
    }
    children: dict[str, list[str]] = {u: [] for u in m.exogenous}
    for v, spec in m.endogenous.items():
        for p in spec.parents:
            if p in m.exogenous:
                children[p].append(v)
    bidirected = set()
    for u, kids in children.items():
        for a, b in itertools.combinations(sorted(set(kids)), 2):
            bidirected.add((a, b))
    return Admg(nodes, directed, bidirected)


# --- file format -------------------------------------------------------------------


def parse_scm(text: str) -> DiscreteScm:
    """Parse the line-based model format.

    ``exo U {v1: p1, v2: p2}`` declares an exogenous variable and its
    distribution; ``endo X (P1,...,Pk) {(a1,...,ak) -> v, ...}`` declares an
    endogenous variable with ordered parents and a total table; ``#`` starts
    a comment.
    """
    exogenous: dict[str, ExogenousVar] = {}
    endogenous: dict[str, EndogenousVar] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("exo "):
                name, spec = _parse_exo_line(line[4:])
                if name in exogenous or name in endogenous:
                    raise ScmError(f"duplicate declaration of {name}")
                exogenous[name] = spec
            elif line.startswith("endo "):
                name, spec = _parse_endo_line(line[5:])
                if name in exogenous or name in endogenous:
                    raise ScmError(f"duplicate declaration of {name}")
                endogenous[name] = spec
            else:
                raise ScmError("expected 'exo' or 'endo'")
        except ScmError as exc:
            raise ScmError(f"line {lineno}: {exc}") from None
    return DiscreteScm(exogenous, endogenous)


def _entries(rx: re.Pattern[str], body: str, what: str) -> Iterator[re.Match[str]]:
    """The nonempty entries of a body, each matched with its trailing comma."""
    pos = 0
    while pos < len(body):
        m = rx.match(body, pos)
        if not m:
            run = _ENTRY_RUN_RE.match(body, pos).group()
            raise ScmError(f"malformed {what} entry: {run.strip()!r}")
        if m.group(1) is not None:
            yield m
        pos = m.end()


def _parse_exo_line(rest: str) -> tuple[str, ExogenousVar]:
    m = _EXO_LINE_RE.fullmatch(rest)
    if not m:
        raise ScmError("malformed exogenous declaration")
    domain: list[str] = []
    probs: list[float] = []
    for pm in _entries(_EXO_ENTRY_RE, m.group(2), "probability"):
        domain.append(pm.group(1))
        probs.append(float(pm.group(2)))
    return m.group(1), ExogenousVar(tuple(domain), tuple(probs))


def _parse_endo_line(rest: str) -> tuple[str, EndogenousVar]:
    m = _ENDO_LINE_RE.fullmatch(rest)
    if not m:
        raise ScmError("malformed endogenous declaration")
    parents = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
    table: dict[tuple[str, ...], str] = {}
    for em in _entries(_ENDO_ENTRY_RE, m.group(3), "table"):
        key_text, value = em.groups()
        key = tuple(filter(None, map(str.strip, key_text.split(","))))
        if len(key) != len(parents):
            raise ScmError(f"table key {key} does not match parent count")
        if key in table:
            raise ScmError(f"duplicate table entry for {key}")
        table[key] = value
    return m.group(1), EndogenousVar(parents, table)


def serialize_scm(m: DiscreteScm) -> str:
    lines: list[str] = []
    for u, spec in m.exogenous.items():
        # twelve significant digits where they read back exactly
        entries = ", ".join(
            f"{v}: {p:.12g}" if float(f"{p:.12g}") == p else f"{v}: {p!r}"
            for v, p in zip(spec.domain, spec.probs)
        )
        lines.append(f"exo {u} {{{entries}}}")
    for v, spec in m.endogenous.items():
        entries = ", ".join(
            f"({','.join(key)}) -> {val}" for key, val in sorted(spec.table.items())
        )
        parents = ",".join(spec.parents)
        lines.append(f"endo {v} ({parents}) {{{entries}}}")
    return "\n".join(lines) + "\n"
