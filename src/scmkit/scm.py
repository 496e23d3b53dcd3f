"""Discrete structural causal models with exact, enumerable semantics.

All stochasticity lives in exogenous variables; endogenous variables are
deterministic tables of their parents.  That choice is what makes every
counterfactual well defined: abduction weighs the exogenous assignments a
query reads, action replaces mechanisms, prediction reads the modified model off.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, Union

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
    """The exogenous variables a query reads span more states than the cap."""


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
        self._codes: dict[str, tuple[int, ...]] = {v: self._encode(v) for v in self.order}

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

    def _encode(self, v: str) -> tuple[int, ...]:
        """The table of ``v`` as output codes over its parents' joint domain;
        one with a key per combination is total if it holds each."""
        table = self.endogenous[v].table
        doms = [self.parent_domain(p) for p in self.endogenous[v].parents]
        if len(table) == math.prod(map(len, doms)):
            out = {val: i for i, val in enumerate(self.endo_domains[v])}
            codes = tuple([out.get(table.get(key)) for key in itertools.product(*doms)])
            if None not in codes:
                return codes
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

    # --- exogenous grid ---------------------------------------------------

    def exo_state_count(self) -> int:
        return math.prod(len(spec.domain) for spec in self.exogenous.values())

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


def _getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The items of a tuple at ``positions``, as a tuple."""
    if len(positions) == 1:
        return lambda key, i=positions[0]: (key[i],)
    return itemgetter(*positions) if positions else lambda key: ()


def _sweep(
    m: DiscreteScm,
    surgeries: Sequence[Mapping[str, Union[str, tuple[int, str]]]],
    outputs: Sequence[tuple[int, str]],
    conditions: Sequence[Sequence[tuple[int, str, str]]] = (),
) -> tuple[dict[tuple[int, ...], float], int]:
    """Abduction, action and prediction by one elimination sweep over the
    twin network of the surgered worlds (Balke & Pearl 1994; Dechter 1999).

    Each (world, variable) copy is a slot keyed by its mechanism and its
    parents' slots, so copies that no surgery reaches are one slot.  The
    slots that outputs and tests read are computed in a greedy order: an
    exogenous slot joins at its first reader and each slot is summed out
    after its last.  A state is ``(mask, *live slot codes)``; bit ``i`` of
    its mask is set while every ``(world, variable, value)`` test of
    ``conditions[i]`` holds.  Returns the mass of each ``(mask, *output
    codes)`` and the most states held; an exogenous output must be read by
    a computed slot.  Every state is a function of the codes of the exogenous
    variables that slots or outputs read, so a grid of those wider than
    ``DEFAULT_STATE_CAP`` is refused before any state is built.
    """
    # a slot is keyed by an exogenous name or (variable, parent refs); a ref
    # is a slot's index, or ~code for a constant
    slots: dict[object, int] = {}
    worlds: list[dict[str, int]] = []
    for surgery in surgeries:
        refs: dict[str, int] = {}
        for v in m.order:
            pin = surgery.get(v)
            if pin is None:
                ins = tuple(refs[p] if p in refs else slots.setdefault(p, len(slots))
                            for p in m.endogenous[v].parents)
                refs[v] = (slots.setdefault((v, ins), len(slots)) if max(ins, default=-1) >= 0
                           else ~_lookup(m, v, ins, [])[()])
            else:  # a value, or (world, variable) of an earlier world
                refs[v] = (~m.endo_domains[v].index(pin) if isinstance(pin, str)
                           else worlds[pin[0]][pin[1]])
        worlds.append(refs)
    out = [worlds[w][v] if v in m.endogenous else slots.setdefault(v, len(slots))
           for w, v in outputs]
    keys = list(slots)
    size = [len(m.parent_domain(k[0] if isinstance(k, tuple) else k)) for k in keys]
    full = mask = (1 << len(conditions)) - 1
    bits: dict[int, list[int]] = {}  # per tested slot, the mask bits each code keeps
    for i, condition in enumerate(conditions):
        for w, v, val in condition:
            r, code = worlds[w][v], m.endo_domains[v].index(val)
            if r >= 0:
                keep = bits.setdefault(r, [full] * size[r])
                keep[:] = [b if x == code else b & ~(1 << i) for x, b in enumerate(keep)]
            elif ~r != code:
                mask &= ~(1 << i)
    # the computed slots that outputs and tests read, the distinct slots each
    # reads, how many of them (and the outputs) read each slot, and which
    reads: dict[int, tuple[int, ...]] = {}
    after: dict[int, list[int]] = {}
    stack = [*bits, *(r for r in out if r >= 0)]
    while stack:
        s = stack.pop()
        if isinstance(keys[s], tuple) and s not in reads:
            reads[s] = tuple(dict.fromkeys(r for r in keys[s][1] if r >= 0))
            for r in reads[s]:
                after.setdefault(r, []).append(s)
            stack += reads[s]
    left = [len(after.get(r, ())) + (r in out) for r in range(len(keys))]
    read = {u for u in m.exogenous if u in slots and left[slots[u]]}
    count, cap = math.prod(len(m.exogenous[u].domain) for u in read), DEFAULT_STATE_CAP
    if count > cap:
        raise StateSpaceOverflow(f"{count} exogenous states exceed the cap of {cap}")
    # an exogenous variable no slot reads weighs in with its total mass
    scale = math.prod(sum(spec.probs) for u, spec in m.exogenous.items() if u not in read)
    live: list[int] = []
    states = {(mask,): scale} if mask or not full else {}
    peak = len(states)
    waiting = {s: sum(r in reads for r in rs) for s, rs in reads.items()}
    ready = [s for s, n in waiting.items() if not n]
    while ready:
        # the ready slot that widens the states least, in log units
        s = min(ready, key=lambda s: (
            sum(math.log(size[r]) for r in reads[s] if r not in live)
            + math.log(size[s]) * (left[s] > 0)
            - sum(math.log(size[r]) for r in reads[s] if left[r] == 1), s))
        ready.remove(s)
        for t in after.get(s, ()):
            waiting[t] -= 1
            if not waiting[t]:
                ready.append(t)
        held, joins = [r for r in reads[s] if r in live], [r for r in reads[s] if r not in live]
        for r in reads[s]:
            left[r] -= 1
        kept = [r for r in live if left[r]]
        # per combination of the exogenous slots joined here: codes, kept codes, mass
        combos = [((), (), 1.0)]
        for r in joins:
            combos = [(codes + (c,), grown + (c,) * (left[r] > 0), q * p)
                      for codes, grown, q in combos
                      for c, p in enumerate(m.exogenous[keys[r]].probs) if p != 0.0]
        table = _lookup(m, keys[s][0], keys[s][1], [(r, size[r]) for r in held + joins])
        keep = bits.get(s, [full] * size[s])
        get = _getter([live.index(r) + 1 for r in held])
        pick = _getter([live.index(r) + 1 for r in kept])
        new: dict[tuple[int, ...], float] = {}
        for k, w in states.items():
            codes, head = get(k), pick(k)
            for joined, grown, p in combos:
                x = table[codes + joined]
                mask = k[0] & keep[x]
                if mask or not full:  # a state whose conditions all fail is dropped
                    key = (mask, *head, *grown, x) if left[s] else (mask, *head, *grown)
                    new[key] = new.get(key, 0.0) + w * p
        live = kept + [r for r in joins if left[r]] + [s] * (left[s] > 0)
        states = new
        peak = max(peak, len(states))
    # constant outputs are read from codes appended to each state
    consts = tuple(~r for r in out if r < 0)
    at = itertools.count(len(live) + 1)
    pick = _getter([0, *(live.index(r) + 1 if r >= 0 else next(at) for r in out)])
    return {pick(k + consts): w for k, w in states.items()}, peak


def _lookup(m: DiscreteScm, v: str, refs: Sequence[int],
            axes: Sequence[tuple[int, int]]) -> dict[tuple[int, ...], int]:
    """The output code of ``v``'s mechanism, whose parents are ``refs`` (a
    constant is ``~code``), at each combination of the ``(slot, size)`` axes."""
    parents = m.endogenous[v].parents
    strides = [math.prod(len(m.parent_domain(p)) for p in parents[i + 1:])
               for i in range(len(parents))]
    cells = [sum(st * ~r for st, r in zip(strides, refs) if r < 0)]
    for s, d in axes:
        st = sum(st for st, r in zip(strides, refs) if r == s)
        cells = [i + c * st for i in cells for c in range(d)]
    codes = m._codes[v]
    return dict(zip(itertools.product(*(range(d) for _, d in axes)), [codes[i] for i in cells]))


def observational_joint(m: DiscreteScm) -> JointTable:
    """Exact joint over the endogenous variables, its cells in lexicographic
    order of their codes."""
    from .expr import JointTable

    variables = tuple(sorted(m.endogenous))
    masses, _ = _sweep(m, [{}], [(0, v) for v in variables])
    cells = sorted((k[1:], w) for k, w in masses.items() if w != 0.0)
    cols = tuple(map(list, zip(*(codes for codes, _ in cells))))
    domains = {v: m.endo_domains[v] for v in variables}
    return JointTable._coded(variables, domains, cols, [w for _, w in cells])


def intervene(m: DiscreteScm, do: Mapping[str, str]) -> DiscreteScm:
    """Graph surgery: replace each pinned variable's mechanism by a constant."""
    _check_endo_assignment(m, do.items(), "intervention")
    endogenous = dict(m.endogenous)
    for var, val in do.items():
        endogenous[var] = EndogenousVar(parents=(), table={(): val})
    return DiscreteScm(m.exogenous, endogenous, endo_domains=m.endo_domains)


def _conditional_pass(
    m: DiscreteScm, questions: Sequence[tuple[Mapping[str, str], _Worlds]]
) -> tuple[list[float | None], int]:
    """Each ``(evidence, worlds)`` question answered as by :func:`joint_counterfactual`,
    or None where its evidence has probability zero, by one sweep over the distinct
    surgeries in the order first named; with the most states the sweep held."""
    surgeries: list[Mapping[str, str]] = [{}]
    conditions: list[list[tuple[int, str, str]]] = []
    for evidence, worlds in questions:
        _check_endo_assignment(m, evidence.items(), "evidence")
        for do, targets in worlds:
            _check_endo_assignment(m, do.items(), "antecedent")
            _check_endo_assignment(m, targets.items(), "target")
            if do not in surgeries:
                surgeries.append(do)
        # bit 2i: the evidence holds; bit 2i + 1: so do the worlds' targets
        tests = [(0, v, val) for v, val in evidence.items()]
        conditions += [tests, tests + [
            (surgeries.index(do), v, val) for do, targets in worlds for v, val in targets.items()
        ]]
    masses, peak = _sweep(m, surgeries, (), conditions)
    sums = [sum(w for (mask,), w in masses.items() if mask >> i & 1)
            for i in range(len(conditions))]
    return [num / den if den != 0.0 else None for den, num in zip(sums[::2], sums[1::2])], peak


def joint_counterfactual(
    m: DiscreteScm, worlds: _Worlds, evidence: Mapping[str, str] | None = None
) -> float:
    """Probability that every (surgery, outcome) world holds, given evidence.

    Each entry of ``worlds`` is a pair ``(do, targets)``: in the model
    surgered by ``do``, all ``targets`` assignments must hold.  Evidence is
    checked in the unsurgered model.  This is the abduction-action-prediction
    computation, taken by one elimination sweep.
    """
    evidence = dict(evidence or {})
    (value,), _ = _conditional_pass(m, [(evidence, worlds)])
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

    import numpy as np

    if n < 1:
        raise ScmError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    codes = {
        u: rng.choice(len(spec.domain), size=n, p=np.asarray(spec.probs))
        for u, spec in m.exogenous.items()
    }
    # each mechanism's stored codes as an array, indexed by its parents' codes
    dims = {v: len(m.parent_domain(v)) for v in itertools.chain(m.exogenous, m.order)}
    dtype = np.min_scalar_type(max(dims.values(), default=1) - 1)
    for v in m.order:
        parents = m.endogenous[v].parents
        cell = np.ravel_multi_index([codes[p] for p in parents], [dims[p] for p in parents])
        # a constant becomes a read-only per-row view without a copy
        codes[v] = np.broadcast_to(np.array(m._codes[v], dtype)[cell], (n,))
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

    directed = {(p, v) for v, spec in m.endogenous.items() for p in spec.parents
                if p in m.endogenous}
    bidirected = {pair for u in m.exogenous for pair in itertools.combinations(
        sorted(v for v, spec in m.endogenous.items() if u in spec.parents), 2)}
    return Admg(set(m.endogenous), directed, bidirected)


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
