"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately reimplement their targets by a different
route (path enumeration, worklist evaluation, exhaustive class grouping) so
the main code paths are checked against genuinely separate logic.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import math
import re
from collections import Counter, defaultdict

from scmkit.evaluate import _resolve, _RowEvaluation
from scmkit.expr import (
    ONE,
    ConditioningOnZero,
    EstimandError,
    JointTable,
    One,
    ProbTerm,
    Product,
    Quotient,
    Sum,
    UnboundSymbol,
    Val,
    _Parser,
    prod_of,
)
from scmkit.graph import Admg, CiStatement, GraphError, _reach, d_separated
from scmkit.lexer import VALUE
from scmkit.scm import (
    _ENDO_LINE_RE,
    _EXO_LINE_RE,
    _PROB,
    DiscreteScm,
    EndogenousVar,
    ExogenousVar,
    ScmError,
)

NAMES = list("ABCDEFGH")


def rng(seed):
    import numpy as np

    return np.random.default_rng(seed)


# --- graphs -----------------------------------------------------------------


def random_admg(r, n_nodes, p_dir=0.4, p_bi=0.25, max_bi=4):
    names = NAMES[:n_nodes]
    directed = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if r.random() < p_dir
    ]
    bi = [
        (names[i], names[j])
        for i in range(n_nodes)
        for j in range(i + 1, n_nodes)
        if r.random() < p_bi
    ]
    if len(bi) > max_bi:
        keep = r.choice(len(bi), size=max_bi, replace=False)
        bi = [bi[i] for i in sorted(keep)]
    return Admg(names, directed, bi)


def random_dag(r, n_nodes, p_dir=0.4):
    return random_admg(r, n_nodes, p_dir=p_dir, p_bi=0.0)


def all_dags(names):
    """Every labeled DAG over the given nodes."""
    pairs = list(itertools.combinations(sorted(names), 2))
    for choices in itertools.product((0, 1, 2), repeat=len(pairs)):
        directed = []
        for (a, b), c in zip(pairs, choices):
            if c == 1:
                directed.append((a, b))
            elif c == 2:
                directed.append((b, a))
        try:
            yield Admg(names, directed)
        except GraphError:
            continue


# --- d-separation path-enumeration oracle ------------------------------------


def dsep_path_oracle(g: Admg, a, b, z):
    """Enumerate all simple paths in the hidden-cause expansion and check
    the collider/non-collider blocking rules on each."""
    a, b, z = set(a), set(b), set(z)
    children: dict[str, set[str]] = {v: set() for v in g.nodes}
    parents: dict[str, set[str]] = {v: set() for v in g.nodes}
    for p, c in g.directed:
        children[p].add(c)
        parents[c].add(p)
    for i, (u, v) in enumerate(sorted(g.bidirected)):
        h = f"H#{i}"
        children[h] = {u, v}
        parents[h] = set()
        parents[u].add(h)
        parents[v].add(h)

    # ancestors of z (z included)
    anz = set(z)
    frontier = list(z)
    while frontier:
        v = frontier.pop()
        for p in parents[v]:
            if p not in anz:
                anz.add(p)
                frontier.append(p)

    def neighbors(v):
        for c in children[v]:
            yield c, True  # edge v -> c, tail at v, head at c
        for p in parents[v]:
            yield p, False  # edge p -> v, head at v side we leave from

    def active_path(start, goal):
        # stack of (node, came_in_by_head, visited, ok_so_far)
        stack = [(start, None, frozenset([start]))]
        while stack:
            node, in_head, visited = stack.pop()
            for nxt, out_is_child in neighbors(node):
                if nxt in visited:
                    continue
                # leaving `node`: the edge to nxt has its head at node iff
                # nxt is a parent of node
                head_at_node = not out_is_child
                if in_head is not None:
                    collider = in_head and head_at_node
                    if collider:
                        if node not in anz:
                            continue
                    else:
                        if node in z:
                            continue
                # arriving at nxt: head at nxt iff we traversed node -> nxt
                arrive_head = out_is_child
                if nxt == goal:
                    return True
                stack.append((nxt, arrive_head, visited | {nxt}))
        return False

    for s in sorted(a):
        for t in sorted(b):
            if active_path(s, t):
                return False
    return True


# --- models ------------------------------------------------------------------


def scm_for_admg(g: Admg, r, p_lo=0.2, p_hi=0.8) -> DiscreteScm:
    """Binary model whose latent projection is exactly ``g``.

    Each variable is a random function of its parents and shared confounder
    bits, XORed with a private noise bit, so every conditional is strictly
    inside (0, 1) and the observational joint is positive everywhere.
    """
    exogenous: dict[str, ExogenousVar] = {}
    shared: dict[str, list[str]] = {v: [] for v in g.nodes}
    for a, b in sorted(g.bidirected):
        u = f"U{a}{b}"
        p = float(r.uniform(p_lo, p_hi))
        exogenous[u] = ExogenousVar(("0", "1"), (1.0 - p, p))
        shared[a].append(u)
        shared[b].append(u)
    endogenous: dict[str, EndogenousVar] = {}
    for v in g.topological_order():
        priv = f"U{v}"
        p = float(r.uniform(p_lo, p_hi))
        exogenous[priv] = ExogenousVar(("0", "1"), (1.0 - p, p))
        parents = tuple(sorted(g.parents(v))) + tuple(shared[v]) + (priv,)
        table: dict[tuple[str, ...], str] = {}
        n_ctx = len(parents) - 1
        for ctx in itertools.product(("0", "1"), repeat=n_ctx):
            h = int(r.integers(0, 2))
            for u_bit in ("0", "1"):
                table[ctx + (u_bit,)] = str(h ^ int(u_bit))
        endogenous[v] = EndogenousVar(parents, table)
    return DiscreteScm(exogenous, endogenous)


def random_scm(r, n_endo=3, n_exo=3, max_parents=2) -> DiscreteScm:
    """Free-form small binary model; positivity not guaranteed.

    Every endogenous variable gets at least one exogenous parent and a
    surjective table, so all domains stay {0, 1}.
    """
    exo_names = [f"U{i}" for i in range(1, n_exo + 1)]
    exogenous = {}
    for u in exo_names:
        p = float(r.uniform(0.1, 0.9))
        exogenous[u] = ExogenousVar(("0", "1"), (1.0 - p, p))
    endo_names = NAMES[:n_endo]
    endogenous: dict[str, EndogenousVar] = {}
    for i, v in enumerate(endo_names):
        pool_endo = endo_names[:i]
        k_endo = int(r.integers(0, min(len(pool_endo), max_parents) + 1))
        k_exo = int(r.integers(1, min(n_exo, max_parents) + 1))
        pe = sorted(r.choice(pool_endo, size=k_endo, replace=False)) if k_endo else []
        px = sorted(r.choice(exo_names, size=k_exo, replace=False))
        parents = tuple(pe) + tuple(px)
        table = {
            key: str(int(r.integers(0, 2)))
            for key in itertools.product(("0", "1"), repeat=len(parents))
        }
        if len(set(table.values())) == 1:
            last = sorted(table)[-1]
            table[last] = "1" if table[last] == "0" else "0"
        endogenous[v] = EndogenousVar(parents, table)
    return DiscreteScm(exogenous, endogenous)


def random_ternary_scm(r, n_endo=3, n_exo=3, max_parents=3, p_zero=0.2) -> DiscreteScm:
    """Free-form small model over ternary exogenous variables, which the
    endogenous ones share at random.  An exogenous value has probability
    zero with chance ``p_zero``; a mechanism may read no exogenous variable,
    or nothing at all, and its domain is the set of values its table gives.
    """
    values = ("0", "1", "2")
    exo_names = [f"U{i}" for i in range(1, n_exo + 1)]
    exogenous = {}
    for u in exo_names:
        w = r.random(3) * (r.random(3) >= p_zero)
        if not w.any():
            w[r.integers(0, 3)] = 1.0
        exogenous[u] = ExogenousVar(values, tuple(float(p) for p in w / w.sum()))
    domains = {u: values for u in exo_names}
    endogenous: dict[str, EndogenousVar] = {}
    for i, v in enumerate(NAMES[:n_endo]):
        pool = NAMES[:i]
        k_endo = int(r.integers(0, min(len(pool), max_parents) + 1))
        k_exo = int(r.integers(0, min(n_exo, max_parents - k_endo) + 1))
        parents = tuple(map(str, [*sorted(r.choice(pool, size=k_endo, replace=False)),
                                  *sorted(r.choice(exo_names, size=k_exo, replace=False))]))
        table = {
            key: values[int(r.integers(0, 3))]
            for key in itertools.product(*(domains[p] for p in parents))
        }
        endogenous[v] = EndogenousVar(parents, table)
        domains[v] = tuple(sorted(set(table.values())))
    return DiscreteScm(exogenous, endogenous)


# --- model files split on top-level commas -------------------------------------

_SPLIT_EXO_ENTRY_RE = re.compile(rf"\s*({VALUE})\s*:\s*({_PROB})\s*")
_SPLIT_ENDO_ENTRY_RE = re.compile(rf"\s*\(([^)]*)\)\s*->\s*({VALUE})\s*")


def parse_scm_by_split(text: str) -> DiscreteScm:
    """``parse_scm`` with each body first cut into entries by a character
    loop that tracks parenthesis depth, then each entry matched whole."""
    exogenous: dict[str, ExogenousVar] = {}
    endogenous: dict[str, EndogenousVar] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("exo "):
                name, spec = _split_exo_line(line[4:])
                if name in exogenous or name in endogenous:
                    raise ScmError(f"duplicate declaration of {name}")
                exogenous[name] = spec
            elif line.startswith("endo "):
                name, spec = _split_endo_line(line[5:])
                if name in exogenous or name in endogenous:
                    raise ScmError(f"duplicate declaration of {name}")
                endogenous[name] = spec
            else:
                raise ScmError("expected 'exo' or 'endo'")
        except ScmError as exc:
            raise ScmError(f"line {lineno}: {exc}") from None
    return DiscreteScm(exogenous, endogenous)


def _split_exo_line(rest: str) -> tuple[str, ExogenousVar]:
    m = _EXO_LINE_RE.fullmatch(rest)
    if not m:
        raise ScmError("malformed exogenous declaration")
    domain: list[str] = []
    probs: list[float] = []
    for part in _split_top(m.group(2)):
        pm = _SPLIT_EXO_ENTRY_RE.fullmatch(part)
        if not pm:
            raise ScmError(f"malformed probability entry: {part.strip()!r}")
        domain.append(pm.group(1))
        probs.append(float(pm.group(2)))
    return m.group(1), ExogenousVar(tuple(domain), tuple(probs))


def _split_endo_line(rest: str) -> tuple[str, EndogenousVar]:
    m = _ENDO_LINE_RE.fullmatch(rest)
    if not m:
        raise ScmError("malformed endogenous declaration")
    parents = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
    table: dict[tuple[str, ...], str] = {}
    for part in _split_top(m.group(3)):
        em = _SPLIT_ENDO_ENTRY_RE.fullmatch(part)
        if not em:
            raise ScmError(f"malformed table entry: {part.strip()!r}")
        key = tuple(t.strip() for t in em.group(1).split(",") if t.strip())
        if len(key) != len(parents):
            raise ScmError(f"table key {key} does not match parent count")
        if key in table:
            raise ScmError(f"duplicate table entry for {key}")
        table[key] = em.group(2)
    return m.group(1), EndogenousVar(parents, table)


def _split_top(body: str) -> list[str]:
    """Split on commas that are not inside parentheses; drop blank parts."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in parts if p.strip()]


# --- counterfactual oracle ----------------------------------------------------


def _worklist_solve(m: DiscreteScm, exo, do=None):
    """Fixed-point worklist evaluation, independent of the model's own order."""
    values = dict(exo)
    if do:
        values.update(do)
    pending = [v for v in m.endogenous if not (do and v in do)]
    while pending:
        progressed = False
        for v in list(pending):
            spec = m.endogenous[v]
            if all(p in values for p in spec.parents):
                values[v] = spec.table[tuple(values[p] for p in spec.parents)]
                pending.remove(v)
                progressed = True
        if not progressed:
            raise AssertionError("model is not solvable; cyclic?")
    return values


def exo_states(m: DiscreteScm):
    """Yield (assignment, weight) for every exogenous state of nonzero weight."""
    names = list(m.exogenous)
    for combo in itertools.product(*(range(len(m.exogenous[u].domain)) for u in names)):
        w = 1.0
        exo = {}
        for u, i in zip(names, combo):
            w *= m.exogenous[u].probs[i]
            exo[u] = m.exogenous[u].domain[i]
        if w != 0.0:
            yield exo, w


def is_monotone(m: DiscreteScm, x="X", y="Y") -> bool:
    """No exogenous state has Y under do(x=1) below Y under do(x=0)."""
    return all(
        _worklist_solve(m, exo, {x: "1"})[y] >= _worklist_solve(m, exo, {x: "0"})[y]
        for exo, _ in exo_states(m)
    )


def brute_mediation(m: DiscreteScm, exposure, mediator, outcome, x0, x1):
    """(te, nde, nie, nie_reversed) from nested worlds, one state at a time.

    The outcome is coded by its index in the model's domain, as
    ``mediation_effects_scm`` codes it.
    """
    code = {v: float(i) for i, v in enumerate(m.endo_domains[outcome])}
    e_x0 = e_x1 = e_10 = e_01 = 0.0
    for exo, w in exo_states(m):
        world0 = _worklist_solve(m, exo, {exposure: x0})
        world1 = _worklist_solve(m, exo, {exposure: x1})
        nested10 = _worklist_solve(m, exo, {exposure: x1, mediator: world0[mediator]})
        nested01 = _worklist_solve(m, exo, {exposure: x0, mediator: world1[mediator]})
        e_x0 += w * code[world0[outcome]]
        e_x1 += w * code[world1[outcome]]
        e_10 += w * code[nested10[outcome]]
        e_01 += w * code[nested01[outcome]]
    return e_x1 - e_x0, e_10 - e_x0, e_01 - e_x0, e_10 - e_x1


def brute_counterfactual(m: DiscreteScm, worlds, evidence):
    """Score every exogenous state against evidence and surgered outcomes.

    Returns None when the evidence has probability zero.
    """
    num = 0.0
    den = 0.0
    for exo, w in exo_states(m):
        natural = _worklist_solve(m, exo)
        if any(natural[k] != v for k, v in evidence.items()):
            continue
        den += w
        ok = True
        for do, targets in worlds:
            surgered = _worklist_solve(m, exo, dict(do))
            if any(surgered[k] != v for k, v in targets.items()):
                ok = False
                break
        if ok:
            num += w
    if den == 0.0:
        return None
    return num / den


def brute_marginal(m: DiscreteScm, assignment):
    """P(assignment) by raw exogenous enumeration via the worklist solver."""
    total = 0.0
    for exo, w in exo_states(m):
        values = _worklist_solve(m, exo)
        if all(values[k] == v for k, v in assignment.items()):
            total += w
    return total


# --- joint tables and estimands -------------------------------------------------


def random_mass(r, variables, dom_sizes):
    """Domains of the given sizes and a Dirichlet mass on every full
    assignment, in ``itertools.product`` order."""
    import numpy as np

    domains = {
        v: tuple(str(i) for i in range(k)) for v, k in zip(variables, dom_sizes)
    }
    keys = list(itertools.product(*(domains[v] for v in variables)))
    probs = r.dirichlet(np.ones(len(keys)))
    return domains, {k: float(p) for k, p in zip(keys, probs)}


def random_joint(r, variables, dom_sizes) -> JointTable:
    return JointTable(tuple(variables), *random_mass(r, variables, dom_sizes))


def random_estimand(r, variables, depth=3, bound=frozenset()):
    """Random estimand whose free symbols follow the lowercase convention."""
    choices = ["term"]
    if depth > 0:
        choices += ["product", "quotient"]
        unbound = [v for v in variables if v.lower() not in bound]
        if unbound:
            choices += ["sum", "sum"]
    kind = choices[int(r.integers(0, len(choices)))]
    if kind == "sum":
        unbound = [v for v in variables if v.lower() not in bound]
        v = unbound[int(r.integers(0, len(unbound)))]
        body = random_estimand(r, variables, depth - 1, bound | {v.lower()})
        return Sum(v, v.lower(), body)
    if kind == "product":
        k = int(r.integers(2, 4))
        return Product(
            tuple(random_estimand(r, variables, depth - 1, bound) for _ in range(k))
        )
    if kind == "quotient":
        return Quotient(
            random_estimand(r, variables, depth - 1, bound),
            random_estimand(r, variables, depth - 1, bound),
        )
    n_joint = int(r.integers(1, len(variables) + 1))
    picked = list(r.choice(sorted(variables), size=n_joint, replace=False))
    rest = [v for v in variables if v not in picked]
    n_given = int(r.integers(0, len(rest) + 1))
    given = list(r.choice(rest, size=n_given, replace=False)) if n_given else []
    return ProbTerm(
        tuple(Val(v, v.lower()) for v in sorted(picked)),
        tuple(Val(v, v.lower()) for v in sorted(given)),
    )


def sparse_mass(r, variables, dom_sizes, keep=0.5):
    """Like ``random_mass``, but each cell survives with probability ``keep``
    and the survivors are renormalized."""
    domains, mass = random_mass(r, variables, dom_sizes)
    cells = [k for k in mass if r.random() < keep] or [next(iter(mass))]
    total = sum(mass[k] for k in cells)
    return domains, {k: mass[k] / total for k in cells}


def sparse_joint(r, variables, dom_sizes, keep=0.5) -> JointTable:
    return JointTable(tuple(variables), *sparse_mass(r, variables, dom_sizes, keep))


def dict_scan_eval(e, table: JointTable, binding=None) -> float:
    """Evaluate an estimand one node at a time, scanning the table's mass
    dictionary once per probability term.

    The behaviour ``eval_estimand`` must keep: the same values, the same
    exception types, and a ``ConditioningOnZero`` context naming the first
    zero event in evaluation order.
    """
    binding = dict(binding or {})
    for var in binding:
        if var not in table.domains:
            raise UnboundSymbol(f"variable {var} not in the joint table")
    return _scan(e, table, binding, {})


def _scan_resolve(val, binding, env):
    if val.literal:
        return val.token
    if val.token in env:
        return env[val.token]
    if val.var in binding:
        return binding[val.var]
    raise UnboundSymbol(f"no value bound for symbol {val.token!r} (variable {val.var})")


def _scan(e, table, binding, env):
    if isinstance(e, One):
        return 1.0
    if isinstance(e, ProbTerm):
        want_joint = {
            table.index(val.var): _scan_resolve(val, binding, env)
            for val in e.joint + e.given
        }
        want_given = {
            table.index(val.var): _scan_resolve(val, binding, env) for val in e.given
        }
        p_all = 0.0
        p_given = 0.0
        for key, p in table.mass.items():
            if all(key[i] == v for i, v in want_given.items()):
                p_given += p
                if all(key[i] == v for i, v in want_joint.items()):
                    p_all += p
        if e.given:
            if p_given == 0.0:
                ctx = ",".join(
                    f"{v.var}={_scan_resolve(v, binding, env)}" for v in e.given
                )
                raise ConditioningOnZero(ctx)
            return p_all / p_given
        return p_all
    if isinstance(e, Sum):
        if e.token in env:
            raise EstimandError(f"symbol {e.token!r} bound twice along one path")
        if e.var not in table.domains:
            raise UnboundSymbol(f"variable {e.var} not in the joint table")
        total = 0.0
        for value in table.domains[e.var]:
            env[e.token] = value
            total += _scan(e.body, table, binding, env)
        del env[e.token]
        return total
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= _scan(f, table, binding, env)
        return out
    if isinstance(e, Quotient):
        den = _scan(e.den, table, binding, env)
        if den == 0.0:
            raise ConditioningOnZero("quotient denominator is zero")
        return _scan(e.num, table, binding, env) / den
    raise EstimandError(f"not an estimand node: {e!r}")


# --- evaluation and parsing by recursion and frames ------------------------------
# The evaluator and the parser scmkit used before its estimand walks ran on
# ``expr._walk``: ``eval_rows`` and ``parse_estimand`` must agree with them.


def eval_rows_by_recursion(e, table: JointTable, weights, binding=None):
    """``evaluate.eval_rows`` with one recursion per node."""
    import numpy as np

    binding = dict(binding or {})
    for var in binding:
        if var not in table.domains:
            raise UnboundSymbol(f"variable {var} not in the joint table")
    ev = _RowEvaluationByRecursion(table, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = ev.eval(e, binding, {})
    return values, ev.marked


class _RowEvaluationByRecursion(_RowEvaluation):
    def eval(self, e, binding, env):
        if isinstance(e, One):
            return self.zero + 1.0
        if isinstance(e, ProbTerm):
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
                total = total + self.eval(e.body, binding, env)
            del env[e.token]
            return total
        if isinstance(e, Product):
            out = self.zero + 1.0
            for f in e.factors:
                out = out * self.eval(f, binding, env)
            return out
        if isinstance(e, Quotient):
            den = self.eval(e.den, binding, env)
            self.mark(den == 0.0, lambda: "quotient denominator is zero")
            return self.eval(e.num, binding, env) / den
        raise EstimandError(f"not an estimand node: {e!r}")


def parse_estimand_by_frames(text: str):
    """``expr.parse_estimand`` with one loop over a stack of frames, one
    frame per open expression."""
    return _FrameParser(text).parse()


class _FrameParser(_Parser):
    def parse(self):
        # a frame is (closer, binders, operand so far, pending operator); the
        # closer is None at the top, ")" for a parenthesis, "sum" for a sum
        frames = [(None, (), None, None)]
        self.binders = {}
        while True:
            self.skip_ws()
            if self.literal("sum_{"):
                frames.append(("sum", self.binder_list(), None, None))
                continue
            if self.literal("("):
                frames.append((")", (), None, None))
                continue
            e = self.atom()
            # fold the finished factor into the open expressions it ends
            while True:
                closer, binders, left, op = frames[-1]
                if left is not None:
                    e = Product((left, e)) if op == "*" else Quotient(left, e)
                self.skip_ws()
                op = self.peek()
                if op in ("*", "/"):
                    self.pos += 1
                    frames[-1] = (closer, binders, e, op)
                    break
                frames.pop()
                if closer is None:
                    if self.pos != len(self.text):
                        raise self.error("unexpected trailing text")
                    return e
                if closer == ")":
                    self.expect(")")
                for tok in reversed(binders):
                    e = Sum(self.binders.pop(tok) or tok.upper(), tok, e)


# --- recursive estimand walks ----------------------------------------------------
# The walks scmkit used before estimand nodes were interned: each recursion
# follows the tree, compares by structure and rebuilds what it returns.
# ``simplify``, ``render`` and ``identify._standardize`` must agree with them.


def simplify_by_recursion(e):
    for _ in range(1000):
        e2 = _simplify_once_by_recursion(e)
        if e2 == e:
            return e
        e = e2
    return e


def _simplify_once_by_recursion(e):
    if isinstance(e, (One, ProbTerm)):
        return e
    if isinstance(e, Product):
        factors = [_simplify_once_by_recursion(f) for f in e.factors]
        factors = [f for f in factors if not isinstance(f, One)]
        return prod_of(_merge_chain_by_scan(factors))
    if isinstance(e, Quotient):
        num = _simplify_once_by_recursion(e.num)
        den = _simplify_once_by_recursion(e.den)
        if num == den:
            return ONE
        if isinstance(den, One):
            return num
        out = _cancel_by_scan(num, den)
        if isinstance(out, Quotient):
            extracted = _extract_conditional_by_sets(out)
            if extracted is not None:
                return extracted
        return out
    if isinstance(e, Sum):
        body = _simplify_once_by_recursion(e.body)
        return _collapse_sum_by_recursion(Sum(e.var, e.token, body))
    raise EstimandError(f"not an estimand node: {e!r}")


def _merge_chain_by_scan(factors):
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


def _mentions_by_recursion(e, token):
    if isinstance(e, ProbTerm):
        return any(not v.literal and v.token == token for v in e.joint + e.given)
    if isinstance(e, Sum):
        return e.token == token or _mentions_by_recursion(e.body, token)
    if isinstance(e, Product):
        return any(_mentions_by_recursion(f, token) for f in e.factors)
    if isinstance(e, Quotient):
        return _mentions_by_recursion(e.num, token) or _mentions_by_recursion(e.den, token)
    return False


def _collapse_sum_by_recursion(e):
    token = e.token
    body = e.body
    if isinstance(body, ProbTerm):
        candidates = [body]
        rest = []
    elif isinstance(body, Product):
        candidates = [f for f in body.factors if _mentions_by_recursion(f, token)]
        rest = [f for f in body.factors if not _mentions_by_recursion(f, token)]
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
    reduced = ProbTerm(remaining, term.given) if remaining else ONE
    return prod_of(rest + [reduced]) if rest else reduced


def _extract_conditional_by_sets(q):
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


def _cancel_by_scan(num, den):
    nf = list(num.factors) if isinstance(num, Product) else [num]
    df = list(den.factors) if isinstance(den, Product) else [den]
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


def render_by_recursion(e):
    if isinstance(e, One):
        return "1"
    if isinstance(e, ProbTerm):
        return e.render()
    if isinstance(e, Sum):
        return f"sum_{{{e.token}}} " + render_by_recursion(e.body)
    if isinstance(e, Product):
        parts = []
        last = len(e.factors) - 1
        for i, f in enumerate(e.factors):
            needs_parens = (isinstance(f, Sum) and i < last) or (
                isinstance(f, Quotient) and i > 0
            )
            text = render_by_recursion(f)
            parts.append(f"({text})" if needs_parens else text)
        return " * ".join(parts)
    if isinstance(e, Quotient):
        num, den = e.num, e.den
        num_txt = render_by_recursion(num)
        if isinstance(num, (Product, Sum)):
            num_txt = f"({num_txt})"
        den_txt = render_by_recursion(den)
        if isinstance(den, (Product, Quotient, Sum)):
            den_txt = f"({den_txt})"
        return f"{num_txt} / {den_txt}"
    raise EstimandError(f"not an estimand node: {e!r}")


def standardize_by_recursion(e, free_vals, used):
    """``identify._standardize`` as one recursion per occurrence."""
    from scmkit.identify import _fresh

    def walk(node, env):
        if isinstance(node, ProbTerm):
            def conv(val):
                target = env.get(val.var)
                if target is None:
                    raise EstimandError(f"no symbol in scope for {val.var}")
                return target
            return ProbTerm(
                tuple(conv(v) for v in node.joint),
                tuple(conv(v) for v in node.given),
            )
        if isinstance(node, Sum):
            token = _fresh(node.var, used)
            env2 = dict(env)
            env2[node.var] = Val(node.var, token, literal=False)
            return Sum(node.var, token, walk(node.body, env2))
        if isinstance(node, Product):
            return Product(tuple(walk(f, env) for f in node.factors))
        if isinstance(node, Quotient):
            return Quotient(walk(node.num, env), walk(node.den, env))
        return node

    return walk(e, dict(free_vals))


def random_query_text(r, names):
    """A layer-1 or layer-2 query over ``names``: one or two outcomes, up to
    two interventions and up to two conditions, with symbols or values."""
    names = list(names)
    r.shuffle(names)
    n_out = int(r.integers(1, min(2, len(names)) + 1))
    n_do = int(r.integers(0, min(2, len(names) - n_out) + 1))
    n_cond = int(r.integers(0, min(2, len(names) - n_out - n_do) + 1))

    def term(v):
        return v if r.random() < 0.7 else f"{v}={int(r.integers(0, 2))}"

    out = ",".join(map(term, names[:n_out]))
    rest = [f"do({term(v)})" for v in names[n_out:n_out + n_do]]
    rest += map(term, names[n_out + n_do:n_out + n_do + n_cond])
    return f"P({out}|{','.join(rest)})" if rest else f"P({out})"


def bootstrap_by_replicate(e, d, binding=None, B=1000, level=0.95, seed=0):
    """Percentile bootstrap one replicate at a time, each resample a fresh
    ``JointTable`` evaluated by ``dict_scan_eval``, with the replicate seeds
    of ``bootstrap_interval``.

    Returns (point, low, high, dropped); the interval is None when more than
    10% of the resamples were dropped.
    """
    import numpy as np

    counts = Counter(d.rows)
    keys = sorted(counts)
    weights = np.array([counts[k] for k in keys], dtype=float)
    pvals = weights / weights.sum()
    full = JointTable(d.columns, d.domains, {k: counts[k] / d.n for k in counts})
    point = dict_scan_eval(e, full, binding)
    values = []
    dropped = 0
    for rep in range(B):
        draw = np.random.default_rng([seed, rep]).multinomial(d.n, pvals)
        mass = {k: c / d.n for k, c in zip(keys, draw) if c > 0}
        try:
            table = JointTable(d.columns, d.domains, mass)
            values.append(dict_scan_eval(e, table, binding))
        except ConditioningOnZero:
            dropped += 1
    if dropped > 0.10 * B:
        return point, None, None, dropped
    lo_q = (1.0 - level) / 2.0
    lo, hi = np.quantile(values, [lo_q, 1.0 - lo_q])
    return point, min(float(lo), point), max(float(hi), point), dropped


def eval_sum_by_hand(table: JointTable, y, x, z):
    """Hand-rolled sum_{z} P(y|x,z) P(z) via raw loops over the table."""
    total = 0.0
    for zv in table.domains[z]:
        pz = table.prob({z: zv})
        pxz = table.prob({x[0]: x[1], z: zv})
        pyxz = table.prob({y[0]: y[1], x[0]: x[1], z: zv})
        if pxz == 0.0:
            raise ZeroDivisionError
        total += (pyxz / pxz) * pz
    return total


def c_components_by_min(g: Admg):
    """``graph.c_components`` as it was: each component grown from the
    smallest node not yet in one, found by ``min`` once per component."""
    unseen, comps = set(g.nodes), []
    while unseen:
        comp = frozenset(_reach([min(unseen)], g._siblings))
        unseen -= comp
        comps.append(comp)
    return tuple(comps)


def id_by_subgraphs(y, x, P, g: Admg):
    """``identify._id`` as it was: plain recursion that builds each induced
    subgraph, and each graph with the edges into ``x`` cut, as a new ``Admg``."""
    from scmkit.expr import prod_of, sum_over
    from scmkit.identify import _Dist, _Hedge

    def sub(g, keep, cut=frozenset()):
        return Admg(keep, [(a, b) for a, b in g.directed if {a, b} <= keep and b not in cut],
                    [(a, b) for a, b in g.bidirected if {a, b} <= keep - cut])

    v = g.nodes
    if not x:
        return P.marginal(y).expr
    anc = g.ancestors(y)
    if v != anc:
        return id_by_subgraphs(y, x & anc, P.marginal(anc), sub(g, anc))
    w = (v - x) - sub(g, v, cut=x).ancestors(y)
    if w:
        return id_by_subgraphs(y, x | w, P, g)
    comps = c_components_by_min(sub(g, v - x))
    if len(comps) > 1:
        factors = [id_by_subgraphs(s, v - s, P, g) for s in comps]
        return sum_over(((u, u) for u in sorted(v - y - x)), prod_of(factors))
    s = comps[0]
    comps_g = c_components_by_min(g)
    if len(comps_g) == 1:
        raise _Hedge(forest=v, subforest=s)
    s_prime = next(c for c in comps_g if s <= c)
    pos = {u: i for i, u in enumerate(P.order)}
    ordered = sorted(s_prime, key=pos.__getitem__)
    factors = [P.conditional(u, P.order[: pos[u]]) for u in ordered]
    if s == s_prime:
        return sum_over(((u, u) for u in sorted(s - y)), prod_of(factors))
    return id_by_subgraphs(y, x & s_prime, _Dist(tuple(ordered), prod_of(factors)),
                           sub(g, s_prime))


def augmented_joint_by_arrays(mg, d) -> JointTable:
    """``recover._augmented_joint`` as it was, with numpy: the distinct rows
    of the substantive columns and observed flags, grouped by ``group_rows``."""
    import numpy as np

    from scmkit.estimate import DataError

    subs = sorted(mg.substantive)
    codes = np.array([d._cols[d.column_index(v)] for v in subs], np.intp).T
    missing = codes < 0
    for v, col in zip(subs, missing.T):
        if v not in mg.partial and col.any():
            raise DataError(
                f"column {v} has missing cells but the m-graph declares it fully observed"
            )
    partial = [j for j, v in enumerate(subs) if v in mg.partial]
    codes = np.where(missing, [len(d.domains[v]) for v in subs], codes)
    group, distinct = group_rows(np.hstack([codes, ~missing[:, partial]]))
    variables = tuple(subs) + tuple(mg.indicator(subs[j]) for j in partial)
    domains = {v: d.domains[v] if v in subs else ("miss", "obs") for v in variables}
    weights = np.bincount(group, weights=d._count) / d.n
    return JointTable._coded(variables, domains, tuple(distinct.T.tolist()), weights.tolist())


# --- grouping rows and solving worlds with numpy -----------------------------------


def group_rows(codes):
    """Group of every row of an integer matrix, and the distinct rows in
    lexicographic order; group ``g`` is distinct row ``g``."""
    import numpy as np

    order = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(len(codes))
    ranked = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty_like(order)
    group[order] = np.cumsum(first) - 1
    return group, ranked[first]


def decode_rows(codes, domains) -> list[tuple]:
    """Rows of an integer matrix decoded through each column's domain; -1 or
    a code past the end of a domain decodes to ``None``."""
    import numpy as np

    cols = [
        np.array((*dom, None), dtype=object)[codes[:, j]].tolist()
        for j, dom in enumerate(domains)
    ]
    return list(zip(*cols)) if cols else [()] * len(codes)


def solve_worlds(m: DiscreteScm, exo_codes, size, surgeries):
    """Action and prediction over ``size`` exogenous states, given as one
    domain-code array per exogenous variable.  Each mechanism is read from
    its stored codes, as an array indexed by its parents' codes; a surgery
    value is a domain value or a per-state code array.  Returns, per
    surgery, one code array per variable, indexing ``m.endo_domains[v]`` or
    the exogenous domain.
    """
    import numpy as np

    dims = {v: len(m.parent_domain(v)) for v in itertools.chain(m.exogenous, m.order)}
    dtype = np.min_scalar_type(max(dims.values(), default=1) - 1)
    luts = {v: np.array(m._codes[v], dtype) for v in m.order}
    worlds = []
    for surgery in surgeries:
        codes = dict(exo_codes)
        for v in m.order:
            parents = m.endogenous[v].parents
            val = surgery.get(v)
            if val is None:
                cell = np.ravel_multi_index(
                    [codes[p] for p in parents], [dims[p] for p in parents]
                )
                val = luts[v][cell]
            elif isinstance(val, str):
                val = m.endo_domains[v].index(val)
            # constants become read-only per-state views without copies
            codes[v] = np.broadcast_to(val, (size,))
        worlds.append(codes)
    return worlds


def sample_by_arrays(m: DiscreteScm, n, seed):
    """``scm.sample`` as it was: the draws grouped by ``group_rows`` in their
    stored code dtype, then only the distinct rows decoded and encoded."""
    import numpy as np

    from scmkit.estimate import Dataset, _encode, _grouped

    rng = np.random.default_rng(seed)
    exo = {
        u: rng.choice(len(spec.domain), size=n, p=np.asarray(spec.probs))
        for u, spec in m.exogenous.items()
    }
    (codes,) = solve_worlds(m, exo, n, [{}])
    out_cols = tuple(sorted(m.endogenous))
    drawn = np.empty((n, len(out_cols)), np.result_type(np.uint8, *codes.values()))
    for j, v in enumerate(out_cols):
        drawn[:, j] = codes[v]
    group, distinct = group_rows(drawn)
    keys = decode_rows(distinct, [m.endo_domains[v] for v in out_cols])
    domains, coded, _ = _encode(out_cols, keys)
    cols, count, slot = _grouped(coded, np.bincount(group).tolist())
    return Dataset._coded(out_cols, domains, cols, count, np.array(slot)[group].tolist())


def enumerate_worlds(m: DiscreteScm, surgeries):
    """Abduction, action and prediction over all exogenous states at once, as
    ``scm`` computed them before its elimination sweep: the states of nonzero
    weight enumerated once as index arrays, and every surgered world solved
    over them by ``solve_worlds``.  Returns the state weights and, per
    surgery, one code array per variable."""
    import numpy as np

    names = tuple(m.exogenous)
    dims = [len(m.exogenous[u].domain) for u in names]
    count = math.prod(dims)
    grid = np.indices(dims, dtype=np.min_scalar_type(max(dims, default=1) - 1))
    grid = grid.reshape(len(names), count)
    weights = np.ones(count)
    for u, codes in zip(names, grid):
        weights *= np.asarray(m.exogenous[u].probs)[codes]
    keep = weights != 0.0
    weights = weights[keep]
    exo = {u: codes[keep] for u, codes in zip(names, grid)}
    return weights, solve_worlds(m, exo, len(weights), surgeries)


def holds(m: DiscreteScm, codes, assignment):
    """Per-state mask of one world of :func:`enumerate_worlds` meeting an
    endogenous assignment."""
    import numpy as np

    mask = np.ones(len(next(iter(codes.values()))), dtype=bool)
    for v, val in assignment.items():
        mask &= codes[v] == m.endo_domains[v].index(val)
    return mask


def counterfactual_by_arrays(m: DiscreteScm, worlds, evidence):
    """``joint_counterfactual`` over :func:`enumerate_worlds`, or None where
    the evidence has probability zero."""
    surgeries = [{}] + [dict(do) for do, _ in worlds]
    weights, (natural, *solved) = enumerate_worlds(m, surgeries)
    ok = holds(m, natural, evidence)
    den = float(weights[ok].sum())
    for codes, (_, targets) in zip(solved, worlds):
        ok &= holds(m, codes, targets)
    return float(weights[ok].sum()) / den if den != 0.0 else None


def mediation_by_arrays(m: DiscreteScm, exposure, mediator, outcome, x0, x1):
    """(te, nde, nie, nie_reversed) as ``mediation_effects_scm`` computed
    them over :func:`enumerate_worlds`: the nested worlds solved again over
    the same states, the mediator pinned per state by a code array."""
    import numpy as np

    y_code = np.arange(len(m.endo_domains[outcome]), dtype=float)
    weights, (world0, world1) = enumerate_worlds(m, [{exposure: x0}, {exposure: x1}])
    nested10, nested01 = solve_worlds(m, world0, len(weights), [
        {exposure: x1, mediator: world0[mediator]},
        {exposure: x0, mediator: world1[mediator]},
    ])
    e0, e1, e10, e01 = (float(weights @ y_code[w[outcome]])
                        for w in (world0, world1, nested10, nested01))
    return e1 - e0, e10 - e0, e01 - e0, e10 - e1


def observational_joint_by_arrays(m: DiscreteScm) -> JointTable:
    """``scm.observational_joint`` as it was: the enumerated states grouped
    by ``group_rows`` over their code rows."""
    import numpy as np

    variables = tuple(sorted(m.endogenous))
    weights, (codes,) = enumerate_worlds(m, [{}])
    cells = np.empty((len(weights), len(variables)), dtype=np.intp)
    for j, v in enumerate(variables):
        cells[:, j] = codes[v]
    group, distinct = group_rows(cells)
    domains = {v: m.endo_domains[v] for v in variables}
    cols = tuple(distinct.T.tolist())
    return JointTable._coded(variables, domains, cols, np.bincount(group, weights).tolist())


# --- testable implications by exhaustive search ----------------------------------


def testable_implications_by_search(g: Admg):
    """The separator search ``testable_implications`` must agree with: every
    subset of a nonadjacent pair's ancestors, smallest first and lexicographic
    within a size, with no shortcut for pairs that have no separator."""
    out = []
    for u, v in itertools.combinations(sorted(g.nodes), 2):
        if g.adjacent(u, v):
            continue
        candidates = sorted((g.ancestors([u]) | g.ancestors([v])) - {u, v})
        found = next(
            (
                frozenset(sub)
                for size in range(len(candidates) + 1)
                for sub in itertools.combinations(candidates, size)
                if d_separated(g, {u}, {v}, sub)
            ),
            None,
        )
        if found is not None:
            out.append(CiStatement(frozenset({u}), frozenset({v}), found))
    return out


def backdoor_sets_by_search(g: Admg, x: str, y: str):
    """The listing ``backdoor_sets`` must agree with: every subset of x's
    non-descendants (x and y left out) that the path oracle finds separating
    x from y once x's outgoing edges are cut, and that holds no set kept
    before it; by size, then lexicographic."""
    pruned = g.without_outgoing([x])
    candidates = sorted(g.nodes - {x, y} - g.descendants([x]))
    kept = []
    for k in range(len(candidates) + 1):
        for z in map(frozenset, itertools.combinations(candidates, k)):
            if not any(prev <= z for prev in kept) and dsep_path_oracle(pruned, {x}, {y}, z):
                kept.append(z)
    return sorted(kept, key=lambda z: (len(z), sorted(z)))


# --- CPDAG by exhaustive class enumeration ---------------------------------------


def dsep_signature(g: Admg, names):
    bits = []
    for u, v in itertools.combinations(names, 2):
        others = [w for w in names if w not in (u, v)]
        for k in range(len(others) + 1):
            for sub in itertools.combinations(others, k):
                bits.append(d_separated(g, {u}, {v}, sub))
    return tuple(bits)


class SignatureOracle:
    """Conditional-independence oracle backed by a precomputed signature."""

    def __init__(self, names, signature):
        self.table = {}
        i = 0
        for u, v in itertools.combinations(names, 2):
            others = [w for w in names if w not in (u, v)]
            for k in range(len(others) + 1):
                for sub in itertools.combinations(others, k):
                    self.table[(u, v, frozenset(sub))] = signature[i]
                    i += 1

    def independent(self, u, v, given):
        a, b = (u, v) if u < v else (v, u)
        return self.table[(a, b, frozenset(given))]


def cpdag_from_class(dags):
    """Union of edge orientations over one Markov-equivalence class."""
    skeleton = {frozenset(e) for e in dags[0].directed}
    directed = set()
    undirected = set()
    for e in skeleton:
        a, b = sorted(e)
        forward = {(a, b) in d.directed for d in dags}
        if forward == {True}:
            directed.add((a, b))
        elif forward == {False}:
            directed.add((b, a))
        else:
            undirected.add((a, b))
    return frozenset(directed), frozenset(undirected)


def adjustment_estimand(x: str, y: str, zs) -> "ProbTerm | Sum | Product":
    """Back-door adjustment formula sum_{z} P(y|x,z) P(z)."""
    zs = sorted(zs)
    y_val = Val(y, y.lower())
    x_val = Val(x, x.lower())
    z_vals = tuple(Val(z, z.lower()) for z in zs)
    if not zs:
        return ProbTerm((y_val,), (x_val,))
    body = Product(
        (
            ProbTerm((y_val,), tuple(sorted((x_val,) + z_vals, key=lambda v: v.var))),
            ProbTerm(z_vals),
        )
    )
    out = body
    for z in reversed(zs):
        out = Sum(z, z.lower(), out)
    return out


# --- row-scan references for the integer-coded data paths ---------------------
# (scmkit.estimate and scmkit.fitcheck are imported where used, so that
# importing this module for the benchmark's input builders loads no more of
# scmkit than the generators need)


def g_squared_by_rows(d, u, v, given):
    """``g_squared_ci`` as a dict of Counters per stratum, one row at a time."""
    from scmkit.fitcheck import MIN_STRATUM, _chi2_sf

    iu = d.column_index(u)
    iv = d.column_index(v)
    ig = [d.column_index(c) for c in given]
    strata = defaultdict(Counter)
    for row in d.rows:
        strata[tuple(row[i] for i in ig)][(row[iu], row[iv])] += 1
    per_stratum_dof = (len(d.domains[u]) - 1) * (len(d.domains[v]) - 1)
    stat = 0.0
    dof = used = pooled = 0
    for cells in strata.values():
        total = sum(cells.values())
        if total < MIN_STRATUM:
            pooled += 1
            continue
        used += 1
        dof += per_stratum_dof
        row_tot = Counter()
        col_tot = Counter()
        for (a, b), c in cells.items():
            row_tot[a] += c
            col_tot[b] += c
        for (a, b), observed in cells.items():
            expected = row_tot[a] * col_tot[b] / total
            stat += 2.0 * observed * math.log(observed / expected)
    p = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return stat, dof, p, used, pooled


def chi2_sf_by_series(x, dof):
    """``fitcheck._chi2_sf`` summing every one of the dof/2 series terms,
    each taken on its own in the saddle-point form and added exactly, where
    ``_chi2_sf`` steps from the peak term by ratios and stops early."""
    from scmkit.fitcheck import _poisson_term

    if x <= 0.0:
        return 1.0
    lam = 0.5 * x
    half = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(lam)) if half else 0.0
    terms = [_poisson_term(j + half, lam) for j in range(dof // 2)]
    return min(math.fsum([total, *terms]), 1.0)


def load_table_by_rows(source):
    """``estimate.load_table`` reading every row: all csv records are kept,
    then each column's cells are cleaned and encoded with numpy, one index
    per cell.  Returns the columns, domains, decoded rows and each row's
    codes, or raises the reader's ``DataError``."""
    import numpy as np

    from types import SimpleNamespace

    from scmkit.estimate import MISSING_TOKEN, DataError

    def clean(token):
        token = token.strip()
        return None if token == MISSING_TOKEN else token

    def refusing_nul(fh):
        # a line holding NUL is malformed on every Python, as the csv module
        # itself refuses it before 3.11; the error carries the line's number
        for lineno, line in enumerate(fh, start=1):
            if "\0" in line:
                raise csv.Error(lineno)
            yield line

    def refusal(exc, reader):
        if isinstance(exc.args[0], int):
            return DataError(f"line {exc.args[0]}: line contains NUL")
        return DataError(f"line {reader.line_num}: {exc}")

    def read(fh):
        reader = csv.reader(refusing_nul(fh))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        except csv.Error as exc:
            raise refusal(exc, reader) from None
        columns = tuple(h.strip() for h in header)
        if any(not c for c in columns):
            raise DataError("empty column name in header")
        if len(set(columns)) != len(columns):
            raise DataError("duplicate header names")
        records, malformed = [], None
        try:
            records.extend(reader)
        except csv.Error as exc:
            malformed = refusal(exc, reader)
        # a ragged line is reported before a malformed line below it; an
        # undecodable byte has escaped before either
        for i, rec in enumerate(records):
            if rec and len(rec) != len(columns):
                raise DataError(
                    f"line {i + 2}: row has {len(rec)} cells, expected {len(columns)}"
                )
        if malformed is not None:
            raise malformed
        rows = [rec for rec in records if rec]
        if not rows:
            raise DataError("no data rows")
        domains, coded, empty = {}, [], len(rows)
        for j, c in enumerate(columns):
            col = [row[j] for row in rows]
            pos = {t: i for i, t in enumerate(dict.fromkeys(col))}
            values = [clean(t) for t in pos]
            index = np.array([pos[t] for t in col], dtype=np.intp)
            domains[c] = tuple(sorted({v for v in values if v is not None}))
            rank = {v: i for i, v in enumerate(domains[c])}
            lut = np.array([rank.get(v, -1) for v in values], np.intp)
            coded.append(lut[index])
            if "" in rank:
                empty = min(empty, int(np.argmax(coded[-1] == rank[""])))
        if empty < len(rows):
            raise DataError(f"row {empty + 1} has an empty cell")
        codes = np.array(coded, np.intp).T.tolist()
        decoded = tuple(
            tuple(None if k < 0 else domains[c][k] for c, k in zip(columns, row))
            for row in codes
        )
        return SimpleNamespace(columns=columns, domains=domains, rows=decoded, codes=codes)

    if hasattr(source, "read"):
        try:
            return read(source)
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot decode byte 0x{exc.object[exc.start]:02x}"
                            f" as {exc.encoding}: {exc.reason}") from None
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return read(fh)
    except UnicodeDecodeError:
        pass
    # the first line, split at "\n", "\r\n" or "\r", that does not decode
    with open(source, "rb") as fh:
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines(keepends=True)
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line {lineno}: cannot decode byte 0x{line[exc.start]:02x}"
                            f" as UTF-8: {exc.reason}") from None
    raise AssertionError("the file decodes line by line but not whole")


def sample_by_rows(m: DiscreteScm, n, seed):
    """``sample`` with each structural table read as a dict, row by row; the
    exogenous draws are the same ``rng.choice`` calls in the same order."""
    import numpy as np

    from scmkit.estimate import Dataset

    r = np.random.default_rng(seed)
    columns = {}
    for u in m.exogenous:
        spec = m.exogenous[u]
        idx = r.choice(len(spec.domain), size=n, p=np.asarray(spec.probs))
        columns[u] = [spec.domain[i] for i in idx]
    for v in m.order:
        spec = m.endogenous[v]
        if not spec.parents:
            columns[v] = [spec.table[()]] * n
            continue
        columns[v] = [spec.table[key] for key in zip(*(columns[p] for p in spec.parents))]
    out_cols = tuple(sorted(m.endogenous))
    return Dataset(out_cols, tuple(zip(*(columns[v] for v in out_cols))))


# --- two-sided missingness: X and Y both partially observed -------------------

TWO_SIDED = "var X\nvar Y\nX -> Y\nmissing X\nmissing Y\nX -> R_Y\n"
# NA in both columns, so the sum over x meets rows whose X is missing
TWO_SIDED_ROWS = (
    [("0", "0")] * 6 + [("0", "1")] * 4 + [("1", "0")] * 3 + [("1", "1")] * 7
    + [(None, "0")] * 5 + [(None, "1")] * 2 + [("0", None)] * 3
    + [("1", None)] * 4 + [(None, None)] * 2
)

# the same m-graph's data with X never observed
TWO_SIDED_NEVER_X = [(None, "0")] * 5 + [(None, "1")] * 3 + [(None, None)] * 2


def two_sided_by_hand(y):
    """sum_x P(x|R_X=obs) P(y|x,R_X=obs,R_Y=obs) from raw counts."""
    x_obs = [x for x, _ in TWO_SIDED_ROWS if x is not None]
    both = [(x, v) for x, v in TWO_SIDED_ROWS if x is not None and v is not None]
    return sum(
        x_obs.count(x) / len(x_obs)
        * both.count((x, y)) / sum(1 for b in both if b[0] == x)
        for x in ("0", "1")
    )


# --- seeded fuzz of the data subcommands ---------------------------------------------

FUZZ_COLUMNS = ("X", "Y", "Z", "M")
FUZZ_QUERIES = (
    "P(Y=1|do(X=1))", "P(Y=0|do(X=0),Z=1)", "P(Y=2|do(X=1))", "P(Y=1|do(X=7))",
    "P(y|do(x))", "P(Q=1|do(X=1))", "P(Y=1|do(X=1)", "P(Z=1|do(X=0))",
)
FUZZ_FLOATS = ("0", "1", "-0.5", "1.5", "nan", "inf", "1e-300", "0.05", "0.999999")


def fuzz_data_call(r, tmp, i) -> list[str]:
    """Arguments of one call of a data subcommand, with its files written
    under ``tmp``: a small CSV over X, Y, Z, M or some of them, four in nine
    with one flaw (a missing, empty or ragged cell, a quoted line break, a
    duplicate or empty header name), some padded or with blank lines or a
    byte-order mark; a graph to match; and flags that are sometimes out of
    range.  ``pnps`` gets binary X and Y columns, and reads its experimental
    inputs within 1e-9 of an end of the band the rows allow, or out of range."""
    if r.random() < 0.7:
        columns = list(FUZZ_COLUMNS)
    else:
        columns = [str(c) for c in r.permutation(FUZZ_COLUMNS)[: int(r.integers(1, 4))]]
    # the commands that print intervals are drawn more often
    command = str(r.choice([
        "estimate", "estimate --bootstrap", "estimate --bootstrap", "fit", "discover",
        "pnps", "pnps", "pnps", "mediate", "recover",
    ]))
    # the Tian-Pearl bounds need a binary exposure and outcome
    binary = ("X", "Y") if command == "pnps" else ()
    sizes = {c: 2 if c in binary else int(r.choice([1, 2, 2, 2, 2, 3, 3])) for c in columns}
    rows = [
        [str(int(r.integers(0, sizes[c]))) for c in columns]
        for _ in range(int(r.integers(0, 40)))
    ]
    header = list(columns)
    flaw = int(r.integers(0, 18))
    if rows and flaw < 6:
        row = rows[int(r.integers(0, len(rows)))]
        at = int(r.integers(0, len(row)))
        if flaw < 3:
            row[at] = "NA"
        elif flaw == 3:
            row[at] = ""
        elif flaw == 4:
            row.append("1")
        else:
            row[at] = '"a\nb"'
    elif flaw == 6:
        header.append(header[0])
    elif flaw == 7:
        header.append("")
    if r.random() < 0.1:
        rows = [[f" {cell} " for cell in row] for row in rows]
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if r.random() < 0.1:
        lines.insert(int(r.integers(1, len(lines) + 1)), "")
    text = "\n".join(lines) + "\n"
    if r.random() < 0.05:
        text = "\ufeff" + text
    data = tmp / f"d{i}.csv"
    data.write_text(text, encoding="utf-8", newline="")
    # X -> Z -> Y with X -> Y, which mediate needs, and some other edges
    order = ["X", "Z", "Y", "M"] if r.random() < 0.85 else [str(c) for c in r.permutation(FUZZ_COLUMNS)]
    extra = 0.3 if r.random() < 0.5 else 0.0
    edges = [
        (a, b) for k, a in enumerate(order) for b in order[k + 1:]
        if (a, b) in (("X", "Z"), ("Z", "Y"), ("X", "Y")) or r.random() < extra
    ]
    graph = tmp / f"g{i}.cg"
    graph.write_text(
        "".join(f"var {v}\n" for v in order) + "".join(f"{a} -> {b}\n" for a, b in edges)
        + ("X <-> Y\n" if r.random() < 0.1 else ""),
        encoding="utf-8",
    )
    if command.startswith("estimate"):
        query = FUZZ_QUERIES[0] if r.random() < 0.6 else str(r.choice(FUZZ_QUERIES))
        argv = ["estimate", "--graph", str(graph), "--query", query, "--data", str(data)]
        if command.endswith("--bootstrap"):
            argv += ["--bootstrap", "100" if r.random() < 0.9 else str(r.choice(["99", "0"]))]
            if r.random() < 0.2:
                argv.append(f"--level={r.choice(FUZZ_FLOATS)}")
            argv.append(f"--seed={int(r.integers(-1, 1000))}")
    elif command in ("fit", "discover"):
        argv = [command] + (["--graph", str(graph)] if command == "fit" else [])
        argv += ["--data", str(data)]
        if r.random() < 0.3:
            argv.append(f"--alpha={r.choice(FUZZ_FLOATS)}")
        if command == "fit" and r.random() < 0.3:
            argv.append("--bonferroni")
    elif command == "pnps":
        argv = ["pnps", "--data", str(data)] + _fuzz_experiment(r, columns, rows)
        if r.random() < 0.1:
            argv.append(f"{r.choice(['--x1', '--x0', '--y1', '--y0'])}={r.choice(['0', '2', '7'])}")
        if r.random() < 0.05:
            argv += ["--outcome", "X"]
    elif command == "mediate":
        mediator, outcome = ("Z", "Y") if r.random() < 0.9 else ("M", str(r.choice(["Y", "Z"])))
        argv = ["mediate", "--graph", str(graph), "--data", str(data), "--exposure", "X",
                "--mediator", mediator, "--outcome", outcome,
                "--x0", "0", "--x1", str(r.choice(["1", "1", "2"]))]
    else:
        mgraph = tmp / f"m{i}.cg"
        mgraph.write_text(str(r.choice([
            "var X\nvar Y\nX -> Y\nmissing Y\nX -> R_Y\n",
            "var X\nvar Y\nX -> Y\nmissing Y\nY -> R_Y\n",
            "var X\nvar Y\nX -> Y\nmissing X\nmissing Y\nX -> R_Y\n",
            "var X\nvar Y\nvar Z\nX -> Y\nZ -> Y\nmissing Z\nX -> R_Z\n",
        ])), encoding="utf-8")
        target = "Y=1" if r.random() < 0.6 else str(
            r.choice(["Y=0", "X=0,Y=1", "Y=2", "Y", "", "Y=1,Y=0", "Q=1", "Z=1"])
        )
        argv = ["recover", "--graph", str(mgraph), "--data", str(data), "--target", target]
    if r.random() < 0.3:
        argv.append("--porcelain")
    return argv


def _fuzz_experiment(r, columns, rows) -> list[str]:
    """``--px1``/``--px0`` for ``pnps --data``: each within 1e-9 of an end
    of its Tian-Pearl band on the rows' (X, Y) frequencies, or a value that
    is out of range."""
    both = [
        (row[columns.index("X")], row[columns.index("Y")])
        for row in rows if {"X", "Y"} <= set(columns) and len(row) == len(columns)
    ]
    n = max(len(both), 1)
    flags = []
    for name, x in (("--px1", "1"), ("--px0", "0")):
        if r.random() < 0.1:
            flags.append(f"{name}={r.choice(FUZZ_FLOATS)}")
            continue
        edge = both.count((x, "1")) / n if r.random() < 0.5 else 1.0 - both.count((x, "0")) / n
        flags.append(f"{name}={edge + float(r.uniform(-1e-9, 1e-9))!r}")
    return flags
