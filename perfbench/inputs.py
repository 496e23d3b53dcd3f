"""Seeded inputs for the four benchmark workloads.

Each workload has a pool of instances.  Instance ``k`` is built from seeds
derived from ``k`` alone, so the same instance always yields byte-identical
model, graph, CSV and query files.  The benchmark seed only picks which
instance a run uses.  Models and data are made with the program's own
``sample``, ``serialize_scm`` and ``serialize_graph``; binary graphs and
models come from ``tests/gen.py``.  The ternary generator lives here because
``tests/gen.py`` only makes binary models.

A builder returns the CLI argument lists of one cycle, with ``{dir}`` standing
for the instance directory and ``{data}`` for ``tests/data``, plus the input
properties the run records next to its results.
"""

from __future__ import annotations

import itertools
from collections import Counter
from pathlib import Path

import numpy as np

import gen
from scmkit import graph, scm
from scmkit.expr import Product, Quotient, Sum
from scmkit.identify import Identified, identify, parse_query
from scmkit.scm import DiscreteScm, EndogenousVar, ExogenousVar

TERNARY = ("0", "1", "2")

# W -> X -> M -> Y with X <-> Y: identified through the mediator, so the
# unsimplified estimand carries nested sums.
FRONT_DOOR = graph.Admg(
    ["W", "X", "M", "Y"],
    [("W", "X"), ("X", "M"), ("M", "Y"), ("W", "Y")],
    [("X", "Y")],
)
FRONT_DOOR_ROWS = 20_000

# Six binary variables whose back-door strata are sparse at a few hundred
# rows, so most bootstrap resamples hit an empty stratum.
SPARSE_BACKDOOR = graph.Admg(
    ["A", "B", "C", "D", "X", "Y"],
    [("A", "X"), ("B", "X"), ("C", "X"), ("A", "Y"), ("B", "Y"),
     ("C", "Y"), ("D", "Y"), ("X", "Y"), ("D", "C")],
    [],
)
BOOTSTRAP_B = 100

# Five endogenous ternary variables, five private and four shared exogenous
# ternary variables: 3**9 = 19,683 exogenous states.
CONFOUNDED_MEDIATION = graph.Admg(
    ["W", "X", "M", "Y", "Z"],
    [("W", "X"), ("X", "M"), ("M", "Y"), ("X", "Y"), ("Z", "Y")],
    [("X", "Y"), ("W", "Z"), ("M", "Y"), ("W", "M")],
)

DISCOVER_NODES = 8
DISCOVER_EDGES = 9
DISCOVER_ROWS = 10_000


def _probs3(r: np.random.Generator) -> tuple[float, ...]:
    """Three positive probabilities in twentieths, exact under ``.12g``."""
    w = 1 + r.multinomial(17, [1 / 3] * 3)
    return tuple(float(x) / 20 for x in w)


def ternary_scm(g: graph.Admg, r: np.random.Generator) -> DiscreteScm:
    """Ternary model whose latent projection is ``g``.

    One shared ternary exogenous variable per bidirected edge and one private
    one per node.  Each node is ``(h(context) + private noise) mod 3`` for a
    random table ``h``, so every conditional is strictly positive.
    """
    exogenous: dict[str, ExogenousVar] = {}
    shared: dict[str, list[str]] = {v: [] for v in g.nodes}
    for a, b in sorted(g.bidirected):
        u = f"U{a}{b}"
        exogenous[u] = ExogenousVar(TERNARY, _probs3(r))
        shared[a].append(u)
        shared[b].append(u)
    endogenous: dict[str, EndogenousVar] = {}
    for v in g.topological_order():
        priv = f"U{v}"
        exogenous[priv] = ExogenousVar(TERNARY, _probs3(r))
        context = tuple(sorted(g.parents(v))) + tuple(shared[v])
        table: dict[tuple[str, ...], str] = {}
        for ctx in itertools.product(TERNARY, repeat=len(context)):
            h = int(r.integers(0, 3))
            for u in TERNARY:
                table[ctx + (u,)] = str((h + int(u)) % 3)
        endogenous[v] = EndogenousVar(context + (priv,), table)
    return DiscreteScm(exogenous, endogenous)


def write_csv(d, path: Path) -> None:
    lines = [",".join(d.columns)]
    lines += [",".join(row) for row in d.rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _distinct_cells(d) -> int:
    return len(Counter(d.rows))


def sum_depth(e) -> int:
    """Deepest nesting of sums in an estimand."""
    if isinstance(e, Sum):
        return 1 + sum_depth(e.body)
    if isinstance(e, Product):
        return max((sum_depth(f) for f in e.factors), default=0)
    if isinstance(e, Quotient):
        return max(sum_depth(e.num), sum_depth(e.den))
    return 0


def _raw_depth(g: graph.Admg, query: str) -> int:
    result = identify(g, parse_query(query))
    return sum_depth(result.estimand) if isinstance(result, Identified) else 0


# --- estimate_boot -------------------------------------------------------------


def refusal_data(model_seed: int, n: int, data_seed: int):
    m = gen.scm_for_admg(SPARSE_BACKDOOR, gen.rng(model_seed))
    return scm.sample(m, n, data_seed)


def build_estimate_boot(k: int, params: dict, out: Path) -> tuple[list[list[str]], dict]:
    r = gen.rng(10_000 + k)
    m = ternary_scm(FRONT_DOOR, r)
    d = scm.sample(m, FRONT_DOOR_ROWS, k)
    write_csv(d, out / "frontdoor.csv")
    (out / "frontdoor.cg").write_text(graph.serialize_graph(FRONT_DOOR), encoding="utf-8")
    x, x2, y, w = (str(int(v)) for v in r.integers(0, 3, size=4))
    uncond = f"P(Y={y}|do(X={x}))"
    cond = f"P(Y={y}|do(X={x2}),W={w})"

    sparse = refusal_data(params["model_seed"], params["n"], params["data_seed"])
    write_csv(sparse, out / "sparse.csv")
    (out / "sparse.cg").write_text(graph.serialize_graph(SPARSE_BACKDOOR), encoding="utf-8")
    refusal = "P(Y=1|do(X=1))"

    boot = ["--bootstrap", str(BOOTSTRAP_B), "--seed", str(k), "--porcelain"]
    calls = [
        ["estimate", "--graph", "{dir}/frontdoor.cg", "--data", "{dir}/frontdoor.csv",
         "--query", uncond, *boot],
        ["estimate", "--graph", "{dir}/frontdoor.cg", "--data", "{dir}/frontdoor.csv",
         "--query", cond, *boot],
        ["estimate", "--graph", "{dir}/sparse.cg", "--data", "{dir}/sparse.csv",
         "--query", refusal, *boot],
    ]
    props = {
        "exogenous_states": m.exo_state_count(),
        "joint_cells": [_distinct_cells(d), _distinct_cells(d), _distinct_cells(sparse)],
        "rows": [d.n, d.n, sparse.n],
        "B": BOOTSTRAP_B,
        "estimand_sum_depth": [
            _raw_depth(FRONT_DOOR, uncond),
            _raw_depth(FRONT_DOOR, cond),
            _raw_depth(SPARSE_BACKDOOR, refusal),
        ],
    }
    return calls, props


# --- scm_exact -----------------------------------------------------------------


def scm_exact_model(k: int) -> tuple[DiscreteScm, np.random.Generator]:
    r = gen.rng(20_000 + k)
    return ternary_scm(CONFOUNDED_MEDIATION, r), r


def scm_exact_values(r: np.random.Generator) -> tuple[str, str, str, str]:
    """Distinct exposure values x1 != x0 and outcome values y1 != y0."""
    x1, x0 = (str(int(v)) for v in r.permutation(3)[:2])
    y1, y0 = (str(int(v)) for v in r.permutation(3)[:2])
    return x1, x0, y1, y0


def build_scm_exact(k: int, params: dict, out: Path) -> tuple[list[list[str]], dict]:
    m, r = scm_exact_model(k)
    (out / "model.scm").write_text(scm.serialize_scm(m), encoding="utf-8")
    x1, x0, y1, y0 = scm_exact_values(r)
    calls = [
        ["counterfactual", "--scm", "{dir}/model.scm",
         "--query", f"P(Y_{{X={x0}}}={y1}|X={x1})", "--porcelain"],
        ["pnps", "--scm", "{dir}/model.scm", "--x1", x1, "--x0", x0,
         "--y1", y1, "--y0", y0, "--porcelain"],
        ["mediate", "--scm", "{dir}/model.scm", "--exposure", "X", "--mediator", "M",
         "--outcome", "Y", "--x0", x0, "--x1", x1, "--porcelain"],
    ]
    props = {"exogenous_states": m.exo_state_count(), "rows": 0, "B": 0}
    return calls, props


# --- discover_fit --------------------------------------------------------------


def discover_fit_instance(k: int, draw: int) -> tuple[graph.Admg, DiscreteScm]:
    """Random DAG with a fixed edge count and a binary model over it."""
    r = gen.rng((30_000 + k, draw))
    for _ in range(10_000):
        g = gen.random_dag(r, DISCOVER_NODES, p_dir=0.3)
        if len(g.directed) == DISCOVER_EDGES:
            return g, gen.scm_for_admg(g, r)
    raise RuntimeError(f"no {DISCOVER_EDGES}-edge DAG drawn for instance {k}")


def discover_fit_data(k: int, draw: int):
    g, m = discover_fit_instance(k, draw)
    return g, m, scm.sample(m, DISCOVER_ROWS, k)


def build_discover_fit(k: int, params: dict, out: Path) -> tuple[list[list[str]], dict]:
    g, m, d = discover_fit_data(k, params["draw"])
    write_csv(d, out / "dag.csv")
    (out / "dag.cg").write_text(graph.serialize_graph(g), encoding="utf-8")
    calls = [
        ["discover", "--data", "{dir}/dag.csv", "--porcelain"],
        ["fit", "--graph", "{dir}/dag.cg", "--data", "{dir}/dag.csv", "--porcelain"],
    ]
    props = {
        "exogenous_states": m.exo_state_count(),
        "joint_cells": _distinct_cells(d),
        "rows": d.n,
        "B": 0,
        "nodes": DISCOVER_NODES,
        "edges": DISCOVER_EDGES,
        "ci_tests": params["ci_tests"],
    }
    return calls, props


# --- cli_small -----------------------------------------------------------------

def identify_case(k: int) -> tuple[graph.Admg, str, str, str, str]:
    """Random 5-7 node ADMG and a literal query P(b=yv | do(a=xv)), a before b."""
    r = gen.rng(40_000 + k)
    g = gen.random_admg(r, int(r.integers(5, 8)))
    order = g.topological_order()
    i, j = sorted(int(v) for v in r.choice(len(order), size=2, replace=False))
    xv, yv = (str(int(v)) for v in r.integers(0, 2, size=2))
    return g, order[i], xv, order[j], yv


def build_cli_small(k: int, params: dict, out: Path) -> tuple[list[list[str]], dict]:
    g, a, xv, b, yv = identify_case(k)
    (out / "identify.cg").write_text(graph.serialize_graph(g), encoding="utf-8")
    r = gen.rng(50_000 + k)
    g2 = gen.random_admg(r, int(r.integers(5, 8)))
    (out / "discover.cg").write_text(graph.serialize_graph(g2), encoding="utf-8")

    def bit() -> str:
        return str(int(r.integers(0, 2)))

    model = ["xor.scm", "med.scm"][int(r.integers(0, 2))]
    cf_x, cf_y, ev_x = bit(), bit(), bit()
    evidence = f"X={ev_x}" if r.random() < 0.5 else f"X={ev_x},Y={bit()}"
    pn_model = ["xor.scm", "med.scm"][int(r.integers(0, 2))]
    flip = r.random() < 0.5
    x1, x0 = ("0", "1") if flip else ("1", "0")
    # experimental inputs consistent with d8.csv, where P(X=1,Y=1) = 3/8,
    # P(X=1,Y=0) = 1/8, P(X=0,Y=1) = P(X=0,Y=0) = 2/8:
    # P(x,y) <= P(y|do(x)) <= 1 - P(x,y')
    px1 = round(float(r.uniform(3 / 8, 7 / 8)), 2)
    px0 = round(float(r.uniform(2 / 8, 6 / 8)), 2)
    recover_case = [
        ("mar.cg", "Y=1"), ("mar.cg", "Y=0"), ("mar.cg", "X=1,Y=1"), ("selfmask.cg", "Y=1"),
    ][int(r.integers(0, 4))]
    fit_graph = ["backdoor.cg", "chain.cg"][int(r.integers(0, 2))]
    est_x, est_y = bit(), bit()

    calls = [
        ["identify", "--graph", "{dir}/identify.cg",
         "--query", f"P({b}={yv}|do({a}={xv}))", "--porcelain"],
        ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{data}/d8.csv",
         "--query", f"P(Y={est_y}|do(X={est_x}))", "--porcelain"],
        ["fit", "--graph", "{data}/" + fit_graph, "--data", "{data}/d8.csv", "--porcelain"],
        ["counterfactual", "--scm", "{data}/" + model,
         "--query", f"P(Y_{{X={cf_x}}}={cf_y}|{evidence})", "--porcelain"],
        ["pnps", "--scm", "{data}/" + pn_model, "--x1", x1, "--x0", x0, "--porcelain"],
        ["pnps", "--data", "{data}/d8.csv", "--px1", f"{px1:.2f}", "--px0", f"{px0:.2f}",
         "--porcelain"],
        ["mediate", "--scm", "{data}/med.scm", "--exposure", "X", "--mediator", "M",
         "--outcome", "Y", "--x0", x0, "--x1", x1, "--porcelain"],
        ["recover", "--graph", "{data}/" + recover_case[0], "--data", "{data}/dmiss.csv",
         "--target", recover_case[1], "--porcelain"],
        ["discover", "--graph", "{dir}/discover.cg", "--porcelain"],
    ]
    props = {"identify_nodes": len(g.nodes), "discover_nodes": len(g2.nodes), "rows": 8, "B": 0}
    return calls, props


BUILDERS = {
    "estimate_boot": build_estimate_boot,
    "scm_exact": build_scm_exact,
    "discover_fit": build_discover_fit,
    "cli_small": build_cli_small,
}

POOL_SIZE = {"estimate_boot": 8, "scm_exact": 8, "discover_fit": 8, "cli_small": 16}
