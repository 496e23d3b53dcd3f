import itertools

import pytest

import gen
import scmkit.graph as graph_module
from scmkit.graph import (
    Admg,
    CiStatement,
    CycleError,
    GraphError,
    UnknownVariable,
    c_components,
    d_separated,
    parse_graph,
    serialize_graph,
    testable_implications,
)
from scmkit.scm import observational_joint

BACKDOOR = parse_graph("var X\nvar Y\nvar Z\nZ -> X\nZ -> Y\nX -> Y\n")


# --- parsing ------------------------------------------------------------------


def test_parse_minimal_graph():
    g = parse_graph("var X\nvar Y\nX -> Y")
    assert g.nodes == {"X", "Y"}
    assert g.directed == {("X", "Y")}
    assert not g.bidirected


def test_parse_bidirected():
    g = parse_graph("var X\nvar Y\nX <-> Y")
    assert g.bidirected == {("X", "Y")}
    assert not g.directed


def test_parse_cycle_detected():
    with pytest.raises(CycleError):
        parse_graph("var X\nvar Y\nX -> Y\nY -> X")


def test_reported_cycle_is_a_directed_cycle_of_the_input():
    r = gen.rng(23)
    cyclic = 0
    for _ in range(400):
        names = gen.NAMES[: int(r.integers(2, 8))]
        directed = {(a, b) for a in names for b in names if a != b and r.random() < 0.3}
        try:
            g = Admg(names, directed)
        except CycleError as exc:
            cyclic += 1
            c = exc.cycle
            assert len(c) >= 3 and c[0] == c[-1]
            assert all(edge in directed for edge in zip(c, c[1:]))
            assert str(exc) == "cycle detected: " + " -> ".join(c)
        else:
            pos = {v: i for i, v in enumerate(g.topological_order())}
            assert len(pos) == len(names)
            assert all(pos[a] < pos[b] for a, b in directed)
    assert 100 < cyclic < 400


def test_parse_reports_line_and_column():
    with pytest.raises(GraphError, match=r"line 2, column 3"):
        parse_graph("var X\nX =!= X")


def test_parse_undeclared_endpoint():
    with pytest.raises(GraphError, match="undeclared endpoint: Y"):
        parse_graph("var X\nX -> Y")


def test_parse_duplicate_declaration():
    with pytest.raises(GraphError, match="duplicate declaration"):
        parse_graph("var X\nvar X")


def test_parse_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        parse_graph("var X\nX -> X")


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n\nvar X  # trailing\nvar Y\nX -> Y # edge\n")
    assert g.directed == {("X", "Y")}


def test_parse_declarations_in_any_order():
    g = parse_graph("X -> Y\nvar Y\nvar X")
    assert g.directed == {("X", "Y")}


def test_bidirected_stored_canonically():
    g = parse_graph("var X\nvar Y\nY <-> X")
    assert g.bidirected == {("X", "Y")}


def test_roundtrip_random_graphs():
    r = gen.rng(42)
    for _ in range(50):
        g = gen.random_admg(r, int(r.integers(2, 7)))
        assert parse_graph(serialize_graph(g)) == g


# --- d-separation --------------------------------------------------------------


def test_augmented_graph_is_built_once_and_shared_read_only():
    g = parse_graph("var X\nvar Y\nvar Z\nX -> Y\nX <-> Z\n")
    assert d_separated(g, {"Y"}, {"Z"}, {"X"})
    parents, children = g._augmented
    assert g._augmented is g._augmented
    assert parents == {"X": ("\x00h0",), "Y": ("X",), "Z": ("\x00h0",), "\x00h0": ()}
    assert children == {"X": ("Y",), "Y": (), "Z": (), "\x00h0": ("X", "Z")}
    assert not d_separated(g, {"Y"}, {"Z"}, set())
    assert g._augmented == (parents, children)


def test_chain_blocked_by_middle():
    g = parse_graph("var X\nvar Y\nvar Z\nX -> Z\nZ -> Y")
    assert d_separated(g, {"X"}, {"Y"}, {"Z"})
    assert not d_separated(g, {"X"}, {"Y"}, set())


def test_collider_rules():
    g = parse_graph("var X\nvar Y\nvar Z\nX -> Z\nY -> Z")
    assert d_separated(g, {"X"}, {"Y"}, set())
    assert not d_separated(g, {"X"}, {"Y"}, {"Z"})


def test_direct_edge_connects():
    assert not d_separated(BACKDOOR, {"Z"}, {"Y"}, set())


def test_bidirected_acts_as_hidden_cause():
    g = parse_graph("var X\nvar Y\nX <-> Y")
    assert not d_separated(g, {"X"}, {"Y"}, set())


def test_collider_descendant_opens_path():
    g = parse_graph("var X\nvar Y\nvar Z\nvar W\nX -> Z\nY -> Z\nZ -> W")
    assert not d_separated(g, {"X"}, {"Y"}, {"W"})


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        d_separated(BACKDOOR, {"Q"}, {"Y"}, set())


def test_dsep_matches_path_oracle_quick():
    # the full 10,000-instance sweep runs in the acceptance suite
    r = gen.rng(7)
    for _ in range(1500):
        n = int(r.integers(3, 8))
        g = gen.random_admg(r, n, p_dir=float(r.uniform(0.15, 0.5)),
                            p_bi=float(r.uniform(0.0, 0.4)))
        names = sorted(g.nodes)
        r.shuffle(names)
        a, b = {names[0]}, {names[1]}
        rest = names[2:]
        z = {v for v in rest if r.random() < 0.4}
        assert d_separated(g, a, b, z) == gen.dsep_path_oracle(g, a, b, z)


# --- c-components ----------------------------------------------------------------


def test_c_components_no_bidirected():
    comps = c_components(BACKDOOR)
    assert comps == (frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}))


def test_c_components_bow():
    g = parse_graph("var X\nvar Y\nX -> Y\nX <-> Y")
    assert c_components(g) == (frozenset({"X", "Y"}),)


def test_c_components_transitive():
    g = parse_graph("var X\nvar Y\nvar Z\nX <-> Y\nY <-> Z")
    assert c_components(g) == (frozenset({"X", "Y", "Z"}),)


def test_c_components_is_partition():
    r = gen.rng(11)
    for _ in range(50):
        g = gen.random_admg(r, int(r.integers(2, 8)))
        comps = c_components(g)
        assert comps == gen.c_components_by_min(g)
        union = set()
        for comp in comps:
            assert not (union & comp)
            union |= comp
        assert union == g.nodes


# --- testable implications --------------------------------------------------------


def test_complete_graph_has_no_testable_implications():
    assert testable_implications(BACKDOOR) == []


def test_chain_implication():
    g = parse_graph("var X\nvar Y\nvar Z\nX -> Z\nZ -> Y")
    assert testable_implications(g) == [
        CiStatement(frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}))
    ]


def test_fork_implication():
    g = parse_graph("var X\nvar Y\nvar Z\nZ -> X\nZ -> Y")
    assert testable_implications(g) == [
        CiStatement(frozenset({"X"}), frozenset({"Y"}), frozenset({"Z"}))
    ]


def test_emitted_statements_separate():
    r = gen.rng(13)
    for _ in range(40):
        g = gen.random_admg(r, int(r.integers(3, 7)))
        for st in testable_implications(g):
            assert d_separated(g, st.left, st.right, st.given)


def test_implications_hold_in_compatible_models():
    r = gen.rng(17)
    for _ in range(25):
        g = gen.random_admg(r, int(r.integers(3, 6)), p_dir=0.4, p_bi=0.2, max_bi=3)
        statements = testable_implications(g)
        if not statements:
            continue
        m = gen.scm_for_admg(g, r)
        joint = observational_joint(m)
        for st in statements:
            (u,) = st.left
            (v,) = st.right
            zs = sorted(st.given)
            for zvals in itertools.product(*(joint.domains[z] for z in zs)):
                ctx = dict(zip(zs, zvals))
                pz = joint.prob(ctx)
                for uv in joint.domains[u]:
                    for vv in joint.domains[v]:
                        puvz = joint.prob({**ctx, u: uv, v: vv})
                        puz = joint.prob({**ctx, u: uv})
                        pvz = joint.prob({**ctx, v: vv})
                        assert abs(puvz * pz - puz * pvz) <= 1e-12


def test_implications_match_exhaustive_search():
    r = gen.rng(29)
    for _ in range(1500):
        g = gen.random_admg(r, int(r.integers(3, 8)))
        assert testable_implications(g) == gen.testable_implications_by_search(g)


def test_pair_without_separator_costs_one_test(monkeypatch):
    # U <-> W <-> V with W -> V is an inducing path, so (U, V) has no
    # separator among its 15 candidates; each other nonadjacent pair is
    # separated by the empty set
    parents = [f"P{i:02d}" for i in range(14)]
    g = parse_graph(
        "".join(f"var {v}\n" for v in parents + ["U", "V", "W"])
        + "".join(f"{p} -> U\n" for p in parents)
        + "U <-> W\nW <-> V\nW -> V\n"
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return d_separated(*args)

    monkeypatch.setattr(graph_module, "d_separated", counted)
    statements = testable_implications(g)
    assert len(statements) == 119
    assert all(not s.given for s in statements)
    assert len(calls) <= 2 * 120


def test_separating_sets_are_smallest_then_lexicographic():
    g = parse_graph(
        "var A\nvar B\nvar C\nvar D\nA -> C\nB -> C\nC -> D\nA -> D"
    )
    # for (B, D): {A} fails, {C} opens the collider at C, so {A, C} is the
    # smallest separator; for (A, B) the empty set works
    stmts = {
        (tuple(sorted(s.left)), tuple(sorted(s.right))): s.given
        for s in testable_implications(g)
    }
    assert stmts[(("A",), ("B",))] == frozenset()
    assert stmts[(("B",), ("D",))] == frozenset({"A", "C"})


# --- structure helpers ---------------------------------------------------------


def test_topological_order_lexicographic_tie_break():
    g = parse_graph("var B\nvar A\nvar C\nA -> C\nB -> C")
    assert g.topological_order() == ("A", "B", "C")


def test_long_chain_and_cycle_need_no_recursion():
    names = [f"V{i}" for i in range(3000)]
    chain = list(zip(names, names[1:]))
    g = Admg(names, chain)
    assert g.topological_order() == tuple(names)
    assert g.ancestors([names[-1]]) == g.descendants([names[0]]) == frozenset(names)
    with pytest.raises(CycleError) as info:
        Admg(names, chain + [(names[-1], names[0])])
    assert info.value.cycle == names + [names[0]]


def test_ancestors_descendants():
    g = parse_graph("var X\nvar Y\nvar Z\nX -> Y\nY -> Z")
    assert g.ancestors({"Z"}) == {"X", "Y", "Z"}
    assert g.descendants({"X"}) == {"X", "Y", "Z"}
    assert g.ancestors({"X"}) == {"X"}


def test_without_outgoing_keeps_bidirected():
    g = parse_graph("var X\nvar Y\nX -> Y\nX <-> Y")
    pruned = g.without_outgoing({"X"})
    assert not pruned.directed
    assert pruned.bidirected == {("X", "Y")}


def test_graphs_are_hashable_and_equal_by_structure():
    g1 = parse_graph("var X\nvar Y\nX -> Y")
    g2 = parse_graph("var Y\nvar X\nX -> Y")
    assert g1 == g2
    assert hash(g1) == hash(g2)
