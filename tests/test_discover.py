import itertools

import pytest

import gen
import scmkit.estimate as estimate_module
from scmkit.discover import (
    Cpdag,
    DataOracle,
    DiscoveryError,
    GraphOracle,
    discover_cpdag,
    render_cpdag,
)
from scmkit.estimate import DataError, Dataset, MissingDataPresent
from scmkit.fitcheck import fit_indices
from scmkit.graph import parse_graph
from scmkit.scm import parse_scm, sample


def collider_graph():
    return parse_graph("var X\nvar Y\nvar Z\nX -> Z\nY -> Z\n")


def chain_graph():
    return parse_graph("var X\nvar Y\nvar Z\nX -> Z\nZ -> Y\n")


# --- oracle mode -----------------------------------------------------------------


def test_collider_is_oriented():
    c = discover_cpdag(GraphOracle(collider_graph()), ["X", "Y", "Z"])
    assert c.directed == {("X", "Z"), ("Y", "Z")}
    assert not c.undirected


def test_chain_stays_undirected():
    c = discover_cpdag(GraphOracle(chain_graph()), ["X", "Y", "Z"])
    assert not c.directed
    assert c.undirected == {("X", "Z"), ("Y", "Z")}


def test_isolated_variables_give_edgeless_cpdag():
    g = parse_graph("var A\nvar B\n")
    c = discover_cpdag(GraphOracle(g), ["A", "B"])
    assert not c.directed and not c.undirected


def test_output_independent_of_variable_order():
    g = collider_graph()
    a = discover_cpdag(GraphOracle(g), ["X", "Y", "Z"])
    b = discover_cpdag(GraphOracle(g), ["Z", "X", "Y"])
    c = discover_cpdag(GraphOracle(g), ["Y", "Z", "X"])
    assert a == b == c


def test_exhaustive_small_dags_match_class_enumeration():
    # the 5-node exhaustive check runs in the acceptance suite
    for n in (2, 3, 4):
        names = gen.NAMES[:n]
        groups = {}
        for dag in gen.all_dags(names):
            sig = gen.dsep_signature(dag, names)
            groups.setdefault(sig, []).append(dag)
        for sig, dags in groups.items():
            want_dir, want_und = gen.cpdag_from_class(dags)
            oracle = gen.SignatureOracle(names, sig)
            got = discover_cpdag(oracle, names)
            assert got.directed == want_dir, dags[0]
            assert got.undirected == want_und, dags[0]


def test_propagation_rule_one():
    # A -> B - C with A, C nonadjacent must orient B -> C
    g = parse_graph(
        "var A\nvar B\nvar C\nvar D\nA -> B\nD -> B\nB -> C\n"
    )
    c = discover_cpdag(GraphOracle(g), ["A", "B", "C", "D"])
    assert ("B", "C") in c.directed


class QuestionLog(GraphOracle):
    """A graph oracle that records every question put to it."""

    def __init__(self, g):
        super().__init__(g)
        self.asked = []

    def independent(self, u, v, given):
        self.asked.append((u, v, given))
        return super().independent(u, v, given)


def test_each_question_is_asked_once_in_sorted_pair_order():
    r = gen.rng(81)
    for _ in range(60):
        g = gen.random_dag(r, int(r.integers(6, 9)), p_dir=0.35)
        oracle = QuestionLog(g)
        c = discover_cpdag(oracle, g.nodes)
        assert all(u < v for u, v, _ in oracle.asked)
        assert len(set(oracle.asked)) == len(oracle.asked)
        # the output is still the graph's CPDAG: its skeleton, with every
        # collider directed and no edge directed against the graph
        skeleton = {frozenset(e) for e in g.directed}
        assert {frozenset(e) for e in c.directed | c.undirected} == skeleton
        assert c.directed <= g.directed
        for w in g.nodes:
            for u, v in itertools.combinations(sorted(g.parents(w)), 2):
                if frozenset((u, v)) not in skeleton:
                    assert {(u, w), (v, w)} <= c.directed


# --- data mode --------------------------------------------------------------------


def collider_scm(noise=0.05):
    # noisy OR: faithful to the collider DAG (a parity gate would not be)
    return parse_scm(
        "\n".join(
            [
                "exo UX {0: 0.5, 1: 0.5}",
                "exo UY {0: 0.5, 1: 0.5}",
                f"exo UZ {{0: {1 - noise}, 1: {noise}}}",
                "endo X (UX) {(0) -> 0, (1) -> 1}",
                "endo Y (UY) {(0) -> 0, (1) -> 1}",
                "endo Z (X, Y, UZ) {(0,0,0) -> 0, (0,0,1) -> 1, (0,1,0) -> 1,"
                " (0,1,1) -> 0, (1,0,0) -> 1, (1,0,1) -> 0, (1,1,0) -> 1, (1,1,1) -> 0}",
            ]
        )
    )


def test_data_mode_recovers_collider():
    m = collider_scm()
    hits = 0
    runs = 100
    for seed in range(runs):
        d = sample(m, 100_000, seed=seed)
        try:
            c = discover_cpdag(DataOracle(d, alpha=0.01), ["X", "Y", "Z"])
        except DiscoveryError:
            continue
        if c.directed == {("X", "Z"), ("Y", "Z")} and not c.undirected:
            hits += 1
    assert hits >= 95


def test_data_oracle_is_deterministic():
    m = collider_scm()
    d = sample(m, 20_000, seed=5)
    a = discover_cpdag(DataOracle(d, alpha=0.05), ["X", "Y", "Z"])
    b = discover_cpdag(DataOracle(d, alpha=0.05), ["X", "Y", "Z"])
    assert a == b


def test_data_runs_group_the_rows_of_the_dataset_once(monkeypatch):
    # 2,000 rows of three binary columns: sampling groups its at most 8
    # distinct rows once, and every G-squared test reads them from the
    # dataset's own lists without grouping rows again
    sizes = []

    def counting(coded, counts, grouped=estimate_module._grouped):
        sizes.append(len(coded))
        return grouped(coded, counts)

    monkeypatch.setattr(estimate_module, "_grouped", counting)
    d = sample(collider_scm(), 2000, seed=3)
    assert sizes == [len(d._count)] and len(d._count) <= 8
    c = discover_cpdag(DataOracle(d), d.columns)
    assert c.directed == {("X", "Z"), ("Y", "Z")}
    fit_indices(collider_graph(), d)
    assert sizes == [len(d._count)]


def test_data_oracle_refuses_alpha_outside_unit_interval():
    d = sample(collider_scm(), 100, seed=1)
    for alpha in (-1.0, 0.0, 1.0, 5.0):
        with pytest.raises(DataError, match=r"alpha must be in \(0, 1\)"):
            DataOracle(d, alpha=alpha)


# --- structure and rendering --------------------------------------------------------


def test_data_oracle_refuses_missing_cells():
    d = Dataset(("X", "Y", "Z"), (("0", "1", "0"), ("1", None, "1"), ("0", "0", "1")))
    with pytest.raises(MissingDataPresent, match="column Y has missing cells"):
        discover_cpdag(DataOracle(d), d.columns)


def test_cpdag_rejects_conflicting_edges():
    with pytest.raises(DiscoveryError):
        Cpdag(frozenset({"A", "B"}), frozenset({("A", "B")}), frozenset({("A", "B")}))


def test_cpdag_rejects_directed_cycles():
    with pytest.raises(DiscoveryError):
        Cpdag(
            frozenset({"A", "B"}),
            frozenset({("A", "B"), ("B", "A")}),
            frozenset(),
        )


def test_needs_two_variables():
    with pytest.raises(DiscoveryError):
        discover_cpdag(GraphOracle(parse_graph("var A\n")), ["A"])


def test_render_format():
    c = discover_cpdag(GraphOracle(collider_graph()), ["X", "Y", "Z"])
    assert render_cpdag(c) == "var X\nvar Y\nvar Z\nX -> Z\nY -> Z\n"
    c2 = discover_cpdag(GraphOracle(chain_graph()), ["X", "Y", "Z"])
    assert render_cpdag(c2) == "var X\nvar Y\nvar Z\nX -- Z\nY -- Z\n"
