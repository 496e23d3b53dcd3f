import itertools
import sys

import pytest

import gen
from scmkit.expr import Val, _walk, eval_estimand, free_variables, render, simplify
from scmkit.graph import Admg, UnknownVariable, parse_graph
from scmkit.identify import (
    CausalQuery,
    Identified,
    NonIdentifiable,
    QueryError,
    QueryTerm,
    backdoor_sets,
    identify,
    nonidentifiability_witness,
    parse_query,
    query_layer,
)
from scmkit.scm import intervene, observational_joint

BACKDOOR = parse_graph("var X\nvar Y\nvar Z\nZ -> X\nZ -> Y\nX -> Y\n")
BOW = parse_graph("var X\nvar Y\nX -> Y\nX <-> Y\n")
FRONTDOOR = parse_graph("var X\nvar M\nvar Y\nX -> M\nM -> Y\nX <-> Y\n")


def interventional(m, x, xv, y, yv):
    return observational_joint(intervene(m, {x: xv})).prob({y: yv})


# --- layer classification ----------------------------------------------------------


def test_layer_1_association():
    assert query_layer(parse_query("P(y|x)")) == 1


def test_layer_2_intervention():
    assert query_layer(parse_query("P(y|do(x),z)")) == 2


def test_layer_3_counterfactual():
    q = CausalQuery(
        outcome=(QueryTerm("Y", "y", dos=(("X", "x"),)),),
        condition=(QueryTerm("X", "xp"), QueryTerm("Y", "yp")),
    )
    assert query_layer(q) == 3


def test_layer_3_text_form():
    q = parse_query("P(Y_{X=1}=1 | X=0, Y=0)")
    assert query_layer(q) == 3
    assert q.outcome[0].dos == (("X", "1"),)
    assert q.condition == (
        QueryTerm("X", "0", literal=True),
        QueryTerm("Y", "0", literal=True),
    )


def test_query_disjointness_enforced_for_interventional():
    with pytest.raises(QueryError, match="disjoint"):
        parse_query("P(y | do(y))")


def test_query_rejects_repeated_variables():
    with pytest.raises(QueryError, match="repeated"):
        parse_query("P(y, Y=1)")


def test_query_parse_explicit_values():
    q = parse_query("P(Y=1 | do(X=0), Z)")
    assert q.outcome == (QueryTerm("Y", "1", literal=True),)
    assert q.do == (QueryTerm("X", "0", literal=True),)
    assert q.condition == (QueryTerm("Z", "z"),)


# --- back-door sets ------------------------------------------------------------------


def test_backdoor_confounded_triangle():
    assert backdoor_sets(BACKDOOR, "X", "Y") == [frozenset({"Z"})]


def test_backdoor_no_confounding():
    g = parse_graph("var X\nvar Y\nX -> Y")
    assert backdoor_sets(g, "X", "Y") == [frozenset()]


def test_backdoor_excludes_descendants():
    g = parse_graph("var X\nvar W\nvar Y\nX -> W\nW -> Y\nX -> Y")
    assert backdoor_sets(g, "X", "Y") == [frozenset()]


def test_backdoor_none_for_bow():
    assert backdoor_sets(BOW, "X", "Y") == []


def test_backdoor_minimality_and_order():
    g = parse_graph(
        "var X\nvar Y\nvar A\nvar B\n"
        "A -> X\nA -> Y\nB -> X\nB -> Y\nX -> Y"
    )
    sets = backdoor_sets(g, "X", "Y")
    assert sets == [frozenset({"A", "B"})]


def test_backdoor_sets_match_brute_force_listing():
    r = gen.rng(36)
    listed = 0
    for _ in range(120):
        g = gen.random_admg(r, int(r.integers(3, 6)))
        for x, y in itertools.permutations(sorted(g.nodes), 2):
            sets = backdoor_sets(g, x, y)
            assert sets == gen.backdoor_sets_by_search(g, x, y), (g, x, y)
            listed += len(sets) > 1
    assert listed  # some pair has more than one minimal set


# --- identification golden cases -----------------------------------------------------


def test_backdoor_adjustment_estimand_exact():
    res = identify(BACKDOOR, parse_query("P(Y|do(X))"))
    assert isinstance(res, Identified)
    assert render(simplify(res.estimand)) == "sum_{z} P(y|x,z) * P(z)"


def test_bow_not_identifiable_with_hedge():
    res = identify(BOW, parse_query("P(Y|do(X))"))
    assert isinstance(res, NonIdentifiable)
    assert res.hedge_forest == {"X", "Y"}
    assert res.hedge_subforest == {"Y"}


def test_layer3_query_rejected():
    q = CausalQuery(outcome=(QueryTerm("Y", "y", dos=(("X", "1"),)),))
    with pytest.raises(QueryError, match="layer-3|counterfactual"):
        identify(BOW, q)


def test_unknown_query_variable():
    with pytest.raises(UnknownVariable):
        identify(BACKDOOR, parse_query("P(Q|do(X))"))


def test_layer1_query_identity():
    res = identify(BACKDOOR, parse_query("P(y|z)"))
    assert isinstance(res, Identified)
    assert render(res.estimand) == "P(y|z)"


def test_frontdoor_estimand_evaluates_correctly():
    r = gen.rng(31)
    q = parse_query("P(Y|do(X))")
    res = identify(FRONTDOOR, q)
    assert isinstance(res, Identified)
    for _ in range(500):
        m = gen.scm_for_admg(FRONTDOOR, r)
        j = observational_joint(m)
        for xv, yv in itertools.product(("0", "1"), repeat=2):
            got = eval_estimand(res.estimand, j, {"X": xv, "Y": yv})
            want = interventional(m, "X", xv, "Y", yv)
            assert got == pytest.approx(want, abs=1e-9)


def test_identify_soundness_sweep_quick():
    # the 1,000-pair sweep at <= 6 nodes runs in the acceptance suite
    r = gen.rng(32)
    identified = 0
    for _ in range(250):
        n = int(r.integers(2, 6))
        g = gen.random_admg(r, n, p_dir=float(r.uniform(0.2, 0.6)),
                            p_bi=float(r.uniform(0.1, 0.5)), max_bi=3)
        names = sorted(g.nodes)
        idx = r.choice(len(names), size=2, replace=False)
        x, y = names[idx[0]], names[idx[1]]
        res = identify(g, parse_query(f"P({y}|do({x}))"))
        if isinstance(res, NonIdentifiable):
            continue
        identified += 1
        m = gen.scm_for_admg(g, r)
        j = observational_joint(m)
        for xv, yv in itertools.product(("0", "1"), repeat=2):
            got = eval_estimand(res.estimand, j, {x: xv, y: yv})
            want = interventional(m, x, xv, y, yv)
            assert got == pytest.approx(want, abs=1e-9)
    assert identified >= 100


def test_conditional_interventional_query():
    r = gen.rng(33)
    q = parse_query("P(Y | do(X), Z)")
    res = identify(BACKDOOR, q)
    assert isinstance(res, Identified)
    for _ in range(40):
        m = gen.scm_for_admg(BACKDOOR, r)
        j = observational_joint(m)
        for xv, yv, zv in itertools.product(("0", "1"), repeat=3):
            got = eval_estimand(res.estimand, j, {"X": xv, "Y": yv, "Z": zv})
            jd = observational_joint(intervene(m, {"X": xv}))
            want = jd.prob({"Y": yv, "Z": zv}) / jd.prob({"Z": zv})
            assert got == pytest.approx(want, abs=1e-9)


def test_multi_outcome_query():
    r = gen.rng(34)
    q = parse_query("P(Y, Z | do(X))")
    res = identify(BACKDOOR, q)
    assert isinstance(res, Identified)
    for _ in range(25):
        m = gen.scm_for_admg(BACKDOOR, r)
        j = observational_joint(m)
        for xv, yv, zv in itertools.product(("0", "1"), repeat=3):
            got = eval_estimand(res.estimand, j, {"X": xv, "Y": yv, "Z": zv})
            want = observational_joint(intervene(m, {"X": xv})).prob(
                {"Y": yv, "Z": zv}
            )
            assert got == pytest.approx(want, abs=1e-9)


def test_adjustment_matches_identify_whenever_backdoor_exists():
    r = gen.rng(35)
    checked = 0
    while checked < 40:
        g = gen.random_admg(r, int(r.integers(3, 6)), p_dir=0.45, p_bi=0.25, max_bi=2)
        names = sorted(g.nodes)
        idx = r.choice(len(names), size=2, replace=False)
        x, y = names[idx[0]], names[idx[1]]
        sets = backdoor_sets(g, x, y)
        if not sets:
            continue
        res = identify(g, parse_query(f"P({y}|do({x}))"))
        assert isinstance(res, Identified)
        checked += 1
        m = gen.scm_for_admg(g, r)
        j = observational_joint(m)
        for zset in sets:
            adj = gen.adjustment_estimand(x, y, zset)
            for xv, yv in itertools.product(("0", "1"), repeat=2):
                binding = {x: xv, y: yv}
                a = eval_estimand(adj, j, binding)
                b = eval_estimand(res.estimand, j, binding)
                assert a == pytest.approx(b, abs=1e-9)


def test_identified_free_variables_subset_of_query():
    r = gen.rng(36)
    for _ in range(150):
        g = gen.random_admg(r, int(r.integers(2, 6)))
        names = sorted(g.nodes)
        idx = r.choice(len(names), size=2, replace=False)
        x, y = names[idx[0]], names[idx[1]]
        res = identify(g, parse_query(f"P({y}|do({x}))"))
        if isinstance(res, Identified):
            assert free_variables(res.estimand) <= {x, y}


def test_do_on_nonancestor_gives_marginal():
    g = parse_graph("var X\nvar Y\nY -> X")
    res = identify(g, parse_query("P(Y|do(X))"))
    assert isinstance(res, Identified)
    assert render(simplify(res.estimand)) == "P(y)"


def test_double_intervention_query():
    r = gen.rng(38)
    q = parse_query("P(Y | do(X), do(Z))")
    res = identify(BACKDOOR, q)
    assert isinstance(res, Identified)
    for _ in range(25):
        m = gen.scm_for_admg(BACKDOOR, r)
        j = observational_joint(m)
        for xv, yv, zv in itertools.product(("0", "1"), repeat=3):
            got = eval_estimand(res.estimand, j, {"X": xv, "Y": yv, "Z": zv})
            want = observational_joint(intervene(m, {"X": xv, "Z": zv})).prob(
                {"Y": yv}
            )
            assert got == pytest.approx(want, abs=1e-9)


# --- nonidentifiability witness ------------------------------------------------------


def test_bow_witness_pair():
    w = nonidentifiability_witness(BOW, "X", "Y")
    assert w is not None
    assert w.observational_gap <= 1e-9
    assert w.interventional_gap >= 1e-3


def test_witness_found_for_small_nonidentifiable_graphs():
    r = gen.rng(37)
    cases = 0
    tried = set()
    while cases < 12:
        g = gen.random_admg(r, 4, p_dir=0.45, p_bi=0.4, max_bi=3)
        names = sorted(g.nodes)
        idx = r.choice(len(names), size=2, replace=False)
        x, y = names[idx[0]], names[idx[1]]
        key = (g, x, y)
        if key in tried:
            continue
        tried.add(key)
        res = identify(g, parse_query(f"P({y}|do({x}))"))
        if isinstance(res, Identified):
            continue
        w = nonidentifiability_witness(g, x, y)
        assert w is not None, f"no witness for {g!r}, do({x}) -> {y}"
        assert w.observational_gap <= 1e-9
        assert w.interventional_gap >= 1e-3
        # the two models agree observationally by an independent enumeration
        for values in itertools.product(("0", "1"), repeat=len(names)):
            cell = dict(zip(names, values))
            assert gen.brute_marginal(w.model_a, cell) == pytest.approx(
                gen.brute_marginal(w.model_b, cell), abs=1e-9
            )
        cases += 1


def test_witness_takes_only_reduced_svds(monkeypatch):
    # a full SVD of the moment map is T x T for T response types of the
    # varied edge, which reaches gigabytes well below the type limit
    import numpy as np

    svd, full = np.linalg.svd, []

    def recording(a, full_matrices=True, **kwargs):
        full.append(full_matrices)
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    nodes = "var A\nvar B\nvar C\nvar D\n"
    cases = [
        (BOW, "X", "Y"),
        (parse_graph(nodes + "A->B\nA->D\nB->C\nC->D\nA<->B\nA<->C\nA<->D"), "A", "B"),
        (parse_graph(nodes + "A->D\nC->D\nB<->C\nB<->D\nC<->D"), "C", "D"),
    ]
    for g, x, y in cases:
        assert nonidentifiability_witness(g, x, y) is not None
    assert full and not any(full)


def test_identify_matches_the_recursive_walks_on_random_admg_queries(monkeypatch):
    identify_module = sys.modules[identify.__module__]
    r = gen.rng(39)
    pairs, shown = [], set()
    while len(pairs) < 2000:
        g = gen.random_admg(r, int(r.integers(2, 7)))
        q = parse_query(gen.random_query_text(r, sorted(g.nodes)))
        res = identify(g, q)
        if isinstance(res, Identified):
            pairs.append((g, q, res.estimand))

    def standardize(e, env, used):  # a visit that asks ``_walk`` for no sub-walk
        return gen.standardize_by_recursion(e, env, used)
        yield

    monkeypatch.setattr(identify_module, "_standardize", standardize)
    for g, q, got in pairs:
        want = identify(g, q).estimand
        assert got is want
        assert render(got) == gen.render_by_recursion(want)
        text = render(simplify(got))
        assert text == gen.render_by_recursion(gen.simplify_by_recursion(want))
        shown.add(text)
    assert len(shown) > 500


def test_id_on_node_sets_matches_the_recursion_that_builds_subgraphs():
    identify_module = sys.modules[identify.__module__]
    _Dist, _Hedge, _id = identify_module._Dist, identify_module._Hedge, identify_module._id
    r = gen.rng(43)
    hedges = 0
    for _ in range(2000):
        g = gen.random_admg(r, int(r.integers(2, 8)))
        names = sorted(g.nodes)
        r.shuffle(names)
        n_y = int(r.integers(1, min(2, len(names) - 1) + 1))
        n_x = int(r.integers(1, min(3, len(names) - n_y) + 1))
        y, x = frozenset(names[:n_y]), frozenset(names[n_y:n_y + n_x])
        p0 = _Dist(g.topological_order(), identify_module._pt(g.nodes))
        try:
            want = gen.id_by_subgraphs(y, x, p0, g)
        except _Hedge as h:
            with pytest.raises(_Hedge) as got:
                _walk(_id, y, x, p0, g.nodes, g)
            assert (got.value.forest, got.value.subforest) == (h.forest, h.subforest)
            hedges += 1
        else:
            assert _walk(_id, y, x, p0, g.nodes, g) is want
    assert hedges > 200


def test_identify_builds_no_graph(monkeypatch):
    n = 200
    chain = Admg([f"V{i}" for i in range(n)], [(f"V{i}", f"V{i + 1}") for i in range(n - 1)])
    built = []
    init = Admg.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Admg, "__init__", counting)
    assert isinstance(identify(BOW, parse_query("P(Y|do(X))")), NonIdentifiable)
    assert isinstance(identify(FRONTDOOR, parse_query("P(Y|do(X))")), Identified)
    assert isinstance(identify(chain, parse_query(f"P(V{n - 1}|do(V0))")), Identified)
    assert built == []
    Admg(["A"])  # the count sees a construction
    assert len(built) == 1


def test_standardize_restores_each_binder_it_shadows():
    # every sum rebinds a variable that is free outside it, and a later
    # sibling must see the free symbol again
    standardize = sys.modules[identify.__module__]._standardize
    r = gen.rng(41)
    names = ["X", "Y", "Z"]
    free = {v: Val(v, v.lower()) for v in names}
    for _ in range(500):
        e = gen.random_estimand(r, names, depth=int(r.integers(1, 5)))
        env = dict(free)
        got = _walk(standardize, e, env, {"x", "y", "z"})
        assert got is gen.standardize_by_recursion(e, free, {"x", "y", "z"})
        assert env == free


def test_conditional_backdoor_query_names_its_denominator_binder_fresh():
    res = identify(BACKDOOR, parse_query("P(Y|do(X),Z)"))
    assert render(res.estimand) == "(P(y|x,z) * P(z)) / (sum_{y2} P(Y=y2|x,z) * P(z))"
    assert render(simplify(res.estimand)) == "P(y|x,z)"
