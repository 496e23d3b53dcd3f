import io
import itertools

import pytest

import gen
from scmkit.estimate import Dataset, DataError, load_table, plug_in
from scmkit.expr import ConditioningOnZero, parse_estimand, render
from scmkit.graph import Admg, GraphError, parse_graph
from scmkit.recover import (
    MGraph,
    NotRecoverable,
    NotRecoverableError,
    Recoverable,
    _augmented_joint,
    parse_mgraph,
    recover_estimate,
    recoverability,
)
from scmkit.scm import observational_joint, parse_scm, sample


def mar_mgraph():
    return parse_mgraph(
        "var X\nvar Y\nX -> Y\nmissing Y\nX -> R_Y\n"
    )


def apply_missingness(d: Dataset, column: str, miss_prob_by_x: dict, x_col: str, seed: int):
    """Delete cells of `column` with a probability depending on `x_col`."""
    import numpy as np

    r = np.random.default_rng(seed)
    ci = d.column_index(column)
    xi = d.column_index(x_col)
    rows = []
    for row in d.rows:
        if r.random() < miss_prob_by_x[row[xi]]:
            row = row[:ci] + (None,) + row[ci + 1:]
        rows.append(row)
    return Dataset(d.columns, tuple(rows))


def apply_mcar(d: Dataset, column: str, p: float, seed: int):
    import numpy as np

    r = np.random.default_rng(seed)
    ci = d.column_index(column)
    rows = []
    for row in d.rows:
        if r.random() < p:
            row = row[:ci] + (None,) + row[ci + 1:]
        rows.append(row)
    return Dataset(d.columns, tuple(rows))


# --- m-graph structure ---------------------------------------------------------


def test_parse_mgraph():
    mg = mar_mgraph()
    assert mg.partial == {"Y"}
    assert mg.substantive == {"X", "Y"}
    assert ("X", "R_Y") in mg.graph.directed


def test_indicator_may_not_cause_substantive_variables():
    g = parse_graph("var X\nvar Y\nvar R_Y\nR_Y -> X\n")
    with pytest.raises(GraphError, match="may not cause"):
        MGraph(g, frozenset({"Y"}))


def test_missing_declaration_requires_declared_variable():
    with pytest.raises(GraphError, match="undeclared"):
        parse_mgraph("var X\nmissing Y\n")


@pytest.mark.parametrize("text", [
    "var X\nvar Y\nX -> Y\nmissing Y\nX -> R_Y\nmissing R_Y\n",
    "var X\nvar Y\nX -> Y\nmissing R_Y\nmissing Y\n",
], ids=["with an edge into the indicator", "declared before its variable"])
def test_missing_declaration_may_not_name_an_indicator(text):
    # without the check the first failed in d-separation and the second when
    # the estimand read an indicator R_R_Y that no data column gives
    with pytest.raises(GraphError) as info:
        parse_mgraph(text)
    assert str(info.value) == "missing R_Y: R_Y is the missingness indicator of Y"


# --- recoverability criteria ------------------------------------------------------


def test_isolated_indicator_is_mcar():
    mg = parse_mgraph("var X\nvar Y\nX -> Y\nmissing Y\n")
    res = recoverability(mg, {"X", "Y"})
    assert isinstance(res, Recoverable)
    assert res.criterion == "mcar"
    assert render(res.estimand) == "P(x,y|R_Y=obs)"


def test_self_masking_not_recoverable():
    mg = parse_mgraph("var X\nvar Y\nX -> Y\nmissing Y\nY -> R_Y\n")
    res = recoverability(mg, {"Y"})
    assert isinstance(res, NotRecoverable)
    assert "no implemented criterion" in res.reason


def test_mar_estimand_form():
    res = recoverability(mar_mgraph(), {"Y"})
    assert isinstance(res, Recoverable)
    assert res.criterion == "mar"
    assert render(res.estimand) == "sum_{x} P(y|x,R_Y=obs) * P(x)"


def test_fully_observed_target_needs_no_indicators():
    res = recoverability(mar_mgraph(), {"X"})
    assert isinstance(res, Recoverable)
    assert render(res.estimand) == "P(x)"


def test_target_outside_substantive_rejected():
    with pytest.raises(GraphError, match="target"):
        recoverability(mar_mgraph(), {"Q"})


def test_ordered_factorization_two_sided():
    # Y's missingness depends on X; X's missingness depends on nothing
    mg = parse_mgraph(
        "var X\nvar Y\nX -> Y\nmissing X\nmissing Y\nX -> R_Y\n"
    )
    res = recoverability(mg, {"X", "Y"})
    assert isinstance(res, Recoverable)
    assert res.criterion == "ordered-factorization"
    assert (
        render(res.estimand)
        == "P(x|R_X=obs) * P(y|x,R_X=obs,R_Y=obs)"
    )


def test_monotone_under_added_indicator_edges():
    # exhaustive 3-node enumeration: X, Y, R_Y
    base_edge_options = [
        [],
        [("X", "Y")],
        [("Y", "X")],
    ]
    bi_options = [[], [("X", "Y")]]
    r_parent_options = [
        [],
        [("X", "R_Y")],
        [("Y", "R_Y")],
        [("X", "R_Y"), ("Y", "R_Y")],
    ]
    for base, bi, r_parents in itertools.product(
        base_edge_options, bi_options, r_parent_options
    ):
        g = Admg(["X", "Y", "R_Y"], base + r_parents, bi)
        mg = MGraph(g, frozenset({"Y"}))
        res = recoverability(mg, {"Y"})
        if isinstance(res, Recoverable):
            continue
        # add any further edge into R_Y: must stay not recoverable
        for extra in (("X", "R_Y"), ("Y", "R_Y")):
            if extra in g.directed:
                continue
            g2 = Admg(g.nodes, set(g.directed) | {extra}, g.bidirected)
            res2 = recoverability(MGraph(g2, frozenset({"Y"})), {"Y"})
            assert isinstance(res2, NotRecoverable)


# --- recovered estimates ------------------------------------------------------------


def mar_scm():
    # strong X -> Y so complete-case analysis is visibly biased
    return parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\n"
        "exo UY {0: 0.85, 1: 0.15}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}"
    )


def test_mcar_recovery_close_to_full_data_value():
    m = mar_scm()
    d_full = sample(m, 100_000, seed=71)
    truth = plug_in(parse_estimand("P(Y=1)"), d_full).value
    d_miss = apply_mcar(d_full, "Y", 0.3, seed=72)
    mg = parse_mgraph("var X\nvar Y\nX -> Y\nmissing Y\n")
    est = recover_estimate(mg, d_miss, {"Y": "1"})
    assert abs(est.value - truth) < 0.01


def test_mar_recovery_beats_complete_case():
    m = mar_scm()
    n = 100_000
    d_full = sample(m, n, seed=73)
    truth = plug_in(parse_estimand("P(Y=1)"), d_full).value
    # missingness depends strongly on X
    d_miss = apply_missingness(d_full, "Y", {"0": 0.05, "1": 0.6}, "X", seed=74)
    est = recover_estimate(mar_mgraph(), d_miss, {"Y": "1"})
    complete = [row for row in d_miss.rows if row[1] is not None]
    naive = sum(1 for row in complete if row[1] == "1") / len(complete)
    assert abs(naive - truth) > 0.05
    assert abs(est.value - truth) < 0.015


def test_complete_data_recovery_equals_plug_in():
    m = mar_scm()
    d = sample(m, 5000, seed=75)
    est = recover_estimate(mar_mgraph(), d, {"Y": "1"})
    want = plug_in(parse_estimand("P(Y=1)"), d).value
    assert est.value == pytest.approx(want, abs=1e-12)


def test_recover_estimate_requires_recoverability():
    mg = parse_mgraph("var X\nvar Y\nX -> Y\nmissing Y\nY -> R_Y\n")
    d = load_table(io.StringIO("X,Y\n0,1\n1,NA\n"))
    with pytest.raises(NotRecoverableError):
        recover_estimate(mg, d, {"Y": "1"})


def test_unexpected_missing_column_rejected():
    mg = mar_mgraph()
    d = load_table(io.StringIO("X,Y\nNA,1\n0,0\n"))
    with pytest.raises(DataError, match="fully observed"):
        recover_estimate(mg, d, {"Y": "1"})


def test_recovery_across_mechanisms_and_sizes():
    m = mar_scm()
    mechanisms = {
        "mcar": lambda d, seed: apply_mcar(d, "Y", 0.25, seed),
        "mar": lambda d, seed: apply_missingness(
            d, "Y", {"0": 0.1, "1": 0.45}, "X", seed
        ),
        "mild": lambda d, seed: apply_missingness(
            d, "Y", {"0": 0.2, "1": 0.3}, "X", seed
        ),
    }
    mg = mar_mgraph()
    truth = observational_joint(m).prob({"Y": "1"})
    for name, mech in mechanisms.items():
        errors = []
        for n, tol in ((2000, 0.08), (20_000, 0.03), (100_000, 0.015)):
            d_full = sample(m, n, seed=hash(name) % 1000 + n)
            d_miss = mech(d_full, seed=n + 1)
            est = recover_estimate(mg, d_miss, {"Y": "1"})
            errors.append(abs(est.value - truth))
            assert errors[-1] < tol, (name, n)


# --- missing cells outside every domain -----------------------------------------


def test_sum_over_partially_observed_variable():
    mg = parse_mgraph(gen.TWO_SIDED)
    d = Dataset(("X", "Y"), tuple(gen.TWO_SIDED_ROWS))
    res = recoverability(mg, {"Y"})
    assert render(res.estimand) == "sum_{x} P(x|R_X=obs) * P(y|x,R_X=obs,R_Y=obs)"
    for y in ("0", "1"):
        est = recover_estimate(mg, d, {"Y": y})
        assert est.value == pytest.approx(gen.two_sided_by_hand(y), abs=1e-12)
    # a value outside the observed domain carries zero mass
    assert recover_estimate(mg, d, {"Y": "NA"}).value == 0.0


def test_augmented_joint_decodes_missing_cells_to_none():
    d = Dataset(("X", "Y"), (("0", "1"), ("1", None), ("0", None), ("0", "1")))
    t = _augmented_joint(mar_mgraph(), d)
    assert t.variables == ("X", "Y", "R_Y")
    # Y's observed domain is ("1",), so its missing cells take the code 1
    assert t._cols == ([0, 0, 1], [0, 1, 1], [1, 0, 0])
    assert len(t.mass) == 3
    assert list(t.mass.items()) == [
        (("0", "1", "obs"), 0.5), (("0", None, "miss"), 0.25), (("1", None, "miss"), 0.25),
    ]
    assert t.prob({"Y": "1"}) == 0.5


def test_augmented_joint_matches_the_numpy_oracle():
    r = gen.rng(81)
    graphs = [mar_mgraph(), parse_mgraph(gen.TWO_SIDED),
              parse_mgraph(gen.TWO_SIDED + "var W\nW -> X\n")]
    kinds = set()
    for _ in range(300):
        mg = graphs[int(r.integers(0, len(graphs)))]
        columns = sorted(mg.substantive) + ["V"]  # V is not in the m-graph
        r.shuffle(columns)
        rows = [
            tuple(None if r.random() < 0.25 else str(int(r.integers(0, 3))) for _ in columns)
            for _ in range(int(r.integers(1, 30)))
        ]
        d = Dataset(columns, rows)
        try:
            want = gen.augmented_joint_by_arrays(mg, d)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                _augmented_joint(mg, d)
            assert str(info.value) == str(exc)
            kinds.add(DataError)
            continue
        got = _augmented_joint(mg, d)
        assert (got.variables, got.domains) == (want.variables, want.domains)
        assert got._cols == want._cols and got._weights == want._weights
        assert got.mass == want.mass
        kinds.add("ok")
    assert kinds == {"ok", DataError}


def test_sum_over_never_observed_variable_is_refused():
    # X has no observed cell, so its domain is empty: the sum over x must be
    # a refusal, not an empty sum of 0
    mg = parse_mgraph(gen.TWO_SIDED)
    d = Dataset(("X", "Y"), tuple(gen.TWO_SIDED_NEVER_X))
    for y in ("0", "1"):
        with pytest.raises(ConditioningOnZero, match="^conditioning on a zero-probability "
                           "event: no observed value of X$"):
            recover_estimate(mg, d, {"Y": y})


def test_ordered_search_limit_is_reported():
    # isolated fully observed variables leave criterion (iii) as the only route
    for extra, recoverable in ((6, True), (7, False)):
        text = gen.TWO_SIDED + "".join(f"var W{i}\n" for i in range(extra))
        res = recoverability(parse_mgraph(text), {"X", "Y"})
        if recoverable:
            assert res.criterion == "ordered-factorization"
        else:
            assert res == NotRecoverable(
                "ordered-factorization search skipped: 9 substantive variables "
                "exceed its limit of 8"
            )
