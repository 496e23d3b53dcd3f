import itertools

import pytest

import gen
from scmkit.expr import EstimandError, JointTable
from scmkit.graph import parse_graph
from scmkit.scm import (
    CounterfactualQuery,
    DiscreteScm,
    EndogenousVar,
    ExogenousVar,
    ScmError,
    StateSpaceOverflow,
    ZeroEvidence,
    counterfactual_query,
    intervene,
    joint_counterfactual,
    latent_projection,
    observational_joint,
    parse_scm,
    sample,
    serialize_scm,
)

XOR_SCM_TEXT = """
exo U1 {0: 0.5, 1: 0.5}
exo U2 {0: 0.9, 1: 0.1}
endo X (U1) {(0) -> 0, (1) -> 1}
endo Y (X, U2) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}
"""


def xor_scm():
    return parse_scm(XOR_SCM_TEXT)


# --- construction and file format ------------------------------------------------


def test_parse_and_serialize_roundtrip():
    m = xor_scm()
    again = parse_scm(serialize_scm(m))
    assert again.exogenous == m.exogenous
    assert again.endogenous == m.endogenous


def test_probabilities_must_sum_to_one():
    with pytest.raises(ScmError, match="sum"):
        ExogenousVar(("0", "1"), (0.6, 0.5))


def test_table_must_be_total():
    with pytest.raises(ScmError, match="not total"):
        DiscreteScm(
            {"U": ExogenousVar(("0", "1"), (0.5, 0.5))},
            {"X": EndogenousVar(("U",), {("0",): "0"})},
        )


def test_cyclic_structure_rejected():
    with pytest.raises(ScmError, match="cyclic"):
        DiscreteScm(
            {},
            {
                "X": EndogenousVar(("Y",), {("0",): "0", ("1",): "1"}),
                "Y": EndogenousVar(("X",), {("0",): "0", ("1",): "1"}),
            },
        )


def test_unknown_parent_rejected():
    with pytest.raises(ScmError, match="unknown parent"):
        DiscreteScm({}, {"X": EndogenousVar(("U",), {("0",): "0", ("1",): "1"})})


def test_parse_error_line_numbers():
    with pytest.raises(ScmError, match="line 2"):
        parse_scm("exo U {0: 0.5, 1: 0.5}\nbogus line")


@pytest.mark.parametrize("entry", ["0.5.5", "e", ".", "1e", "+-0.5", "0.5e+"])
def test_probability_entry_that_is_not_a_number_keeps_its_line(entry):
    with pytest.raises(ScmError) as info:
        parse_scm(f"exo V {{0: 1.0}}\nexo U {{0: {entry}, 1: 0.5}}")
    assert str(info.value) == f"line 2: malformed probability entry: '0: {entry}'"


def test_long_mechanism_chain_orders_without_recursion():
    # the sink sorts first, so the depth-first walk descends the whole chain
    n = 5000
    m = DiscreteScm(
        {"U": ExogenousVar(("0", "1"), (0.5, 0.5))},
        {f"V{i}": EndogenousVar((f"V{i + 1}" if i + 1 < n else "U",),
                                {("0",): "0", ("1",): "1"}) for i in range(n)},
    )
    assert m.order == tuple(f"V{i}" for i in reversed(range(n)))


# --- observational joint -----------------------------------------------------------


def test_point_mass_for_deterministic_model():
    m = parse_scm(
        "exo U {1: 1.0}\nendo X (U) {(1) -> 1}\nendo Y (X) {(1) -> 0}"
    )
    j = observational_joint(m)
    assert j.prob({"X": "1", "Y": "0"}) == pytest.approx(1.0, abs=1e-15)


def test_hand_enumerated_xor_value():
    j = observational_joint(xor_scm())
    # four exogenous states by hand: only (U1=1, U2=0) gives X=1, Y=1
    assert j.prob({"X": "1", "Y": "1"}) == pytest.approx(0.45, abs=1e-12)
    assert j.prob({"X": "0", "Y": "1"}) == pytest.approx(0.05, abs=1e-12)


def test_total_mass_is_one_on_randoms():
    r = gen.rng(21)
    for _ in range(500):
        m = gen.random_scm(r, n_endo=int(r.integers(1, 4)), n_exo=int(r.integers(1, 4)))
        j = observational_joint(m)
        assert sum(j.mass.values()) == pytest.approx(1.0, abs=1e-12)


def test_drifted_exogenous_mass_is_not_refused():
    # each distribution sums to 1 within the parser's 1e-12, but their product
    # drifts past it; only a table built from outside input is checked
    m = parse_scm(
        "".join(f"exo U{i} {{0: 0.4999999999995, 1: 0.5}}\n" for i in range(3))
        + "endo X (U0, U1) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 1}\n"
    )
    j = observational_joint(m)
    assert j.mass.keys() == {("0",), ("1",)}
    assert j.prob({}) == pytest.approx(1.0, abs=1e-11)
    assert j.prob({"X": "0"}) == pytest.approx(gen.brute_marginal(m, {"X": "0"}), abs=1e-15)
    with pytest.raises(EstimandError, match="^total mass 0.99999999999.* is not 1$"):
        JointTable(j.variables, j.domains, dict(j.mass))


def test_state_space_cap():
    m = xor_scm()
    with pytest.raises(StateSpaceOverflow):
        observational_joint(m, max_states=3)
    # one exogenous coin drives three endogenous copies: 2 states, 8 cells
    m = parse_scm(
        "exo U {0: 0.5, 1: 0.5}\n"
        + "".join(f"endo {v} (U) {{(0) -> 0, (1) -> 1}}\n" for v in "XYZ")
    )
    with pytest.raises(StateSpaceOverflow, match="8 joint states exceed the cap of 7"):
        observational_joint(m, max_states=7)
    with pytest.raises(StateSpaceOverflow, match="2 exogenous states exceed the cap of 1"):
        observational_joint(m, max_states=1)


def test_counterfactual_respects_state_cap(monkeypatch):
    import scmkit.scm

    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateSpaceOverflow, match="4 exogenous states exceed the cap of 3"):
        joint_counterfactual(xor_scm(), [({"X": "1"}, {"Y": "1"})], {"X": "0"})


# --- interventions -------------------------------------------------------------------


def test_do_on_parentless_variable_equals_conditioning():
    r = gen.rng(22)
    for _ in range(30):
        g = parse_graph("var X\nvar Y\nX -> Y")
        m = gen.scm_for_admg(g, r)
        j = observational_joint(m)
        for xv in ("0", "1"):
            jd = observational_joint(intervene(m, {"X": xv}))
            for yv in ("0", "1"):
                cond = j.prob({"X": xv, "Y": yv}) / j.prob({"X": xv})
                assert jd.prob({"Y": yv}) == pytest.approx(cond, abs=1e-12)


def test_intervene_twice_last_write_wins():
    m = xor_scm()
    m2 = intervene(intervene(m, {"X": "0"}), {"X": "1"})
    j = observational_joint(m2)
    assert j.prob({"X": "1"}) == pytest.approx(1.0, abs=1e-15)


def test_intervened_variable_is_point_mass():
    m = xor_scm()
    j = observational_joint(intervene(m, {"X": "1"}))
    assert j.prob({"X": "1"}) == pytest.approx(1.0, abs=1e-15)


def test_intervene_value_outside_domain():
    with pytest.raises(ScmError, match="domain"):
        intervene(xor_scm(), {"X": "7"})


def test_intervene_unknown_variable():
    with pytest.raises(ScmError, match="not endogenous"):
        intervene(xor_scm(), {"U1": "0"})


def test_truncated_product_preserves_other_mechanisms():
    # Markovian models: P(w | endogenous parents) is invariant under surgery
    # on other variables wherever both strata are populated
    r = gen.rng(23)
    for _ in range(25):
        g = gen.random_dag(r, 4)
        m = gen.scm_for_admg(g, r)
        j = observational_joint(m)
        do_var = sorted(g.nodes)[int(r.integers(0, 4))]
        jd = observational_joint(intervene(m, {do_var: "1"}))
        for w in sorted(g.nodes - {do_var}):
            parents = sorted(g.parents(w))
            for pa_vals in itertools.product(("0", "1"), repeat=len(parents)):
                ctx = dict(zip(parents, pa_vals))
                p_obs = j.prob(ctx)
                p_int = jd.prob(ctx)
                if p_obs == 0.0 or p_int == 0.0:
                    continue
                for wv in ("0", "1"):
                    lhs = j.prob({**ctx, w: wv}) / p_obs
                    rhs = jd.prob({**ctx, w: wv}) / p_int
                    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- counterfactuals -----------------------------------------------------------------


def test_consistency_axiom():
    r = gen.rng(24)
    checked = 0
    while checked < 60:
        m = gen.random_scm(r, n_endo=3, n_exo=3)
        j = observational_joint(m)
        for xv, yv in itertools.product(("0", "1"), repeat=2):
            if j.prob({"A": xv, "B": yv}) > 0:
                q = CounterfactualQuery(
                    target=(("B", yv),),
                    antecedent=(("A", xv),),
                    evidence=(("A", xv), ("B", yv)),
                )
                assert counterfactual_query(m, q) == pytest.approx(1.0, abs=1e-12)
                checked += 1


def test_deterministic_counterfactual():
    m = parse_scm(
        "exo U {0: 0.5, 1: 0.5}\nendo X (U) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X) {(0) -> 0, (1) -> 1}"
    )
    q = CounterfactualQuery(
        target=(("Y", "1"),), antecedent=(("X", "1"),), evidence=(("X", "0"), ("Y", "0"))
    )
    assert counterfactual_query(m, q) == pytest.approx(1.0, abs=1e-15)


def test_counterfactual_matches_enumeration_oracle():
    # the 1,000-model sweep runs in the acceptance suite
    r = gen.rng(25)
    for _ in range(200):
        m = gen.random_scm(
            r, n_endo=int(r.integers(2, 5)), n_exo=int(r.integers(1, 5))
        )
        endo = sorted(m.endogenous)
        tgt, ante = endo[0], endo[-1]
        worlds = [({ante: "1"}, {tgt: "0"})]
        evidence = {ante: "0"}
        want = gen.brute_counterfactual(m, worlds, evidence)
        if want is None:
            with pytest.raises(ZeroEvidence):
                joint_counterfactual(m, worlds, evidence)
        else:
            got = joint_counterfactual(m, worlds, evidence)
            assert got == pytest.approx(want, abs=1e-12)


def test_zero_evidence_raises():
    m = parse_scm(
        "exo U {0: 1.0, 1: 0.0}\nendo X (U) {(0) -> 0, (1) -> 1}"
    )
    with pytest.raises(ZeroEvidence):
        joint_counterfactual(m, [({}, {"X": "0"})], {"X": "1"})


def test_hierarchy_containment():
    r = gen.rng(26)
    for _ in range(50):
        m = gen.random_scm(r, n_endo=3, n_exo=3)
        j = observational_joint(m)
        # layer 1: no antecedent, no evidence
        p_obs = j.prob({"B": "1"})
        q1 = CounterfactualQuery(target=(("B", "1"),))
        assert counterfactual_query(m, q1) == pytest.approx(p_obs, abs=1e-12)
        # layer 2: antecedent only, equals the surgered model's marginal
        q2 = CounterfactualQuery(target=(("B", "1"),), antecedent=(("A", "0"),))
        p_do = observational_joint(intervene(m, {"A": "0"})).prob({"B": "1"})
        assert counterfactual_query(m, q2) == pytest.approx(p_do, abs=1e-12)


# --- sampling -------------------------------------------------------------------------


def test_sampling_is_seed_deterministic():
    m = xor_scm()
    d1 = sample(m, 500, seed=7)
    d2 = sample(m, 500, seed=7)
    assert d1.rows == d2.rows
    d3 = sample(m, 500, seed=8)
    assert d3.rows != d1.rows


def test_point_mass_model_gives_constant_rows():
    m = parse_scm("exo U {1: 1.0}\nendo X (U) {(1) -> 1}\nendo Y (X) {(1) -> 0}")
    d = sample(m, 50, seed=0)
    assert set(d.rows) == {("1", "0")}


def test_sample_frequencies_within_four_sigma():
    m = xor_scm()
    n = 100_000
    d = sample(m, n, seed=123)
    j = observational_joint(m)
    counts = {}
    for row in d.rows:
        counts[row] = counts.get(row, 0) + 1
    for key, p in j.mass.items():
        sigma = (p * (1 - p) / n) ** 0.5
        freq = counts.get(key, 0) / n
        assert abs(freq - p) <= 4 * sigma


def test_sample_matches_row_by_row_reference():
    r = gen.rng(73)
    for i in range(80):
        m = gen.random_scm(r, n_endo=int(r.integers(1, 6)), n_exo=int(r.integers(1, 4)))
        if i % 2:
            # pinned variables are parentless structural tables
            pinned = r.choice(sorted(m.endogenous), size=int(r.integers(1, 3)))
            m = intervene(m, {str(v): str(int(r.integers(0, 2))) for v in pinned})
        n = int(r.integers(1, 500))
        got = sample(m, n, seed=i)
        want = gen.sample_by_rows(m, n, seed=i)
        assert (got.columns, got.rows) == (want.columns, want.rows)
        # domains hold only drawn values, so undrawn ones shift no code
        assert got.domains == want.domains
        assert got.codes.dtype == want.codes.dtype
        assert (got.codes == want.codes).all()


def test_sample_size_validated():
    with pytest.raises(ScmError):
        sample(xor_scm(), 0, seed=1)


# --- latent projection -----------------------------------------------------------------


def test_private_exogenous_gives_no_bidirected():
    assert latent_projection(xor_scm()) == parse_graph("var X\nvar Y\nX -> Y")


def test_shared_exogenous_gives_bow():
    m = parse_scm(
        "exo U {0: 0.5, 1: 0.5}\n"
        "endo X (U) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X, U) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 1}"
    )
    assert latent_projection(m) == parse_graph("var X\nvar Y\nX -> Y\nX <-> Y")


def test_confounded_triangle_projects_to_triangle_graph():
    m = parse_scm(
        "exo UZ {0: 0.5, 1: 0.5}\n"
        "exo UX {0: 0.7, 1: 0.3}\n"
        "exo UY {0: 0.9, 1: 0.1}\n"
        "endo Z (UZ) {(0) -> 0, (1) -> 1}\n"
        "endo X (Z, UX) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}\n"
        "endo Y (Z, X, UY) {(0,0,0) -> 0, (0,0,1) -> 1, (0,1,0) -> 1, (0,1,1) -> 0,"
        " (1,0,0) -> 1, (1,0,1) -> 0, (1,1,0) -> 0, (1,1,1) -> 1}"
    )
    assert latent_projection(m) == parse_graph(
        "var X\nvar Y\nvar Z\nZ -> X\nZ -> Y\nX -> Y"
    )


def test_generator_projection_matches_request():
    r = gen.rng(27)
    for _ in range(40):
        g = gen.random_admg(r, int(r.integers(2, 6)))
        m = gen.scm_for_admg(g, r)
        assert latent_projection(m) == g
