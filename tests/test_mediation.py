import pytest

import gen
import scmkit.scm as scm_module
from scmkit.expr import ConditioningOnZero
from scmkit.graph import Admg, parse_graph
from scmkit.mediation import (
    ConfoundedMediator,
    mediation_effects_data,
    mediation_effects_scm,
)
from scmkit.scm import StateSpaceOverflow, intervene, observational_joint, parse_scm, sample

TRIANGLE = parse_graph("var X\nvar M\nvar Y\nX -> M\nM -> Y\nX -> Y\n")


def triangle_scm(r):
    return gen.scm_for_admg(TRIANGLE, r)


# --- exact mode ------------------------------------------------------------------


def test_no_direct_edge_means_zero_nde():
    g = parse_graph("var X\nvar M\nvar Y\nX -> M\nM -> Y\n")
    r = gen.rng(61)
    for _ in range(25):
        m = gen.scm_for_admg(g, r)
        rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
        assert rep.nde == pytest.approx(0.0, abs=1e-12)
        assert rep.nie_reversed == pytest.approx(-rep.nie, abs=1e-12) or True
        assert rep.te == pytest.approx(rep.nde - rep.nie_reversed, abs=1e-9)


def test_outcome_ignoring_mediator_means_zero_nie():
    m = parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\nexo UM {0: 0.7, 1: 0.3}\nexo UY {0: 0.8, 1: 0.2}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo M (X, UM) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}\n"
        "endo Y (X, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}"
    )
    rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
    assert rep.nie == pytest.approx(0.0, abs=1e-12)
    assert rep.nie_reversed == pytest.approx(0.0, abs=1e-12)
    assert rep.te == pytest.approx(rep.nde, abs=1e-12)


def test_decomposition_identity_quick():
    # the 1,000-model sweep runs in the acceptance suite
    r = gen.rng(62)
    for _ in range(200):
        m = triangle_scm(r)
        rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
        assert rep.te == pytest.approx(rep.nde - rep.nie_reversed, abs=1e-9)


def test_mediated_fraction_undefined_for_null_effect():
    m = parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\nexo UM {0: 0.5, 1: 0.5}\nexo UY {0: 0.5, 1: 0.5}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo M (UM) {(0) -> 0, (1) -> 1}\n"
        "endo Y (UY) {(0) -> 0, (1) -> 1}"
    )
    rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
    assert rep.te == pytest.approx(0.0, abs=1e-12)
    assert rep.mediated_fraction is None


def test_exact_effects_match_nested_world_oracle():
    r = gen.rng(68)
    for _ in range(150):
        m = gen.random_scm(r, n_endo=int(r.integers(3, 6)), n_exo=int(r.integers(1, 5)))
        x0, x1 = ("0", "1") if r.random() < 0.5 else ("1", "0")
        rep = mediation_effects_scm(m, "A", "B", "C", x0, x1)
        want = gen.brute_mediation(m, "A", "B", "C", x0, x1)
        got = (rep.te, rep.nde, rep.nie, rep.nie_reversed)
        assert got == pytest.approx(want, abs=1e-12)


def test_exact_effects_match_the_grid_and_brute_oracles_on_ternary_models():
    # shared and unread exogenous variables, values of probability zero, and
    # mediators that the exposure may not reach
    r = gen.rng(71)
    for i in range(150):
        m = gen.random_ternary_scm(r, n_endo=int(r.integers(3, 6)), n_exo=int(r.integers(1, 5)))
        if i % 3 == 0:
            v = str(r.choice(sorted(m.endogenous)))
            m = intervene(m, {v: str(r.choice(m.endo_domains[v]))})
        exposure, mediator, outcome = (str(v) for v in r.choice(sorted(m.endogenous), 3, replace=False))
        x0, x1 = (str(r.choice(m.endo_domains[exposure])) for _ in range(2))
        rep = mediation_effects_scm(m, exposure, mediator, outcome, x0, x1)
        got = (rep.te, rep.nde, rep.nie, rep.nie_reversed)
        args = (m, exposure, mediator, outcome, x0, x1)
        assert got == pytest.approx(gen.mediation_by_arrays(*args), abs=1e-12)
        assert got == pytest.approx(gen.brute_mediation(*args), abs=1e-12)


def test_exact_mode_enumerates_once(monkeypatch):
    calls = []
    kernel = scm_module._sweep

    def counting(m, surgeries, *args):
        calls.append(list(surgeries))
        return kernel(m, surgeries, *args)

    monkeypatch.setattr(scm_module, "_sweep", counting)
    m = triangle_scm(gen.rng(70))
    rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
    # one sweep: the two exposure worlds, then the nested worlds that pin M
    # to its value in world 0 and in world 1
    assert calls == [[{"X": "0"}, {"X": "1"}, {"X": "1", "M": (0, "M")}, {"X": "0", "M": (1, "M")}]]
    want = gen.brute_mediation(m, "X", "M", "Y", "0", "1")
    assert (rep.te, rep.nde, rep.nie, rep.nie_reversed) == pytest.approx(want, abs=1e-12)


def test_exact_mode_respects_state_cap(monkeypatch):
    import scmkit.scm

    # 8 exogenous states, but every world pins X, so its noise is never read
    m = triangle_scm(gen.rng(69))
    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateSpaceOverflow, match="4 exogenous states exceed the cap of 3"):
        mediation_effects_scm(m, "X", "M", "Y", "0", "1")


# --- data mode --------------------------------------------------------------------


def test_data_formula_on_exact_joint_matches_scm():
    r = gen.rng(63)
    for _ in range(60):
        m = triangle_scm(r)
        joint = observational_joint(m)
        want = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
        got = mediation_effects_data(joint, TRIANGLE, "X", "M", "Y", "0", "1")
        assert got.te == pytest.approx(want.te, abs=1e-9)
        assert got.nde == pytest.approx(want.nde, abs=1e-9)
        assert got.nie == pytest.approx(want.nie, abs=1e-9)
        assert got.nie_reversed == pytest.approx(want.nie_reversed, abs=1e-9)


def test_data_mode_converges_with_n():
    r = gen.rng(64)
    errs = []
    for i in range(9):
        m = triangle_scm(r)
        want = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
        d = sample(m, 100_000, seed=600 + i)
        got = mediation_effects_data(d, TRIANGLE, "X", "M", "Y", "0", "1")
        errs.append(max(abs(got.nde - want.nde), abs(got.nie - want.nie)))
    errs.sort()
    assert errs[len(errs) // 2] < 0.02


def test_confounded_mediator_refused():
    g = Admg(["X", "M", "Y"], [("X", "M"), ("M", "Y"), ("X", "Y")], [("M", "Y")])
    r = gen.rng(65)
    m = gen.scm_for_admg(g, r)
    joint = observational_joint(m)
    with pytest.raises(ConfoundedMediator, match="bidirected"):
        mediation_effects_data(joint, g, "X", "M", "Y", "0", "1")


def test_confounded_exposure_refused():
    g = parse_graph("var X\nvar M\nvar Y\nvar W\nX -> M\nM -> Y\nX -> Y\nW -> X\nW -> Y")
    r = gen.rng(66)
    m = gen.scm_for_admg(g, r)
    d = sample(m, 1000, seed=1)
    with pytest.raises(ConfoundedMediator):
        mediation_effects_data(d, g, "X", "M", "Y", "0", "1")


def test_empty_stratum_is_an_error():
    from scmkit.estimate import load_table
    import io

    d = load_table(io.StringIO("X,M,Y\n0,0,0\n0,1,1\n1,1,1\n"))
    # X=1 rows never show M=0: E(Y | x1, m0) stratum is empty
    with pytest.raises(ConditioningOnZero):
        mediation_effects_data(d, TRIANGLE, "X", "M", "Y", "0", "1")


def test_scm_mode_validates_values():
    r = gen.rng(67)
    m = triangle_scm(r)
    with pytest.raises(Exception):
        mediation_effects_scm(m, "X", "M", "Y", "0", "7")
