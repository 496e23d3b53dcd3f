import io
from pathlib import Path

import pytest

import gen
from scmkit.cli import run
from scmkit.estimate import empirical_joint, load_table
from scmkit.expr import JointTable
import scmkit.scm as scm_module
from scmkit.pnps import BoundsError, InconsistentInputs, pn_ps_exact, pnps_bounds
from scmkit.scm import DiscreteScm, ScmError, intervene, observational_joint, parse_scm


def identity_scm():
    return parse_scm(
        "exo U {0: 0.5, 1: 0.5}\n"
        "endo X (U) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X) {(0) -> 0, (1) -> 1}"
    )


def obs_and_do(m, x="X", y="Y"):
    obs = observational_joint(m)
    px1 = observational_joint(intervene(m, {x: "1"})).prob({y: "1"})
    px0 = observational_joint(intervene(m, {x: "0"})).prob({y: "1"})
    return obs, px1, px0


def two_var_scm(r):
    """Random binary model over X, Y with optional confounding."""
    from scmkit.graph import Admg

    bidirected = [("X", "Y")] if r.random() < 0.6 else []
    g = Admg(["X", "Y"], [("X", "Y")], bidirected)
    return gen.scm_for_admg(g, r)


# --- exact mode -----------------------------------------------------------------


def test_identity_model_all_ones():
    res = pn_ps_exact(identity_scm(), "X", "Y")
    assert res.pn == pytest.approx(1.0, abs=1e-15)
    assert res.ps == pytest.approx(1.0, abs=1e-15)
    assert res.pns == pytest.approx(1.0, abs=1e-15)


def test_unrelated_outcome_gives_zero_pns():
    m = parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\nexo UY {0: 0.3, 1: 0.7}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo Y (UY) {(0) -> 0, (1) -> 1}"
    )
    res = pn_ps_exact(m, "X", "Y")
    assert res.pns == pytest.approx(0.0, abs=1e-15)


def test_exact_matches_enumeration_oracle():
    r = gen.rng(51)
    for _ in range(300):
        m = two_var_scm(r)
        res = pn_ps_exact(m, "X", "Y")
        pn_want = gen.brute_counterfactual(
            m, [({"X": "0"}, {"Y": "0"})], {"X": "1", "Y": "1"}
        )
        ps_want = gen.brute_counterfactual(
            m, [({"X": "1"}, {"Y": "1"})], {"X": "0", "Y": "0"}
        )
        pns_want = gen.brute_counterfactual(
            m, [({"X": "1"}, {"Y": "1"}), ({"X": "0"}, {"Y": "0"})], {}
        )
        for got, want in ((res.pn, pn_want), (res.ps, ps_want), (res.pns, pns_want)):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)


def test_exact_matches_the_grid_and_brute_oracles_on_ternary_models():
    # shared and unread exogenous variables, values of probability zero,
    # widened domains and evidence of probability zero
    r = gen.rng(52)
    undefined = 0
    for i in range(200):
        m = gen.random_ternary_scm(r, n_endo=int(r.integers(2, 5)), n_exo=int(r.integers(1, 5)))
        x, y = (str(v) for v in r.choice(sorted(m.endogenous), 2, replace=False))
        if i % 3 == 0 and all(y not in e.parents for e in m.endogenous.values()):
            m = DiscreteScm(m.exogenous, m.endogenous, endo_domains={y: m.endo_domains[y] + ("9",)})
        x1, x0 = (str(r.choice(m.endo_domains[x])) for _ in range(2))
        y1, y0 = (str(r.choice(m.endo_domains[y])) for _ in range(2))
        res = pn_ps_exact(m, x, y, x1, x0, y1, y0)
        for got, worlds, evidence in (
            (res.pn, [({x: x0}, {y: y0})], {x: x1, y: y1}),
            (res.ps, [({x: x1}, {y: y1})], {x: x0, y: y0}),
            (res.pns, [({x: x1}, {y: y1}), ({x: x0}, {y: y0})], {}),
        ):
            want = gen.counterfactual_by_arrays(m, worlds, evidence)
            brute = gen.brute_counterfactual(m, worlds, evidence)
            assert (got is None) == (want is None) == (brute is None)
            if got is None:
                undefined += 1
            else:
                assert got == pytest.approx(want, abs=1e-12)
                assert got == pytest.approx(brute, abs=1e-12)
    assert undefined > 20


def test_zero_evidence_reported_individually():
    # X is always 1, so the PS evidence (X=0, Y=0) is impossible
    m = parse_scm(
        "exo U {0: 0.0, 1: 1.0}\nexo UY {0: 0.5, 1: 0.5}\n"
        "endo X (U) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 0, (1,1) -> 1}"
    )
    res = pn_ps_exact(m, "X", "Y")
    assert res.ps is None
    assert res.pn is not None
    assert any("PS undefined" in note for note in res.notes)


def test_exact_enumerates_once(monkeypatch):
    calls = []
    kernel = scm_module._sweep

    def counting(m, surgeries, *args):
        calls.append(list(surgeries))
        return kernel(m, surgeries, *args)

    monkeypatch.setattr(scm_module, "_sweep", counting)
    pn_ps_exact(identity_scm(), "X", "Y")
    assert calls == [[{}, {"X": "0"}, {"X": "1"}]]


def test_exact_refuses_unknown_values_in_check_order():
    m = identity_scm()
    cases = [
        ({"x1": "7"}, "x1 value '7' not in the domain of X"),
        ({"y1": "7"}, "y1 value '7' not in the domain of Y"),
        ({"x0": "7"}, "x0 value '7' not in the domain of X"),
        ({"y0": "7"}, "y0 value '7' not in the domain of Y"),
        ({"x0": "7", "y1": "8"}, "x0 value '7' not in the domain of X"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ScmError) as info:
            pn_ps_exact(m, "X", "Y", **kwargs)
        assert str(info.value) == message
    with pytest.raises(ScmError, match="Q is not an endogenous variable"):
        pn_ps_exact(m, "Q", "Y", x1="7")


# --- bounds mode -----------------------------------------------------------------


def test_bounds_ordered_on_feasible_grid():
    # grid over observational simplices and experimentally feasible px values
    r = gen.rng(52)
    count = 0
    while count < 10_000:
        probs = r.dirichlet([1.0, 1.0, 1.0, 1.0])
        mass = {
            ("0", "0"): float(probs[0]),
            ("0", "1"): float(probs[1]),
            ("1", "0"): float(probs[2]),
            ("1", "1"): float(probs[3]),
        }
        obs = JointTable(("X", "Y"), {"X": ("0", "1"), "Y": ("0", "1")}, mass)
        p_x1y1 = mass[("1", "1")]
        p_x1y0 = mass[("1", "0")]
        p_x0y1 = mass[("0", "1")]
        p_x0y0 = mass[("0", "0")]
        # consistency constraints linking the experiment to the observations
        px1 = float(r.uniform(p_x1y1, 1.0 - p_x1y0))
        px0 = float(r.uniform(p_x0y1, 1.0 - p_x0y0))
        res = pnps_bounds(obs, px1, px0)
        for bound in (res.pn, res.ps, res.pns):
            if bound is None:
                continue
            lo, hi = bound
            assert lo <= hi + 1e-12
            assert -1e-12 <= lo and hi <= 1 + 1e-12
        count += 1


def test_exact_inside_bounds_quick():
    # the 1,000-model sweep runs in the acceptance suite
    r = gen.rng(53)
    for _ in range(300):
        m = two_var_scm(r)
        obs, px1, px0 = obs_and_do(m)
        exact = pn_ps_exact(m, "X", "Y")
        bounds = pnps_bounds(obs, px1, px0)
        for value, bound in ((exact.pn, bounds.pn), (exact.ps, bounds.ps),
                             (exact.pns, bounds.pns)):
            if value is None or bound is None:
                continue
            lo, hi = bound
            assert lo - 1e-9 <= value <= hi + 1e-9


def test_monotonic_model_pns_equals_risk_difference():
    r = gen.rng(54)
    checked = 0
    while checked < 200:
        m = two_var_scm(r)
        if not gen.is_monotone(m):
            continue
        _, px1, px0 = obs_and_do(m)
        exact = pn_ps_exact(m, "X", "Y")
        assert exact.pns == pytest.approx(px1 - px0, abs=1e-9)
        checked += 1


def test_deterministic_identity_bounds_collapse_to_one():
    obs = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("1", "1"): 0.5},
    )
    res = pnps_bounds(obs, px1=1.0, px0=0.0)
    assert res.pn == (1.0, 1.0)
    assert res.ps == (1.0, 1.0)
    assert res.pns == (1.0, 1.0)


def test_bounds_undefined_when_stratum_empty():
    obs = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("0", "1"): 0.5},
    )
    res = pnps_bounds(obs, px1=0.6, px0=0.5)
    assert res.pn is None
    assert any("PN undefined" in n for n in res.notes)


def test_bounds_refuse_values_outside_the_domain():
    # in the domain but without mass is a note (above); outside it, an error
    obs = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("1", "1"): 0.5},
    )
    for name, var in (("x1", "X"), ("x0", "X"), ("y1", "Y"), ("y0", "Y")):
        with pytest.raises(BoundsError) as info:
            pnps_bounds(obs, px1=0.6, px0=0.5, **{name: "7"})
        assert type(info.value) is BoundsError
        assert str(info.value) == f"{name} value '7' not in the domain of {var}"


# counts of (X, Y) in two tables: X takes a third value in the first and Y
# in the second.  Unchecked, the binary formulas counted P(X=2, Y=1) into
# P(Y=1) or dropped P(Y=2) from P(X=x, Y=y0), and both calls printed bounds at
# exit 0 (pns: [0.200000, 0.400000])
TERNARY = {
    "exposure X": {("0", "0"): 3, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): 3,
                   ("2", "0"): 1, ("2", "1"): 1},
    "outcome Y": {("0", "0"): 3, ("0", "1"): 1, ("0", "2"): 1, ("1", "0"): 1,
                  ("1", "1"): 3, ("1", "2"): 1},
}


@pytest.mark.parametrize("role", TERNARY)
def test_bounds_refuse_a_ternary_exposure_or_outcome(tmp_path, role):
    rows = [f"{x},{y}" for (x, y), k in TERNARY[role].items() for _ in range(k)]
    csv = tmp_path / "ternary.csv"
    csv.write_text("X,Y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    obs = empirical_joint(load_table(csv))
    message = (
        f"{role} has 3 observed values; the Tian-Pearl bounds need a binary"
        " exposure and outcome"
    )
    with pytest.raises(BoundsError) as info:
        pnps_bounds(obs, px1=0.5, px0=0.3)
    assert type(info.value) is BoundsError and str(info.value) == message
    out, err = io.StringIO(), io.StringIO()
    assert run(["pnps", "--data", str(csv), "--px1", "0.5", "--px0", "0.3"], out, err) == 1
    assert out.getvalue() == "" and message in err.getvalue()


D8 = Path(__file__).parent / "data" / "d8.csv"


# x1 = x0 makes PN 0 (Y_x0 = Y = y1 wherever X = x1), as exact mode says.
# Unchecked, pnps --data on d8.csv printed pn: [0.066667, 0.733333] at exit 0
# for --x1 1 --x0 1, and three intervals for --y1 1 --y0 1
@pytest.mark.parametrize("one, other, var", [("x1", "x0", "X"), ("y1", "y0", "Y")])
def test_bounds_refuse_equal_values(one, other, var):
    message = f"{one} and {other} must be two different values of {var}"
    obs = empirical_joint(load_table(D8).select(("X", "Y")))
    with pytest.raises(BoundsError) as info:
        pnps_bounds(obs, px1=0.6, px0=0.6, **{one: "1", other: "1"})
    assert type(info.value) is BoundsError and str(info.value) == message
    out, err = io.StringIO(), io.StringIO()
    argv = ["pnps", "--data", str(D8), f"--{one}", "1", f"--{other}", "1",
            "--px1", "0.6", "--px0", "0.6"]
    assert run(argv, out, err) == 1
    assert out.getvalue() == "" and message in err.getvalue()


def test_exact_answers_equal_exposure_values_with_zero():
    m = parse_scm((Path(__file__).parent / "data" / "xor.scm").read_text(encoding="utf-8"))
    exact = pn_ps_exact(m, "X", "Y", x1="1", x0="1")
    assert (exact.pn, exact.ps, exact.pns) == (0.0, 0.0, 0.0)


def test_bounds_count_only_values_with_mass():
    # a third value in the domain without mass leaves a binary table
    mass = {("0", "0"): 0.25, ("0", "1"): 0.25, ("1", "0"): 0.125, ("1", "1"): 0.375}
    binary = JointTable(("X", "Y"), {"X": ("0", "1"), "Y": ("0", "1")}, mass)
    wide = JointTable(("X", "Y"), {"X": ("0", "1", "2"), "Y": ("0", "1", "2")},
                      {**mass, ("2", "2"): 0.0})
    assert pnps_bounds(wide, 0.5, 0.5) == pnps_bounds(binary, 0.5, 0.5)


def test_bounds_validate_probabilities():
    obs = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("1", "1"): 0.5},
    )
    with pytest.raises(BoundsError):
        pnps_bounds(obs, px1=1.2, px0=0.0)
    with pytest.raises(BoundsError):
        pnps_bounds(obs, px1=0.5, px0=0.5, x="Q")


def test_bounds_refuse_inconsistent_experiment():
    # P(X=1,Y=1) = 0.5 forces px1 >= 0.5 and P(X=0,Y=0) = 0.5 forces
    # px0 <= 0.5; unchecked, these inputs give pn = ps = pns = (0.0, -0.8)
    obs = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("1", "1"): 0.5},
    )
    with pytest.raises(InconsistentInputs, match="px1=0.1"):
        pnps_bounds(obs, px1=0.1, px0=0.9)
    with pytest.raises(InconsistentInputs, match="px0=0.9"):
        pnps_bounds(obs, px1=0.6, px0=0.9)
    assert issubclass(InconsistentInputs, BoundsError)
    # within the 1e-9 slack, boundary inputs still pass
    res = pnps_bounds(obs, px1=0.5 - 1e-10, px0=0.5 + 1e-10)
    assert res.pns[0] <= res.pns[1] + 1e-9


def _assert_ordered_in_unit_interval(res):
    for bound in (res.pn, res.ps, res.pns):
        if bound is not None:
            lo, hi = bound
            assert 0.0 <= lo <= hi <= 1.0, res



@pytest.mark.parametrize("px1, px0, name, point", [
    (0.5, 0.7500000005, "pn", 0.0),
    (0.8750000005, 0.5, "ps", 1.0),
    (0.5, 0.2499999995, "pn", 1.0),
    (0.3749999995, 0.5, "ps", 0.0),
])
def test_inputs_inside_the_slack_are_read_at_the_band_edge(px1, px0, name, point):
    # P(X,Y) on d8.csv is 0.25, 0.25, 0.125, 0.375, so px1 is in [0.375,
    # 0.875] and px0 in [0.25, 0.75]; read as given, each input made one
    # bound inverted or leave [0, 1] by about 1e-9
    obs = empirical_joint(load_table(D8).select(("X", "Y")))
    res = pnps_bounds(obs, px1, px0)
    _assert_ordered_in_unit_interval(res)
    assert getattr(res, name) == (point, point)
    edge = pnps_bounds(obs, min(max(px1, 0.375), 0.875), min(max(px0, 0.25), 0.75))
    assert res == edge


def test_bounds_near_every_band_edge_are_ordered_in_the_unit_interval():
    r = gen.rng(55)
    for _ in range(3000):
        probs = r.dirichlet([1.0, 1.0, 1.0, 1.0])
        if r.random() < 0.2:
            probs[int(r.integers(0, 4))] = 0.0  # an empty cell
            probs /= probs.sum()
        keys = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        mass = dict(zip(keys, map(float, probs)))
        obs = JointTable(("X", "Y"), {"X": ("0", "1"), "Y": ("0", "1")}, mass)
        bands = [
            (mass[("1", "1")], 1.0 - mass[("1", "0")]),
            (mass[("0", "1")], 1.0 - mass[("0", "0")]),
        ]
        px = []
        for lo, hi in bands:
            edge = lo if r.random() < 0.5 else hi
            px.append(min(max(edge + float(r.uniform(-1e-9, 1e-9)), 0.0), 1.0))
        res = pnps_bounds(obs, *px)
        _assert_ordered_in_unit_interval(res)
        edges = [min(max(p, lo), hi) for p, (lo, hi) in zip(px, bands)]
        assert res == pnps_bounds(obs, *edges)


def test_exposure_equal_to_outcome_refused_in_both_modes():
    roles = "^exposure and outcome must be two different variables$"
    with pytest.raises(ScmError, match=roles):
        pn_ps_exact(identity_scm(), "X", "X")
    obs = JointTable(("X",), {"X": ("0", "1")}, {("0",): 0.5, ("1",): 0.5})
    with pytest.raises(BoundsError, match=roles):
        pnps_bounds(obs, px1=0.5, px0=0.5, x="X", y="X")
