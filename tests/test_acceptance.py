"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Each test prints a single PASS line on success so a ``pytest -v`` (or -s) run
shows one verdict per criterion.
"""

import io
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

import gen
from scmkit.cli import run
from scmkit.discover import discover_cpdag
from scmkit.expr import ConditioningOnZero, eval_estimand
from scmkit.fitcheck import fit_indices
from scmkit.graph import d_separated, parse_graph
from scmkit.identify import (
    NonIdentifiable,
    identify,
    nonidentifiability_witness,
    parse_query,
)
from scmkit.mediation import mediation_effects_data, mediation_effects_scm
from scmkit.pnps import pn_ps_exact, pnps_bounds
from scmkit.recover import (
    NotRecoverable,
    parse_mgraph,
    recover_estimate,
    recoverability,
)
from scmkit.scm import (
    DiscreteScm,
    EndogenousVar,
    ExogenousVar,
    intervene,
    joint_counterfactual,
    observational_joint,
    parse_scm,
    sample,
)

DATA = Path(__file__).parent / "data"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def interventional(m, x, xv, y, yv):
    return observational_joint(intervene(m, {x: xv})).prob({y: yv})


def test_c01_backdoor_golden_path():
    t0 = time.monotonic()
    code, out, _ = invoke(
        "identify", "--graph", str(DATA / "backdoor.cg"), "--query", "P(Y|do(X))"
    )
    assert code == 0
    assert out == "sum_{z} P(y|x,z) * P(z)\n"
    code, out, _ = invoke(
        "fit", "--graph", str(DATA / "backdoor.cg"), "--data", str(DATA / "d8.csv")
    )
    assert code == 0
    assert out == "NULL\n"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: back-door estimand and NULL fit index ({elapsed:.2f}s)")


def test_c02_identification_soundness_sweep():
    t0 = time.monotonic()
    r = gen.rng(2024)
    densities = [(0.2, 0.1), (0.35, 0.2), (0.5, 0.3), (0.65, 0.45)]
    total = 0
    identified = 0
    while total < 1000:
        p_dir, p_bi = densities[total % len(densities)]
        n = int(r.integers(2, 7))
        g = gen.random_admg(r, n, p_dir=p_dir, p_bi=p_bi, max_bi=4)
        names = sorted(g.nodes)
        idx = r.choice(len(names), size=2, replace=False)
        x, y = names[idx[0]], names[idx[1]]
        total += 1
        result = identify(g, parse_query(f"P({y}|do({x}))"))
        if isinstance(result, NonIdentifiable):
            continue
        identified += 1
        m = gen.scm_for_admg(g, r)
        joint = observational_joint(m)
        for xv, yv in itertools.product(("0", "1"), repeat=2):
            got = eval_estimand(result.estimand, joint, {x: xv, y: yv})
            want = interventional(m, x, xv, y, yv)
            assert got == pytest.approx(want, abs=1e-9), (g, x, y)
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    assert identified >= 300
    print(
        f"\n[criterion 2] PASS: {identified}/{total} identified estimands match "
        f"the truncated product within 1e-9 ({elapsed:.1f}s)"
    )


def test_c02_conditional_identification_soundness_sweep():
    # P(y|do(x),z) against P(y,z)/P(z) of the surgered model; the value "2"
    # of z has no mass in either world, so its denominator is zero
    t0 = time.monotonic()
    r = gen.rng(2025)
    densities = [(0.2, 0.1), (0.35, 0.2), (0.5, 0.3), (0.65, 0.45)]
    total = identified = checked = refused = 0
    while total < 1000:
        p_dir, p_bi = densities[total % len(densities)]
        n = int(r.integers(3, 7))
        g = gen.random_admg(r, n, p_dir=p_dir, p_bi=p_bi, max_bi=4)
        names = sorted(g.nodes)
        x, y, z = (names[i] for i in r.choice(n, size=3, replace=False))
        total += 1
        result = identify(g, parse_query(f"P({y}|do({x}),{z})"))
        if isinstance(result, NonIdentifiable):
            continue
        identified += 1
        m = gen.scm_for_admg(g, r)
        joint = observational_joint(m)
        for xv in ("0", "1"):
            surgered = observational_joint(intervene(m, {x: xv}))
            for yv, zv in itertools.product(("0", "1"), ("0", "1", "2")):
                binding = {x: xv, y: yv, z: zv}
                den = surgered.prob({z: zv})
                if den == 0.0:
                    with pytest.raises(ConditioningOnZero):
                        eval_estimand(result.estimand, joint, binding)
                    refused += 1
                    continue
                got = eval_estimand(result.estimand, joint, binding)
                want = surgered.prob({y: yv, z: zv}) / den
                assert got == pytest.approx(want, abs=1e-9), (g, x, y, z, binding)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    assert identified >= 300 and checked == 8 * identified and refused == 4 * identified
    print(
        f"\n[criterion 2, conditional] PASS: {identified}/{total} identified estimands "
        f"match P(y,z)/P(z) after surgery on {checked} bindings within 1e-9 and "
        f"refuse {refused} zero strata ({elapsed:.1f}s)"
    )


def test_c03_bow_failure_and_witness():
    t0 = time.monotonic()
    code, out, err = invoke(
        "identify", "--graph", str(DATA / "bow.cg"), "--query", "P(Y|do(X))"
    )
    assert code == 2
    assert "FAILURE" in err
    bow = parse_graph((DATA / "bow.cg").read_text())
    w = nonidentifiability_witness(bow, "X", "Y")
    assert w is not None
    assert w.observational_gap <= 1e-9
    assert w.interventional_gap >= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(
        f"\n[criterion 3] PASS: bow graph exits FAILURE; witness pair agrees "
        f"observationally ({w.observational_gap:.1e}) and differs "
        f"interventionally ({w.interventional_gap:.3f}) ({elapsed:.1f}s)"
    )


def _unary_tables():
    return [
        {("0",): "0", ("1",): "0"},
        {("0",): "0", ("1",): "1"},
        {("0",): "1", ("1",): "0"},
        {("0",): "1", ("1",): "1"},
    ]


def _binary_tables():
    out = []
    keys = [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    for values in itertools.product("01", repeat=4):
        out.append(dict(zip(keys, values)))
    return out


def test_c04_hierarchy_directionality():
    t0 = time.monotonic()

    # layer 1 does not determine layer 2: shared exogenous cause, X = U,
    # Y runs over every table of (X, U)
    family_12 = []
    for table in _binary_tables():
        family_12.append(
            DiscreteScm(
                {"U": ExogenousVar(("0", "1"), (0.5, 0.5))},
                {
                    "X": EndogenousVar(("U",), {("0",): "0", ("1",): "1"}),
                    "Y": EndogenousVar(("X", "U"), table),
                },
            )
        )
    pair_12 = None
    for m1, m2 in itertools.combinations(family_12, 2):
        j1, j2 = observational_joint(m1), observational_joint(m2)
        obs_gap = max(
            abs(j1.prob({"X": a, "Y": b}) - j2.prob({"X": a, "Y": b}))
            for a, b in itertools.product("01", repeat=2)
        )
        if obs_gap > 1e-9:
            continue
        do_gap = max(
            abs(interventional(m1, "X", xv, "Y", "1")
                - interventional(m2, "X", xv, "Y", "1"))
            for xv in "01"
        )
        if do_gap >= 1e-3:
            pair_12 = (m1, m2, obs_gap, do_gap)
            break
    assert pair_12 is not None

    # layer 2 does not determine layer 3: independent noise, X = UX,
    # Y runs over every table of (X, UY)
    family_23 = []
    for table in _binary_tables():
        family_23.append(
            DiscreteScm(
                {
                    "UX": ExogenousVar(("0", "1"), (0.5, 0.5)),
                    "UY": ExogenousVar(("0", "1"), (0.5, 0.5)),
                },
                {
                    "X": EndogenousVar(("UX",), {("0",): "0", ("1",): "1"}),
                    "Y": EndogenousVar(("X", "UY"), table),
                },
            )
        )
    pair_23 = None
    for m1, m2 in itertools.combinations(family_23, 2):
        j1, j2 = observational_joint(m1), observational_joint(m2)
        obs_gap = max(
            abs(j1.prob({"X": a, "Y": b}) - j2.prob({"X": a, "Y": b}))
            for a, b in itertools.product("01", repeat=2)
        )
        if obs_gap > 1e-9:
            continue
        # all single-intervention distributions must agree
        do_gap = max(
            abs(interventional(m1, "X", xv, "Y", "1")
                - interventional(m2, "X", xv, "Y", "1"))
            for xv in "01"
        )
        do_gap = max(
            do_gap,
            max(
                abs(
                    observational_joint(intervene(m1, {"Y": yv})).prob({"X": "1"})
                    - observational_joint(intervene(m2, {"Y": yv})).prob({"X": "1"})
                )
                for yv in "01"
            ),
        )
        if do_gap > 1e-9:
            continue
        try:
            cf1 = joint_counterfactual(
                m1, [({"X": "1"}, {"Y": "1"})], {"X": "0", "Y": "0"}
            )
            cf2 = joint_counterfactual(
                m2, [({"X": "1"}, {"Y": "1"})], {"X": "0", "Y": "0"}
            )
        except Exception:
            continue
        if abs(cf1 - cf2) >= 1e-3:
            pair_23 = (m1, m2, cf1, cf2)
            break
    assert pair_23 is not None
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"\n[criterion 4] PASS: layer-1 pair gap={pair_12[3]:.3f}; layer-3 "
        f"counterfactuals {pair_23[2]:.2f} vs {pair_23[3]:.2f} under identical "
        f"layer-1/2 behavior ({elapsed:.1f}s)"
    )


def test_c05_counterfactual_engine_vs_oracle():
    t0 = time.monotonic()
    r = gen.rng(505)
    consistency_checked = 0
    for trial in range(1000):
        m = gen.random_scm(
            r, n_endo=int(r.integers(2, 5)), n_exo=int(r.integers(1, 5))
        )
        endo = sorted(m.endogenous)
        ante = endo[int(r.integers(0, len(endo)))]
        tgt = endo[int(r.integers(0, len(endo)))]
        av, tv = str(r.integers(0, 2)), str(r.integers(0, 2))
        ev_var = endo[int(r.integers(0, len(endo)))]
        evidence = {ev_var: str(r.integers(0, 2))}
        worlds = [({ante: av}, {tgt: tv})]
        want = gen.brute_counterfactual(m, worlds, evidence)
        if want is None:
            continue
        got = joint_counterfactual(m, worlds, evidence)
        assert abs(got - want) <= 1e-12
        # consistency axiom on the same model
        joint = observational_joint(m)
        for xv, yv in itertools.product("01", repeat=2):
            if endo[0] != endo[-1] and joint.prob({endo[0]: xv, endo[-1]: yv}) > 0:
                p = joint_counterfactual(
                    m,
                    [({endo[0]: xv}, {endo[-1]: yv})],
                    {endo[0]: xv, endo[-1]: yv},
                )
                assert p == pytest.approx(1.0, abs=1e-12)
                consistency_checked += 1
                break
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    assert consistency_checked >= 500
    print(
        f"\n[criterion 5] PASS: abduction-action-prediction equals the "
        f"enumeration oracle; consistency held in {consistency_checked} spot "
        f"checks ({elapsed:.1f}s)"
    )


def test_c06_dsep_oracle_equivalence():
    t0 = time.monotonic()
    r = gen.rng(606)
    for _ in range(10_000):
        n = int(r.integers(3, 9))
        g = gen.random_admg(
            r, n,
            p_dir=float(r.uniform(0.1, 0.5)),
            p_bi=float(r.uniform(0.0, 0.4)),
            max_bi=5,
        )
        names = sorted(g.nodes)
        r.shuffle(names)
        a, b = {names[0]}, {names[1]}
        z = {v for v in names[2:] if r.random() < 0.4}
        assert d_separated(g, a, b, z) == gen.dsep_path_oracle(g, a, b, z)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"\n[criterion 6] PASS: reachability d-separation matches the "
        f"path-enumeration oracle on 10,000 instances ({elapsed:.1f}s)"
    )


def test_c07_pnps_containment_and_monotone():
    t0 = time.monotonic()
    from scmkit.graph import Admg

    r = gen.rng(707)
    monotone_checked = 0
    for trial in range(1000):
        bidirected = [("X", "Y")] if r.random() < 0.6 else []
        g = Admg(["X", "Y"], [("X", "Y")], bidirected)
        m = gen.scm_for_admg(g, r)
        obs = observational_joint(m)
        px1 = interventional(m, "X", "1", "Y", "1")
        px0 = interventional(m, "X", "0", "Y", "1")
        exact = pn_ps_exact(m, "X", "Y")
        bounds = pnps_bounds(obs, px1, px0)
        for value, bound in (
            (exact.pn, bounds.pn),
            (exact.ps, bounds.ps),
            (exact.pns, bounds.pns),
        ):
            if value is None or bound is None:
                continue
            lo, hi = bound
            assert lo - 1e-9 <= value <= hi + 1e-9
        if gen.is_monotone(m):
            assert exact.pns == pytest.approx(px1 - px0, abs=1e-9)
            monotone_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    assert monotone_checked >= 50
    print(
        f"\n[criterion 7] PASS: exact PN/PS/PNS inside bounds on 1,000 models; "
        f"PNS = px1 - px0 held on {monotone_checked} monotone models "
        f"({elapsed:.1f}s)"
    )


def test_c08_mediation_identity_and_formula():
    t0 = time.monotonic()
    triangle = parse_graph("var X\nvar M\nvar Y\nX -> M\nM -> Y\nX -> Y\n")
    r = gen.rng(808)
    for trial in range(1000):
        m = gen.scm_for_admg(triangle, r)
        rep = mediation_effects_scm(m, "X", "M", "Y", "0", "1")
        assert rep.te == pytest.approx(rep.nde - rep.nie_reversed, abs=1e-9)
        if trial % 5 == 0:
            joint = observational_joint(m)
            data_rep = mediation_effects_data(
                joint, triangle, "X", "M", "Y", "0", "1"
            )
            for field in ("te", "nde", "nie", "nie_reversed"):
                assert getattr(data_rep, field) == pytest.approx(
                    getattr(rep, field), abs=1e-9
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(
        f"\n[criterion 8] PASS: te = nde - nie_reversed exact on 1,000 models; "
        f"mediation formula matches exact values on their joints ({elapsed:.1f}s)"
    )


def test_c09_missing_data_recovery():
    t0 = time.monotonic()
    m = parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\n"
        "exo UY {0: 0.85, 1: 0.15}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}"
    )
    n = 100_000
    d_full = sample(m, n, seed=909)
    truth = observational_joint(m).prob({"Y": "1"})

    # missingness driven by X: designed so complete-case analysis is biased
    rr = np.random.default_rng(910)
    yi = d_full.column_index("Y")
    xi = d_full.column_index("X")
    miss_p = {"0": 0.05, "1": 0.6}
    rows = []
    for row in d_full.rows:
        if rr.random() < miss_p[row[xi]]:
            row = row[:yi] + (None,) + row[yi + 1:]
        rows.append(row)
    from scmkit.estimate import Dataset

    d_miss = Dataset(d_full.columns, tuple(rows))
    mg = parse_mgraph((DATA / "mar.cg").read_text())
    est = recover_estimate(mg, d_miss, {"Y": "1"})
    complete = [row for row in d_miss.rows if row[yi] is not None]
    naive = sum(1 for row in complete if row[yi] == "1") / len(complete)
    assert abs(naive - truth) > 0.05
    assert abs(est.value - truth) < 0.015

    selfmask = parse_mgraph((DATA / "selfmask.cg").read_text())
    decision = recoverability(selfmask, {"Y"})
    assert isinstance(decision, NotRecoverable)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(
        f"\n[criterion 9] PASS: recovered error "
        f"{abs(est.value - truth):.4f} < 0.015 while complete-case bias "
        f"{abs(naive - truth):.3f} > 0.05; self-masking refused ({elapsed:.1f}s)"
    )


def test_c10_discovery_exhaustive_five_nodes():
    t0 = time.monotonic()
    total_dags = 0
    for n in (2, 3, 4, 5):
        names = gen.NAMES[:n]
        groups: dict = {}
        for dag in gen.all_dags(names):
            total_dags += 1
            sig = gen.dsep_signature(dag, names)
            groups.setdefault(sig, []).append(dag)
        for sig, dags in groups.items():
            want_dir, want_und = gen.cpdag_from_class(dags)
            got = discover_cpdag(gen.SignatureOracle(names, sig), names)
            assert got.directed == want_dir, dags[0]
            assert got.undirected == want_und, dags[0]
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(
        f"\n[criterion 10] PASS: PC reproduced the brute-force CPDAG for all "
        f"{total_dags} DAGs on up to 5 nodes ({elapsed:.1f}s)"
    )


def test_c11_fit_calibration():
    t0 = time.monotonic()
    chain = parse_graph("var X\nvar Y\nvar Z\nX -> Z\nZ -> Y\n")
    r = gen.rng(1111)
    rejections = 0
    runs = 500
    for i in range(runs):
        noise_z = float(r.uniform(0.1, 0.4))
        noise_y = float(r.uniform(0.1, 0.4))
        m = parse_scm(
            "\n".join(
                [
                    "exo UX {0: 0.5, 1: 0.5}",
                    f"exo UZ {{0: {1 - noise_z}, 1: {noise_z}}}",
                    f"exo UY {{0: {1 - noise_y}, 1: {noise_y}}}",
                    "endo X (UX) {(0) -> 0, (1) -> 1}",
                    "endo Z (X, UZ) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
                    "endo Y (Z, UY) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}",
                ]
            )
        )
        d = sample(m, 10_000, seed=20_000 + i)
        report = fit_indices(chain, d, alpha=0.05)
        assert len(report.entries) == 1
        if report.entries[0].rejected:
            rejections += 1
    rate = rejections / runs
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    assert 0.01 <= rate <= 0.10
    print(
        f"\n[criterion 11] PASS: per-statement rejection rate {rate:.3f} "
        f"within [0.01, 0.10] over {runs} compatible simulations ({elapsed:.1f}s)"
    )
