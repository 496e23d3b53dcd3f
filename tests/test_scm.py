import copy
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
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
    _conditional_pass,
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
    # probabilities that twelve digits do not carry come back exactly
    r = gen.rng(28)
    for _ in range(2000):
        w = r.random(3)
        probs = tuple(float(p) for p in w / w.sum())
        m = DiscreteScm({"U": ExogenousVar(("0", "1", "2"), probs)}, {})
        assert parse_scm(serialize_scm(m)).exogenous == m.exogenous
    assert serialize_scm(xor_scm()).startswith("exo U1 {0: 0.5, 1: 0.5}\nexo U2 {0: 0.9, 1: 0.1}\n")


def test_probabilities_must_sum_to_one():
    with pytest.raises(ScmError, match="sum"):
        ExogenousVar(("0", "1"), (0.6, 0.5))


def test_nan_probability_refused():
    with pytest.raises(ScmError, match="^NaN exogenous probability$"):
        ExogenousVar(("0", "1"), (math.nan, 1.0))
    with pytest.raises(ScmError, match="^negative exogenous probability$"):
        ExogenousVar(("0", "1"), (-0.5, 1.5))


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


COIN = "exo U {0: 0.5, 1: 0.5}\n"
TERNARY = {u: ExogenousVar(("0", "1", "2"), (0.2, 0.3, 0.5)) for u in "UW"}

# model text, or a callable that builds the model; the exact refusal
REFUSALS = {
    "malformed exogenous declaration": (
        "exo U 0: 0.5, 1: 0.5", "line 1: malformed exogenous declaration"),
    "malformed endogenous declaration": (
        "exo U {0: 1.0}\nendo X U {(0) -> 0}", "line 2: malformed endogenous declaration"),
    "not a declaration": ("var X", "line 1: expected 'exo' or 'endo'"),
    "malformed probability entry": (
        "exo U {0: 0.5, 1 0.5}", "line 1: malformed probability entry: '1 0.5'"),
    "malformed table entry": (
        COIN + "endo X (U) {(0) -> 0, (1) => 1}",
        "line 2: malformed table entry: '(1) => 1'"),
    "key width": (
        COIN + "endo X (U) {(0) -> 0, (1,0) -> 1}",
        "line 2: table key ('1', '0') does not match parent count"),
    "duplicate key": (
        COIN + "endo X (U) {(0) -> 0, (0) -> 1}", "line 2: duplicate table entry for ('0',)"),
    "duplicate declaration": (
        COIN + "endo U (U) {(0) -> 0, (1) -> 1}", "line 2: duplicate declaration of U"),
    "duplicate exogenous value": (
        "exo U {0: 0.5, 0: 0.5}", "line 1: duplicate values in exogenous domain"),
    "empty exogenous domain": ("exo U {}", "line 1: exogenous domain must be nonempty"),
    "probabilities off one": (
        "exo U {0: 0.6, 1: 0.5}", "line 1: exogenous probabilities sum to 1.1, not 1"),
    "negative probability": (
        "exo U {0: -0.5, 1: 1.5}", "line 1: negative exogenous probability"),
    "not total": (
        COIN + "endo X (U) {(0) -> 0, (7) -> 1}",
        "table of X is not total over its parent domains (missing [('1',)], extra [('7',)])"),
    "not total, first three of each": (
        lambda: DiscreteScm(TERNARY, {"X": EndogenousVar(("U", "W"), {
            ("0", "0"): "0", ("5", "5"): "1", ("6", "6"): "1", ("7", "7"): "0",
            ("8", "8"): "0", ("2", "2", "2"): "1", ("1",): "0"})}),
        "table of X is not total over its parent domains (missing [('0', '1'),"
        " ('0', '2'), ('1', '0')], extra [('1',), ('2', '2', '2'), ('5', '5')])"),
    "unknown parent": (COIN + "endo X (V) {(0) -> 0, (1) -> 1}", "unknown parent V of X"),
    "cyclic dependencies": (
        "endo A (B) {(0) -> 0, (1) -> 1}\nendo B (A) {(0) -> 0, (1) -> 1}",
        "cyclic structural dependencies: A -> B -> A"),
    "widened domain not covering its outputs": (
        lambda: DiscreteScm(
            {"U": ExogenousVar(("0", "1"), (0.5, 0.5))},
            {"X": EndogenousVar(("U",), {("0",): "0", ("1",): "1"})},
            endo_domains={"X": ("0", "2")},
        ),
        "domain of X does not cover its table outputs"),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_model_refusal_messages(case):
    source, message = case
    with pytest.raises(ScmError) as info:
        source() if callable(source) else parse_scm(source)
    assert str(info.value) == message


def test_model_refusal_order():
    # each fault is reported only once the ones before it are gone
    faults = ["0 -> 1, ", "(0,1) -> 1, ", "(0) -> 1, "]
    messages = [
        "line 2: malformed table entry: '0 -> 1'",
        "line 2: table key ('0', '1') does not match parent count",
        "line 2: duplicate table entry for ('0',)",
        "table of X is not total over its parent domains (missing [('1',)], extra [])",
    ]
    for i, message in enumerate(messages):
        body = "(0) -> 0, " + "".join(faults[i:])
        with pytest.raises(ScmError) as info:
            parse_scm(COIN + f"endo X (U) {{{body}}}")
        assert str(info.value) == message


def test_not_total_message_matches_set_difference():
    r = gen.rng(29)
    for _ in range(300):
        m = gen.random_scm(r, n_endo=int(r.integers(1, 4)), n_exo=int(r.integers(1, 4)))
        v = str(r.choice(m.order))
        spec = m.endogenous[v]
        doms = [m.parent_domain(p) for p in spec.parents]
        table = dict(spec.table)
        for key in sorted(table)[: int(r.integers(0, len(table)))]:
            if r.random() < 0.5:
                del table[key]
        for _ in range(int(r.integers(0, 5))):
            width = len(doms) + int(r.integers(-1, 2))
            table[tuple(str(r.integers(0, 4)) for _ in range(width))] = "1"
        expected = set(itertools.product(*doms))
        endogenous = {**m.endogenous, v: EndogenousVar(spec.parents, table)}
        if table.keys() == expected:
            continue
        with pytest.raises(ScmError) as info:
            DiscreteScm(m.exogenous, endogenous)
        assert str(info.value) == (
            f"table of {v} is not total over its parent domains"
            f" (missing {sorted(expected - table.keys())[:3]},"
            f" extra {sorted(table.keys() - expected)[:3]})"
        )


def test_wide_mechanism_refused_by_counting():
    # 2**20 parent combinations against one entry: refused without listing them
    n = 20
    text = "".join(f"exo U{i} {{0: 0.5, 1: 0.5}}\n" for i in range(n))
    parents = ",".join(f"U{i}" for i in range(n))
    text += f"endo X ({parents}) {{({','.join('0' * n)}) -> 0}}\n"
    tracemalloc.start()
    try:
        with pytest.raises(ScmError) as info:
            parse_scm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    zeros = ("0",) * n
    missing = [zeros[:-1] + ("1",), zeros[:-2] + ("1", "0"), zeros[:-2] + ("1", "1")]
    assert str(info.value) == (
        f"table of X is not total over its parent domains (missing {missing}, extra [])"
    )
    assert peak < 1 << 20


def _fuzz_text(r) -> str:
    """A small model file, often with empty entries, odd spacing and a
    trailing comma; half the time with a few characters changed."""
    def sp():
        return " " * int(r.integers(0, 3))

    values = ["0", "1", "2"][: int(r.integers(1, 4))]
    lines = []
    exo = [f"U{i}" for i in range(int(r.integers(1, 3)))]
    for u in exo:
        w = r.integers(1, 5, size=len(values))
        entries = [f"{sp()}{v}{sp()}:{sp()}{float(p / w.sum())!r}"
                   for v, p in zip(values, w)]
        lines.append(f"exo {u} {{{_fuzz_body(r, entries)}}}")
    names = exo[:]
    for x in ("X", "Y")[: int(r.integers(1, 3))]:
        width = int(r.integers(0, min(len(names), 2) + 1))
        parents = [str(p) for p in r.choice(names, size=width, replace=False)]
        entries = [
            f"{sp()}({sp()}{','.join(key)}{sp()}){sp()}->{sp()}{r.choice(values)}"
            for key in itertools.product(values, repeat=width) if r.random() < 0.95
        ]
        lines.append(f"endo {x} ({', '.join(parents)}) {{{_fuzz_body(r, entries)}}}")
        names.append(x)
    text = "\n".join(lines)
    if r.random() < 0.5:
        chars = list(text)
        for _ in range(int(r.integers(1, 4))):
            i = int(r.integers(0, len(chars)))
            c = str(r.choice(list("(),,, ->:01x.{}")))
            kind = r.integers(0, 3)
            if kind == 0:
                chars.insert(i, c)
            elif kind == 1:
                del chars[i]
            else:
                chars[i] = c
        text = "".join(chars)
    return text


def _fuzz_body(r, entries) -> str:
    """Entries joined by commas, with a few blank ones among them."""
    for _ in range(int(r.integers(0, 3))):
        entries.insert(int(r.integers(0, len(entries) + 1)), " " * int(r.integers(0, 2)))
    return ",".join(entries) + ("," if r.random() < 0.3 else "")


def _flat_parentheses(text: str) -> bool:
    """No parenthesis inside another, none closed before it opens."""
    for line in text.splitlines():
        depth = 0
        for ch in line.split("#", 1)[0]:
            depth += (ch == "(") - (ch == ")")
            if depth not in (0, 1):
                return False
    return True


def _outcome(parse, text):
    try:
        m = parse(text)
    except ScmError as exc:
        return str(exc)
    return m.exogenous, m.endogenous, m.order, m.endo_domains


def test_parser_agrees_with_split_oracle():
    r = gen.rng(30)
    accepted = 0
    for _ in range(20_000):
        text = _fuzz_text(r)
        got = _outcome(parse_scm, text)
        want = _outcome(gen.parse_scm_by_split, text)
        if _flat_parentheses(text):
            assert got == want, text
        else:
            assert isinstance(got, str) and isinstance(want, str), text
        accepted += not isinstance(got, str)
    assert accepted > 2_000


def test_stored_codes_match_table_lookup():
    r = gen.rng(31)
    for i in range(200):
        m = gen.random_scm(r, n_endo=int(r.integers(1, 5)), n_exo=int(r.integers(1, 4)))
        if i % 2:
            m = intervene(m, {str(r.choice(m.order)): str(int(r.integers(0, 2)))})
        n = 16
        exo = {u: r.integers(0, 2, size=n).astype(np.uint8) for u in m.exogenous}
        (codes,) = gen.solve_worlds(m, exo, n, [{}])
        for s in range(n):
            want = gen._worklist_solve(m, {u: m.exogenous[u].domain[c[s]] for u, c in exo.items()})
            assert {v: m.endo_domains[v][codes[v][s]] for v in m.order} == {
                v: want[v] for v in m.order
            }
        assert all(codes[v].dtype == np.uint8 for v in m.order)


@pytest.mark.parametrize("copy_of", [
    lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy,
])
def test_model_copies_keep_stored_codes_read_only(copy_of):
    text = (Path(__file__).parent / "data" / "med.scm").read_text(encoding="utf-8")
    # the pinned model carries a widened domain for M into its copies
    for m in (parse_scm(text), intervene(parse_scm(text), {"M": "1"})):
        c = copy_of(m)
        assert (c.order, c.endo_domains) == (m.order, m.endo_domains)
        assert serialize_scm(c) == serialize_scm(m)
        # the stored codes are tuples, which no copy can write through
        assert c._codes == m._codes
        assert all(type(codes) is tuple for codes in c._codes.values())
        assert observational_joint(c).mass == observational_joint(m).mass


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


def test_state_space_cap(monkeypatch):
    import scmkit.scm

    m = xor_scm()
    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateSpaceOverflow):
        observational_joint(m)
    # one exogenous coin drives three endogenous copies: the cap counts its
    # 2 states, not the 8 possible cells
    m = parse_scm(
        "exo U {0: 0.5, 1: 0.5}\n"
        + "".join(f"endo {v} (U) {{(0) -> 0, (1) -> 1}}\n" for v in "XYZ")
    )
    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 2)
    assert observational_joint(m).mass == {("0",) * 3: 0.5, ("1",) * 3: 0.5}
    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 1)
    with pytest.raises(StateSpaceOverflow, match="2 exogenous states exceed the cap of 1"):
        observational_joint(m)


def test_counterfactual_respects_state_cap(monkeypatch):
    import scmkit.scm

    monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 3)
    with pytest.raises(StateSpaceOverflow, match="4 exogenous states exceed the cap of 3"):
        joint_counterfactual(xor_scm(), [({"X": "1"}, {"Y": "1"})], {"X": "0"})


def test_cap_counts_the_grid_of_the_exogenous_variables_read(monkeypatch):
    import scmkit.scm

    r = gen.rng(36)
    narrower = 0
    for i in range(160):
        if i % 2:
            m = gen.random_ternary_scm(r, n_endo=int(r.integers(2, 6)), n_exo=int(r.integers(1, 6)))
        else:
            m = gen.random_scm(r, n_endo=int(r.integers(2, 5)), n_exo=int(r.integers(1, 5)))
        x, y = map(str, r.choice(m.order, 2, replace=False))
        dx, dy = m.endo_domains[x], m.endo_domains[y]
        x0, x1, y0, y1 = dx[0], dx[-1], dy[0], dy[-1]
        # a counterfactual, or PN, PS and PNS as pn_ps_exact asks them
        questions = [({y: y0}, [({x: x1}, {y: y1})])] if i % 4 < 2 else [
            ({x: x1, y: y1}, [({x: x0}, {y: y0})]),
            ({x: x0, y: y0}, [({x: x1}, {y: y1})]),
            ({}, [({x: x1}, {y: y1}), ({x: x0}, {y: y0})]),
        ]
        monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 0)
        with pytest.raises(StateSpaceOverflow) as refused:
            _conditional_pass(m, questions)
        n = int(re.fullmatch(r"(\d+) exogenous states exceed the cap of 0", str(refused.value))[1])
        monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", n - 1)
        with pytest.raises(StateSpaceOverflow, match=f"^{n} exogenous states exceed the cap of"):
            _conditional_pass(m, questions)
        monkeypatch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", n)
        _, held = _conditional_pass(m, questions)
        assert held <= n <= m.exo_state_count()
        narrower += n < m.exo_state_count()
    assert narrower > 20


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


def _random_query(r, m):
    """Evidence and one to three (do, targets) worlds over ``m``'s
    endogenous variables and domains; a target may be pinned by its world."""
    names = sorted(m.endogenous)

    def assignment(lo):
        picked = r.choice(names, size=int(r.integers(lo, len(names) + 1)), replace=False)
        return {str(v): str(r.choice(m.endo_domains[str(v)])) for v in picked}

    return assignment(0), [(assignment(0), assignment(1)) for _ in range(int(r.integers(1, 4)))]


def _oracle_models(r, count):
    """Binary and ternary models, some intervened, some with a widened
    domain and an exogenous variable that no mechanism reads."""
    for i in range(count):
        n_endo, n_exo = int(r.integers(2, 5)), int(r.integers(1, 4))
        if i % 4 == 0:
            m = gen.random_scm(r, n_endo=n_endo, n_exo=n_exo + 1)
        else:
            m = gen.random_ternary_scm(r, n_endo=n_endo, n_exo=n_exo)
        if i % 4 == 2:
            v = str(r.choice(sorted(m.endogenous)))
            m = intervene(m, {v: str(r.choice(m.endo_domains[v]))})
        if i % 4 == 3:
            # a domain that no mechanism reads may widen
            v = str(r.choice([v for v in sorted(m.endogenous)
                              if all(v not in e.parents for e in m.endogenous.values())]))
            exogenous = {**m.exogenous, "UNREAD": ExogenousVar(("a", "b"), (0.25, 0.75))}
            m = DiscreteScm(exogenous, m.endogenous,
                            endo_domains={v: m.endo_domains[v] + ("9",)})
        yield m


def test_sweep_matches_the_grid_and_brute_oracles():
    r = gen.rng(90)
    zero = 0
    for i, m in enumerate(_oracle_models(r, 400)):
        questions = [_random_query(r, m) for _ in range(1 + 2 * (i % 5 == 0))]
        wants = []
        for evidence, worlds in questions:
            want = gen.counterfactual_by_arrays(m, worlds, evidence)
            brute = gen.brute_counterfactual(m, worlds, evidence)
            assert (want is None) == (brute is None)
            if want is None:
                zero += 1
                with pytest.raises(ZeroEvidence):
                    joint_counterfactual(m, worlds, evidence)
            else:
                got = joint_counterfactual(m, worlds, evidence)
                assert got == pytest.approx(want, abs=1e-12)
                assert got == pytest.approx(brute, abs=1e-12)
            wants.append(want)
        # several questions answered by one sweep
        answers, _ = _conditional_pass(m, questions)
        assert [a is None for a in answers] == [w is None for w in wants]
        assert [a for a in answers if a is not None] == pytest.approx(
            [w for w in wants if w is not None], abs=1e-12)
        got, want = observational_joint(m), gen.observational_joint_by_arrays(m)
        assert (got.variables, got._cols) == (want.variables, want._cols)
        assert got._weights == pytest.approx(want._weights, abs=1e-12)
    assert zero > 50


def _pairs(k):
    """k independent pairs U_i -> X_i."""
    return DiscreteScm(
        {f"U{i}": ExogenousVar(("0", "1"), (0.5, 0.5)) for i in range(k)},
        {f"X{i}": EndogenousVar((f"U{i}",), {("0",): "0", ("1",): "1"}) for i in range(k)},
    )


def _ternary_chain(links):
    """V0 := U0 and V_i := (V_{i-1} + U_i) mod 3."""
    t = ("0", "1", "2")
    exogenous = {f"U{i}": ExogenousVar(t, (0.2, 0.3, 0.5)) for i in range(links + 1)}
    endogenous = {"V0": EndogenousVar(("U0",), {(a,): a for a in t})}
    for i in range(1, links + 1):
        endogenous[f"V{i}"] = EndogenousVar(
            (f"V{i - 1}", f"U{i}"), {(a, b): str((int(a) + int(b)) % 3) for a in t for b in t}
        )
    return DiscreteScm(exogenous, endogenous)


def _wide_ring(k):
    """A_i := U_i and B_i := (A_i + U_{i+1 mod k}) mod 3."""
    t = ("0", "1", "2")
    endogenous = {}
    for i in range(k):
        endogenous[f"A{i}"] = EndogenousVar((f"U{i}",), {(a,): a for a in t})
        endogenous[f"B{i}"] = EndogenousVar(
            (f"A{i}", f"U{(i + 1) % k}"),
            {(a, b): str((int(a) + int(b)) % 3) for a in t for b in t},
        )
    return DiscreteScm({f"U{i}": ExogenousVar(t, (0.2, 0.3, 0.5)) for i in range(k)}, endogenous)


def test_held_states_stay_small_on_wide_models():
    # the pairs probe: only X1's pair is read, so 2**20 states hold one
    (value,), held = _conditional_pass(_pairs(20), [({"X1": "0"}, [({"X0": "1"}, {"X1": "1"})])])
    assert value == 0.0 and held == 1
    # a ternary chain and its surgered copy share every noise term, so the
    # states hold the two copies of one link and its noise; the grid oracle
    # checks the value on 6 links, where it holds 3**7 states, not 3**14
    for links in (6, 13):
        m = _ternary_chain(links)
        question = ({f"V{links}": "0"}, [({"V0": "1"}, {f"V{links}": "2"})])
        (value,), held = _conditional_pass(m, [question])
        if links == 6:
            assert value == pytest.approx(
                gen.counterfactual_by_arrays(m, *question[::-1]), abs=1e-12)
        assert 0.0 < value < 1.0 and held <= 27
    # the wide ring with every B_i a target: its tests fold into the mask as
    # each B_i is computed, so the joint of the targets is never held
    k = 10
    u = [1, 2, 0, 1, 1, 2, 0, 1, 2, 0]
    targets = {f"B{i}": str((u[i] + u[(i + 1) % k]) % 3) for i in range(k)}
    targets["B0"] = str(u[1])  # A0 is pinned to 0 in the surgered world
    m = _wide_ring(k)
    question = ({"A0": "1"}, [({"A0": "0"}, targets)])
    (value,), held = _conditional_pass(m, [question])
    assert value > 0.0
    assert value == pytest.approx(gen.counterfactual_by_arrays(m, *question[::-1]), abs=1e-12)
    assert held <= 9


def test_copies_that_no_surgery_reaches_are_computed_once(monkeypatch):
    import scmkit.scm

    computed = []
    lookup = scmkit.scm._lookup

    def counting(m, v, *args):
        computed.append(v)
        return lookup(m, v, *args)

    monkeypatch.setattr(scmkit.scm, "_lookup", counting)
    # Y := (V12 + X) mod 3 below the chain: do(X) leaves the chain one slot
    # in both worlds, and only Y has two copies
    t = ("0", "1", "2")
    chain = _ternary_chain(12)
    m = DiscreteScm({**chain.exogenous, "UX": ExogenousVar(t, (0.2, 0.3, 0.5))}, {
        **chain.endogenous,
        "X": EndogenousVar(("UX",), {(a,): a for a in t}),
        "Y": EndogenousVar(("V12", "X"), {(a, b): str((int(a) + int(b)) % 3) for a in t for b in t}),
    })
    joint_counterfactual(m, [({"X": "0"}, {"Y": "1"})], {"Y": "2"})
    assert sorted(computed) == sorted([f"V{i}" for i in range(13)] + ["X", "Y", "Y"])


def test_answers_do_not_depend_on_the_hash_seed():
    # a ternary model with 3**9 = 19,683 exogenous states, as the benchmark's
    code = (
        "import gen\n"
        "from scmkit.mediation import mediation_effects_scm\n"
        "from scmkit.pnps import pn_ps_exact\n"
        "from scmkit.scm import joint_counterfactual, observational_joint\n"
        "m = gen.random_ternary_scm(gen.rng(91), n_endo=5, n_exo=9, p_zero=0.0)\n"
        "x, y = 'B', 'E'\n"
        "vx, vy = m.endo_domains[x], m.endo_domains[y]\n"
        "print(repr(joint_counterfactual(m, [({x: vx[0]}, {y: vy[-1]})], {x: vx[-1]})))\n"
        "print(repr(pn_ps_exact(m, x, y, vx[-1], vx[0], vy[-1], vy[0])))\n"
        "print(repr(mediation_effects_scm(m, 'A', 'C', 'E', '0', '1')))\n"
        "print(repr(observational_joint(m)._weights))\n"
    )
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert gen.random_ternary_scm(gen.rng(91), n_endo=5, n_exo=9, p_zero=0.0).exo_state_count() == 3**9


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
        assert (got._cols, got._count, got._index) == (want._cols, want._count, want._index)


def test_sample_of_a_model_without_endogenous_variables():
    d = sample(parse_scm("exo U {0: 0.5, 1: 0.5}"), 5, seed=1)
    assert (d.n, d.columns, d.rows) == (5, (), ((),) * 5)
    assert (d._cols, d._count, list(d._index)) == ((), [5], [0] * 5)


def _binary_chain(k):
    """V00 -> V01 -> ... with each link flipped by its own coin."""
    exogenous = {f"U{i:02}": ExogenousVar(("0", "1"), (0.7, 0.3)) for i in range(k)}
    endogenous = {"V00": EndogenousVar(("U00",), {("0",): "0", ("1",): "1"})}
    for i in range(1, k):
        endogenous[f"V{i:02}"] = EndogenousVar(
            (f"V{i - 1:02}", f"U{i:02}"),
            {(a, b): str(int(a) ^ int(b)) for a in "01" for b in "01"},
        )
    return DiscreteScm(exogenous, endogenous)


def _stored(d):
    return d.columns, d.domains, d._cols, d._count, d._index


def test_sample_and_observational_joint_match_the_numpy_grouping_oracles():
    def cells(t):
        return t.variables, dict(t.domains), t._cols

    def same_joint(got, want):
        # the sweep sums the masses in another order than the grid
        return cells(got) == cells(want) and got._weights == pytest.approx(want._weights, abs=1e-12)

    r = gen.rng(75)
    models = []
    for i in range(300):
        m = gen.random_scm(r, n_endo=int(r.integers(1, 6)), n_exo=int(r.integers(1, 4)))
        if i % 2:
            pinned = r.choice(sorted(m.endogenous), size=int(r.integers(1, 3)))
            m = intervene(m, {str(v): str(int(r.integers(0, 2))) for v in pinned})
        models.append((m, int(r.integers(1, 2000))))
    # a widened domain out of sorted order, and a model with no endogenous variable
    base = xor_scm()
    models.append((DiscreteScm(base.exogenous, base.endogenous,
                               endo_domains={"X": ("1", "0"), "Y": ("1", "9", "0")}), 500))
    models.append((parse_scm("exo U {0: 0.5, 1: 0.5}"), 5))
    for seed, (m, n) in enumerate(models):
        assert _stored(sample(m, n, seed)) == _stored(gen.sample_by_arrays(m, n, seed))
        assert same_joint(observational_joint(m), gen.observational_joint_by_arrays(m))
    assert observational_joint(models[-2][0]).domains["Y"] == ("1", "9", "0")
    assert observational_joint(models[-1][0])._weights == [1.0]


def test_sample_is_not_bound_to_an_int64_key():
    # 70 binary columns have 2**70 possible rows
    m = _binary_chain(70)
    d = sample(m, 2000, seed=8)
    assert d.n == 2000 and len(d.columns) == 70
    assert _stored(d) == _stored(gen.sample_by_arrays(m, 2000, seed=8))


def test_wide_grids_are_answered_or_refused_by_what_they_read(monkeypatch):
    import scmkit.scm

    # a query about one of k pairs reads 2 states at any k
    for k in (24, 60):
        assert joint_counterfactual(_pairs(k), [({"X0": "1"}, {"X1": "1"})], {"X1": "0"}) == 0.0
    with monkeypatch.context() as patch:
        patch.setattr(scmkit.scm, "DEFAULT_STATE_CAP", 1)
        with pytest.raises(StateSpaceOverflow, match="^2 exogenous states exceed the cap of 1$"):
            joint_counterfactual(_pairs(60), [({"X0": "1"}, {"X1": "1"})], {"X1": "0"})
    # the joint of all 24 pairs, a chain's joint and its end's counterfactual
    # read every noise term, and are refused before any mechanism is looked
    # up; a sweep that undercounted would fail on the patched lookup at once
    # instead of holding 2**24 states or more
    computed = []
    monkeypatch.setattr(scmkit.scm, "_lookup", lambda *args: computed.append(args))
    with pytest.raises(StateSpaceOverflow, match="^16777216 exogenous states exceed the cap"):
        observational_joint(_pairs(24))
    with pytest.raises(StateSpaceOverflow, match=f"^{2**70} exogenous states exceed"):
        observational_joint(_binary_chain(70))
    with pytest.raises(StateSpaceOverflow, match=f"^{3**31} exogenous states exceed"):
        joint_counterfactual(_ternary_chain(30), [({"V0": "1"}, {"V30": "2"})], {"V30": "0"})
    assert computed == []


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
