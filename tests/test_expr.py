import copy
import dataclasses
import itertools
import math
import pickle
import re
import threading

import numpy as np
import pytest

import gen
from scmkit.expr import (
    ONE,
    ConditioningOnZero,
    EstimandError,
    EstimandParseError,
    JointTable,
    ProbTerm,
    Product,
    Quotient,
    Sum,
    UnboundSymbol,
    Val,
    eval_estimand,
    free_variables,
    parse_estimand,
    render,
    simplify,
)
from scmkit.evaluate import eval_rows

ADJUSTMENT_TEXT = "sum_{z} P(y|x,z) * P(z)"


def backdoor_estimand():
    return Sum(
        "Z",
        "z",
        Product(
            (
                ProbTerm((Val("Y", "y"),), (Val("X", "x"), Val("Z", "z"))),
                ProbTerm((Val("Z", "z"),)),
            )
        ),
    )


# --- grammar -------------------------------------------------------------------


def test_parse_single_prob_term():
    e = parse_estimand("P(y|x)")
    assert e == ProbTerm((Val("Y", "y"),), (Val("X", "x"),))


def test_render_backdoor_estimand_exactly():
    assert render(backdoor_estimand()) == ADJUSTMENT_TEXT


def test_parse_backdoor_estimand():
    assert parse_estimand(ADJUSTMENT_TEXT) == backdoor_estimand()


def test_duplicate_bound_variable_rejected():
    with pytest.raises(EstimandParseError, match="duplicate bound variable"):
        parse_estimand("sum_{z} sum_{z} P(z)")


def test_parse_error_position():
    with pytest.raises(EstimandParseError, match="column"):
        parse_estimand("P(y|")


def test_explicit_assignment_literal_vs_bound():
    lit = parse_estimand("P(Y=1|X=0)")
    assert lit == ProbTerm((Val("Y", "1", True),), (Val("X", "0", True),))
    bound = parse_estimand("sum_{x2} P(y|X=x2) * P(X=x2)")
    assert bound.var == "X"
    assert not bound.body.factors[0].given[0].literal


def test_multi_binder_sugar():
    e = parse_estimand("sum_{x,z} P(x,z)")
    assert isinstance(e, Sum) and isinstance(e.body, Sum)
    assert e.token == "x" and e.body.token == "z"


def test_one_parses_and_renders():
    assert parse_estimand("1") == ONE
    assert render(ONE) == "1"


def test_quotient_and_parens_roundtrip():
    e = parse_estimand("P(x) / (P(y) * P(z))")
    assert e == Quotient(ProbTerm((Val("X", "x"),)),
                         Product((ProbTerm((Val("Y", "y"),)), ProbTerm((Val("Z", "z"),)))))
    assert parse_estimand(render(e)) == e


def test_roundtrip_random_asts():
    r = gen.rng(3)
    for _ in range(1000):
        variables = ["X", "Y", "Z", "W"][: int(r.integers(2, 5))]
        e = gen.random_estimand(r, variables)
        assert parse_estimand(render(e)) == e


def _parse_outcome(text):
    """Each parser's node, or its error type, message and column, for one text."""
    out = []
    for parse in (parse_estimand, gen.parse_estimand_by_frames):
        try:
            out.append(("ok", parse(text)))
        except EstimandError as exc:
            out.append((type(exc), str(exc), getattr(exc, "pos", None)))
    return out


def test_parser_agrees_with_the_frame_loop_on_valid_and_mutated_texts():
    r = gen.rng(16)
    pieces = ["sum_{", "sum_{x,y} ", "P(", "(", ")", "}", "|", ",", "=", " * ", "/",
              "1", " ", "x", "y2", "X=", "Y=1", "Z=z", "x,", "P(x)", "_", "0"]
    accepted = refused = 0
    for i in range(4000):
        variables = ["X", "Y", "Z", "W"][: int(r.integers(2, 5))]
        text = render(gen.random_estimand(r, variables, depth=int(r.integers(0, 5))))
        if r.random() < 0.5:  # sums over t, whose variable comes from its first use
            v = variables[int(r.integers(0, len(variables)))]
            text = text.replace(f"sum_{{{v.lower()}}}", "sum_{t}")
            text = re.sub(rf"(?<=[(|,]){v.lower()}(?=[,|)])", f"{v}=t", text)
        if i % 2:
            for _ in range(int(r.integers(1, 4))):
                at = int(r.integers(0, len(text) + 1))
                cut = at + int(r.integers(0, 3)) * int(r.random() < 0.5)
                piece = pieces[int(r.integers(0, len(pieces)))] if r.random() < 0.7 else ""
                text = text[:at] + piece + text[cut:]
        new, old = _parse_outcome(text)
        assert new == old, text
        if new[0] == "ok":
            accepted += 1
        else:
            refused += 1
    assert accepted > 2200 and refused > 1000


def test_empty_product_rejected():
    with pytest.raises(EstimandError):
        Product(())
    with pytest.raises(EstimandError):
        Product((ProbTerm((Val("X", "x"),)),))


def test_duplicate_variable_in_term_rejected():
    with pytest.raises(EstimandError):
        ProbTerm((Val("X", "x"),), (Val("X", "x2"),))


# --- evaluation -----------------------------------------------------------------


def test_eval_marginal():
    r = gen.rng(5)
    t = gen.random_joint(r, ["X", "Y"], [2, 3])
    e = parse_estimand("P(x)")
    for xv in t.domains["X"]:
        assert eval_estimand(e, t, {"X": xv}) == pytest.approx(
            t.prob({"X": xv}), abs=1e-15
        )


def test_eval_backdoor_matches_hand_sum():
    r = gen.rng(6)
    for _ in range(40):
        t = gen.random_joint(r, ["X", "Y", "Z"], [2, 2, int(r.integers(2, 4))])
        got = eval_estimand(backdoor_estimand(), t, {"X": "1", "Y": "0"})
        want = gen.eval_sum_by_hand(t, ("Y", "0"), ("X", "1"), "Z")
        assert got == pytest.approx(want, abs=1e-12)


def test_eval_conditioning_on_zero():
    t = JointTable(
        ("X", "Y"),
        {"X": ("0", "1"), "Y": ("0", "1")},
        {("0", "0"): 0.5, ("0", "1"): 0.5},
    )
    with pytest.raises(ConditioningOnZero):
        eval_estimand(parse_estimand("P(y|x)"), t, {"X": "1", "Y": "0"})


def test_eval_unbound_symbol():
    t = gen.random_joint(gen.rng(1), ["X"], [2])
    with pytest.raises(UnboundSymbol):
        eval_estimand(parse_estimand("P(x)"), t, {})


def test_eval_product_linearity():
    r = gen.rng(8)
    t = gen.random_joint(r, ["X", "Y"], [2, 2])
    fx = parse_estimand("P(x)")
    fy = parse_estimand("P(y)")
    prod = Product((fx, fy))
    binding = {"X": "1", "Y": "0"}
    assert eval_estimand(prod, t, binding) == pytest.approx(
        eval_estimand(fx, t, binding) * eval_estimand(fy, t, binding), abs=1e-15
    )


def test_eval_value_outside_domain_has_zero_mass():
    t = gen.random_joint(gen.rng(2), ["X"], [2])
    assert eval_estimand(parse_estimand("P(x)"), t, {"X": "9"}) == 0.0
    with pytest.raises(ConditioningOnZero):
        eval_estimand(parse_estimand("P(X=0|Y=9)"), gen.random_joint(gen.rng(2), ["X", "Y"], [2, 2]))


def test_eval_in_unit_interval():
    r = gen.rng(9)
    for _ in range(50):
        t = gen.random_joint(r, ["X", "Y", "Z"], [2, 2, 2])
        got = eval_estimand(backdoor_estimand(), t, {"X": "0", "Y": "1"})
        assert -1e-9 <= got <= 1 + 1e-9


def _outcome(fn, *args):
    """('ok', value) or (exception type, message) of one call."""
    try:
        return "ok", fn(*args)
    except (ArithmeticError, EstimandError) as exc:
        return type(exc), str(exc)


def _random_case(r, variables=("X", "Y", "Z")):
    """A random estimand, a full or sparse joint, and a binding that may
    name values outside the domain or leave a symbol unbound."""
    sizes = [int(k) for k in r.integers(1, 4, size=len(variables))]
    if r.random() < 0.5:
        t = gen.random_joint(r, list(variables), sizes)
    else:
        t = gen.sparse_joint(r, list(variables), sizes)
    e = gen.random_estimand(r, list(variables), depth=3)
    binding = {
        v: str(int(r.integers(0, 4))) for v in variables if r.random() < 0.9
    }
    return e, t, binding


def test_eval_matches_dict_scan_oracle():
    r = gen.rng(61)
    kinds = set()
    for _ in range(600):
        e, t, binding = _random_case(r)
        want = _outcome(gen.dict_scan_eval, e, t, binding)
        got = _outcome(eval_estimand, e, t, binding)
        kinds.add(want[0])
        assert got[0] == want[0]
        if want[0] == "ok":
            assert isinstance(got[1], float)
            assert got[1] == pytest.approx(want[1], abs=1e-12)
        else:
            assert got[1] == want[1]
    assert kinds == {"ok", ConditioningOnZero, UnboundSymbol}


def test_eval_estimand_matches_the_recursive_row_evaluator_bit_for_bit():
    # the plain-float evaluator against the numpy one on the table's own row:
    # the same float bits, or the same refusal type and message
    r = gen.rng(64)
    kinds = set()
    for _ in range(1500):
        variables = ["X", "Y", "Z"][: int(r.integers(1, 4))]
        sizes = [int(k) for k in r.integers(1, 4, size=len(variables))]
        if r.random() < 0.5:
            t = gen.random_joint(r, variables, sizes)
        else:
            t = gen.sparse_joint(r, variables, sizes, keep=0.3)  # zero strata
        named = variables + ["W"] * (r.random() < 0.1)  # W is not in the table
        e = gen.random_estimand(r, named, depth=int(r.integers(1, 5)))
        binding = {v: str(int(r.integers(0, 4))) for v in named if r.random() < 0.9}
        want = _rows_outcome(gen.eval_rows_by_recursion, e, t, np.array([t._weights]), binding)
        got = _outcome(eval_estimand, e, t, binding)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert got[0] == "ok" and type(got[1]) is float
            assert np.array([got[1]]).tobytes() == want[1]
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
    assert kinds == {"ok", ConditioningOnZero, UnboundSymbol}


def test_eval_rows_matches_one_evaluation_per_row():
    # rows are sparse tables over one support; a row is marked exactly when
    # evaluating it alone hits a zero event before any other error
    r = gen.rng(62)
    variables = ["X", "Y", "Z"]
    for _ in range(150):
        full = gen.random_joint(r, variables, [int(k) for k in r.integers(1, 4, size=3)])
        keys = list(full.mass)
        weights = r.dirichlet(np.ones(len(keys)), size=int(r.integers(1, 6)))
        weights[r.random(weights.shape) < 0.4] = 0.0
        weights[weights.sum(axis=1) == 0.0, 0] = 1.0
        weights /= weights.sum(axis=1, keepdims=True)
        e = gen.random_estimand(r, variables, depth=3)
        binding = {v: str(int(r.integers(0, 3))) for v in variables if r.random() < 0.9}
        want = [
            _outcome(
                gen.dict_scan_eval,
                e,
                JointTable(full.variables, full.domains, dict(zip(keys, row))),
                binding,
            )
            for row in weights
        ]
        zero = np.array([kind is ConditioningOnZero for kind, _ in want])
        failed = [w for w in want if w[0] not in ("ok", ConditioningOnZero)]
        if zero.all():
            with pytest.raises(ConditioningOnZero):
                eval_rows(e, full, weights, binding)
        elif failed:
            with pytest.raises(failed[0][0]) as info:
                eval_rows(e, full, weights, binding)
            assert str(info.value) == failed[0][1]
        else:
            values, marked = eval_rows(e, full, weights, binding)
            assert (marked == zero).all()
            for value, (kind, expect) in zip(values, want):
                if kind == "ok":
                    assert value == pytest.approx(expect, abs=1e-12)


def test_eval_single_row_keeps_zero_before_unbound():
    # the zero event comes first in evaluation order, so it is the refusal
    t = JointTable(("X", "Y"), {"X": ("0", "1"), "Y": ("0", "1")}, {("0", "0"): 1.0})
    e = parse_estimand("P(y|X=1) * P(Z=0)")
    with pytest.raises(ConditioningOnZero, match="X=1$"):
        eval_estimand(e, t, {"Y": "0"})
    with pytest.raises(UnboundSymbol):
        eval_estimand(parse_estimand("P(Z=0) * P(y|X=1)"), t, {"Y": "0"})


def test_eval_rows_marks_rows_and_raises_when_all_are_marked():
    t = JointTable(("X", "Y"), {"X": ("0", "1"), "Y": ("0", "1")},
                   {("0", "0"): 0.5, ("1", "1"): 0.5})
    e = parse_estimand("P(Y=1|X=1) / P(Y=0)")
    values, marked = eval_rows(e, t, np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]))
    assert marked.tolist() == [False, True, True]
    assert values[0] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(ConditioningOnZero, match="quotient denominator is zero"):
        eval_rows(e, t, np.array([[0.0, 1.0]]))
    with pytest.raises(ConditioningOnZero, match="X=1$"):
        eval_rows(e, t, np.array([[1.0, 0.0], [1.0, 0.0]]))


def _rows_outcome(fn, *args):
    """Values and marked rows as raw bytes, or the error type and message."""
    try:
        values, marked = fn(*args)
    except (ArithmeticError, EstimandError) as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes(), marked.tobytes()


def test_eval_rows_matches_the_recursive_evaluator_bit_for_bit():
    r = gen.rng(63)
    kinds, partly_marked = set(), 0
    for _ in range(2400):
        variables = ["X", "Y", "Z"][: int(r.integers(1, 4))]
        t = gen.sparse_joint(r, variables, [int(k) for k in r.integers(1, 4, size=len(variables))])
        weights = r.dirichlet(np.ones(len(t._weights)), size=int(r.integers(1, 6)))
        weights[r.random(weights.shape) < 0.4] = 0.0  # zero strata
        weights[weights.sum(axis=1) == 0.0, 0] = 1.0
        weights /= weights.sum(axis=1, keepdims=True)
        named = variables + ["W"] * (r.random() < 0.1)  # W is not in the table
        e = gen.random_estimand(r, named, depth=int(r.integers(1, 5)))
        binding = {v: str(int(r.integers(0, 4))) for v in named if r.random() < 0.9}
        want = _rows_outcome(gen.eval_rows_by_recursion, e, t, weights, binding)
        assert _rows_outcome(eval_rows, e, t, weights, binding) == want
        if isinstance(want[0], type):
            kinds.add(want[0])
        else:
            kinds.add("ok")
            partly_marked += 0 < np.frombuffer(want[2], bool).sum() < len(weights)
    assert kinds == {"ok", ConditioningOnZero, UnboundSymbol}
    assert partly_marked > 50


# --- simplification --------------------------------------------------------------


def test_total_probability_collapse():
    e = parse_estimand("sum_{z} P(x|z) * P(z)")
    assert simplify(e) == parse_estimand("P(x)")


def test_backdoor_estimand_unchanged():
    assert simplify(backdoor_estimand()) == backdoor_estimand()


def test_simplify_idempotent_on_randoms():
    r = gen.rng(10)
    for _ in range(300):
        variables = ["X", "Y", "Z", "W"][: int(r.integers(2, 5))]
        e = gen.random_estimand(r, variables)
        once = simplify(e)
        assert simplify(once) == once


def test_unit_sum_collapse():
    e = parse_estimand("sum_{z} P(z|x) * P(y|x)")
    assert simplify(e) == parse_estimand("P(y|x)")


def test_quotient_cancellation():
    e = parse_estimand("P(y|x) * P(x) / P(x)")
    assert simplify(e) == parse_estimand("P(y|x)")


def test_quotient_identical_collapse():
    e = parse_estimand("P(x) / P(x)")
    assert simplify(e) == ONE


def test_one_elimination():
    e = parse_estimand("1 * P(x)")
    assert simplify(e) == parse_estimand("P(x)")


def test_marginalization_collapse():
    e = parse_estimand("sum_{y} P(x,y)")
    assert simplify(e) == parse_estimand("P(x)")


def test_nested_marginalization_collapse():
    e = parse_estimand("sum_{x} sum_{y} P(x,y,z)")
    assert simplify(e) == parse_estimand("P(z)")


def test_sum_with_shared_symbol_not_collapsed():
    # the chain rule may merge factors, but the sum itself must survive
    # because z still appears in more than one place
    e = parse_estimand("sum_{z} P(y|z) * P(x|z) * P(z)")
    s = simplify(e)
    assert isinstance(s, Sum) and s.token == "z"
    assert s == parse_estimand("sum_{z} P(y,z) * P(x|z)")


def test_simplify_preserves_evaluation():
    r = gen.rng(12)
    variables = ["X", "Y", "Z", "W"]
    for _ in range(8):
        n = int(r.integers(2, 5))
        vs = variables[:n]
        e = gen.random_estimand(r, vs)
        s = simplify(e)
        for _ in range(1000):
            sizes = [int(r.integers(2, 4)) for _ in vs]
            t = gen.random_joint(r, vs, sizes)
            binding = {v: t.domains[v][int(r.integers(0, len(t.domains[v])))] for v in vs}
            assert eval_estimand(e, t, binding) == pytest.approx(
                eval_estimand(s, t, binding), abs=1e-12
            )


# --- free variables ---------------------------------------------------------------


def test_free_variables():
    e = backdoor_estimand()
    assert free_variables(e) == {"X", "Y"}
    assert free_variables(parse_estimand("P(Y=1|x)")) == {"X"}


# --- joint table validation --------------------------------------------------------


def test_joint_table_must_normalize():
    with pytest.raises(EstimandError, match="not 1"):
        JointTable(("X",), {"X": ("0", "1")}, {("0",): 0.5, ("1",): 0.4})


def test_joint_table_rejects_negative_mass():
    with pytest.raises(EstimandError, match="negative"):
        JointTable(("X",), {"X": ("0", "1")}, {("0",): 1.1, ("1",): -0.1})


def test_joint_table_rejects_unknown_value():
    with pytest.raises(EstimandError):
        JointTable(("X",), {"X": ("0",)}, {("2",): 1.0})


def test_joint_table_rejects_empty_domain():
    with pytest.raises(EstimandError):
        JointTable(("X",), {"X": ()}, {})


def test_joint_table_refusals_in_order():
    # variables, then each domain, then each cell in mass order (its width,
    # sign and values), and the total last
    doms = {"X": ("0", "1")}
    cases = [
        (("X", "X"), {"X": ()}, {}, "duplicate variable in joint table"),
        (("X", "Y"), {"Y": ("0", "0")}, {}, "empty or missing domain for X"),
        (("X",), {"X": ("0", "0")}, {("0", "1"): -1.0},
         "duplicate values in domain of X"),
        (("X",), doms, {("0", "1"): -1.0}, "assignment width does not match variables"),
        (("X",), doms, {("2",): -0.5}, "negative mass -0.5 for ('2',)"),
        (("X",), doms, {("2",): math.nan}, "invalid mass nan for ('2',)"),
        (("X",), doms, {("0",): math.nan, ("1",): 1.0}, "invalid mass nan for ('0',)"),
        (("X",), doms, {("2",): 0.5, ("0", "1"): 0.5}, "'2' not in the domain of X"),
        (("X",), doms, {("0",): 0.5, ("1",): 0.4}, "total mass 0.9 is not 1"),
        (("X",), doms, {("0",): math.inf}, "total mass inf is not 1"),
    ]
    for variables, domains, mass, message in cases:
        with pytest.raises(EstimandError) as info:
            JointTable(variables, domains, mass)
        assert str(info.value) == message


def test_joint_table_mass_and_prob_match_a_dict_scan_bit_for_bit():
    r = gen.rng(71)
    variables = ("X", "Y", "Z")
    for i in range(300):
        sizes = [int(k) for k in r.integers(1, 4, size=3)]
        make = gen.random_mass if i % 2 else gen.sparse_mass
        domains, mass = make(r, variables, sizes)
        t = JointTable(variables, domains, mass)
        assert list(t.mass.items()) == list(mass.items())
        assert list(zip(*t._cols)) == [
            tuple(domains[v].index(val) for v, val in zip(variables, key)) for key in mass
        ]
        for k in range(4):
            for picked in itertools.combinations(variables, k):
                values = [domains[v] + ("9",) for v in picked]
                for assignment in itertools.product(*values):
                    want = sum(
                        p for key, p in mass.items()
                        if all(key[variables.index(v)] == val
                               for v, val in zip(picked, assignment))
                    )
                    got = t.prob(dict(zip(picked, assignment)))
                    assert type(got) is float and got == want
                    if picked:
                        term = ProbTerm(tuple(map(Val, picked, assignment, [True] * k)))
                        assert got == gen.dict_scan_eval(term, t) == eval_estimand(term, t)
        assert t.prob({}) == sum(mass.values())


def test_joint_table_prob_refuses_unknown_variable_and_zeroes_unknown_value():
    t = gen.random_joint(gen.rng(72), ["X", "Y"], [2, 2])
    with pytest.raises(UnboundSymbol, match="^variable Q not in the joint table$"):
        t.prob({"X": "0", "Q": "1"})
    assert t.prob({"X": "7"}) == 0.0
    assert t.prob({"X": "0", "Y": "7"}) == 0.0


@pytest.mark.parametrize("copy_of", [
    lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy,
])
def test_joint_table_copies_keep_arrays_read_only(copy_of):
    t = gen.sparse_joint(gen.rng(74), ["X", "Y"], [3, 2])
    t.mass, t.groups((0,))  # cached views are not carried into the copy
    c = copy_of(t)
    assert (c.variables, dict(c.domains)) == (t.variables, dict(t.domains))
    assert (c._cols, c._weights) == (t._cols, t._weights)
    assert "mass" not in vars(c) and not c._grouped
    # a copy is frozen like the original: its lists cannot be rebound
    for name in ("_cols", "_weights"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, [])
    assert c.mass == t.mass and c.prob({"X": "0"}) == t.prob({"X": "0"})


def test_joint_tables_compare_by_identity():
    t = gen.sparse_joint(gen.rng(73), ["X", "Y"], [3, 2])
    assert t == t
    assert t != JointTable(t.variables, t.domains, dict(t.mass))


# --- interned nodes -----------------------------------------------------------------


def _random_estimands(seed, count, depth=3):
    r = gen.rng(seed)
    for _ in range(count):
        variables = ["X", "Y", "Z", "W"][: int(r.integers(2, 5))]
        yield gen.random_estimand(r, variables, depth=depth)


def test_simplify_and_render_match_the_recursive_oracles():
    for e in _random_estimands(13, 2000, depth=4):
        want = gen.simplify_by_recursion(e)
        assert simplify(e) is want
        assert render(e) == gen.render_by_recursion(e)
        assert render(want) == gen.render_by_recursion(want)


def test_free_variables_match_a_scoped_walk():
    def by_walk(e, bound=frozenset()):
        if isinstance(e, ProbTerm):
            return {v.var for v in e.joint + e.given if not v.literal and v.token not in bound}
        if isinstance(e, Sum):
            return by_walk(e.body, bound | {e.token})
        kids = e.factors if isinstance(e, Product) else (
            (e.num, e.den) if isinstance(e, Quotient) else ())
        return set().union(*(by_walk(k, bound) for k in kids))

    for e in _random_estimands(14, 1000):
        assert free_variables(e) == by_walk(e)
    inner = parse_estimand("sum_{t} P(Y=t) * P(Z=t)")
    assert free_variables(Product((ProbTerm((Val("X", "t"),)), inner))) == {"X"}


def test_nodes_with_equal_fields_are_one_node():
    for e in _random_estimands(15, 300):
        assert parse_estimand(render(e)) is e
    x, y, z = (parse_estimand(f"P({s})") for s in "xyz")
    assert Product((x, Product((y, z)))) is Product((Product((x, y)), z))
    assert Val("X", "1", 1) is Val("X", "1", literal=True)
    # comparison and hashing are by identity, not generated from the fields
    for cls in (Val, ProbTerm, Sum, Product, Quotient, type(ONE)):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    with pytest.raises(AttributeError):
        x.joint = ()


@pytest.mark.parametrize("copy_of", [
    lambda e: pickle.loads(pickle.dumps(e)), copy.deepcopy, copy.copy,
])
def test_estimand_copies_are_the_same_node(copy_of):
    nodes = [ONE, Val("X", "x"), Val("X", "1", True)]
    nodes += list(_random_estimands(16, 100))
    for e in nodes:
        assert copy_of(e) is e
    assert copy_of(nodes[3:]) == nodes[3:]


def test_threads_building_the_same_fields_get_one_node():
    texts = [render(e) for e in _random_estimands(17, 200)]
    barrier = threading.Barrier(4)
    results = [None] * 4

    def build(k):
        barrier.wait()
        results[k] = [parse_estimand(t) for t in texts]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for built in results[1:]:
        assert all(a is b for a, b in zip(results[0], built))


def test_binder_ranges_over_the_variable_of_its_first_use():
    cases = {
        "sum_{t} P(Y=t) * P(X=t)": ["Y"],
        "sum_{t,u} P(X=u|Y=t)": ["Y", "X"],
        "sum_{t} P(x)": ["T"],
        "sum_{t} sum_{u} P(A=u) * P(B=t)": ["B", "A"],
        "P(Z=t) * sum_{t} (P(y) / P(W=t))": ["W"],
    }
    for text, want in cases.items():
        got, todo = [], [parse_estimand(text)]
        while todo:  # binders in the order they are written
            e = todo.pop()
            if isinstance(e, Sum):
                got.append(e.var)
                todo.append(e.body)
            elif isinstance(e, Product):
                todo.extend(reversed(e.factors))
            elif isinstance(e, Quotient):
                todo += [e.den, e.num]
        assert got == want, text


def test_not_an_estimand_node_is_refused():
    for bad in (Val("X", "x"), "P(x)", None):
        for fn in (simplify, render, free_variables):
            with pytest.raises(EstimandError, match="not an estimand node"):
                fn(bad)
        with pytest.raises(EstimandError, match="not an estimand node"):
            Product((parse_estimand("P(x)"), bad))
