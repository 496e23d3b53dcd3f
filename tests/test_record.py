"""Records against twins built by ``dataclasses.dataclass(frozen=True)``.

Every record class of the package gets a twin: a frozen dataclass over the
same annotated fields, defaults and methods.  Both are called with the same
arguments, and they must agree on what they make or refuse, on ``repr``,
``==``/``!=`` and ``hash``, on round trips through ``copy``, ``deepcopy`` and
``pickle``, and on refusing assignment and deletion.  ``Dataset`` and
``JointTable`` compare by identity, and so do their twins.
"""

import copy
import dataclasses
import itertools
import pickle
import sys
import types

import pytest

from scmkit import discover, estimate, expr, fitcheck, graph, mediation, pnps, query, recover, scm
from scmkit.identify import Identified, NonIdentifiable, WitnessPair, _Dist
from scmkit.record import Record

# the twins live in a module of their own, where pickle finds each one by
# the name of the record it copies
TWINS = types.ModuleType("record_twins")
sys.modules[TWINS.__name__] = TWINS

IDENTITY = (estimate.Dataset, expr.JointTable)


def twin(cls: type) -> type:
    """A frozen dataclass with the fields, defaults and methods of ``cls``."""
    own = {k: v for k, v in vars(cls).items()
           if k not in ("_fields", "_defaults", "_values", "__eq__", "__hash__")}
    by_value = cls not in IDENTITY
    made = dataclasses.dataclass(frozen=True, init=by_value, eq=by_value)(
        type(cls.__name__, (), {**own, "__module__": TWINS.__name__})
    )
    setattr(TWINS, cls.__name__, made)
    return made


def call(*args, **kwargs):
    return args, kwargs


def fs(*items) -> frozenset:
    return frozenset(items)


P = expr.parse_estimand("sum_{z} P(y|x,z) * P(z)")
PXY = expr.parse_estimand("P(x, y)")
XOR = scm.parse_scm(
    "exo U1 {0: 0.5, 1: 0.5}\nexo U2 {0: 0.9, 1: 0.1}\n"
    "endo X (U1) {(0) -> 0, (1) -> 1}\n"
    "endo Y (X, U2) {(0,0) -> 0, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0}\n"
)
Y, X, Z = query.QueryTerm("Y", "y"), query.QueryTerm("X", "x"), query.QueryTerm("Z", "z")
Y_X1 = query.QueryTerm("Y", "1", True, (("X", "1"),))
CI = graph.CiStatement(fs("X"), fs("Y"), fs("Z"))
ENTRY = fitcheck.FitEntry(CI, 1.5, 1, 0.22, False, 2, 0)
MISSING_Y = graph.Admg(["X", "Y", "R_Y"], [("X", "Y"), ("X", "R_Y")])
SPREAD = (0.4, 0.6, 0.95)

# each class with the calls made on it and on its twin; a call made twice
# gives two equal instances
CASES = {
    "QueryTerm": (query.QueryTerm, [
        call("X", "x"), call("X", "x"), call("X", "1", True, (("Z", "0"),)),
        call(var="Y", token="y", dos=(("X", "1"),)),
        call(), call("X"), call("X", "x", False, (), 5), call("X", "x", var="Y"),
        call("X", "x", colour=1),
    ]),
    "CausalQuery": (query.CausalQuery, [
        call((Y,), (X,), (Z,)), call((Y,), (X,), (Z,)), call((Y,)),
        call(outcome=(Y,), condition=(Z,)), call((Y_X1,), condition=(Y,)),
        call(()), call((Y, Y)), call((Y,), (Y,)), call((Y,), (X,), (X,)),
    ]),
    "CiStatement": (graph.CiStatement, [
        call(fs("X"), fs("Y"), fs()), call(fs("X"), fs("Y"), fs()),
        call(fs("X", "W"), fs("Y"), fs("Z")),
        call(fs(), fs("Y"), fs()), call(fs("X"), fs("X"), fs()),
        call(fs("X"), fs("Y"), fs("Y")),
    ]),
    "Cpdag": (discover.Cpdag, [
        call(fs("X", "Y", "Z"), fs(("X", "Z")), fs(("Z", "Y"))),
        call(fs("X", "Y", "Z"), fs(("X", "Z")), fs(("Y", "Z"))),
        call(fs("X", "Y", "Z"), fs(("X", "Q")), fs()),
        call(fs("X", "Y", "Z"), fs(("X", "Z")), fs(("Z", "X"))),
        call(fs("X", "Y", "Z"), fs(("X", "Y"), ("Y", "X")), fs()),
    ]),
    "Identified": (Identified, [call(P), call(P), call(estimand=PXY)]),
    "NonIdentifiable": (NonIdentifiable, [
        call(fs("X", "Y"), fs("Y")), call(fs("X", "Y"), fs("Y")),
        call(hedge_forest=fs("Y"), hedge_subforest=fs()),
    ]),
    "_Dist": (_Dist, [call(("X", "Y"), PXY), call(("X", "Y"), PXY), call(("X",), P)]),
    "WitnessPair": (WitnessPair, [
        call(XOR, XOR, 0.0, 0.25), call(XOR, XOR, 0.0, 0.25),
        call(XOR, XOR, observational_gap=0.0, interventional_gap=0.5),
    ]),
    "MGraph": (recover.MGraph, [
        call(MISSING_Y, fs("Y")), call(MISSING_Y, fs("Y")), call(MISSING_Y, fs()),
        call(MISSING_Y, fs("Q")), call(MISSING_Y, fs("X")),
        call(graph.Admg(["X", "Y", "R_Y"], [("R_Y", "X")]), fs("Y")),
    ]),
    "Recoverable": (recover.Recoverable, [call(P, "ii"), call(P, "ii"), call(PXY, "i")]),
    "NotRecoverable": (recover.NotRecoverable, [call("none applies"), call("none applies")]),
    "Estimate": (estimate.Estimate, [
        call(0.5, 10), call(0.5, 10), call(0.5, 10, SPREAD), call(0.5, 10, interval=SPREAD),
        call(0.7, 10, SPREAD), call(0.5, 10, (0.4, 0.6, 1.0)), call(0.5),
    ]),
    "Dataset": (estimate.Dataset, [
        call(("X", "Y"), [("0", "1"), ("1", None), ("0", "1")]),
        call(("X", "Y"), [("0", "1"), ("1", None), ("0", "1")]),
        call(("X",), []), call(("X", "Y"), [("0",)]),
    ]),
    "JointTable": (expr.JointTable, [
        call(("X",), {"X": ("0", "1")}, {("0",): 0.25, ("1",): 0.75}),
        call(("X",), {"X": ("0", "1")}, {("0",): 0.25, ("1",): 0.75}),
        call(("X",), {"X": ("0", "1")}, {("0",): 0.25, ("1",): 0.5}),
    ]),
    "FitEntry": (fitcheck.FitEntry, [
        call(CI, 1.5, 1, 0.22, False, 2, 0), call(CI, 1.5, 1, 0.22, False, 2, 0),
        call(CI, 9.0, 1, 0.003, True, 2, 1),
    ]),
    "FitReport": (fitcheck.FitReport, [
        call((ENTRY,), 0.05), call((ENTRY,), 0.05), call((), 0.05, True),
        call(entries=(ENTRY,), alpha=0.01, bonferroni=True),
    ]),
    "MediationReport": (mediation.MediationReport, [
        call(0.3, 0.2, 0.1, 0.12, 1 / 3, "scm-exact"),
        call(0.3, 0.2, 0.1, 0.12, 1 / 3, "scm-exact"),
        call(0.0, 0.0, 0.0, 0.0, None, "data-formula"),
    ]),
    "PnPsResult": (pnps.PnPsResult, [
        call(0.5, (0.2, 0.9), None, "bounds", ("PS undefined",)),
        call(0.5, (0.2, 0.9), None, "bounds", ("PS undefined",)),
        call(1.0, 1.0, 1.0, "exact"),
    ]),
    "ExogenousVar": (scm.ExogenousVar, [
        call(("0", "1"), (0.25, 0.75)), call(("0", "1"), (0.25, 0.75)),
        call((), ()), call(("0", "0"), (0.5, 0.5)), call(("0",), (0.5, 0.5)),
        call(("0", "1"), (float("nan"), 1.0)), call(("0", "1"), (-0.5, 1.5)),
        call(("0", "1"), (0.5, 0.6)),
    ]),
    "EndogenousVar": (scm.EndogenousVar, [
        call(("X",), {("0",): "1", ("1",): "0"}), call(("X",), {("0",): "1", ("1",): "0"}),
        call(("X", "X"), {}),
    ]),
    "CounterfactualQuery": (scm.CounterfactualQuery, [
        call((("Y", "1"),)), call((("Y", "1"),)),
        call((("Y", "1"),), (("X", "0"),), (("X", "1"),)),
        call(target=(("Y", "0"),), evidence=(("X", "1"),)),
    ]),
}


def result(f):
    """What ``f()`` returns, or the name and message of what it raises."""
    try:
        return f()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def built(cls: type, calls) -> list:
    """Each call's instance, or its refusal.  Argument errors compare by
    type alone: their messages name the ``__init__`` that raised them."""
    out = []
    for args, kwargs in calls:
        try:
            out.append(cls(*args, **kwargs))
        except TypeError:
            out.append(("TypeError",))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def profile(made: list, fields: tuple[str, ...], by_value: bool) -> list:
    """What parity compares about a list of instances and refusals."""
    rows = []
    for x in made:
        if isinstance(x, tuple):
            rows.append(("refused", x))
            continue
        got = result(lambda: hash(x))
        rows.append((repr(x), got if by_value else got == object.__hash__(x), x == 1, x != 1))
        for trip in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            y = trip(x)
            rows.append((type(y).__name__, repr(y), y is x, y == x, y != x))
        for name in (*fields, "other"):
            rows.append(result(lambda: setattr(x, name, 0)))
            rows.append(result(lambda: delattr(x, name)))
        rows.append(repr(x))  # nothing above changed it
    pairs = itertools.product([x for x in made if not isinstance(x, tuple)], repeat=2)
    rows.append([(a == b, a != b) for a, b in pairs])
    return rows


def test_every_record_class_has_a_case():
    assert set(Record.__subclasses__()) == {cls for cls, _ in CASES.values()}
    assert {cls.__name__ for cls, _ in CASES.values()} == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_record_behaves_like_its_dataclass_twin(name):
    cls, calls = CASES[name]
    other = twin(cls)
    by_value = cls not in IDENTITY
    fields = tuple(f.name for f in dataclasses.fields(other))
    defaults = {
        f.name: f.default for f in dataclasses.fields(other)
        if f.default is not dataclasses.MISSING
    }
    assert (cls._fields, cls._defaults) == (fields, defaults)
    made, twins = built(cls, calls), built(other, calls)
    assert profile(made, fields, by_value) == profile(twins, fields, by_value)
    assert any(not isinstance(x, tuple) for x in made)


def test_records_refuse_assignment_and_deletion_with_the_dataclass_error():
    t = query.QueryTerm("X", "x")
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'var'"):
        t.var = "Y"
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'token'"):
        del t.token
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
    assert t == query.QueryTerm("X", "x")


def test_record_hash_is_the_hash_of_its_field_values():
    # the dataclass hash, so sets of records iterate in the same order
    assert hash(CI) == hash((CI.left, CI.right, CI.given))
    assert hash(query.QueryTerm("X", "x")) == hash(("X", "x", False, ()))
