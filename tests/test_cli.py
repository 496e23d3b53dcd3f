import ast
import builtins
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import scmkit
from scmkit import ScmkitError, cli
from scmkit.cli import _COMMANDS, _PORCELAIN, _build_parser, _parse_plain, run
from scmkit.estimate import load_table, plug_in
from scmkit.expr import parse_estimand
from scmkit.graph import parse_graph, serialize_graph
from scmkit.scm import sample, serialize_scm

DATA = Path(__file__).parent / "data"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(DATA / name)


# --- identify ---------------------------------------------------------------------


def test_identify_backdoor_golden():
    code, out, err = invoke(
        "identify", "--graph", path("backdoor.cg"), "--query", "P(Y|do(X))"
    )
    assert code == 0
    assert out == "sum_{z} P(y|x,z) * P(z)\n"
    assert err == ""


def test_identify_bow_failure_exit_2():
    code, out, err = invoke(
        "identify", "--graph", path("bow.cg"), "--query", "P(Y|do(X))"
    )
    assert code == 2
    assert out == ""
    assert "FAILURE" in err
    assert "hedge: F={X, Y} F'={Y}" in err


def test_identify_bad_query_exit_1():
    code, out, err = invoke(
        "identify", "--graph", path("backdoor.cg"), "--query", "P(Y|do(Q))"
    )
    assert code == 1
    assert "error:" in err


def test_identify_missing_file_exit_1():
    code, _, err = invoke(
        "identify", "--graph", path("nope.cg"), "--query", "P(Y|do(X))"
    )
    assert code == 1
    assert "error:" in err


# --- estimate ---------------------------------------------------------------------


def test_estimate_golden():
    code, out, err = invoke(
        "estimate",
        "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))",
        "--data", path("d8.csv"),
    )
    assert code == 0
    assert out == (
        "estimand: sum_{z} P(Y=1|X=1,z) * P(z)\n"
        "estimate: 0.750000\n"
        "n: 8\n"
    )


def test_estimate_porcelain():
    code, out, _ = invoke(
        "estimate",
        "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))",
        "--data", path("d8.csv"),
        "--porcelain",
    )
    assert code == 0
    assert out == "0.750000\t8\n"


def test_estimate_requires_explicit_values():
    code, _, err = invoke(
        "estimate",
        "--graph", path("backdoor.cg"),
        "--query", "P(Y|do(X))",
        "--data", path("d8.csv"),
    )
    assert code == 1
    assert "explicit values" in err


def test_estimate_nonidentifiable_exit_2(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("X,Y\n0,0\n1,1\n")
    code, _, err = invoke(
        "estimate", "--graph", path("bow.cg"),
        "--query", "P(Y=1|do(X=1))", "--data", str(csv),
    )
    assert code == 2
    assert "FAILURE" in err


def test_estimate_missing_graph_column_exit_1(tmp_path):
    csv = tmp_path / "xy.csv"
    csv.write_text("X,Y\n0,0\n1,1\n0,1\n1,0\n")
    code, out, err = invoke(
        "estimate", "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))", "--data", str(csv),
    )
    assert code == 1
    assert out == ""
    assert err == "error: variable Z not in the joint table\n"


def test_estimate_bootstrap_deterministic(tmp_path):
    m = gen.scm_for_admg(parse_graph(Path(path("backdoor.cg")).read_text()), gen.rng(101))
    d = sample(m, 600, seed=3)
    csv = tmp_path / "boot.csv"
    csv.write_text(
        ",".join(d.columns) + "\n" + "\n".join(",".join(r) for r in d.rows) + "\n"
    )
    args = (
        "estimate", "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))", "--data", str(csv),
        "--bootstrap", "200", "--seed", "11", "--level", "0.9",
    )
    code1, out1, _ = invoke(*args)
    code2, out2, _ = invoke(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "ci: [" in out1 and "level=0.9 B=200 seed=11" in out1
    point = plug_in(
        parse_estimand("sum_{z} P(Y=1|X=1,z) * P(z)"), load_table(str(csv))
    ).value
    assert f"estimate: {point:.6f}" in out1


def test_estimate_degenerate_bootstrap_exit_3():
    code, _, err = invoke(
        "estimate", "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))", "--data", path("d8.csv"),
        "--bootstrap", "200",
    )
    assert code == 3
    assert "resamples" in err


def test_estimate_negative_seed_names_the_flag():
    code, out, err = invoke(
        "estimate", "--graph", path("backdoor.cg"),
        "--query", "P(Y=1|do(X=1))", "--data", path("d8.csv"),
        "--bootstrap", "100", "--seed", "-1",
    )
    assert code == 1
    assert out == ""
    assert err == "error: seed=-1 is negative; need a non-negative integer\n"


# --- fit --------------------------------------------------------------------------


def test_fit_null_golden():
    code, out, err = invoke(
        "fit", "--graph", path("backdoor.cg"), "--data", path("d8.csv")
    )
    assert code == 0
    assert out == "NULL\n"


def test_fit_reports_statement(tmp_path):
    m = gen.scm_for_admg(parse_graph(Path(path("chain.cg")).read_text()), gen.rng(102))
    d = sample(m, 4000, seed=7)
    csv = tmp_path / "chain.csv"
    csv.write_text(
        ",".join(d.columns) + "\n" + "\n".join(",".join(r) for r in d.rows) + "\n"
    )
    code, out, _ = invoke("fit", "--graph", path("chain.cg"), "--data", str(csv))
    assert code == 0
    assert out.startswith("X _||_ Y | Z")
    assert "G2=" in out and "df=" in out and "p=" in out
    code, out, _ = invoke(
        "fit", "--graph", path("chain.cg"), "--data", str(csv), "--porcelain"
    )
    fields = out.strip().split("\t")
    assert fields[0] == "X _||_ Y | Z"
    assert len(fields) == 4


def test_fit_missing_data_exit_3(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text("X,Y,Z\n0,NA,0\n1,1,1\n")
    code, _, err = invoke("fit", "--graph", path("backdoor.cg"), "--data", str(csv))
    assert code == 3
    assert "recoverability" in err


def test_fit_field_over_csv_limit_exit_1(tmp_path):
    # the csv module's own error becomes a typed data error with its line;
    # a ragged line above it is still reported first
    wide = "a" * 200_000 + ",1,0\n"
    for head, message in (
        ("0,1,0\n", "line 3: field larger than field limit (131072)"),
        ("0,1\n", "line 2: row has 2 cells, expected 3"),
    ):
        csv = tmp_path / "wide.csv"
        csv.write_text("X,Y,Z\n" + head + wide)
        code, out, err = invoke("fit", "--graph", path("chain.cg"), "--data", str(csv))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


# --- counterfactual ----------------------------------------------------------------


def test_counterfactual_golden():
    code, out, err = invoke(
        "counterfactual", "--scm", path("xor.scm"),
        "--query", "P(Y_{X=1}=1 | X=0, Y=0)",
    )
    assert code == 0
    assert out == "probability: 1.000000\n"


def test_counterfactual_porcelain():
    code, out, _ = invoke(
        "counterfactual", "--scm", path("xor.scm"),
        "--query", "P(Y_{X=1}=1 | X=0, Y=0)", "--porcelain",
    )
    assert code == 0
    assert out == "1.000000\n"


def test_counterfactual_zero_evidence_exit_3(tmp_path):
    scm = tmp_path / "deg.scm"
    scm.write_text(
        "exo U {0: 1.0, 1: 0.0}\nendo X (U) {(0) -> 0, (1) -> 1}\n"
        "endo Y (X) {(0) -> 0, (1) -> 1}\n"
    )
    code, _, err = invoke(
        "counterfactual", "--scm", str(scm),
        "--query", "P(Y_{X=1}=1 | X=1)",
    )
    assert code == 3
    assert "probability zero" in err


# --- pnps --------------------------------------------------------------------------


def test_pnps_exact_golden():
    code, out, err = invoke(
        "pnps", "--scm", path("xor.scm"), "--exposure", "X", "--outcome", "Y"
    )
    assert code == 0
    assert out == "pn: 1.000000\nps: 1.000000\npns: 0.900000\n"


def test_pnps_bounds_golden():
    code, out, err = invoke(
        "pnps", "--data", path("obs_identity.csv"),
        "--exposure", "X", "--outcome", "Y",
        "--px1", "1.0", "--px0", "0.0",
    )
    assert code == 0
    assert out == (
        "pn: [1.000000, 1.000000]\n"
        "ps: [1.000000, 1.000000]\n"
        "pns: [1.000000, 1.000000]\n"
    )


def test_pnps_bounds_inconsistent_inputs_exit_3(tmp_path):
    csv = tmp_path / "xy.csv"
    csv.write_text("X,Y\n0,0\n1,1\n")
    code, out, err = invoke(
        "pnps", "--data", str(csv), "--px1", "0.1", "--px0", "0.9",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: px1=0.1 is incompatible")
    assert "Traceback" not in err


def test_pnps_bounds_value_outside_data_exit_1():
    for flag, var, px1 in (("--x1", "X", "0.5"), ("--y1", "Y", "0.6")):
        code, out, err = invoke(
            "pnps", "--data", path("d8.csv"), flag, "7", "--px1", px1, "--px0", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {flag[2:]} value '7' not in the domain of {var}\n"


def test_pnps_experiment_file():
    code, out, _ = invoke(
        "pnps", "--data", path("obs_identity.csv"),
        "--exposure", "X", "--outcome", "Y",
        "--experiment", path("experiment.txt"),
    )
    assert code == 0
    assert "pns: [1.000000, 1.000000]" in out


def test_pnps_porcelain():
    code, out, _ = invoke(
        "pnps", "--scm", path("xor.scm"), "--porcelain"
    )
    assert code == 0
    assert out == "pn\t1.000000\nps\t1.000000\npns\t0.900000\n"


def test_pnps_needs_a_mode():
    code, _, err = invoke("pnps", "--exposure", "X", "--outcome", "Y")
    assert code == 1
    assert "exactly one" in err


# --- mediate -----------------------------------------------------------------------


def test_mediate_scm_golden():
    code, out, err = invoke(
        "mediate", "--scm", path("med.scm"),
        "--exposure", "X", "--mediator", "M", "--outcome", "Y",
        "--x0", "0", "--x1", "1",
    )
    assert code == 0
    # hand-enumerated: E[Y_0]=0.26, E[Y_1]=0.98, E[Y_{1,M_0}]=0.92, E[Y_{0,M_1}]=0.74
    assert out == (
        "te: 0.720000\n"
        "nde: 0.660000\n"
        "nie: 0.480000\n"
        "nie_reversed: -0.060000\n"
        "mediated_fraction: 0.666667\n"
    )


def test_mediate_porcelain():
    code, out, _ = invoke(
        "mediate", "--scm", path("med.scm"),
        "--exposure", "X", "--mediator", "M", "--outcome", "Y",
        "--x0", "0", "--x1", "1", "--porcelain",
    )
    assert code == 0
    assert out == "0.720000\t0.660000\t0.480000\t-0.060000\t0.666667\n"


def test_mediate_needs_input_mode():
    code, _, err = invoke(
        "mediate", "--exposure", "X", "--mediator", "M", "--outcome", "Y",
        "--x0", "0", "--x1", "1",
    )
    assert code == 1


# --- recover -----------------------------------------------------------------------


def test_recover_golden():
    code, out, err = invoke(
        "recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
        "--target", "Y=1",
    )
    assert code == 0
    assert out == (
        "criterion: mar\n"
        "estimand: sum_{x} P(y|x,R_Y=obs) * P(x)\n"
        "estimate: 0.750000\n"
        "n: 8\n"
    )


def test_recover_porcelain():
    code, out, _ = invoke(
        "recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
        "--target", "Y=1", "--porcelain",
    )
    assert code == 0
    assert out == "0.750000\t8\n"


def test_recover_self_masking_exit_3():
    code, out, err = invoke(
        "recover", "--graph", path("selfmask.cg"), "--data", path("dmiss.csv"),
        "--target", "Y=1",
    )
    assert code == 3
    assert "NOT RECOVERABLE" in err


def test_recover_sums_over_partially_observed_variable(tmp_path):
    graph = tmp_path / "two.cg"
    graph.write_text(gen.TWO_SIDED)
    csv = tmp_path / "two.csv"
    csv.write_text("X,Y\n" + "".join(
        ",".join("NA" if c is None else c for c in row) + "\n" for row in gen.TWO_SIDED_ROWS
    ))
    code, out, err = invoke(
        "recover", "--graph", str(graph), "--data", str(csv), "--target", "Y=1",
        "--porcelain",
    )
    assert (code, err) == (0, "")
    assert out == f"{gen.two_sided_by_hand('1'):.6f}\t{len(gen.TWO_SIDED_ROWS)}\n"


def test_recover_sum_over_never_observed_variable_exit_3(tmp_path):
    graph = tmp_path / "two.cg"
    graph.write_text(gen.TWO_SIDED)
    csv = tmp_path / "never.csv"
    csv.write_text("X,Y\n" + "".join(
        f"NA,{'NA' if y is None else y}\n" for _, y in gen.TWO_SIDED_NEVER_X
    ))
    code, out, err = invoke(
        "recover", "--graph", str(graph), "--data", str(csv), "--target", "Y=1"
    )
    assert (code, out) == (3, "")
    assert err == "error: conditioning on a zero-probability event: no observed value of X\n"


def test_recover_bad_target_exit_1():
    code, _, err = invoke(
        "recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
        "--target", "Y",
    )
    assert code == 1


def test_recover_decides_recoverability_once(monkeypatch):
    import scmkit.recover

    argv = ["recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
            "--target", "X=1,Y=1"]
    want = invoke(*argv)
    decide, calls = scmkit.recover.recoverability, []

    def counted(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(scmkit.recover, "recoverability", counted)
    assert invoke(*argv) == want == (0, (
        "criterion: mar\n"
        "estimand: P(y|x,R_Y=obs) * P(x)\n"
        "estimate: 0.500000\n"
        "n: 8\n"
    ), "")
    assert len(calls) == 1


# --- discover ----------------------------------------------------------------------


def test_discover_oracle_golden():
    code, out, err = invoke("discover", "--graph", path("collider.cg"))
    assert code == 0
    assert out == "var A\nvar B\nvar C\nA -> C\nB -> C\n"


def test_discover_chain_undirected():
    code, out, _ = invoke("discover", "--graph", path("chain.cg"))
    assert code == 0
    assert out == "var X\nvar Y\nvar Z\nX -- Z\nY -- Z\n"


def test_discover_data_mode_refuses_alpha_outside_unit_interval():
    for alpha in ("-1", "0", "1", "5"):
        code, out, err = invoke("discover", "--data", path("d8.csv"), "--alpha", alpha)
        assert code == 1
        assert out == ""
        assert err == "error: alpha must be in (0, 1)\n"


def test_discover_data_mode(tmp_path):
    from scmkit.scm import parse_scm

    m = parse_scm(
        "exo UX {0: 0.5, 1: 0.5}\nexo UY {0: 0.5, 1: 0.5}\n"
        "exo UZ {0: 0.95, 1: 0.05}\n"
        "endo X (UX) {(0) -> 0, (1) -> 1}\n"
        "endo Y (UY) {(0) -> 0, (1) -> 1}\n"
        "endo Z (X, Y, UZ) {(0,0,0) -> 0, (0,0,1) -> 1, (0,1,0) -> 1, (0,1,1) -> 0,"
        " (1,0,0) -> 1, (1,0,1) -> 0, (1,1,0) -> 1, (1,1,1) -> 0}\n"
    )
    d = sample(m, 50_000, seed=9)
    csv = tmp_path / "coll.csv"
    csv.write_text(
        ",".join(d.columns) + "\n" + "\n".join(",".join(r) for r in d.rows) + "\n"
    )
    code, out, _ = invoke("discover", "--data", str(csv), "--alpha", "0.01")
    assert code == 0
    assert "X -> Z" in out and "Y -> Z" in out


def test_discover_data_mode_refuses_missing_cells(tmp_path):
    csv = tmp_path / "na.csv"
    csv.write_text("X,Y,Z\n0,1,0\n1,NA,1\n0,0,1\n1,1,0\n")
    code, out, err = invoke("discover", "--data", str(csv))
    assert code == 3
    assert out == ""
    assert err == "error: column Y has missing cells; run recoverability analysis\n"


def test_discover_needs_one_mode():
    code, _, err = invoke(
        "discover", "--graph", path("chain.cg"), "--data", path("d8.csv")
    )
    assert code == 1


# --- data representation -------------------------------------------------------------

DATA_CALLS = {
    "estimate": ["estimate", "--graph", path("backdoor.cg"), "--query", "P(Y=1|do(X=1))",
                 "--data", path("d8.csv")],
    "estimate --bootstrap": ["estimate", "--graph", path("chain.cg"),
                             "--query", "P(Y=1|do(X=1))", "--data", path("d8.csv"),
                             "--bootstrap", "100", "--seed", "3"],
    "fit": ["fit", "--graph", path("chain.cg"), "--data", path("d8.csv")],
    "recover": ["recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
                "--target", "Y=1"],
    "discover --data": ["discover", "--data", path("d8.csv")],
    "pnps --data": ["pnps", "--data", path("d8.csv"), "--px1", "0.5", "--px0", "0.5"],
    "mediate --data": ["mediate", "--graph", path("chain.cg"), "--data", path("d8.csv"),
                       "--exposure", "X", "--mediator", "Z", "--outcome", "Y",
                       "--x0", "0", "--x1", "1"],
}


@pytest.mark.parametrize("argv", DATA_CALLS.values(), ids=DATA_CALLS.keys())
def test_data_subcommands_never_decode_rows(argv, monkeypatch):
    from scmkit.estimate import Dataset

    want = invoke(*argv)

    def decode(self):
        raise AssertionError("Dataset.rows read")

    monkeypatch.setattr(Dataset, "rows", property(decode))
    assert invoke(*argv) == want


def test_byte_order_mark_is_accepted_in_data_and_graph_files(tmp_path):
    bom_csv = tmp_path / "d8.csv"
    bom_csv.write_text(Path(path("d8.csv")).read_text(), encoding="utf-8-sig")
    bom_graph = tmp_path / "backdoor.cg"
    bom_graph.write_text(Path(path("backdoor.cg")).read_text(), encoding="utf-8-sig")
    assert bom_csv.read_bytes().startswith(b"\xef\xbb\xbf")
    query = ["--query", "P(Y=1|do(X=1))"]
    want = invoke("estimate", "--graph", path("backdoor.cg"), *query, "--data", path("d8.csv"))
    assert want[0] == 0
    assert invoke("estimate", "--graph", path("backdoor.cg"), *query,
                  "--data", str(bom_csv)) == want
    assert invoke("estimate", "--graph", str(bom_graph), *query,
                  "--data", path("d8.csv")) == want


# --- error classes and exit codes --------------------------------------------------------

# raises that name no ScmkitError: Python's attribute and call protocols, and
# identify's internal signal, which identify catches
PROTOCOL_RAISES = {
    ("__init__.py", "AttributeError"), ("expr.py", "AttributeError"),
    ("record.py", "TypeError"), ("record.py", "_frozen"), ("identify.py", "_Hedge"),
}


def test_every_raised_class_is_a_scmkit_error():
    src = Path(scmkit.__file__).parent
    allowed = set()
    for file in sorted(src.glob("*.py")):
        module = None
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not isinstance(raised, ast.Name):
                continue  # a parser's own error method
            if module is None:
                module = importlib.import_module(
                    "scmkit" if file.stem == "__init__" else f"scmkit.{file.stem}")
            obj = getattr(module, raised.id, getattr(builtins, raised.id, None))
            if obj is None:
                continue  # a local name: a caught exception, or a class passed in
            if (file.name, raised.id) in PROTOCOL_RAISES:
                allowed.add((file.name, raised.id))
            else:
                assert isinstance(obj, type) and issubclass(obj, ScmkitError), (
                    f"{file.name} line {node.lineno}: raise {raised.id}")
    assert allowed == PROTOCOL_RAISES


# each error class that is a root or sets its exit code: its builtin base,
# which library callers catch, and its exit code
ERROR_CLASSES = {
    "cli.UsageError": (ValueError, 1),
    "discover.DiscoveryError": (ValueError, 1),
    "estimate.DataError": (ValueError, 1),
    "estimate.MissingDataPresent": (ValueError, 3),
    "estimate.TooManyDegenerateResamples": (ArithmeticError, 3),
    "expr.ConditioningOnZero": (ArithmeticError, 3),
    "expr.EstimandError": (ValueError, 1),
    "graph.GraphError": (ValueError, 1),
    "mediation.ConfoundedMediator": (ValueError, 1),
    "pnps.BoundsError": (ValueError, 1),
    "pnps.InconsistentInputs": (ValueError, 3),
    "query.QueryError": (ValueError, 1),
    "recover.NotRecoverableError": (ValueError, 3),
    "scm.ScmError": (ValueError, 1),
    "scm.ZeroEvidence": (ArithmeticError, 3),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_error_classes_keep_their_builtin_base_and_carry_their_exit_code():
    classes = {}
    for name, (base, code) in ERROR_CLASSES.items():
        module, _, attr = name.partition(".")
        cls = getattr(importlib.import_module(f"scmkit.{module}"), attr)
        assert issubclass(cls, ScmkitError) and issubclass(cls, base), name
        assert cls.exit_code == code, name
        classes[cls] = code
    # the six refusals for want of data are the only classes not at exit 1
    assert sum(code == 3 for code in classes.values()) == 6
    for cls in _subclasses(ScmkitError):
        assert cls.exit_code == classes.get(cls, 1), cls


@pytest.mark.parametrize("error", [ValueError("a bug"), ZeroDivisionError("a bug")])
def test_an_error_of_no_scmkit_class_escapes_run(error, monkeypatch):
    def broken(args, out, err):
        raise error

    monkeypatch.setattr(cli, "_cmd_identify", broken)
    with pytest.raises(type(error), match="a bug"):
        invoke("identify", "--graph", path("backdoor.cg"), "--query", "P(Y|do(X))")


@pytest.mark.parametrize("argv", [
    ["identify", "--graph", "a\0b", "--query", "P(Y|do(X))"],
    ["fit", "--graph", path("chain.cg"), "--data", "d\0.csv"],
    ["counterfactual", "--scm", "\0", "--query", "P(Y_{X=1}=1|X=0)"],
    ["pnps", "--data", path("d8.csv"), "--experiment", "e\0.txt"],
    ["mediate", "--scm", path("med.scm\0"), "--exposure", "X", "--mediator", "M",
     "--outcome", "Y", "--x0", "0", "--x1", "1"],
], ids=["graph", "data", "scm", "experiment", "after a real path"])
def test_nul_in_a_path_flag_is_a_usage_error(argv):
    flag = next(word for word, value in zip(argv, argv[1:]) if "\0" in value)
    assert invoke(*argv) == (1, "", f"error: {flag}: a path cannot hold a NUL character\n")


_UNDECODABLE_FILES = {
    "bad.cg": b"var X\r\nvar Y\r\nX -> Y\r\n\xff\n",
    "bad.scm": b"\xef\xbb\xbf" + Path(path("med.scm")).read_bytes().replace(b"endo M", b"\xfeendo M"),
    "bad.txt": b"px1 = 1.0\npx0 = \xe2\x28\n",
    "late.csv": b"X,Y\n" + b"0,1\n" * 5000 + b"\xff\n",
    "abc.txt": b"# trial\npx1 = abc\npx0 = 0.3\n",
}
_PNPS_DATA = ["pnps", "--data", path("d8.csv"), "--experiment"]
# argv ("{tmp}" is the input folder) and what is printed to stderr
UNDECODABLE = {
    "graph file": (
        ["identify", "--graph", "{tmp}/bad.cg", "--query", "P(Y|do(X))"],
        "{tmp}/bad.cg: line 4: cannot decode byte 0xff as UTF-8: invalid start byte"),
    "m-graph file": (
        ["recover", "--graph", "{tmp}/bad.cg", "--data", path("dmiss.csv"), "--target", "Y=1"],
        "{tmp}/bad.cg: line 4: cannot decode byte 0xff as UTF-8: invalid start byte"),
    "model file": (
        ["counterfactual", "--scm", "{tmp}/bad.scm", "--query", "P(Y=1)"],
        "{tmp}/bad.scm: line 5: cannot decode byte 0xfe as UTF-8: invalid start byte"),
    "experiment file": (
        _PNPS_DATA + ["{tmp}/bad.txt"],
        "{tmp}/bad.txt: line 2: cannot decode byte 0xe2 as UTF-8: invalid continuation byte"),
    "data file": (
        ["fit", "--graph", path("chain.cg"), "--data", "{tmp}/late.csv"],
        "line 5002: cannot decode byte 0xff as UTF-8: invalid start byte"),
    "experiment value that is not a number": (
        _PNPS_DATA + ["{tmp}/abc.txt"], "experiment file line 2: expected 'px1 = <p>'"),
}


@pytest.mark.parametrize("argv, message", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_unreadable_input_files_are_refused_with_their_line(argv, message, tmp_path):
    for name, data in _UNDECODABLE_FILES.items():
        (tmp_path / name).write_bytes(data)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert invoke(*argv) == (1, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_symbolic_values_are_refused_with_the_subcommands_own_example():
    assert invoke(
        "counterfactual", "--scm", path("med.scm"), "--query", "P(Y_{X=1} | M=0)",
    ) == (1, "", "error: counterfactual queries need explicit values for Y, "
                 "e.g. P(Y_{X=1}=1 | X=0)\n")
    assert invoke(
        "estimate", "--graph", path("backdoor.cg"), "--query", "P(Y|do(X))",
        "--data", path("d8.csv"),
    ) == (1, "", "error: estimation needs explicit values for X, Y, e.g. P(Y=1|do(X=0))\n")


# --- refusal contract ------------------------------------------------------------------


def _chain_graph(n):
    names = [f"V{i}" for i in range(n)]
    return "".join(f"var {v}\n" for v in names) + "".join(
        f"{a} -> {b}\n" for a, b in zip(names, names[1:])
    )


def _chain_effect(n):
    """What ``identify`` prints for P(V{n-1}|do(V{n-2})) on the chain: each
    other variable summed against its marginal, in name order."""
    others = sorted(f"v{i}" for i in range(n - 2))
    given = ",".join(sorted(others + [f"v{n - 2}"]))
    return "".join(f"sum_{{{v}}} P({v}) * " for v in others) + f"P(v{n - 1}|{given})\n"


def _chain_zero_stratum(n):
    """What ``estimate`` prints for P(V{n-1}=1|do(V{n-2}=1)) on the chain from
    data whose rows are all 0s and all 1s: the innermost term's stratum, with
    every summed variable at its first value, 0, was never observed."""
    given = sorted(f"V{i}" for i in range(n - 1))
    cells = ",".join(f"{v}={int(v == f'V{n - 2}')}" for v in given)
    return f"error: conditioning on a zero-probability event: {cells}\n"


def _write_refusal_inputs(tmp):
    names = [f"V{i}" for i in range(1200)]
    (tmp / "chain.cg").write_text(_chain_graph(1200))
    (tmp / "chain150.cg").write_text(_chain_graph(150))
    (tmp / "chain700.cg").write_text(_chain_graph(700))
    (tmp / "chain700.csv").write_text(
        ",".join(names[:700]) + "\n" + "".join(",".join(c * 700) + "\n" for c in "01")
    )
    # the sink V0 sorts first, so ordering the mechanisms descends the chain
    (tmp / "chain.scm").write_text("exo U {0: 0.5, 1: 0.5}\n" + "".join(
        f"endo {v} ({p}) {{(0) -> 0, (1) -> 1}}\n"
        for v, p in zip(names, names[1:] + ["U"])
    ))
    (tmp / "cycle.cg").write_text("var A\nvar B\nvar C\nA -> B\nB -> C\nC -> A\n")
    (tmp / "cycle.scm").write_text(
        "endo A (B) {(0) -> 0, (1) -> 1}\nendo B (A) {(0) -> 0, (1) -> 1}\n"
    )
    (tmp / "wide_header.csv").write_text("X" * 200_000 + ",Y\n0,1\n")
    (tmp / "bad.scm").write_text(
        Path(path("med.scm")).read_text().replace("{0: 0.5,", "{0: 0.5.5,", 1)
    )


MED = ["mediate", "--scm", path("med.scm"), "--x0", "0", "--x1", "1"]
ROLES = "error: exposure, mediator and outcome must be three different variables\n"
PNPS_ROLES = "error: exposure and outcome must be two different variables\n"

# argv ("{tmp}" is the input folder), exit code, stdout, stderr
REFUSALS = {
    "identify on a 1200-node chain": (
        ["identify", "--graph", "{tmp}/chain.cg", "--query", "P(V1|do(V0))"],
        0, "P(v1|v0)\n", ""),
    "identify the last effect on a 150-node chain": (
        ["identify", "--graph", "{tmp}/chain150.cg", "--query", "P(V149|do(V148))"],
        0, _chain_effect(150), ""),
    "identify the last effect on a 1200-node chain": (
        ["identify", "--graph", "{tmp}/chain.cg", "--query", "P(V1199|do(V1198))"],
        0, _chain_effect(1200), ""),
    "estimate the last effect on a 700-node chain": (
        ["estimate", "--graph", "{tmp}/chain700.cg", "--query", "P(V699=1|do(V698=1))",
         "--data", "{tmp}/chain700.csv"],
        3, "", _chain_zero_stratum(700)),
    "counterfactual on a 1200-mechanism chain": (
        ["counterfactual", "--scm", "{tmp}/chain.scm", "--query", "P(V0=1)"],
        0, "probability: 0.500000\n", ""),
    "cyclic graph": (
        ["identify", "--graph", "{tmp}/cycle.cg", "--query", "P(B|do(A))"],
        1, "", "error: cycle detected: A -> B -> C -> A\n"),
    "cyclic model": (
        ["counterfactual", "--scm", "{tmp}/cycle.scm", "--query", "P(A=1)"],
        1, "", "error: cyclic structural dependencies: A -> B -> A\n"),
    "bootstrap over its ceiling": (
        ["estimate", "--graph", path("backdoor.cg"), "--query", "P(Y=1|do(X=1))",
         "--data", path("d8.csv"), "--bootstrap", "100000000000"],
        1, "", "error: B=100000000000 is too large; at most 1000000 resamples\n"),
    "probability entry that is not a number": (
        ["counterfactual", "--scm", "{tmp}/bad.scm", "--query", "P(Y=1)"],
        1, "", "error: line 1: malformed probability entry: '0: 0.5.5'\n"),
    "mediator equal to exposure": (
        MED + ["--exposure", "X", "--mediator", "X", "--outcome", "Y"], 1, "", ROLES),
    "mediator equal to outcome": (
        MED + ["--exposure", "X", "--mediator", "Y", "--outcome", "Y"], 1, "", ROLES),
    "pnps exposure equal to outcome, exact": (
        ["pnps", "--scm", path("xor.scm"), "--exposure", "X", "--outcome", "X"],
        1, "", PNPS_ROLES),
    "pnps exposure equal to outcome, bounds": (
        ["pnps", "--data", path("d8.csv"), "--exposure", "X", "--outcome", "X",
         "--px1", "0.5", "--px0", "0.5"],
        1, "", PNPS_ROLES),
    "header name over the csv field limit": (
        ["discover", "--data", "{tmp}/wide_header.csv"],
        1, "", "error: line 1: field larger than field limit (131072)\n"),
    "recover target naming a variable twice": (
        ["recover", "--graph", path("mar.cg"), "--data", path("dmiss.csv"),
         "--target", "Y=0,Y=1"],
        1, "", "error: target names Y twice\n"),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_table_in_a_fresh_interpreter(case, tmp_path):
    argv, code, out, err = case
    _write_refusal_inputs(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "scmkit", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# --- argument handling -----------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    code, _, _ = invoke()
    assert code == 1


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0


# --help of the program and of each subcommand, and ten usage errors, as
# Python 3.11's argparse printed them at 80 columns before the flags moved
# into one table; argparse words some of them differently in other versions
USAGE_TEXTS = json.loads((DATA / "cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts recorded on Python 3.11")
@pytest.mark.parametrize(
    "case", USAGE_TEXTS, ids=[" ".join(c["argv"]) or "(no arguments)" for c in USAGE_TEXTS]
)
def test_help_and_usage_errors_print_their_recorded_texts(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def _fuzz_flag_value(r, spec):
    """A value for a flag of the given spec: usually one its type reads,
    sometimes a negative number, a word starting with '-' or a value the
    type refuses."""
    kind = spec.get("type", str)
    if kind is int:
        pool = ["0", "7", "200", " 4", "-3", "-0", "x", "1.5"]
    elif kind is float:
        pool = ["0.5", "0.05", "1e-3", "nan", "inf", "-0.25", "-1e-3", "abc"]
    else:
        pool = ["g.cg", "P(Y=1|do(X=1))", "X=1,Y=1", "1", "", "-a", "--graph", "-h"]
    return str(r.choice(pool[:4] * 4 + pool[4:]))


def fuzz_argv(r) -> list[str]:
    """A command line for one subcommand drawn from its flags: required
    flags usually given, others sometimes; flags in any order, some
    repeated, abbreviated, unknown, joined to their value with '=' or
    missing it; and now and then -h, an extra word or an unknown
    subcommand."""
    command = str(r.choice(list(_COMMANDS)))
    flags = _COMMANDS[command][1] | _PORCELAIN
    names = [name for name, spec in flags.items()
             if r.random() < (0.95 if spec.get("required") else 0.3)]
    if r.random() < 0.15:
        names.append(str(r.choice(list(flags))))
    r.shuffle(names)
    argv = [command]
    for name in names:
        spec, roll = flags[name], r.random()
        if roll < 0.05:
            name = name[: int(r.integers(3, len(name)))]
        elif roll < 0.08:
            name = "--frob"
        if "action" in spec:
            argv.append(name + ("=yes" if r.random() < 0.05 else ""))
            continue
        value, roll = _fuzz_flag_value(r, spec), r.random()
        if roll < 0.08:
            argv.append(f"{name}={value}")
        elif roll < 0.11:
            argv.append(name)
        else:
            argv += [name, value]
    if r.random() < 0.04:
        argv.insert(int(r.integers(0, len(argv) + 1)), str(r.choice(["-h", "--help"])))
    if r.random() < 0.03:
        argv.append("extra")
    if r.random() < 0.03:
        argv[0] = str(r.choice(["", "ident", "frob", "--porcelain"]))
    return argv


def _typed(args):
    """A namespace's fields with their types; NaN equals itself here."""
    return sorted((k, type(v).__name__, repr(v)) for k, v in vars(args).items())


def test_plain_parser_gives_argparse_namespace_or_defers_to_argparse():
    r = gen.rng(99)
    parser = _build_parser()  # parse_args leaves the parser as it was
    kinds = Counter()
    for _ in range(3000):
        argv = fuzz_argv(r)
        plain = _parse_plain(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                want = parser.parse_args(argv)
        except SystemExit:
            want = None
        if plain is not None:
            assert want is not None and _typed(plain) == _typed(want), argv
        kinds[plain is not None, want is not None] += 1
    # plain calls are common, and argparse gets both calls it reads and ones it refuses
    assert kinds[True, True] > 800, kinds
    assert kinds[False, True] > 300 and kinds[False, False] > 1000, kinds


# --- seeded fuzz of the data subcommands ------------------------------------------

_INTERVAL_RE = re.compile(r"\[(\S+), (\S+)\]|^(?:pn|ps|pns)\t(\S+)\t(\S+)$", re.M)


def _printed_intervals(argv, out):
    """Every (lo, hi) pair a call printed: ``[lo, hi]``, a ``pnps``
    porcelain line with two numbers, or ``estimate --porcelain``'s interval
    fields."""
    found = [
        (float(a or c), float(b or d)) for a, b, c, d in _INTERVAL_RE.findall(out)
    ]
    fields = out.split("\t")
    if argv[0] == "estimate" and "--porcelain" in argv and len(fields) == 5:
        found.append((float(fields[2]), float(fields[3])))
    return found


def test_data_subcommands_fuzzed_exit_with_a_code_and_print_ordered_intervals(tmp_path):
    r = gen.rng(97)
    outcomes, intervals = Counter(), 0
    for i in range(400):
        argv = gen.fuzz_data_call(r, tmp_path, i)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)  # an exception that escapes fails the test
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        for lo, hi in _printed_intervals(argv, out.getvalue()):
            assert 0.0 <= lo <= hi <= 1.0, (argv, out.getvalue())
            intervals += 1
        outcomes[argv[0], code] += 1
    # every subcommand both answers and refuses, and intervals are printed
    for command in ("estimate", "fit", "discover", "pnps", "mediate", "recover"):
        assert outcomes[command, 0] and sum(
            outcomes[command, c] for c in (1, 2, 3)
        ), (command, outcomes)
    assert intervals >= 50, intervals


# --- seeded fuzz of the model and symbolic subcommands ----------------------------


def _fuzz_model(r, tmp, i):
    """A model file from ``gen.random_scm``, three times in eight with one
    flaw (a cycle, an unknown parent, a missing table entry, a NaN or negative
    probability, a bad name, a duplicate or foreign line, a cut), and the
    model's endogenous names."""
    m = gen.random_scm(r, n_endo=int(r.integers(2, 6)), n_exo=int(r.integers(1, 4)))
    names = sorted(m.endogenous)
    text, first = serialize_scm(m), f"endo {names[0]} ("
    flaw = int(r.integers(0, 24))
    if flaw < 2:  # the first variable reads Q, or a variable: itself makes a cycle
        other = "Q" if flaw else str(r.choice(names))
        text = re.sub(rf"(?<={re.escape(first)})U\d", other, text)
    elif flaw == 2:
        text = re.sub(r"\([01,]*\) -> [01], ", "", text, count=1)
    elif flaw < 5:
        text = re.sub(r"(?<=\{0: )[^,}]+", "nan" if flaw == 3 else "-0.25", text, count=1)
    elif flaw == 5:
        text = text.replace(first, f"endo {names[0]}! (")
    elif flaw == 6:
        text += text.splitlines()[0] + "\n"
    elif flaw == 7:
        text += "var X\n"
    elif flaw == 8:
        text = text[: int(r.integers(0, len(text)))]
    model = tmp / f"m{i}.scm"
    model.write_text(text, encoding="utf-8")
    return str(model), names


def _fuzz_graph(r, tmp, i):
    """A graph file from ``gen.random_admg``, three times in eight with one
    flaw (a directed cycle, an unknown or badly named node, a malformed or
    duplicate line, a cut), and the graph's nodes."""
    g = gen.random_admg(r, int(r.integers(2, 6)))
    nodes = sorted(g.nodes)
    text = serialize_graph(g)
    a, b = sorted(g.directed)[0] if g.directed else (nodes[0], nodes[0])
    flaw = int(r.integers(0, 16))
    if flaw < 5:
        text += [f"{b} -> {a}", f"{a} -> Q", f"{a} => {b}", f"var {a}", "var A-B"][flaw] + "\n"
    elif flaw == 5:
        text = text[: int(r.integers(0, len(text)))]
    graph = tmp / f"g{i}.cg"
    graph.write_text(text, encoding="utf-8")
    return str(graph), nodes


def _fuzz_value(r):
    """A binary model's value, or one in five times a value outside it."""
    return str(r.choice(["0", "1"] * 4 + ["2", "7"]))


def fuzz_model_call(r, tmp, i) -> list[str]:
    """Arguments of one call of ``counterfactual``, ``pnps --scm``,
    ``mediate --scm``, ``identify`` or ``discover --graph`` on seeded,
    sometimes malformed, model and graph files, with queries from
    ``gen.random_query_text`` or malformed ones and values sometimes out of
    the domain."""
    command = str(r.choice(["counterfactual", "counterfactual", "pnps", "mediate",
                            "identify", "identify", "discover"]))
    if command in ("identify", "discover"):
        graph, nodes = _fuzz_graph(r, tmp, i)
        argv = [command, "--graph", graph]
        if command == "identify":
            a, b = str(r.choice(nodes)), str(r.choice(nodes))
            malformed = ["P(Q|do(A))", f"P({a}|do({a}))", f"P({a}|do({b})", "P(", "",
                         f"P({a}_{{{b}=1}}=1)"]
            well_formed = r.random() < 0.8
            argv += ["--query", gen.random_query_text(r, nodes) if well_formed
                     else str(r.choice(malformed))]
    else:
        model, names = _fuzz_model(r, tmp, i)
        # with two variables the outcome is the exposure
        x, m, y = ([str(v) for v in r.permutation(names)] * 2)[:3]
        if r.random() < 0.05:
            y = x
        argv = [command, "--scm", model]
        if command == "counterfactual":
            query = (f"P({y}_{{{x}={_fuzz_value(r)}}}={_fuzz_value(r)}|{x}={_fuzz_value(r)})"
                     if r.random() < 0.7 else gen.random_query_text(r, names))
            if r.random() < 0.1:
                query = str(r.choice([f"P({y}_{{{x}=1}}=1|", f"P(Q_{{{x}=1}}=1)",
                                      f"P({y}_{{{x}=1}}=1,{x}_{{{y}=0}}=1)"]))
            argv += ["--query", query]
        elif command == "pnps":
            argv += ["--exposure", x, "--outcome", y]
            for flag in ("--x1", "--x0", "--y1"):
                if r.random() < 0.2:
                    argv.append(f"{flag}={_fuzz_value(r)}")
        else:
            argv += ["--exposure", x, "--mediator", m, "--outcome", y,
                     "--x0", _fuzz_value(r), "--x1", _fuzz_value(r)]
    if r.random() < 0.3:
        argv.append("--porcelain")
    return argv


def _numbers(text):
    """The tokens of ``text`` that read as floats, ``nan`` and ``inf`` included."""
    found = []
    for token in re.split(r"[\s\[\],]+", text):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


def test_model_and_symbolic_subcommands_fuzzed_exit_with_a_code_and_print_probabilities(tmp_path):
    r = gen.rng(98)
    outcomes = Counter()
    for i in range(300):
        argv = fuzz_model_call(r, tmp_path, i)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)  # an exception that escapes fails the test
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if argv[0] in ("counterfactual", "pnps"):
            for p in _numbers(out.getvalue()):
                assert 0.0 <= p <= 1.0, (argv, out.getvalue())
        outcomes[argv[0], code] += 1
    for command in ("counterfactual", "pnps", "mediate", "identify", "discover"):
        assert outcomes[command, 0] and sum(
            outcomes[command, c] for c in (1, 2, 3)
        ), (command, outcomes)


# --- seeded fuzz of graph and m-graph files on data ---------------------------------

# one line appended to a graph file: a directed cycle, an unknown, repeated
# or badly named node, a repeated edge or a malformed line
GRAPH_FLAWS = ("Y -> X", "Z -> X", "X -> X", "X -> Q", "var X", "var W", "X -> Z",
               "var A-B", "var 2X", "X => Y", "X <-> ")
# one line appended to an m-graph file: an undeclared, nameless or repeated
# missing variable, an indicator with a child, on its own variable or on one
# not declared missing
MGRAPH_FLAWS = ("missing Q", "missing", "missing Y", "R_Y -> X", "Y -> R_Y", "X -> R_X",
                "R_Y -> R_Y", "missing R_Y")


def fuzz_graph_call(r, tmp, i) -> list[str]:
    """Arguments of one call of ``estimate``, ``fit``, ``mediate --graph
    --data`` or ``recover`` on a small seeded CSV over X, Z, Y and sometimes
    M, and a graph (for ``recover`` an m-graph) over X -> Z -> Y with
    X -> Y that, three times in five, has one flaw: a line from
    ``GRAPH_FLAWS`` or ``MGRAPH_FLAWS``, a cut, or an m-graph whose
    ``missing Y`` declaration is dropped, leaving its indicator undeclared."""
    command = str(r.choice(["estimate", "estimate", "fit", "mediate", "recover", "recover"]))
    columns = ["X", "Z", "Y"] + (["M"] if r.random() < 0.3 else [])
    rows = [[str(int(r.integers(0, 2))) for _ in columns]
            for _ in range(int(r.integers(0, 60)))]
    if command == "recover" or r.random() < 0.1:
        for row in rows:
            if r.random() < 0.3:
                row[2] = "NA"
    data = tmp / f"d{i}.csv"
    data.write_text("".join(",".join(row) + "\n" for row in [columns, *rows]),
                    encoding="utf-8")
    lines = [f"var {v}" for v in columns] + ["X -> Z", "Z -> Y", "X -> Y"]
    flaws = GRAPH_FLAWS
    if command == "recover":
        lines += ["missing Y", "X -> R_Y"]
        flaws += MGRAPH_FLAWS
    text = "".join(line + "\n" for line in lines)
    roll = r.random()
    if roll < 0.1:
        text = text[: int(r.integers(0, len(text)))]
    elif roll < 0.2 and command == "recover":
        text = text.replace("missing Y\n", "")
    elif roll < 0.6:
        text += str(r.choice(flaws)) + "\n"
    graph = tmp / f"g{i}.cg"
    graph.write_text(text, encoding="utf-8")
    files = ["--graph", str(graph), "--data", str(data)]
    if command == "estimate":
        query = str(r.choice(["P(Y=1|do(X=1))"] * 4 + ["P(Y=0|do(X=0),Z=1)", "P(Q=1|do(X=1))"]))
        argv = ["estimate", *files, "--query", query]
        if r.random() < 0.6:
            argv += ["--bootstrap", "100", "--seed", str(i)]
    elif command == "fit":
        argv = ["fit", *files]
    elif command == "mediate":
        argv = ["mediate", *files, "--exposure", "X", "--mediator", "Z", "--outcome", "Y",
                "--x0", "0", "--x1", "1"]
    else:
        argv = ["recover", *files, "--target", str(r.choice(["Y=1", "Y=1", "X=1,Y=1", "Y=0"]))]
    if r.random() < 0.3:
        argv.append("--porcelain")
    return argv


def _printed_estimates(argv, out):
    """The point estimate an ``estimate`` or ``recover`` call printed."""
    if argv[0] not in ("estimate", "recover") or not out:
        return []
    if "--porcelain" in argv:
        return [float(out.split("\t")[0])]
    return [float(v) for v in re.findall(r"^estimate: (\S+)$", out, re.M)]


def test_graph_files_fuzzed_on_data_exit_with_a_code_and_print_probabilities(tmp_path):
    r = gen.rng(96)
    outcomes, intervals, estimates = Counter(), 0, 0
    for i in range(300):
        argv = fuzz_graph_call(r, tmp_path, i)
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, out, err)  # an exception that escapes fails the test
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        for lo, hi in _printed_intervals(argv, out.getvalue()):
            assert 0.0 <= lo <= hi <= 1.0, (argv, out.getvalue())
            intervals += 1
        for p in _printed_estimates(argv, out.getvalue()):
            assert 0.0 <= p <= 1.0, (argv, out.getvalue())
            estimates += 1
        outcomes[argv[0], code] += 1
    for command in ("estimate", "fit", "mediate", "recover"):
        assert outcomes[command, 0] and outcomes[command, 1], (command, outcomes)
    assert intervals >= 10 and estimates >= 40, (intervals, estimates)
