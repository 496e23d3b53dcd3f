"""Which modules each entry point loads, checked in fresh interpreters.

``import scmkit`` resolves its exports lazily, and each CLI subcommand imports
only the modules on its path, so symbolic work, ``fit``, ``discover --data``,
the plug-in answers on data (``estimate`` without ``--bootstrap``,
``pnps --data``, ``recover``, ``mediate --graph --data``) and the exact model
answers (``counterfactual``, ``pnps --scm``, ``mediate --scm``) never load
numpy, and model work never compiles the estimand algebra or the graph code.
No path loads ``dataclasses`` or ``inspect``.  A call that is answered loads
no ``argparse``, which only help and usage errors need.
A check of the source pins where ``scm``, ``expr`` and ``estimate`` import
numpy and that only the record module imports ``dataclasses``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports scmkit from this tree."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )


def loaded_after_run(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of ``scmkit.cli.run(argv)`` and the modules loaded by then."""
    code = (
        "import io, json, sys\n"
        "import scmkit.cli\n"
        f"code = scmkit.cli.run({argv!r}, io.StringIO(), io.StringIO())\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = fresh(code)
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = json.loads(proc.stdout)
    return exit_code, set(modules)


def data(name: str) -> str:
    return str(DATA / name)


SYMBOLIC = {
    "identify": ["identify", "--graph", data("backdoor.cg"), "--query", "P(Y|do(X))"],
    "identify refused": ["identify", "--graph", data("bow.cg"), "--query", "P(Y|do(X))"],
    "discover --graph": ["discover", "--graph", data("collider.cg")],
}

MODEL = {
    "counterfactual": ["counterfactual", "--scm", data("xor.scm"),
                       "--query", "P(Y_{X=1}=1|X=0)"],
    "pnps --scm": ["pnps", "--scm", data("xor.scm")],
    "mediate --scm": ["mediate", "--scm", data("med.scm"), "--exposure", "X",
                      "--mediator", "M", "--outcome", "Y", "--x0", "0", "--x1", "1"],
}

DATA_ONLY = {
    "estimate": ["estimate", "--graph", data("backdoor.cg"),
                 "--query", "P(Y=1|do(X=1))", "--data", data("d8.csv")],
    "fit": ["fit", "--graph", data("chain.cg"), "--data", data("d8.csv")],
    "pnps --data": ["pnps", "--data", data("d8.csv"), "--px1", "0.5", "--px0", "0.5"],
    "mediate --data": ["mediate", "--graph", data("chain.cg"), "--data", data("d8.csv"),
                       "--exposure", "X", "--mediator", "Z", "--outcome", "Y",
                       "--x0", "0", "--x1", "1"],
}


# every path also loads these
EVERY_PATH = {"cli", "lexer", "record"}

MODULE_SETS = {
    "identify": (SYMBOLIC["identify"], {"query", "expr", "graph", "identify"}),
    "discover --graph": (SYMBOLIC["discover --graph"], {"graph", "discover"}),
    "counterfactual": (MODEL["counterfactual"], {"query", "scm"}),
    "pnps --scm": (MODEL["pnps --scm"], {"pnps", "scm"}),
    "mediate --scm": (MODEL["mediate --scm"], {"mediation", "scm"}),
    "estimate": (DATA_ONLY["estimate"],
                 {"query", "expr", "graph", "identify", "estimate", "evaluate"}),
    "fit": (DATA_ONLY["fit"], {"graph", "estimate", "fitcheck"}),
    "discover --data": (["discover", "--data", data("d8.csv")],
                        {"graph", "discover", "estimate", "fitcheck"}),
    "pnps --data": (DATA_ONLY["pnps --data"], {"pnps", "estimate", "expr", "evaluate"}),
    "mediate --graph --data": (DATA_ONLY["mediate --data"],
                               {"mediation", "graph", "estimate", "expr", "evaluate"}),
    "recover": (["recover", "--graph", data("mar.cg"), "--data", data("dmiss.csv"),
                 "--target", "Y=1"],
                {"graph", "expr", "estimate", "evaluate", "recover"}),
}


@pytest.mark.parametrize(
    "argv, expected", MODULE_SETS.values(), ids=MODULE_SETS.keys()
)
def test_each_path_loads_exactly_its_modules(argv, expected):
    code, modules = loaded_after_run(argv)
    assert code == 0
    loaded = {m for m in modules if m.startswith("scmkit.")}
    assert loaded == {f"scmkit.{m}" for m in expected | EVERY_PATH}


@pytest.mark.parametrize("path", MODULE_SETS)
def test_no_path_loads_dataclasses_and_paths_without_numpy_load_no_inspect(path):
    code, modules = loaded_after_run(MODULE_SETS[path][0])
    assert code == 0
    assert "dataclasses" not in modules
    # the model paths answer by the plain-Python sweep, so no path loads
    # numpy, which imports inspect itself
    assert not modules & {"numpy", "inspect"}


@pytest.mark.parametrize("path", MODULE_SETS)
def test_no_answered_call_loads_argparse(path):
    code, modules = loaded_after_run(MODULE_SETS[path][0])
    assert code == 0
    assert not modules & {"argparse", "gettext"}


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    (["fit", "--help"], 0),
    (["identify", "--graph", data("backdoor.cg")], 1),
    (["discover", "--data=" + data("d8.csv"), "--alpha", "x"], 1),
], ids=["help", "subcommand help", "missing flag", "bad value"])
def test_help_and_usage_errors_load_argparse(argv, exit_code):
    code, modules = loaded_after_run(argv)
    assert code == exit_code
    assert "argparse" in modules


def source(module: str) -> str:
    return (ROOT / "src" / "scmkit" / f"{module}.py").read_text(encoding="utf-8")


def imports_of(target: str, text: str) -> list[str]:
    """Where a module's source imports ``target`` or a submodule of it: the
    qualified name of each enclosing function or class, ``<module>`` at the
    top level, or ``<type checking>`` under ``if TYPE_CHECKING``."""
    found, stack = [], [(ast.parse(text), "<module>")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            names = (
                [a.name for a in child.names] if isinstance(child, ast.Import)
                else [child.module or ""] if isinstance(child, ast.ImportFrom) else []
            )
            if any(name.split(".")[0] == target for name in names):
                found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where.startswith("<") else f"{where}.{child.name}"
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                inner = "<type checking>"
            stack.append((child, inner))
    return sorted(found)


def test_only_the_bootstrap_imports_numpy_in_expr_and_estimate():
    # the detector sees a top-level import and one inside a function
    assert imports_of("numpy", "import numpy as np\n") == ["<module>"]
    assert imports_of("numpy", source("identify")) == ["_witness_via_edge"]
    # only sampling runs numpy in the model kernel
    assert imports_of("numpy", source("scm")) == ["sample"]
    assert imports_of("numpy", source("mediation")) == []
    assert imports_of("numpy", source("expr")) == []
    assert set(imports_of("numpy", source("estimate"))) == {
        "bootstrap_interval", "_quantiles", "<type checking>",
    }


def test_only_the_record_error_imports_dataclasses():
    modules = sorted(p.stem for p in (ROOT / "src" / "scmkit").glob("*.py"))
    found = {m: imports_of("dataclasses", source(m)) for m in modules}
    assert {m: where for m, where in found.items() if where} == {"record": ["_frozen"]}
    # a record class declared the old way would be caught
    decorated = source("query") + "\nfrom dataclasses import dataclass\n"
    assert imports_of("dataclasses", decorated) == ["<module>"]


def test_bootstrap_interval_loads_no_masked_arrays(tmp_path):
    # 25 copies of each of the 8 binary rows: no resample empties a stratum
    rows = [f"{x},{y},{z}" for x in "01" for y in "01" for z in "01"] * 25
    csv = tmp_path / "boot.csv"
    csv.write_text("X,Y,Z\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["estimate", "--graph", data("backdoor.cg"), "--query", "P(Y=1|do(X=1))",
            "--data", str(csv), "--bootstrap", "100"]
    proc = fresh(
        "import io, json, sys\n"
        "import scmkit.cli\n"
        "out = io.StringIO()\n"
        f"code = scmkit.cli.run({argv!r}, out, io.StringIO())\n"
        "print(json.dumps([code, out.getvalue(), 'numpy.ma' in sys.modules]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    code, out, masked = json.loads(proc.stdout)
    assert code == 0 and "ci: [" in out
    assert not masked


def test_main_pins_thread_pools_unless_the_user_set_them():
    argv = ["scmkit", "identify", "--graph", data("backdoor.cg"), "--query", "P(Y)"]
    proc = fresh(
        "import json, os, sys\n"
        "names = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')\n"
        "for name in names:\n"
        "    os.environ.pop(name, None)\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '3'\n"
        "import scmkit.cli\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    scmkit.cli.main()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, 'numpy' in sys.modules,\n"
        "                  [os.environ.get(name) for name in names]]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    code, numpy_loaded, values = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and not numpy_loaded
    assert values == ["1", "3", "1"]


@pytest.mark.parametrize("argv", SYMBOLIC.values(), ids=SYMBOLIC.keys())
def test_symbolic_subcommands_load_no_numpy(argv):
    code, modules = loaded_after_run(argv)
    assert code in (0, 2)
    assert "numpy" not in modules
    assert "scmkit.scm" not in modules and "scmkit.estimate" not in modules


@pytest.mark.parametrize("path", ["fit", "discover --data"])
def test_independence_tests_on_data_load_no_numpy(path):
    code, modules = loaded_after_run(MODULE_SETS[path][0])
    assert code == 0
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "path", ["estimate", "pnps --data", "recover", "mediate --graph --data"]
)
def test_plug_in_answers_on_data_load_no_numpy(path):
    code, modules = loaded_after_run(MODULE_SETS[path][0])
    assert code == 0
    assert "numpy" not in modules


def test_bootstrap_interval_is_unchanged_on_a_fixed_seed(tmp_path):
    # 10, 13, ..., 31 copies of the 8 binary rows in order; the pinned lines
    # are those printed when the point estimate ran on the numpy evaluator
    rows = [f"{x},{y},{z}" for x in "01" for y in "01" for z in "01"]
    lines = [row for i, row in enumerate(rows) for _ in range(10 + 3 * i)]
    csv = tmp_path / "boot.csv"
    csv.write_text("X,Y,Z\n" + "\n".join(lines) + "\n", encoding="utf-8")
    argv = ["estimate", "--graph", data("backdoor.cg"), "--query", "P(Y=1|do(X=1))",
            "--data", str(csv), "--bootstrap", "200", "--seed", "5"]
    proc = fresh(
        "import io, json\n"
        "import scmkit.cli\n"
        "out = io.StringIO()\n"
        f"code = scmkit.cli.run({argv!r}, out, io.StringIO())\n"
        "print(json.dumps([code, out.getvalue()]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, (
        "estimand: sum_{z} P(Y=1|X=1,z) * P(z)\n"
        "estimate: 0.556551\n"
        "n: 164\n"
        "ci: [0.457448, 0.645498] level=0.95 B=200 seed=5\n"
    )]


@pytest.mark.parametrize("argv", MODEL.values(), ids=MODEL.keys())
def test_model_subcommands_load_no_data_tests_or_recovery(argv):
    code, modules = loaded_after_run(argv)
    assert code == 0
    assert not modules & {"scmkit.fitcheck", "scmkit.discover", "scmkit.recover"}


@pytest.mark.parametrize("argv", MODEL.values(), ids=MODEL.keys())
def test_model_subcommands_load_no_data_reader(argv):
    code, modules = loaded_after_run(argv)
    assert code == 0
    assert not modules & {"scmkit.estimate", "scmkit.evaluate"}


@pytest.mark.parametrize("argv", DATA_ONLY.values(), ids=DATA_ONLY.keys())
def test_data_subcommands_load_no_model_kernel(argv):
    code, modules = loaded_after_run(argv)
    assert code == 0
    assert "scmkit.scm" not in modules


def test_package_exports_resolve_lazily_to_their_home_objects():
    proc = fresh(
        "import json, sys\n"
        "import scmkit\n"
        "before = sorted(m for m in sys.modules if m.startswith('scmkit.'))\n"
        "homes = {}\n"
        "for name in scmkit.__all__:\n"
        "    obj = getattr(scmkit, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    assert getattr(home, name) is obj, name\n"
        "    homes[name] = obj.__module__\n"
        "from scmkit import graph\n"
        "print(json.dumps([before, homes, sorted(dir(scmkit)), graph.__name__,\n"
        "                  callable(scmkit.identify)]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    before, homes, listed, graph_name, identify_is_function = json.loads(proc.stdout)
    assert before == []
    assert set(homes.values()) == {
        "scmkit", "scmkit.graph", "scmkit.expr", "scmkit.scm", "scmkit.query", "scmkit.identify"
    }
    assert len(homes) == 41 and homes["ScmkitError"] == "scmkit"
    assert set(homes) <= set(listed)
    assert graph_name == "scmkit.graph"
    assert identify_is_function


def test_readme_library_block_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    proc = fresh(block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "sum_{z} P(y|x,z) * P(z)\n"


def test_identify_stays_the_function_after_the_cli_loads_its_module():
    proc = fresh(
        "import io, sys\n"
        "import scmkit, scmkit.cli\n"
        f"argv = {SYMBOLIC['identify']!r}\n"
        "assert 'scmkit.identify' not in sys.modules\n"
        "assert scmkit.cli.run(argv, io.StringIO(), io.StringIO()) == 0\n"
        "from scmkit import identify\n"
        "assert identify is scmkit.identify is sys.modules['scmkit.identify'].identify\n"
        "print(identify.__module__, identify.__name__)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "scmkit.identify identify\n"
