"""Record the expected answer of every benchmark call into ``expected.json``.

Run from the repository root:  python3 perfbench/record.py

Each instance of each workload is built, every call in its cycle is run
through ``scmkit.cli.run`` and its exit code and ``--porcelain`` output are
stored with the hashes of the generated input files.  Where ``tests/gen.py``
has an independent oracle, the answer is checked against it before it is
stored, and recording stops on a disagreement:

* ``counterfactual`` and exact ``pnps`` against ``brute_counterfactual``;
* ``identify`` estimands, evaluated on the exact observational joint, against
  ``brute_marginal`` on the surgered model;
* back-door ``estimate`` values against ``eval_sum_by_hand``; the front-door
  point estimates against the same formula written out over the CSV counts.

Other answers (bootstrap intervals, data-mode CPDAGs, mediation, fit
entries, recovery) are recorded as the program prints them at this commit.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import gen  # noqa: E402
import inputs  # noqa: E402
from calls import DATA, file_hashes, materialize, run_in_process  # noqa: E402
from scmkit import estimate, expr, scm  # noqa: E402
from scmkit.discover import DataOracle, DiscoveryError, discover_cpdag  # noqa: E402
from scmkit.identify import identify, parse_query  # noqa: E402

EXPECTED = HERE / "expected.json"
REFUSAL_ROWS = 400
DROPPED_BAND = (40, 60)  # of BOOTSTRAP_B resamples
CI_TEST_BAND = (65, 80)
WORK = ROOT / ".perfbench" / "record"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1.5e-6


def fail(msg: str) -> None:
    raise SystemExit(f"record: oracle disagreement: {msg}")


def _joint_from_csv(path: Path) -> expr.JointTable:
    d = estimate.load_table(path)
    counts = Counter(d.rows)
    mass = {key: c / d.n for key, c in counts.items()}
    return expr.JointTable(d.columns, d.domains, mass)


def _cf_args(query: str) -> tuple[dict, dict, dict]:
    q = parse_query(query)
    (antecedent,) = {t.dos for t in q.outcome}
    targets = {t.var: t.token for t in q.outcome}
    evidence = {t.var: t.token for t in q.condition}
    return dict(antecedent), targets, evidence


def _arg(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_pnps_exact(m, argv, stdout) -> None:
    x1, x0 = _arg(argv, "--x1", "1"), _arg(argv, "--x0", "0")
    y1, y0 = _arg(argv, "--y1", "1"), _arg(argv, "--y0", "0")
    want = {
        "pn": gen.brute_counterfactual(m, [({"X": x0}, {"Y": y0})], {"X": x1, "Y": y1}),
        "ps": gen.brute_counterfactual(m, [({"X": x1}, {"Y": y1})], {"X": x0, "Y": y0}),
        "pns": gen.brute_counterfactual(m, [({"X": x1}, {"Y": y1}), ({"X": x0}, {"Y": y0})], {}),
    }
    for line in stdout.splitlines():
        name, value = line.split("\t")
        if want[name] is None:
            if value != "NA":
                fail(f"{name} printed {value}, oracle says undefined")
        elif not close(float(value), want[name]):
            fail(f"{name} printed {value}, oracle {want[name]}")


def check_counterfactual(m, argv, code, stdout) -> None:
    do, targets, evidence = _cf_args(_arg(argv, "--query"))
    want = gen.brute_counterfactual(m, [(do, targets)], evidence)
    if want is None:
        if code != 3:
            fail(f"zero evidence should exit 3, got {code}")
    elif code != 0 or not close(float(stdout), want):
        fail(f"counterfactual {argv} printed {stdout!r}, oracle {want}")


def front_door_value(joint: expr.JointTable, query: str) -> float:
    """sum_{m,w} P(m|w,x) P(w) sum_{x'} P(x'|w) P(y|m,w,x'), or its W=w slice."""
    q = parse_query(query)
    y = q.outcome[0].token
    x = q.do[0].token
    fixed_w = q.condition[0].token if q.condition else None
    p = joint.prob
    total = 0.0
    for w in joint.domains["W"]:
        if fixed_w is not None and w != fixed_w:
            continue
        inner_w = 0.0
        for m in joint.domains["M"]:
            inner = sum(
                p({"X": x2, "W": w}) / p({"W": w})
                * p({"Y": y, "M": m, "W": w, "X": x2}) / p({"M": m, "W": w, "X": x2})
                for x2 in joint.domains["X"]
            )
            inner_w += p({"M": m, "W": w, "X": x}) / p({"W": w, "X": x}) * inner
        total += inner_w * (1.0 if fixed_w is not None else p({"W": w}))
    return total


def check_identify(k: int, argv, code, stdout) -> None:
    g, a, xv, b, yv = inputs.identify_case(k)
    if code == 2:
        return
    m = gen.scm_for_admg(g, gen.rng(60_000 + k))
    value = expr.eval_estimand(expr.parse_estimand(stdout.strip()), scm.observational_joint(m))
    want = gen.brute_marginal(scm.intervene(m, {a: xv}), {b: yv})
    if code != 0 or not close(value, want):
        fail(f"identify {argv}: estimand gives {value}, oracle {want}")


def find_refusal(k: int) -> dict:
    """Sparse back-door data whose full bootstrap refuses, dropping about half.

    Instances that drop a similar share of resamples cost about the same, so
    runs on different instances stay comparable.
    """
    e = identify(inputs.SPARSE_BACKDOOR, parse_query("P(Y=1|do(X=1))")).estimand
    for data_seed in range(1000):
        d = inputs.refusal_data(k, REFUSAL_ROWS, data_seed)
        try:
            estimate.bootstrap_interval(e, d, B=inputs.BOOTSTRAP_B, seed=k)
        except expr.ConditioningOnZero:
            continue  # refused before resampling; not the case wanted
        except estimate.TooManyDegenerateResamples as exc:
            dropped = int(str(exc).split()[0])
            if DROPPED_BAND[0] <= dropped <= DROPPED_BAND[1]:
                return {"model_seed": k, "n": REFUSAL_ROWS, "data_seed": data_seed}
    raise SystemExit(f"record: no refusing sparse data set for instance {k}")


class CountingOracle(DataOracle):
    def __init__(self, d):
        super().__init__(d)
        self.tests = 0

    def independent(self, u, v, given):
        self.tests += 1
        return super().independent(u, v, given)


def find_discover_draw(k: int) -> dict:
    """A DAG draw whose data-mode PC runs a CI-test count inside the band."""
    for draw in range(200):
        _, _, d = inputs.discover_fit_data(k, draw)
        oracle = CountingOracle(d)
        try:
            discover_cpdag(oracle, d.columns)
        except DiscoveryError:
            continue  # PC's orientations conflict on this sample; not the case wanted
        if CI_TEST_BAND[0] <= oracle.tests <= CI_TEST_BAND[1]:
            return {"draw": draw, "ci_tests": oracle.tests}
    raise SystemExit(f"record: no DAG in the CI-test band for instance {k}")


def check_call(workload: str, k: int, d: Path, argv: list[str], out) -> None:
    cmd = argv[0]
    if workload == "scm_exact":
        m = scm.parse_scm((d / "model.scm").read_text())
        if cmd == "counterfactual":
            check_counterfactual(m, argv, out.code, out.stdout)
        elif cmd == "pnps":
            check_pnps_exact(m, argv, out.stdout)
    elif workload == "estimate_boot" and out.code == 0:
        joint = _joint_from_csv(Path(_arg(argv, "--data")))
        want = front_door_value(joint, _arg(argv, "--query"))
        if not close(float(out.stdout.split()[0]), want):
            fail(f"front-door {argv}: printed {out.stdout!r}, oracle {want}")
    elif workload == "cli_small":
        if cmd == "identify":
            check_identify(k, argv, out.code, out.stdout)
        elif cmd == "estimate":
            q = parse_query(_arg(argv, "--query"))
            joint = _joint_from_csv(DATA / "d8.csv")
            want = gen.eval_sum_by_hand(
                joint, ("Y", q.outcome[0].token), ("X", q.do[0].token), "Z"
            )
            if out.code != 0 or not close(float(out.stdout.split()[0]), want):
                fail(f"estimate {argv}: printed {out.stdout!r}, oracle {want}")
        elif cmd == "counterfactual":
            m = scm.parse_scm(Path(_arg(argv, "--scm")).read_text())
            check_counterfactual(m, argv, out.code, out.stdout)
        elif cmd == "pnps" and "--scm" in argv:
            m = scm.parse_scm(Path(_arg(argv, "--scm")).read_text())
            check_pnps_exact(m, argv, out.stdout)
        elif cmd == "pnps":
            for line in out.stdout.splitlines():
                name, lo, hi = line.split("\t")
                if not 0.0 <= float(lo) <= float(hi) <= 1.0:
                    fail(f"bounds {argv}: {name} interval [{lo}, {hi}] is not valid")


def record_instance(workload: str, k: int) -> dict:
    search = {"estimate_boot": find_refusal, "discover_fit": find_discover_draw}
    params = search[workload](k) if workload in search else {}
    d = WORK / workload / str(k)
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    templates, props = inputs.BUILDERS[workload](k, params, d)
    entry = {"k": k, "params": params, "inputs": file_hashes(d), "props": props, "calls": []}
    for template in templates:
        argv = materialize(template, d)
        out = run_in_process(argv)
        if out.code not in (0, 1, 2, 3):
            fail(f"{argv} exited {out.code}")
        check_call(workload, k, d, argv, out)
        call = {"argv": template, "exit": out.code, "stdout": out.stdout}
        if "resamples hit an empty stratum" in out.stderr:
            call["stderr_has"] = out.stderr.strip()
        entry["calls"].append(call)
        print(f"{workload}[{k}] {template[0]}: exit {out.code} "
              f"{out.seconds:.2f}s {out.stdout.strip()[:60]!r}", file=sys.stderr)
    return entry


def main() -> int:
    recorded = {
        workload: [record_instance(workload, k) for k in range(inputs.POOL_SIZE[workload])]
        for workload in inputs.BUILDERS
    }
    EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
