"""scmkit benchmark: the CLI as users run it, over four seeded workloads.

    python3 perfbench/run.py --workload estimate_boot --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run times ``python -m scmkit`` child processes (with
``PYTHONPATH=src``, so the working tree is measured without an install) in a
closed loop, one client and one child at a time, and prints the end-to-end
metrics in reference seconds (see ``timed_run``).  With ``--trace 1`` it instead calls ``scmkit.cli.run`` in this
process with the same argument lists, alternating cycles with and without
spans around scmkit's public functions, and prints the per-layer metrics.
Every answer is checked against ``expected.json``.  The last stdout line is
one JSON object; details go to stderr and to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calls import (
    THREAD_PINS, child_env, file_hashes, materialize, mismatch, run_child, run_in_process,
    run_reference,
)
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate_boot", "scm_exact", "discover_fit", "cli_small")
SETUP_REPEATS = 3
MIN_CALLS = 6  # whole cycles are added past --seconds until a run has this many
IMPORT_REPEATS = 3
SETUP_CALL_ID = -1
MAX_TRACED_CYCLES = 50  # keeps the span file small when calls are quick


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pick_instance(pool: list[dict], seed: int) -> dict:
    digest = hashlib.sha256(str(seed).encode()).digest()
    return pool[int.from_bytes(digest[:8], "big") % len(pool)]


class Run:
    """One benchmark run: inputs, checked calls and their timings."""

    def __init__(self, workload: str, entry: dict, out_dir: Path):
        import inputs

        self.entry = entry
        self.builder = inputs.BUILDERS[workload]
        self.work = out_dir / "work" / workload
        self.scratch = out_dir / "work" / "io"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.templates: list[list[str]] = []
        self.props: dict = {}

    def build(self) -> float:
        """Write the instance's input files; returns the seconds taken."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        start = time.perf_counter()
        self.templates, self.props = self.builder(
            self.entry["k"], self.entry["params"], self.work
        )
        seconds = time.perf_counter() - start
        hashes = file_hashes(self.work)
        if hashes != self.entry["inputs"]:
            self.problems.append(
                f"generated inputs differ from the recorded ones: {hashes}"
            )
        if self.templates != [c["argv"] for c in self.entry["calls"]]:
            self.problems.append("generated calls differ from the recorded ones")
        return seconds

    def check(self, index: int, outcome) -> None:
        self.attempted += 1
        why = mismatch(outcome, self.entry["calls"][index])
        if why:
            self.failed += 1
            self.problems.append(f"call {index} ({self.templates[index][0]}): {why}")

    def argv(self, index: int) -> list[str]:
        return materialize(self.templates[index], self.work)

    def child(self, index: int):
        outcome = run_child(self.argv(index), self.scratch)
        self.check(index, outcome)
        return outcome

    def in_process(self, index: int):
        outcome = run_in_process(self.argv(index))
        self.check(index, outcome)
        return outcome

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def tail(times: list[float]) -> tuple[float, float]:
    """Tail call time and its percentile, as (value, pct).

    The percentile is the highest one with at least ten calls beyond it, but
    never below the 75th: a run makes tens of calls, not hundreds, and with
    so few the rule would fall under the median.  Quantiles interpolate
    between calls.
    """
    n = len(times)
    pct = max(75.0, 100.0 * (n - 10) / n)
    ordered = sorted(times)
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def timed_run(run: Run, seconds: float) -> tuple[dict, dict]:
    """Closed loop of child calls; times are rescaled by the reference.

    The reference runs once before the loop and once after every cycle.
    Dividing by its median turns wall-clock seconds into seconds on a machine
    where the reference takes exactly one second, which cancels the speed
    drift of a shared machine between runs.
    """
    run.scratch.mkdir(parents=True, exist_ok=True)
    builds = [run.build() for _ in range(SETUP_REPEATS)]
    warmup = 0.0
    seen: set[str] = set()
    for i, template in enumerate(run.templates):
        if template[0] not in seen:
            seen.add(template[0])
            warmup += run.child(i).seconds
    setup_s = statistics.median(builds) + warmup

    references = [run_reference()]
    times: list[float] = []
    by_command: dict[str, list[float]] = defaultdict(list)
    peak_kb = 0
    measured = 0.0
    start = time.perf_counter()
    last_cycle = 0.0
    cycles = 0
    while (len(times) < MIN_CALLS
           or time.perf_counter() - start + last_cycle <= seconds):
        cycle_start = time.perf_counter()
        for i, template in enumerate(run.templates):
            outcome = run.child(i)
            times.append(outcome.seconds)
            by_command[template[0]].append(outcome.seconds)
            peak_kb = max(peak_kb, outcome.max_rss_kb)
        measured += time.perf_counter() - cycle_start
        references.append(run_reference())
        last_cycle = time.perf_counter() - cycle_start
        cycles += 1

    reference_s = statistics.median(references)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s / reference_s, "s"),
        "call_p50_s": (p50 / reference_s, "s"),
        "call_tail_s": (tail_s / reference_s, "s"),
        "calls_per_s": (len(times) / measured * reference_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    details = {
        "wall_clock": {"setup_s": setup_s, "call_p50_s": p50, "call_tail_s": tail_s,
                       "calls_per_s": len(times) / measured},
        "reference_s": references,
        "setup": {"build_s": builds, "warmup_s": warmup},
        "calls": len(times),
        "cycles": cycles,
        "measured_s": measured,
        "call_tail_percentile": tail_pct,
        "call_s_by_command": by_command,
    }
    return metrics, details


# --- traced run ---------------------------------------------------------------------

SELF_TIMES = [
    "cli.run", "graph.parse_graph", "graph.d_separated", "graph.testable_implications",
    "identify.parse_query", "identify.identify", "expr.eval_estimand", "expr.simplify",
    "expr.render", "estimate.load_table", "estimate.empirical_joint", "estimate.plug_in",
    "estimate.bootstrap_interval", "scm.parse_scm", "scm.joint_counterfactual",
    "scm.observational_joint", "pnps.pn_ps_exact", "pnps.pnps_bounds",
    "mediation.mediation_effects_scm", "recover.recoverability",
    "recover.recover_estimate", "fitcheck.g_squared_ci", "fitcheck.fit_indices",
    "discover.discover_cpdag",
]
ENUMERATIONS = ("scm.joint_counterfactual", "scm.observational_joint",
                "mediation.mediation_effects_scm")


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, traced_ids: set[int], cycles: int) -> tuple[dict, dict]:
    """Per-cycle self times and counts from the traced cycles' spans, plus
    each module's share of in-process time and the bases of every ratio."""
    spans = tracer.spans
    self_s = tracer.self_times(traced_ids)
    setup_self = tracer.self_times({SETUP_CALL_ID})
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    tally: dict[str, float] = defaultdict(float)
    for name, start, end, parent, cid, note in spans:
        if cid not in traced_ids:
            continue
        calls[name] += 1
        inclusive[name] += end - start
        note = note or {}
        if name == "expr.eval_estimand":
            tally["cells"] += note["cells"]
            tally["zero"] += note["zero"]
            if parent >= 0 and spans[parent][0] == "estimate.bootstrap_interval":
                tally["replicates"] += 1
                tally["dropped"] += note["zero"]
        elif name == "estimate.load_table":
            tally["rows_loaded"] += note.get("rows", 0)
        elif name == "identify.identify":
            tally["refused"] += note.get("refused", False)
        elif name == "fitcheck.g_squared_ci":
            tally["rows_scanned"] += note.get("rows", 0)
            tally["pooled"] += note.get("pooled", 0)
            tally["strata"] += note.get("pooled", 0) + note.get("used", 0)
        elif name == "discover.independent":
            tally["independent"] += note.get("independent", False)
        if name in ENUMERATIONS:
            tally["states"] += note.get("states", 0)
            tally["enum_s"] += end - start
            if name == "scm.joint_counterfactual":
                tally["jc_states"] += note.get("states", 0)

    per = float(cycles)
    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / per, "s")
    m["scm.sample.self_s"] = (setup_self.get("scm.sample", 0.0), "s")
    m["graph.d_separated.calls"] = (calls["graph.d_separated"] / per, "count")
    m["identify.identify.calls"] = (calls["identify.identify"] / per, "count")
    m["identify.refused_frac"] = (_frac(tally["refused"], calls["identify.identify"]), "frac")
    n_eval = calls["expr.eval_estimand"]
    m["expr.eval_estimand.calls"] = (n_eval / per, "count")
    m["expr.eval_estimand.zero_frac"] = (_frac(tally["zero"], n_eval), "frac")
    m["expr.joint_cells"] = (_frac(tally["cells"], n_eval), "cells")
    m["estimate.load_table.rows_per_s"] = (
        _frac(tally["rows_loaded"], inclusive["estimate.load_table"]), "rows/s")
    m["estimate.bootstrap_interval.replicates"] = (tally["replicates"] / per, "count")
    m["estimate.bootstrap_interval.dropped_frac"] = (
        _frac(tally["dropped"], tally["replicates"]), "frac")
    m["scm.joint_counterfactual.states"] = (tally["jc_states"] / per, "count")
    m["scm.states_per_s"] = (_frac(tally["states"], tally["enum_s"]), "states/s")
    m["fitcheck.g_squared_ci.calls"] = (calls["fitcheck.g_squared_ci"] / per, "count")
    m["fitcheck.rows_scanned"] = (tally["rows_scanned"] / per, "count")
    m["fitcheck.pooled_frac"] = (_frac(tally["pooled"], tally["strata"]), "frac")
    m["discover.ci_tests"] = (calls["discover.independent"] / per, "count")
    m["discover.ci_independent_frac"] = (
        _frac(tally["independent"], calls["discover.independent"]), "frac")

    in_process = inclusive["cli.run"]
    by_module: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        by_module[name.split(".")[0]] += value
    shares = {mod: _frac(v, in_process) for mod, v in sorted(by_module.items())}
    bases = {"traced_cycles": cycles, "span_counts": dict(calls), "tallies": dict(tally)}
    return m, {"in_process_share_by_module": shares, "bases": bases}


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import scmkit.cli"],
            cwd=ROOT, env=child_env(), check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    tracer.call_id = SETUP_CALL_ID
    tracer.install()
    try:
        run.build()
    finally:
        tracer.remove()
    run.scratch.mkdir(parents=True, exist_ok=True)

    import_s = import_seconds()
    child_times = [run.child(i).seconds for i in range(len(run.templates))]
    for i in range(len(run.templates)):  # first in-process calls fill lazy caches
        run.in_process(i)

    plain_cycles: list[float] = []
    traced_cycles: list[float] = []
    plain_calls: list[float] = []
    traced_ids: set[int] = set()
    call_id = 0
    start = time.perf_counter()
    last_pair = 0.0
    while len(traced_cycles) < 2 or (
        len(traced_cycles) < MAX_TRACED_CYCLES
        and time.perf_counter() - start + last_pair <= seconds
    ):
        pair_start = time.perf_counter()
        plain = [run.in_process(i).seconds for i in range(len(run.templates))]
        plain_calls += plain
        plain_cycles.append(sum(plain))
        tracer.install()
        try:
            total = 0.0
            for i in range(len(run.templates)):
                call_id += 1
                tracer.call_id = call_id
                traced_ids.add(call_id)
                total += run.in_process(i).seconds
        finally:
            tracer.remove()
        traced_cycles.append(total)
        last_pair = time.perf_counter() - pair_start

    metrics, layer_details = layer_metrics(tracer, traced_ids, len(traced_cycles))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.process_s"] = (
        statistics.median(child_times) - statistics.median(plain_calls), "s")
    plain_med = statistics.median(plain_cycles)
    metrics["trace.overhead_frac"] = (
        (statistics.median(traced_cycles) - plain_med) / plain_med, "frac")
    metrics["failed_frac"] = (_frac(run.failed, run.attempted), "frac")
    tracer.dump(spans_path)
    details = {
        "child_call_s": child_times,
        "in_process_cycle_s": plain_cycles,
        "traced_cycle_s": traced_cycles,
        **layer_details,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "scmkit" / "cli.py", ROOT / "tests" / "gen.py",
              HERE / "expected.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: benchmark needs {', '.join(missing)} in the checkout",
              file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    entry = pick_instance(expected[args.workload], args.seed)
    out_dir = ROOT / ".perfbench"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(args.workload, entry, out_dir)
    try:
        if args.trace:
            metrics, details = traced_run(run, args.seconds, results / f"{stem}-spans.json")
        else:
            metrics, details = timed_run(run, args.seconds)
    finally:
        shutil.rmtree(out_dir / "work", ignore_errors=True)

    result = run.result(metrics)
    details.update(instance=entry["k"], input_properties=run.props, problems=run.problems)
    (results / f"{stem}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1), encoding="utf-8")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
