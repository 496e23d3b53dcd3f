"""Smoke check of the benchmark's output contract.

    python3 perfbench/smoke.py

Runs every workload for one second (one cycle of calls) with tracing off
and on, and checks that the last stdout line is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``; that every answer was
correct; and that the metrics are exactly the ``end_to_end`` (tracing off) or
``per_layer`` (tracing on) metrics of ``BENCHMARK.json``, each a finite
number with its unit.  Then it checks that the benchmark refuses to run,
printing no result, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != wanted.get(name):
            problems.append(f"{where}: {name} has unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} has value {value!r}")
    return problems


def check_bare(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
