"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads estimate_boot cli_small --seeds 10

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  The raw results go to
``.perfbench/spread-<label>.json``.  With ``--baseline FILE`` it also makes
one traced run per workload and writes the medians, the per-layer values and
each module's share of in-process time to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


# Which end-to-end metric each layer should move, and on which workloads.
LAYER_TABLE = {
    "cli": "call_p50_s and calls_per_s on cli_small; a small share on estimate_boot and scm_exact",
    "graph": "call_p50_s on cli_small and discover_fit",
    "identify": "call_p50_s on cli_small",
    "expr": "call_p50_s and calls_per_s on estimate_boot; no move on scm_exact",
    "estimate": "call_p50_s on estimate_boot (bootstrap) and discover_fit (load_table); "
                "peak_rss_mb on both",
    "scm": "call_p50_s on scm_exact; setup_s everywhere",
    "pnps": "call_p50_s on scm_exact",
    "mediation": "call_p50_s on scm_exact",
    "recover": "call_p50_s on cli_small",
    "fitcheck": "call_p50_s on discover_fit",
    "discover": "call_p50_s on discover_fit",
}


def baseline(spec: dict, report: dict, seed: int) -> dict:
    """Medians of the timed runs, one traced run, and each layer's share."""
    out: dict = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    layers: dict = {name: {"should_move": text, "share_of_in_process_time": {}}
                    for name, text in LAYER_TABLE.items()}
    for workload, entry in report.items():
        run_once(spec, workload, seed, 1)
        traced = json.loads((ROOT / ".perfbench" / "results"
                             / f"{workload}-seed{seed}-trace1.json").read_text())
        metrics = traced["result"]["metrics"]
        shares = traced["details"]["in_process_share_by_module"]
        child = statistics.median(traced["details"]["child_call_s"])
        in_process = child - metrics["cli.process_s"]["value"]
        out["workloads"][workload] = {
            "end_to_end": entry["stats"],
            "per_layer": {k: v["value"] for k, v in metrics.items()},
            "in_process_share_of_call": in_process / child,
            "in_process_share_by_module": shares,
            "input_properties": traced["details"]["input_properties"],
        }
        for name, share in shares.items():
            if name in layers:
                layers[name]["share_of_in_process_time"][workload] = share
    out["layer_table"] = layers
    return out


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--label", default="run")
    p.add_argument("--baseline", type=Path, help="also write a baseline file here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(spec, workload, seed, 0)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        stats = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        report[workload] = {"runs": runs, "stats": stats}
        for name, s in stats.items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:14s} {name:12s} median {s['median']:.4g}  "
                  f"spread {s['spread']:.3f}  bound {bounds[name]}{flag}")
    out = ROOT / ".perfbench" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    if args.baseline:
        summary = baseline(spec, report, args.first_seed)
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if not ok:
        print("some runs reported failures or incorrect answers")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
