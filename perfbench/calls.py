"""Running one CLI call, as a child process or in process, and checking it."""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
CALL_TIMEOUT_S = 120.0

# Children get one BLAS/OpenMP thread each, so timings measure the program
# rather than the scheduler on a small machine.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def file_hashes(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def materialize(template: list[str], instance_dir: Path) -> list[str]:
    return [a.replace("{dir}", str(instance_dir)).replace("{data}", str(DATA))
            for a in template]


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_kb: int = 0


def run_child(argv: list[str], scratch: Path) -> Outcome:
    """``python -m scmkit <argv>`` from spawn to exit, with its peak RSS."""
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "scmkit", *argv],
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            cwd=ROOT, env=child_env(),
        )
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        seconds,
        usage.ru_maxrss,
    )


# Interpreter start plus the libraries every scmkit call imports; no repository
# code.  Timed between cycles, it tracks how fast the shared machine runs.
REFERENCE = ["-c", "import numpy, scipy.stats"]


def run_reference() -> float:
    """Wall-clock seconds of one reference child process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *REFERENCE], cwd=ROOT, env=child_env(), check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_in_process(argv: list[str]) -> Outcome:
    """``scmkit.cli.run`` looked up at call time, so installed spans apply."""
    import scmkit.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = scmkit.cli.run(argv, out, err)
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def same_text(got: str, want: str) -> bool:
    """Equal line by line and token by token; numbers equal at printed precision."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return False
    for gl, wl in zip(got_lines, want_lines):
        gt, wt = gl.split(), wl.split()
        if len(gt) != len(wt):
            return False
        for a, b in zip(gt, wt):
            if a == b:
                continue
            x, y = _number(a), _number(b)
            if x is None or y is None or abs(x - y) > 1.5e-6 + 1e-9 * abs(y):
                return False
    return True


def mismatch(outcome: Outcome, expected: dict) -> str | None:
    """Why an outcome differs from the expected answer, or None if it matches."""
    if outcome.code != expected["exit"]:
        return f"exit {outcome.code}, expected {expected['exit']}: {outcome.stderr.strip()[-300:]}"
    if not same_text(outcome.stdout, expected["stdout"]):
        return f"stdout {outcome.stdout!r}, expected {expected['stdout']!r}"
    needle = expected.get("stderr_has")
    if needle and needle not in outcome.stderr:
        return f"stderr {outcome.stderr.strip()!r} lacks {needle!r}"
    return None
