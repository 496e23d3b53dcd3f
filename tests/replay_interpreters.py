"""Replay numpy-free CLI calls on other Python interpreters and report every
call whose exit code, stdout or stderr differs from this interpreter's.

Usage::

    python tests/replay_interpreters.py /path/to/python3.10 /path/to/python3.13

Each call runs as ``<interpreter> -m scmkit ...`` with ``src`` on
``PYTHONPATH`` and ``COLUMNS=80``, on the files in ``tests/data`` and a few
written to a temporary directory.  The stream calls attach stdout closed,
on ``/dev/full`` or on a pipe whose reader has gone, buffered and not, so
they replay how the process flushes and exits.  Only the standard library
is needed, so the other interpreters need neither numpy nor pytest.  Help and usage calls,
the argument lists recorded in ``tests/data/cli_usage.json``, are reported
apart from the rest: their texts are argparse's and follow the interpreter.
The exit status is 1 when a call outside them differs, else 0.  pytest does
not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# answers and refusals of every numpy-free path; {data} and {tmp} are
# replaced by the data and temporary directories
CALLS = [
    ["identify", "--graph", "{data}/backdoor.cg", "--query", "P(Y|do(X))"],
    ["identify", "--graph", "{data}/bow.cg", "--query", "P(Y|do(X))"],
    ["identify", "--graph", "{data}/backdoor.cg", "--query", "P(Y|do(Q))"],
    ["identify", "--graph", "{data}/backdoor.cg", "--query", "P(Y|do(X),Z)"],
    # the front door splits into c-components and fires lines 6 and 7 of ID;
    # the napkin cuts the edges into X and fires line 3
    ["identify", "--graph", "{tmp}/frontdoor.cg", "--query", "P(Y|do(X))"],
    ["identify", "--graph", "{tmp}/napkin.cg", "--query", "P(Y|do(X))"],
    ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{data}/d8.csv",
     "--query", "P(Y=1|do(X=1))"],
    ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{data}/d8.csv",
     "--query", "P(Y=1|do(X=1))", "--porcelain"],
    # a conditional query evaluates the identified estimand's quotient
    ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{data}/d8.csv",
     "--query", "P(Y=1|do(X=1),Z=0)"],
    ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{tmp}/stratum.csv",
     "--query", "P(Y=1|do(X=1))"],
    ["estimate", "--graph", "{data}/backdoor.cg", "--data", "{data}/obs_identity.csv",
     "--query", "P(Y=1|do(X=1))"],
    ["fit", "--graph", "{data}/chain.cg", "--data", "{data}/d8.csv"],
    ["fit", "--graph", "{data}/chain.cg", "--data", "{data}/d8.csv", "--porcelain"],
    ["fit", "--graph", "{data}/backdoor.cg", "--data", "{data}/d8.csv"],
    ["fit", "--graph", "{data}/chain.cg", "--data", "{data}/dmiss.csv"],
    ["counterfactual", "--scm", "{data}/med.scm", "--query", "P(Y_{X=1}=1 | X=0)"],
    ["counterfactual", "--scm", "{data}/xor.scm", "--query", "P(Y_{X=1}=1 | X=2)"],
    ["counterfactual", "--scm", "{data}/xor.scm", "--query", "P(Y_{X=0,X=1}=1)"],
    ["counterfactual", "--scm", "{data}/med.scm", "--query", "P(Y|do(X=1))"],
    ["pnps", "--scm", "{data}/med.scm", "--exposure", "X", "--outcome", "Y"],
    ["pnps", "--scm", "{data}/med.scm", "--exposure", "X", "--outcome", "Q"],
    ["pnps", "--scm", "{data}/xor.scm", "--x1", "7"],
    ["pnps", "--data", "{data}/d8.csv", "--experiment", "{data}/experiment.txt"],
    ["pnps", "--data", "{data}/d8.csv", "--px1", "0.6", "--px0", "0.3", "--porcelain"],
    ["pnps", "--data", "{data}/d8.csv", "--px1", "0.6", "--px0", "0.3", "--x0", "1"],
    ["mediate", "--scm", "{data}/med.scm", "--exposure", "X", "--mediator", "M",
     "--outcome", "Y", "--x0", "0", "--x1", "1"],
    ["mediate", "--graph", "{tmp}/med.cg", "--data", "{data}/d8.csv", "--exposure", "X",
     "--mediator", "Z", "--outcome", "Y", "--x0", "0", "--x1", "1"],
    ["mediate", "--graph", "{tmp}/med.cg", "--data", "{data}/d8.csv", "--exposure", "X",
     "--mediator", "Z", "--outcome", "Y", "--x0", "0", "--x1", "7"],
    ["recover", "--graph", "{data}/mar.cg", "--data", "{data}/dmiss.csv", "--target", "Y=1"],
    ["recover", "--graph", "{data}/selfmask.cg", "--data", "{data}/dmiss.csv",
     "--target", "Y=1"],
    ["discover", "--graph", "{data}/collider.cg"],
    # d-separation steps across the bidirected edge X <-> Z
    ["discover", "--graph", "{tmp}/bidirected.cg"],
    ["fit", "--graph", "{tmp}/bidirected.cg", "--data", "{data}/d8.csv"],
    ["discover", "--data", "{data}/d8.csv", "--alpha", "0.5"],
    ["discover", "--data", "{tmp}/nul.csv"],
    ["fit", "--graph", "{data}/chain.cg", "--data", "{tmp}/nul.csv"],
]


# an answer, a refusal and an answer printed without a newline, each with
# stdout closed, on /dev/full and on a pipe whose reader has gone, and each
# unbuffered and buffered: a failed final flush ends as a failed write does
STREAM_CALLS = [
    (stdout, buffered, argv)
    for argv in (CALLS[0], CALLS[1], ["discover", "--graph", "{data}/collider.cg"])
    for stdout in ("closed", "full", "broken")
    for buffered in (False, True)
]


def _write_inputs(tmp: Path) -> None:
    (tmp / "med.cg").write_text("var X\nvar Z\nvar Y\nX -> Z\nZ -> Y\nX -> Y\n")
    (tmp / "bidirected.cg").write_text("var X\nvar Z\nvar Y\nX <-> Z\nZ -> Y\n")
    (tmp / "frontdoor.cg").write_text("var X\nvar M\nvar Y\nX -> M\nM -> Y\nX <-> Y\n")
    (tmp / "napkin.cg").write_text(
        "var W1\nvar W2\nvar X\nvar Y\nW1 -> W2\nW2 -> X\nX -> Y\nW1 <-> X\nW1 <-> Y\n"
    )
    (tmp / "stratum.csv").write_text("X,Y,Z\n0,0,0\n1,1,0\n0,1,1\n")
    (tmp / "nul.csv").write_text("X,Y,Z\n0,0,0\n1,\0,1\n1,1,0\n")


def run_attached(cmd: list[str], env: dict[str, str], stdout: str = "pipe",
                 **kw) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cmd``, its stdout "pipe", "closed"
    (descriptor 1 shut before the program starts), "full" (``/dev/full``) or
    "broken" (a pipe whose reader has gone)."""
    kw.update(stderr=subprocess.PIPE, env=env)
    if stdout == "pipe":
        done = subprocess.run(cmd, stdout=subprocess.PIPE, **kw)
    elif stdout == "closed":
        done = subprocess.run(cmd, preexec_fn=lambda: os.close(1), **kw)
    elif stdout == "full":
        with open("/dev/full", "wb") as full:
            done = subprocess.run(cmd, stdout=full, **kw)
    else:
        reader, writer = os.pipe()
        os.close(reader)
        try:
            done = subprocess.run(cmd, stdout=writer, **kw)
        finally:
            os.close(writer)
    return done.returncode, (done.stdout or b"").decode(), done.stderr.decode()


def _run(python: str, argv: list[str], stdout: str = "pipe",
         buffered: bool | None = None) -> tuple[int, str, str]:
    """One call; ``buffered`` None keeps the caller's ``PYTHONUNBUFFERED``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80",
               PYTHONDONTWRITEBYTECODE="1")
    if buffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
    return run_attached([python, "-m", "scmkit", *argv], env, stdout, cwd=ROOT)


def main(interpreters: list[str]) -> int:
    usage = [case["argv"] for case in json.loads((DATA / "cli_usage.json").read_text())]
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))

        def fill(argv):
            return [w.replace("{data}", str(DATA)).replace("{tmp}", tmp) for w in argv]

        calls = [(fill(argv), "pipe", None) for argv in CALLS]
        calls += [(fill(argv), stdout, buffered) for stdout, buffered, argv in STREAM_CALLS]
        runs = calls + [(argv, "pipe", None) for argv in usage]
        want = [_run(sys.executable, *run) for run in runs]
        differs = False
        for python in interpreters:
            got = [_run(python, *run) for run in runs]
            for label, lo, hi in (("calls", 0, len(calls)),
                                  ("help and usage calls", len(calls), len(runs))):
                diff = [i for i in range(lo, hi) if got[i] != want[i]]
                print(f"{python}: {len(diff)} of {hi - lo} {label} differ")
                for i in diff:
                    argv, stdout, buffered = runs[i]
                    attached = "" if stdout == "pipe" else (
                        f" [stdout {stdout}, {'buffered' if buffered else 'unbuffered'}]")
                    print("  " + (" ".join(argv) or "(no arguments)") + attached)
                    for name, a, b in zip(("exit", "stdout", "stderr"), want[i], got[i]):
                        if a != b:
                            print(f"    {name}: {a!r} -> {b!r}")
                differs |= bool(diff) and lo == 0
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
