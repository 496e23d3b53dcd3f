"""Every call the benchmark records in ``perfbench/expected.json``, replayed
in process against its recorded answer, through the benchmark's own input
builders and checks."""

import importlib
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_recorded_benchmark_calls_give_their_recorded_answers(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    calls, inputs = (importlib.import_module(name) for name in ("calls", "inputs"))
    for entry in EXPECTED[workload]:
        instance = tmp_path / str(entry["k"])
        instance.mkdir()
        templates, _ = inputs.BUILDERS[workload](entry["k"], entry["params"], instance)
        assert calls.file_hashes(instance) == entry["inputs"], (workload, entry["k"])
        assert templates == [call["argv"] for call in entry["calls"]]
        for template, call in zip(templates, entry["calls"]):
            outcome = calls.run_in_process(calls.materialize(template, instance))
            assert calls.mismatch(outcome, call) is None, (workload, entry["k"], template)
