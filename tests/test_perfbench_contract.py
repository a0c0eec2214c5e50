"""The benchmark's use of the package: each perfbench workload still runs clean.

``perfbench/workloads.py`` calls the engines, ``match_minimizers``,
``group_de_runs`` and ``emit_outputs``, and reads every run's final bests
one element at a time (``len``, ``best.coords``, ``best.fitness``). Each
workload runs here on the cells of its first problem, B1, and must pass
perfbench's own output check with the fingerprint it had when final bests
became a record array. A change to anything perfbench reads then fails here,
not in the next benchmark run.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench's fingerprint of the B1 cells of make_inputs(workload, 0).
# grid, scalar and trace-out run the same seeds, so they share one.
FINGERPRINTS = {
    "grid": "fc6209ee9dadce97fda816fd2686195544b0107f3e4b77f613c9216bb2e6f7ff",
    "crowded": "1e0a9ba4cf0cd1d5fa87703ac0d54e39c91612e3adb907b0010fd8b10a1864b4",
    "scalar": "fc6209ee9dadce97fda816fd2686195544b0107f3e4b77f613c9216bb2e6f7ff",
    "trace-out": "fc6209ee9dadce97fda816fd2686195544b0107f3e4b77f613c9216bb2e6f7ff",
}


@pytest.fixture
def workloads(monkeypatch):
    """perfbench's ``workloads`` module, importable for this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_workload_passes_perfbench_checks_with_its_fingerprint(name, workloads, tmp_path):
    assert set(workloads.WORKLOADS) == set(FINGERPRINTS)
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, 0)
    inputs = replace(inputs, cells=[c for c in inputs.cells
                                    if c.problem.pid == workload.problems[0]])
    assert workload.problems[0] == "B1" and inputs.cells
    result = workloads.run_pass(inputs, tmp_path)
    assert result.failures == []
    assert workloads.check_pass(inputs, result) == (0, [])
    assert workloads.fingerprint(result.records) == FINGERPRINTS[name]
