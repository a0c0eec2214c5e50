"""The benchmark's use of the package: each perfbench workload still runs clean.

``perfbench/workloads.py`` calls the engines, ``match_minimizers``,
``group_de_runs`` and ``emit_outputs``, and reads every run's final bests
one element at a time (``len``, ``best.coords``, ``best.fitness``). Each
workload runs here on the cells of its first problem, B1, and must pass
perfbench's own output check with the fingerprint it had when final bests
became a record array. ``--trace 1`` rebinds engine names,
``RngStream.uniform`` and the ``RngStream.integers`` placeholder, a
``None`` (``perfbench/layers.py``), so a traced pass runs here too. A
change to anything perfbench reads then fails here, not in the next
benchmark run.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import multide.multipop
from multide import RngStream

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


@pytest.fixture
def layers(workloads, monkeypatch):
    """perfbench's ``layers`` module, which imports the ``workloads`` module above."""
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    return importlib.import_module("layers")


def b1_inputs(workloads, name):
    """The inputs of workload ``name`` at seed 0, trimmed to the cells of its first problem, B1."""
    workload = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(workload, 0)
    inputs = replace(inputs, cells=[c for c in inputs.cells
                                    if c.problem.pid == workload.problems[0]])
    assert workload.problems[0] == "B1" and inputs.cells
    return inputs


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_workload_passes_perfbench_checks_with_its_fingerprint(name, workloads, tmp_path):
    assert set(workloads.WORKLOADS) == set(FINGERPRINTS)
    inputs = b1_inputs(workloads, name)
    result = workloads.run_pass(inputs, tmp_path)
    assert result.failures == []
    assert workloads.check_pass(inputs, result) == (0, [])
    assert workloads.fingerprint(result.records) == FINGERPRINTS[name]


@pytest.mark.parametrize("name", ["crowded", "grid"])
def test_traced_pass_wraps_the_engine_layers_and_puts_them_back(name, workloads, layers, tmp_path):
    # perfbench --trace 1 rebinds these names; deleting or renaming one
    # passes every other test and stops only the traced pass.
    rebound = [(multide.multipop, attr) for attr in
               ("generate_trials", "evaluate_batch", "penalty_batch", "selection_step")]
    rebound += [(RngStream, "uniform"), (RngStream, "integers")]
    originals = [getattr(owner, attr, None) for owner, attr in rebound]
    inputs = b1_inputs(workloads, name)
    tracer = layers.Tracer()
    missing = tracer.install(inputs)
    try:
        result = workloads.run_pass(inputs, tmp_path)
    finally:
        tracer.uninstall()
    assert missing == ["multipop.snapshot_anchors", "multipop.subpop_spreading"]
    metrics = layers.layer_metrics(tracer, result, result.wall_s)
    for layer in ("core.generate_trials", "core.evaluate_batch", "deflation.penalty_batch",
                  "multipop.selection_step"):
        assert metrics[f"{layer}.calls"][0] > 0, layer
    assert workloads.check_pass(inputs, result) == (0, [])
    assert [getattr(owner, attr) for owner, attr in rebound] == originals
