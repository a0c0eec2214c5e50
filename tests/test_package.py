"""The public surface of the package: what ``multide`` exports."""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import multide

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# The one-point operators that duplicated the engines' batch operators, the
# observer-only views of the engine state and the anchor wrapper, and the
# helpers that only tests called (the start-anchor snapshot, a subpopulation's
# spreading, and a wrapper around dataclasses.replace), the point type that
# held each final best before final bests became one record array, and the
# aliases for len(match_minimizers(...)) and ResidualObjective(system), and
# the residual holder that ResidualObjective now is itself, and RngStream's
# one-generation draws, its block draws and their cursor class, which its
# trials iterator replaces, with the helper that integers now holds itself,
# and its per-range block table cache.
REMOVED = ("AnchorSet", "NonlinearSystem", "Point", "PopulationTensor", "SubpopState",
           "TrialSource", "_table", "_take", "best_of_subpop", "check_numbers", "count_ngp",
           "crossover", "donor_indices", "indicator", "mutate", "penalized_objective",
           "penalty_term", "residual_objective", "select_greedy", "snapshot_anchors",
           "spreading_measure", "subpop_spreading", "trial_block", "trial_draws",
           "without_switch_tol")


def test_every_exported_name_resolves_once():
    assert len(multide.__all__) == len(set(multide.__all__))
    missing = [name for name in multide.__all__ if not hasattr(multide, name)]
    assert missing == []


def test_scalar_operators_are_gone():
    assert [name for name in REMOVED if hasattr(multide, name)] == []
    assert [name for name in REMOVED if hasattr(multide.multipop, name)] == []
    assert [name for name in REMOVED if hasattr(multide.core, name)] == []
    assert [name for name in REMOVED if hasattr(multide.RngStream, name)] == []
    assert not hasattr(multide.RngStream, "choice")
    assert not hasattr(multide.deflation, "AnchorSet")
    assert not hasattr(multide.deflation, "residual_objective")
    assert not hasattr(multide.deflation, "NonlinearSystem")
    assert not hasattr(multide.metrics, "count_ngp")


def test_second_copies_are_gone():
    # config_to_dict was dataclasses.asdict; BenchmarkProblem.system was never read.
    assert not hasattr(multide.harness, "config_to_dict")
    assert "system" not in {f.name for f in dataclasses.fields(multide.BenchmarkProblem)}
    # runs_per_value was the base experiment's runs.
    sweep_fields = tuple(f.name for f in dataclasses.fields(multide.SweepConfig))
    assert sweep_fields == ("base", "parameter", "values")
    # The engine counts its own evaluations, and a failed generation is not replayed.
    assert not hasattr(multide.multipop, "_CountingObjective")
    assert not hasattr(multide.EvaluationError("x"), "values")
    # Every range drawn from a block gets a table: no cap, no second decode path.
    assert not hasattr(multide.rng, "TABLES")
    # A stream's place is one index into its block's uint32 halves.
    stream = multide.RngStream(0)
    assert not hasattr(stream, "_pos") and not hasattr(stream, "_half")
    # trials decodes its block's tables as locals: a stream keeps none between calls.
    assert not hasattr(stream, "_tables")
    # penalty_batch leaves its sums to numpy's add.reduce.
    assert not hasattr(multide.deflation, "_sum_rows")


def test_stream_draws_take_counts():
    # The scalar and shaped draws, uniform(size=None) and integers(low, high=None,
    # size=None), and the helper that turned their sizes into shapes are gone.
    assert not hasattr(multide.rng, "_shape")
    params = inspect.signature(multide.RngStream.uniform).parameters.values()
    assert [p.name for p in params] == ["self", "count"]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_stream_has_no_integer_draw():
    # trials is the one decoder of integer draws. integers is a None that
    # perfbench's traced pass rebinds by name; ROADMAP item 4 deletes both.
    assert multide.RngStream.integers is None


def test_import_loads_only_numpy_and_the_standard_library():
    # Import time is part of every process's start-up: no scipy, no hypothesis.
    code = ("import sys; before = set(sys.modules); import multide; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "multide" in loaded
    assert sorted(loaded - {"multide", "numpy"} - sys.stdlib_module_names) == []


def test_slow_profile_runs_every_property_test_file():
    # Read as text: CI installs no YAML parser.
    uses = sorted(f"tests/{path.name}" for path in (ROOT / "tests").glob("*.py")
                  if path.name != "conftest.py"
                  and re.search(r"\bexamples\(", path.read_text(encoding="utf-8")))
    assert "tests/test_rng.py" in uses
    for source in (ROOT / ".github" / "workflows" / "tier1.yml", README):
        commands = [line for line in source.read_text(encoding="utf-8").splitlines()
                    if "MULTIDE_HYPOTHESIS=slow" in line and "pytest" in line]
        assert len(commands) == 1, source.name
        assert sorted(set(re.findall(r"tests/\w+\.py", commands[0]))) == uses, source.name


def _raises(node, function=None):
    """Each ``raise`` under ``node``, with the name of the function it is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _raises(child, child.name if named else function)


def test_the_package_raises_only_its_own_errors():
    # Bad input fails as ConfigurationError or EvaluationError. The one bare
    # raise passes a failed run's EvaluationError on with its partial record.
    stray = []
    for path in sorted((ROOT / "src" / "multide").glob("*.py")):
        for function, node in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if exc is None:
                ok = function == "_run_engine"
            else:
                ok = isinstance(exc, ast.Name) and exc.id in ("ConfigurationError", "EvaluationError")
            if not ok:
                stray.append(f"{path.name}:{node.lineno} in {function}")
    assert stray == []


def test_lowest_ci_job_tests_the_declared_minimums():
    # Read as text: CI's Python 3.10 has no tomllib and installs no YAML parser.
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lowest = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    lowest = lowest.split("include:", 1)[1].split("- python:")[1]
    python = re.search(r'requires-python = ">=([\d.]+)"', project)[1]
    assert re.search(r'^ *"([\d.]+)"', lowest)[1] == python
    for package in ("numpy", "scipy"):
        minimum = re.search(rf'"{package}>=([\d.]+)"', project)[1]
        assert f'{package}: "{package}=={minimum}.*"' in lowest, package


def test_engines_take_no_anchor_mode():
    for engine in (multide.run_de, multide.run_mde_itmf, multide.run_dewi):
        assert "anchor_mode" not in inspect.signature(engine).parameters


def test_selection_step_takes_no_use_penalty_flag():
    names = list(inspect.signature(multide.selection_step).parameters)
    assert "use_penalty" not in names
    assert names[:7] == ["coords", "fitness", "trials", "own_index", "anchors", "penalty",
                         "bounds"]


def test_readme_library_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, f"{README.name} (Library API)", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "4"
