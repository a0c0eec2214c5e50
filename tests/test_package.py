"""The public surface of the package: what ``multide`` exports."""

import dataclasses
import inspect

import multide

# The one-point operators that duplicated the engines' batch operators, the
# observer-only views of the engine state and the anchor wrapper, and the
# helpers that only tests called (the start-anchor snapshot, a subpopulation's
# spreading, and a wrapper around dataclasses.replace).
REMOVED = ("AnchorSet", "PopulationTensor", "SubpopState", "best_of_subpop", "crossover",
           "donor_indices", "indicator", "mutate", "penalized_objective", "penalty_term",
           "select_greedy", "snapshot_anchors", "spreading_measure", "subpop_spreading",
           "without_switch_tol")


def test_every_exported_name_resolves_once():
    assert len(multide.__all__) == len(set(multide.__all__))
    missing = [name for name in multide.__all__ if not hasattr(multide, name)]
    assert missing == []


def test_scalar_operators_are_gone():
    assert [name for name in REMOVED if hasattr(multide, name)] == []
    assert [name for name in REMOVED if hasattr(multide.multipop, name)] == []
    assert not hasattr(multide.RngStream, "choice")
    assert not hasattr(multide.deflation, "AnchorSet")


def test_second_copies_are_gone():
    # config_to_dict was dataclasses.asdict; BenchmarkProblem.system was never read.
    assert not hasattr(multide.harness, "config_to_dict")
    assert "system" not in {f.name for f in dataclasses.fields(multide.BenchmarkProblem)}


def test_engines_take_no_anchor_mode():
    for engine in (multide.run_de, multide.run_mde_itmf, multide.run_dewi):
        assert "anchor_mode" not in inspect.signature(engine).parameters


def test_selection_step_takes_no_use_penalty_flag():
    names = list(inspect.signature(multide.selection_step).parameters)
    assert "use_penalty" not in names
    assert names[:7] == ["coords", "fitness", "trials", "own_index", "anchors", "penalty",
                         "bounds"]
