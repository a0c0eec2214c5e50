"""Multimodal global optimization with differential evolution.

Canonical DE/rand/1/bin, a penalty-deflated multipopulation engine that
finds all global minimizers of a multimodal function in one run, the
hybrid that uses it to initialize plain DE refinement, a ten-problem
benchmark registry, and an experiment harness with CSV/JSON reporting.
"""

from .benchmarks import BenchmarkProblem, get_problem, list_problems, system_problem
from .core import Bounds, DEParams, RunRecord, best_records, init_population
from .deflation import NonlinearSystem, PenaltyParams, residual_objective
from .errors import ConfigurationError, EvaluationError
from .harness import (
    ExperimentConfig,
    SweepConfig,
    emit_outputs,
    run_experiment,
    run_sweep,
)
from .metrics import AggregateStats, aggregate, count_ngp, group_de_runs, match_minimizers
from .multipop import MultiParams, run_de, run_dewi, run_mde_itmf, selection_step
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BenchmarkProblem",
    "Bounds",
    "ConfigurationError",
    "DEParams",
    "EvaluationError",
    "ExperimentConfig",
    "MultiParams",
    "NonlinearSystem",
    "PenaltyParams",
    "RngStream",
    "RunRecord",
    "SweepConfig",
    "aggregate",
    "best_records",
    "count_ngp",
    "emit_outputs",
    "get_problem",
    "group_de_runs",
    "init_population",
    "list_problems",
    "match_minimizers",
    "residual_objective",
    "run_de",
    "run_dewi",
    "run_experiment",
    "run_mde_itmf",
    "run_sweep",
    "selection_step",
    "system_problem",
]
