"""Experiment orchestration: batch runs, sensitivity sweeps, CSV/JSON output.

A run cell is one (problem, algorithm) pair. Multipopulation algorithms get
``runs`` seeded executions; canonical DE gets ``runs * subpops`` executions
whose consecutive groups are merged for comparison, since one
multipopulation run performs ``subpops`` parallel searches. Seeds derive as
``master + run_index`` so any single run can be reproduced from the report.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Optional

import numpy as np

from .benchmarks import get_problem
from .errors import ConfigurationError, EvaluationError
from .metrics import aggregate, group_de_runs, match_minimizers
from .multipop import MultiParams, run_de, run_dewi, run_mde_itmf
from .rng import _index, _real, _shown

# Algorithm name -> (engine, the engine's parameters from a problem's MultiParams row).
ENGINES = {
    "de": (run_de, lambda params: params.de),
    "mde-itmf": (run_mde_itmf, lambda params: replace(params, switch_tol=None)),
    "dewi": (run_dewi, lambda params: params),
}
ALGORITHMS = tuple(ENGINES)

# CLI/config override key -> (MultiParams field, field inside it or None, type).
_OVERRIDES = {
    "np": ("de", "pop_size", int),
    "f": ("de", "F", float),
    "cr": ("de", "CR", float),
    "gmax": ("de", "max_generations", int),
    "eps": ("de", "spread_tol", float),
    "nsp": ("subpops", None, int),
    "beta": ("penalty", "magnitude", float),
    "rho": ("penalty", "radius", float),
    "tol": ("switch_tol", None, float),
}
OVERRIDABLE_KEYS = tuple(_OVERRIDES)
SWEEPABLE_KEYS = ("np", "f", "cr", "rho", "beta", "eps", "tol", "nsp")

METRICS = ("elapsed_seconds", "nfe", "ngp")

RUNS_CSV_HEADER = ["algorithm", "problem", "seed", "elapsed_seconds", "nfe", "ngp",
                   "generations", "best_points"]
AGGREGATES_CSV_HEADER = ["algorithm", "problem", "metric", "mean", "stddev", "cv_percent"]
SWEEP_CSV_HEADER = ["parameter", "value"] + AGGREGATES_CSV_HEADER
TRACE_CSV_HEADER = ["algorithm", "problem", "seed", "generation", "subpop",
                    "best_x", "best_y", "best_f", "spreading"]


def trace_csv_header(dim: int) -> list[str]:
    """``trace.csv`` columns for runs in ``dim`` dimensions.

    2-D runs keep ``best_x,best_y`` (:data:`TRACE_CSV_HEADER`); any other
    dimension names its coordinates ``best_x1`` to ``best_x<dim>``.
    """
    if dim == 2:
        return list(TRACE_CSV_HEADER)
    coords = [f"best_x{k}" for k in range(1, dim + 1)]
    return TRACE_CSV_HEADER[:5] + coords + TRACE_CSV_HEADER[-2:]


@dataclass
class ExperimentConfig:
    """What to run: problems x algorithms x seeded repetitions."""

    problems: list[str]
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    runs: int = 100
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    parallel: bool = False
    trace: bool = False

    def __post_init__(self):
        for key in ("problems", "algorithms"):
            names = getattr(self, key)
            if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
                raise ConfigurationError(f"{key} must be a list of names, got {_shown(names)}")
        _check_type("parallel", self.parallel, bool, "true or false")
        _check_type("trace", self.trace, bool, "true or false")
        _check_type("overrides", self.overrides, dict, "an object of parameter overrides")
        _check_type("out_dir", self.out_dir, (str, type(None)), "a path or null")
        if self.out_dir == "":
            raise ConfigurationError("out_dir must be a path or null, got an empty string")
        if not self.problems:
            raise ConfigurationError("config needs at least one problem")
        if not self.algorithms:
            raise ConfigurationError("config needs at least one algorithm")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigurationError(
                    f"unknown algorithm {algo!r}; expected one of {', '.join(ALGORITHMS)}"
                )
        pids = [get_problem(name).pid for name in self.problems]  # an id and its name are one
        for key, names in (("problems", pids), ("algorithms", self.algorithms)):
            repeated = sorted({n for n in names if names.count(n) > 1})
            if repeated:
                raise ConfigurationError(f"{key} listed more than once: {', '.join(repeated)}")
        self.runs = _whole("runs", self.runs, 1)
        self.seed = _whole("seed", self.seed, 0)
        self.overrides = {k: _override_value(k, v) for k, v in self.overrides.items()}


@dataclass
class SweepConfig:
    """One-at-a-time sensitivity sweep: the base experiment once per value, untraced.

    Every value's experiment is resolved when the sweep is built, so a bad
    value is refused before any run.
    """

    base: ExperimentConfig
    parameter: str
    values: list[float]

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_KEYS:
            raise ConfigurationError(
                f"cannot sweep {_shown(self.parameter)}; expected one of {SWEEPABLE_KEYS}"
            )
        if not isinstance(self.values, (list, tuple)):
            raise ConfigurationError(f"sweep values must be a list, got {_shown(self.values)}")
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        self.values = [_override_value(self.parameter, v) for v in self.values]
        self.base = replace(self.base, trace=False)  # no sweep output holds traces
        for experiment in self.experiments():
            _resolve(experiment)

    def experiments(self) -> list[ExperimentConfig]:
        """The base experiment with each swept value, in sweep order."""
        return [replace(self.base, overrides={**self.base.overrides, self.parameter: value})
                for value in self.values]


def _check_type(key: str, value, types, expected: str):
    if not isinstance(value, types):
        raise ConfigurationError(f"{key} must be {expected}, got {_shown(value)}")


def _whole(key: str, value, low: int) -> int:
    """``value`` as :func:`multide.rng._index` takes it, an integral float such as 2.0 included."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _index(value, key, low)


def _override_value(key: str, value) -> float:
    """``value`` as a finite float, so JSON can hold it; refuses unknown keys, non-integral ints."""
    if key not in _OVERRIDES:
        raise ConfigurationError(
            f"unknown parameter override {_shown(key)}; expected keys from {OVERRIDABLE_KEYS}"
        )
    number = float(_real(value, f"parameter {key}", closed=False))
    if _OVERRIDES[key][2] is int and not number.is_integer():
        raise ConfigurationError(f"parameter {key} must be an integer, got {_shown(value)}")
    return number


def apply_overrides(params: MultiParams, overrides: dict) -> MultiParams:
    """Apply override keys (see :data:`OVERRIDABLE_KEYS`) to a bundle, re-validating."""
    changes = {}
    for key, value in overrides.items():
        value = _override_value(key, value)
        name, sub, kind = _OVERRIDES[key]
        if sub is None:
            changes[name] = kind(value)
            continue
        inner = changes.get(name, getattr(params, name))
        if inner is None:
            raise ConfigurationError(f"cannot override {name} parameters: none configured")
        changes[name] = replace(inner, **{sub: kind(value)})
    return replace(params, **changes)


def _resolve(config: ExperimentConfig) -> list:
    """Each configured problem with its parameters, overrides applied and range-checked.

    A row's ``switch_tol`` binds only ``dewi``, so when ``dewi`` is not
    configured it is dropped, and so is a ``tol`` override.
    """
    dewi = "dewi" in config.algorithms
    drop = {} if dewi else {"switch_tol": None}
    overrides = {k: v for k, v in config.overrides.items() if dewi or k != "tol"}
    return [(problem, apply_overrides(replace(problem.default_params, **drop), overrides))
            for problem in map(get_problem, config.problems)]


def _single_run(problem_id: str, algorithm: str, seed: int, params: MultiParams, trace: bool):
    """Execute one seeded run of ``params`` (overrides applied) and score it."""
    problem = get_problem(problem_id)
    engine, engine_params = ENGINES[algorithm]
    record = engine(problem.objective, problem.bounds, engine_params(params), seed,
                    collect_trace=trace)
    record.problem = problem.pid
    record.matched_minimizers = match_minimizers(record.final_bests, problem)
    return record


def _run_job(args):
    problem_id, algorithm, seed, params, trace = args
    try:
        return ("ok", _single_run(problem_id, algorithm, seed, params, trace))
    except Exception as err:  # run errors are recorded, the experiment continues
        failure = {"problem": problem_id, "algorithm": algorithm,
                   "seed": seed, "error": f"{type(err).__name__}: {err}"}
        if isinstance(err, EvaluationError) and err.point is not None:
            # json writes the floats exactly; the value is a string because
            # standard JSON has no NaN or infinity.
            failure["point"] = [float(c) for c in err.point]
            failure["value"] = repr(err.value)
        partial = getattr(err, "partial_record", None)
        if partial is not None:
            failure["nfe"] = int(partial.nfe)
            failure["generations_used"] = [int(g) for g in partial.generations_used]
        return ("error", failure)


@dataclass
class CellResult:
    """Outcome of one (problem, algorithm) cell."""

    problem: str
    algorithm: str
    records: list
    groups: Optional[list] = None
    aggregates: Optional[dict] = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    cells: list[CellResult]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SweepReport:
    config: SweepConfig
    rows: list  # (value, ExperimentReport) pairs in sweep order

    @property
    def ok(self) -> bool:
        return all(report.ok for _, report in self.rows)


def _cell_aggregates(units) -> Optional[dict]:
    if len(units) < 2:
        return None
    return {metric: aggregate([getattr(u, metric) for u in units]) for metric in METRICS}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every cell of the configured experiment and assemble the report.

    Individual run errors are recorded as failures and the experiment
    continues; the report's ``ok`` flag (and the CLI exit code) reflect
    them. With ``parallel`` set, runs execute across worker processes;
    results are assembled in run-index order either way, so everything but
    the elapsed-time fields is identical to a sequential execution.
    """
    cell_specs, jobs = [], []
    for problem, params in _resolve(config):  # every problem row is checked before any run
        for algo in config.algorithms:
            n = config.runs * params.subpops if algo == "de" else config.runs
            cell_specs.append((problem.pid, params.subpops, algo, n))
            jobs += [(problem.pid, algo, config.seed + i, params, config.trace) for i in range(n)]

    if config.parallel:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, so only here
        with ProcessPoolExecutor() as pool:
            outcomes = list(pool.map(_run_job, jobs, chunksize=1))
    else:
        outcomes = [_run_job(job) for job in jobs]

    pending = iter(outcomes)
    cells, failures = [], []
    for pid, subpops, algo, n in cell_specs:
        batch = list(islice(pending, n))
        records = [payload for status, payload in batch if status == "ok"]
        failures += [payload for status, payload in batch if status != "ok"]
        complete = len(records) == n
        groups = group_de_runs(records, subpops) if algo == "de" and complete else None
        units = groups if groups is not None else records
        aggregates = _cell_aggregates(units) if complete else None
        cells.append(CellResult(problem=pid, algorithm=algo,
                                records=records, groups=groups, aggregates=aggregates))
    return ExperimentReport(config=config, cells=cells, failures=failures)


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run the base experiment once per swept value and tabulate."""
    return SweepReport(config=config,
                       rows=list(zip(config.values, map(run_experiment, config.experiments()))))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Rebuild a config from its JSON form (accepts a whole report too).

    A report is unwrapped to its config, a sweep report to its base
    experiment, and its ``out_dir`` is dropped: a report says what ran, not
    where to write. Keys that name no :class:`ExperimentConfig` field are refused.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {type(data).__name__}")
    if isinstance(data.get("config"), dict):
        base = data["config"].get("base")
        data = {**(base if isinstance(base, dict) else data["config"]), "out_dir": None}
    known = [f.name for f in fields(ExperimentConfig)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown config keys {unknown}; expected keys from {known}")
    return ExperimentConfig(**data)


def _sig17(x: float) -> str:
    return f"{float(x):.17g}"


def _aggregate_rows(cell: dict) -> list[list]:
    """``aggregates.csv`` rows of a cell's report dict, one per metric."""
    rows = []
    for metric in METRICS:
        stats = None if cell["aggregates"] is None else cell["aggregates"][metric]
        if stats is None:
            rows.append([cell["algorithm"], cell["problem"], metric, "", "", ""])
        else:
            cv = "" if stats["cv_percent"] is None else repr(stats["cv_percent"])
            rows.append([cell["algorithm"], cell["problem"], metric,
                         repr(stats["mean"]), repr(stats["stddev"]), cv])
    return rows


def _record_dict(record) -> dict:
    bests = record.final_bests
    return {
        "algorithm": record.algorithm,
        "problem": record.problem,
        "seed": record.seed,
        "elapsed_seconds": float(record.elapsed_seconds),
        "nfe": int(record.nfe),
        "ngp": record.ngp,
        "generations_used": [int(g) for g in record.generations_used],
        "final_bests": np.column_stack((bests.coords, bests.fitness)).tolist(),
        "matched_minimizers": sorted(record.matched_minimizers),
    }


def _record_row(data: dict) -> list:
    """``runs.csv`` row of a run's :func:`_record_dict`, with 17-digit best points."""
    return [
        data["algorithm"],
        data["problem"],
        data["seed"],
        repr(data["elapsed_seconds"]),
        data["nfe"],
        data["ngp"],
        ";".join(str(g) for g in data["generations_used"]),
        ";".join(",".join(_sig17(v) for v in best) for best in data["final_bests"]),
    ]


def _aggregates_dict(cell: CellResult) -> Optional[dict]:
    if cell.aggregates is None:
        return None
    return {metric: asdict(cell.aggregates[metric]) for metric in METRICS}


def _cell_dict(cell: CellResult) -> dict:
    return {
        "problem": cell.problem,
        "algorithm": cell.algorithm,
        "runs": [_record_dict(r) for r in cell.records],
        "groups": None if cell.groups is None else [_record_dict(g) for g in cell.groups],
        "aggregates": _aggregates_dict(cell),
    }


def _problem_provenance(keys) -> dict:
    """Name and formula of each configured problem, by id."""
    return {p.pid: {"name": p.name, "formula": p.formula} for p in map(get_problem, keys)}


def experiment_report_dict(report: ExperimentReport) -> dict:
    return {
        "config": asdict(report.config),
        "cells": [_cell_dict(c) for c in report.cells],
        "failures": report.failures,
        "problems": _problem_provenance(report.config.problems),
    }


def sweep_report_dict(report: SweepReport) -> dict:
    rows = []
    for value, exp in report.rows:
        rows.append({
            "value": value,
            "cells": [
                {"problem": c.problem, "algorithm": c.algorithm, "aggregates": _aggregates_dict(c)}
                for c in exp.cells
            ],
            "failures": exp.failures,
        })
    return {
        "config": asdict(report.config),
        "rows": rows,
        "problems": _problem_provenance(report.config.base.problems),
    }


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_trace_csv(path: Path, header, traces) -> Path:
    """Write ``trace.csv`` one run at a time from its ``(record, trace array)`` pairs.

    Each row is one ``%`` format: the run's csv-quoted ``algorithm,problem,seed,``
    prefix, then ``%d`` (as ``int``) and ``%.17g`` (as :func:`_sig17`) fields.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for record, trace in traces:
            prefix = io.StringIO()
            csv.writer(prefix, lineterminator="").writerow(
                [record.algorithm, record.problem, record.seed, ""])
            row = (prefix.getvalue().replace("%", "%%") + "%d,%d"
                   + ",%.17g" * (trace.shape[1] - 2) + "\r\n")
            fh.write("".join(row % tuple(values) for values in trace.tolist()))
    return path


def _write_json(path: Path, data: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_outputs(report, out_dir) -> list[Path]:
    """Write a report's files into ``out_dir`` and return the paths.

    Experiment reports produce ``runs.csv`` (one row per executed run),
    ``aggregates.csv`` (one row per cell and metric), ``report.json``, and
    ``trace.csv`` when any run carried a per-generation trace, with one
    coordinate column per dimension (see :func:`trace_csv_header`). Sweep
    reports produce ``sweep.csv`` and ``report.json``. Re-running with the
    same master seed reproduces every file byte for byte except the
    elapsed-time fields.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(report, SweepReport):
        data = sweep_report_dict(report)
        rows = [[report.config.parameter, repr(float(row["value"]))] + agg_row
                for row in data["rows"] for cell in row["cells"]
                for agg_row in _aggregate_rows(cell)]
        return [_write_csv(out / "sweep.csv", SWEEP_CSV_HEADER, rows),
                _write_json(out / "report.json", data)]

    traces = [(r, np.asarray(r.trace, dtype=float)) for cell in report.cells
              for r in cell.records if r.trace is not None and len(r.trace)]
    # columns: generation, subpop, coordinates..., best_f, spreading
    dims = {trace.shape[1] - 4 for _, trace in traces}
    if len(dims) > 1:
        raise ConfigurationError(
            f"runs in {sorted(dims)} dimensions cannot share one trace.csv header"
        )

    data = experiment_report_dict(report)
    written = [
        _write_csv(out / "runs.csv", RUNS_CSV_HEADER,
                   [_record_row(run) for cell in data["cells"] for run in cell["runs"]]),
        _write_csv(out / "aggregates.csv", AGGREGATES_CSV_HEADER,
                   [row for cell in data["cells"] for row in _aggregate_rows(cell)]),
        _write_json(out / "report.json", data),
    ]
    if traces:
        written.append(_write_trace_csv(out / "trace.csv", trace_csv_header(dims.pop()), traces))
    return written
