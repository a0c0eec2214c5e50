"""Workload inputs, one measured pass over them, and the output check.

A workload is a fixed list of (problem, algorithm) cells, each with the
seeded runs ``multide run --runs R --seed S`` would execute for it: canonical
DE gets ``R * nsp`` runs, the multipopulation engines ``R``, with run seeds
``S + i``. ``S`` is derived from the benchmark's ``--seed``, so the engines
see only generated inputs. One pass executes every run in seed order (a
closed loop with one client), scores it, aggregates each cell and writes the
report with ``emit_outputs``, as ``multide run --out`` does.

The engine, scoring and output functions are called through this module's
globals so that the traced run can rebind them (see ``layers.py``).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from multide import (
    ExperimentConfig,
    aggregate,
    emit_outputs,
    get_problem,
    group_de_runs,
    match_minimizers,
    run_de,
    run_dewi,
    run_mde_itmf,
)
from multide.harness import CellResult, ExperimentReport, apply_overrides

ALL_PROBLEMS = tuple(f"B{i}" for i in range(1, 11))
ALL_ALGORITHMS = ("de", "mde-itmf", "dewi")


@dataclass(frozen=True)
class Workload:
    """What one pass runs; ``runs`` is ``multide run --runs`` per cell."""

    name: str
    problems: tuple
    algorithms: tuple
    runs: int
    overrides: dict = field(default_factory=dict)
    scalar: bool = False  # hand the engines plain callables without ``batch``
    trace: bool = False   # ``collect_trace=True``, so ``trace.csv`` is written


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Pass sizes bound the seed-to-seed spread of the exact counts: over ten
# seeds, nfe_per_run moved about 7% on the grid family and 1% on crowded.
# crowded uses nsp=5, not 12: at nsp=12 most runs find 0-2 of the four
# minimizers, and ngp_mean over a pass swung by 100% between seeds. It
# leaves out B4, whose run time at nsp=5 ranges over 5x from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", ALL_PROBLEMS, ALL_ALGORITHMS, runs=3),
        Workload("crowded", ("B1", "B7"), ("mde-itmf",), runs=24, overrides={"nsp": 5}),
        Workload("scalar", ALL_PROBLEMS, ALL_ALGORITHMS, runs=3, scalar=True),
        Workload("trace-out", ALL_PROBLEMS, ALL_ALGORITHMS, runs=3, trace=True),
    )
}


@dataclass
class Cell:
    problem: object      # BenchmarkProblem
    algorithm: str
    params: object       # MultiParams after overrides
    objective: object    # what the engine is handed
    seeds: list
    subpops: int         # final bests per run: 1 for DE, nsp otherwise


@dataclass
class Inputs:
    workload: Workload
    master_seed: int
    config: ExperimentConfig
    cells: list

    @property
    def runs(self) -> int:
        return sum(len(c.seeds) for c in self.cells)


def master_seed(seed: int) -> int:
    """The ``multide run --seed`` value a benchmark seed stands for.

    Drawn through a SeedSequence so that neighbouring benchmark seeds do
    not share run seeds.
    """
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int) -> Inputs:
    base = master_seed(seed)
    config = ExperimentConfig(
        problems=list(workload.problems),
        algorithms=list(workload.algorithms),
        runs=workload.runs,
        seed=base,
        overrides=dict(workload.overrides),
        trace=workload.trace,
    )
    cells = []
    for pid in workload.problems:
        problem = get_problem(pid)
        params = apply_overrides(problem.default_params, config.overrides)
        # A user's own function: a plain callable, so evaluation goes row by row.
        objective = problem.objective.__call__ if workload.scalar else problem.objective
        for algo in workload.algorithms:
            n = workload.runs * params.subpops if algo == "de" else workload.runs
            cells.append(Cell(
                problem=problem,
                algorithm=algo,
                params=params,
                objective=objective,
                seeds=[base + i for i in range(n)],
                subpops=1 if algo == "de" else params.subpops,
            ))
    return Inputs(workload=workload, master_seed=base, config=config, cells=cells)


def _engine_run(cell: Cell, seed: int, trace: bool):
    problem, params = cell.problem, cell.params
    if cell.algorithm == "de":
        return run_de(cell.objective, problem.bounds, params.de, seed, collect_trace=trace)
    if cell.algorithm == "mde-itmf":
        return run_mde_itmf(cell.objective, problem.bounds, replace(params, switch_tol=None),
                            seed, collect_trace=trace)
    return run_dewi(cell.objective, problem.bounds, params, seed, collect_trace=trace)


@dataclass
class PassResult:
    wall_s: float                # the whole pass: runs, scoring, aggregation, output
    run_s: dict                  # engine wall time of each completed run, by job
    records: list                # completed runs, in workload order
    units: list                  # comparable units: DE groups, other runs as they are
    failures: list               # runs that raised, as harness failure dicts
    written: list                # files emit_outputs wrote

    @property
    def engine_s(self) -> float:
        return sum(self.run_s.values())

    @property
    def subpop_gens(self) -> int:
        return sum(sum(r.generations_used) for r in self.records)


def run_pass(inputs: Inputs, out_dir: Path, between_runs=None) -> PassResult:
    """Run, score, aggregate and write one pass.

    ``between_runs()``, when given, is called after every run; its time is
    left out of the pass's wall time.
    """
    trace = inputs.workload.trace
    run_s, records, units, failures, cells = {}, [], [], [], []
    paused = 0.0
    t_pass = time.perf_counter()
    for cell in inputs.cells:
        problem = cell.problem
        cell_records = []
        for seed in cell.seeds:
            t0 = time.perf_counter()
            try:
                record = _engine_run(cell, seed, trace)
            except Exception as err:  # a failed run is counted, the pass goes on
                failures.append({"problem": problem.pid, "algorithm": cell.algorithm,
                                 "seed": seed, "error": f"{type(err).__name__}: {err}"})
                continue
            run_s[(problem.pid, cell.algorithm, seed)] = time.perf_counter() - t0
            record.problem = problem.pid
            record.matched_minimizers = match_minimizers(record.final_bests, problem)
            cell_records.append(record)
            if between_runs is not None:
                t0 = time.perf_counter()
                between_runs()
                paused += time.perf_counter() - t0
        complete = len(cell_records) == len(cell.seeds)
        groups = None
        if cell.algorithm == "de" and complete:
            groups = group_de_runs(cell_records, cell.params.subpops)
            for g in groups:
                g.matched_minimizers = match_minimizers(g.final_bests, problem)
        cell_units = groups if groups is not None else cell_records
        aggregates = None
        if complete and len(cell_units) >= 2:
            aggregates = {
                "elapsed_seconds": aggregate([u.elapsed_seconds for u in cell_units]),
                "nfe": aggregate([u.nfe for u in cell_units]),
                "ngp": aggregate([len(u.matched_minimizers) for u in cell_units]),
            }
        cells.append(CellResult(problem=problem.pid, algorithm=cell.algorithm,
                                records=cell_records, groups=groups, aggregates=aggregates))
        records.extend(cell_records)
        units.extend(cell_units)
    report = ExperimentReport(config=inputs.config, cells=cells, failures=failures)
    written = emit_outputs(report, out_dir)
    wall = time.perf_counter() - t_pass - paused
    return PassResult(wall, run_s, records, units, failures, written)


def check_pass(inputs: Inputs, result: PassResult) -> tuple[int, list]:
    """Check every run's outputs; return (bad run count, messages).

    A run is bad when a final best is non-finite or outside the domain,
    when it has the wrong number of final bests, when ``nfe`` is not
    positive, or when its NGP is outside ``[0, minimizer_count]``. The
    written files must hold one row per run (and per trace step).
    """
    problems = {c.problem.pid: c.problem for c in inputs.cells}
    expected_bests = {(c.problem.pid, c.algorithm): c.subpops for c in inputs.cells}
    bad, messages = 0, []
    for r in result.records:
        problem = problems[r.problem]
        errs = []
        if len(r.final_bests) != expected_bests[(r.problem, r.algorithm)]:
            errs.append(f"{len(r.final_bests)} final bests")
        for p in r.final_bests:
            if not (np.all(np.isfinite(p.coords)) and math.isfinite(p.fitness)):
                errs.append("non-finite final best")
            elif not problem.bounds.contains(p.coords):
                errs.append("final best outside the domain")
        if r.nfe <= 0:
            errs.append(f"nfe={r.nfe}")
        if not 0 <= r.ngp <= problem.minimizer_count:
            errs.append(f"ngp={r.ngp}")
        if errs:
            bad += 1
            messages.append(f"{r.problem} {r.algorithm} seed={r.seed}: {', '.join(errs)}")
    for u in result.units:
        if not 0 <= u.ngp <= problems[u.problem].minimizer_count:
            messages.append(f"{u.problem} {u.algorithm} group seed={u.seed}: ngp={u.ngp}")
    files = {p.name: p for p in result.written}
    expected_lines = {"runs.csv": 1 + len(result.records)}
    if inputs.workload.trace:
        expected_lines["trace.csv"] = 1 + sum(len(r.trace) for r in result.records)
    for name, want in expected_lines.items():
        if name not in files:
            messages.append(f"{name} not written")
            continue
        with open(files[name], "rb") as fh:
            got = sum(1 for _ in fh)
        if got != want:
            messages.append(f"{name} has {got} lines, expected {want}")
    return bad, messages


def fingerprint(records) -> str:
    """sha256 of seed-ordered nfe, generations and final bests (17 digits).

    Elapsed time is left out, so the value changes only when outputs do.
    """
    h = hashlib.sha256()
    for r in records:
        bests = ";".join(
            ",".join(f"{float(v):.17g}" for v in (*p.coords, p.fitness)) for p in r.final_bests
        )
        gens = ",".join(str(g) for g in r.generations_used)
        h.update(f"{r.problem} {r.algorithm} {r.seed} {r.nfe} {gens} {bests}\n".encode())
    return h.hexdigest()


def output_bytes(result: PassResult) -> int:
    return sum(p.stat().st_size for p in result.written)

