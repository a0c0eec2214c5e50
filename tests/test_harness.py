"""Harness and CLI tests: orchestration, file formats, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import multide
from multide import (
    ConfigurationError,
    EvaluationError,
    ExperimentConfig,
    MultiParams,
    RunRecord,
    SweepConfig,
    best_records,
    emit_outputs,
    get_problem,
    match_minimizers,
    run_mde_itmf,
)
from multide.cli import _parser
from multide.cli import main as cli_main
from multide.harness import (
    AGGREGATES_CSV_HEADER,
    ALGORITHMS,
    ENGINES,
    OVERRIDABLE_KEYS,
    CellResult,
    ExperimentReport,
    RUNS_CSV_HEADER,
    SWEEP_CSV_HEADER,
    TRACE_CSV_HEADER,
    SweepReport,
    apply_overrides,
    config_from_dict,
    run_experiment,
    run_sweep,
    trace_csv_header,
)


def small_config(**kw):
    base = dict(problems=["B3"], algorithms=["de", "mde-itmf", "dewi"], runs=3, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def scrub_rows(rows):
    """Null the elapsed_seconds column so timing noise can be ignored."""
    header = rows[0]
    out = [header]
    idx = header.index("elapsed_seconds") if "elapsed_seconds" in header else None
    for row in rows[1:]:
        row = list(row)
        if idx is not None:
            row[idx] = ""
        out.append(row)
    return out


def scrub_json(node):
    if isinstance(node, dict):
        return {k: scrub_json(v) for k, v in node.items() if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [scrub_json(v) for v in node]
    return node


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problems=[], algorithms=["de"])
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problems=["B1"], algorithms=["annealing"])
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problems=["B1"], runs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problems=["B1"], overrides={"population": 30})
    # Past str's digit limit, alone or inside a list: named by size, not by repr.
    for huge, shown in ((10**5000, "an integer of 5001 digits"), ([10**5000], "a list too long to print")):
        with pytest.raises(ConfigurationError, match=f"^parallel must be true or false, got {shown}$"):
            ExperimentConfig(problems=["B1"], parallel=huge)
    for repeated in ({"problems": ["B3", "six-hump camel"]}, {"problems": ["B1", "b1"]},
                     {"algorithms": ["de", "dewi", "de"]}):
        with pytest.raises(ConfigurationError, match="more than once"):
            ExperimentConfig(**{"problems": ["B1"], **repeated})
    # names are stored as given
    assert ExperimentConfig(problems=["six-hump camel", "B1"]).problems == ["six-hump camel", "B1"]


def test_invalid_override_value_rejected_before_any_run():
    config = small_config(overrides={"f": 1.5})
    with pytest.raises(ConfigurationError):
        run_experiment(config)


def test_sweep_config_validation():
    base = small_config()
    with pytest.raises(ConfigurationError):
        SweepConfig(base=base, parameter="gmax", values=[10])
    with pytest.raises(ConfigurationError):
        SweepConfig(base=base, parameter="np", values=[])


@pytest.mark.parametrize("values", [8, "0.5"])
def test_sweep_config_refuses_values_that_are_not_a_list(values):
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf"], runs=2)
    with pytest.raises(ConfigurationError, match="sweep values must be a list"):
        SweepConfig(base=base, parameter="np", values=values)


def test_config_refuses_malformed_override_values_and_seeds():
    for overrides in ({"np": 15.5}, {"nsp": 2.7}, {"gmax": float("inf")}, {"np": float("nan")},
                      {"rho": float("nan")}, {"f": "abc"}, {"cr": None}):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(problems=["B1"], overrides=overrides)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(problems=["B1"], seed=-1)
    # integral floats are numbers; a numeric string is not
    config = ExperimentConfig(problems=["B1"], overrides={"np": 15.0, "f": 0.5})
    assert config.overrides == {"np": 15.0, "f": 0.5}
    with pytest.raises(ConfigurationError,
                       match=r"parameter f must be a number in \[-inf, inf\], got '0.5'"):
        ExperimentConfig(problems=["B1"], overrides={"f": "0.5"})


def test_override_values_refuse_bools_and_strings():
    with pytest.raises(ConfigurationError,
                       match=r"parameter f must be a number in \[-inf, inf\], got True"):
        ExperimentConfig(problems=["B1"], overrides={"f": True})
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf"], runs=2)
    for parameter, values in (("cr", [True, False]), ("np", ["20"])):
        with pytest.raises(ConfigurationError, match=f"parameter {parameter} must be a number in"):
            SweepConfig(base=base, parameter=parameter, values=values)


def test_override_values_beyond_the_float_range_are_refused():
    for overrides in ({"np": 10**400}, {"f": 10**400}):
        with pytest.raises(ConfigurationError, match="too large"):
            ExperimentConfig(problems=["B1"], overrides=overrides)
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf"], runs=2)
    with pytest.raises(ConfigurationError, match="too large"):
        SweepConfig(base=base, parameter="np", values=[10**400])


def test_sweep_config_checks_every_value_up_front():
    base = small_config()
    for values in ([15, 15.5], [10, float("nan")]):
        with pytest.raises(ConfigurationError):
            SweepConfig(base=base, parameter="np", values=values)
    with pytest.raises(ConfigurationError):
        SweepConfig(base=base, parameter="tol", values=[1e-3, float("nan")])


def test_runs_and_seed_must_be_whole_numbers():
    for bad in ({"runs": 2.5}, {"runs": True}, {"runs": "2"}, {"seed": "5"},
                {"seed": 1.5}, {"seed": False}, {"seed": float("nan")}):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(problems=["B1"], **bad)
    # integral floats and numpy integers are whole numbers
    config = ExperimentConfig(problems=["B1"], runs=2.0, seed=np.int64(3))
    assert (config.runs, config.seed) == (2, 3)
    assert type(config.runs) is int and type(config.seed) is int


# Override key -> (value, where it lands in MultiParams, its type there).
OVERRIDE_CASES = {
    "np": (12, lambda p: p.de.pop_size, int),
    "f": (0.3, lambda p: p.de.F, float),
    "cr": (0.6, lambda p: p.de.CR, float),
    "gmax": (77, lambda p: p.de.max_generations, int),
    "eps": (1e-4, lambda p: p.de.spread_tol, float),
    "nsp": (3, lambda p: p.subpops, int),
    "beta": (123.0, lambda p: p.penalty.magnitude, float),
    "rho": (0.05, lambda p: p.penalty.radius, float),
    "tol": (2e-3, lambda p: p.switch_tol, float),
}


@pytest.mark.parametrize("key", OVERRIDABLE_KEYS)
def test_apply_overrides_sets_one_field_with_its_type(key):
    value, read, kind = OVERRIDE_CASES[key]
    base = get_problem("B1").default_params
    assert read(base) != value
    # ExperimentConfig hands every value over as a float
    params = apply_overrides(base, {key: float(value)})
    assert isinstance(params, MultiParams)
    assert type(read(params)) is kind and read(params) == value
    # no other field moved: restoring this one gives the defaults back
    assert apply_overrides(params, {key: read(base)}) == base


def test_apply_overrides_refuses_what_the_config_refuses():
    base = get_problem("B1").default_params
    for overrides in ({"np": 15.5}, {"rho": float("nan")}, {"population": 30}):
        with pytest.raises(ConfigurationError):
            apply_overrides(base, overrides)
    with pytest.raises(ConfigurationError):
        apply_overrides(replace(base, penalty=None, switch_tol=None), {"beta": 10.0})


def test_a_penalty_that_can_overflow_is_refused():
    # Three foreign anchors at distance 0 sum to 3 * 1e308, past the largest
    # float: penalty_batch returned +inf with numpy's overflow warning.
    base = get_problem("B1").default_params
    four = apply_overrides(base, {"nsp": 4})
    for params, overrides in ((four, {"beta": 1e308}), (base, {"beta": 6e307, "nsp": 4})):
        with pytest.raises(ConfigurationError, match="3 foreign subpopulations overflows"):
            apply_overrides(params, overrides)
    assert apply_overrides(four, {"beta": 5e307}).penalty.magnitude == 5e307
    assert apply_overrides(base, {"beta": 1e308, "nsp": 1}).subpops == 1  # no foreign anchor


def test_algorithms_are_the_engine_table():
    assert ALGORITHMS == tuple(ENGINES)
    subcommands = _parser()._subparsers._group_actions[0].choices
    for name in ("run", "sweep", "trace"):
        algo = subcommands[name]._option_string_actions["--algo"]
        assert tuple(algo.choices) == ALGORITHMS
    params = get_problem("B1").default_params
    assert ENGINES["de"][1](params) == params.de
    assert ENGINES["mde-itmf"][1](params) == replace(params, switch_tol=None)
    assert ENGINES["dewi"][1](params) == params


def test_config_round_trips_through_dict():
    config = small_config(overrides={"np": 8}, parallel=True)
    again = config_from_dict(asdict(config))
    assert asdict(again) == asdict(config)
    # a whole report is accepted as a config carrier
    wrapped = {"config": asdict(config), "cells": []}
    assert asdict(config_from_dict(wrapped)) == asdict(config)


def test_a_report_gives_its_experiment_but_not_its_output_directory():
    config = small_config(out_dir="results")
    assert config_from_dict(asdict(config)).out_dir == "results"
    assert config_from_dict({"config": asdict(config)}) == replace(config, out_dir=None)
    sweep = SweepConfig(base=config, parameter="np", values=[8, 12])
    assert config_from_dict({"config": asdict(sweep), "rows": []}) == replace(config, out_dir=None)


@pytest.mark.parametrize("data", [[], None, "B1", 3], ids=repr)
def test_config_from_dict_refuses_what_is_not_an_object(data):
    # [] and None once ended in a raw AttributeError on ``.get``.
    with pytest.raises(ConfigurationError, match=f"got {type(data).__name__}$"):
        config_from_dict(data)


# -------------------------------------------------------------- experiments

def test_experiment_shapes_and_grouping():
    report = run_experiment(small_config())
    assert report.ok
    assert [c.algorithm for c in report.cells] == ["de", "mde-itmf", "dewi"]
    de_cell, mde_cell, dewi_cell = report.cells
    # B3 has two subpopulations: DE runs 3 * 2 times and groups by 2
    assert len(de_cell.records) == 6
    assert len(de_cell.groups) == 3
    assert len(mde_cell.records) == 3 and mde_cell.groups is None
    for cell in report.cells:
        assert set(cell.aggregates) == {"elapsed_seconds", "nfe", "ngp"}
        assert 0.0 <= cell.aggregates["ngp"].mean <= 2.0
    seeds = [r.seed for r in de_cell.records]
    assert seeds == [11 + i for i in range(6)]
    # DE aggregates over its groups, the multipopulation engines over records
    for cell, units in ((de_cell, de_cell.groups), (mde_cell, mde_cell.records),
                        (dewi_cell, dewi_cell.records)):
        agg = cell.aggregates
        assert agg["nfe"].mean == pytest.approx(np.mean([u.nfe for u in units]))
        assert agg["ngp"].mean == pytest.approx(
            np.mean([len(u.matched_minimizers) for u in units]))
        assert agg["elapsed_seconds"].mean == pytest.approx(
            np.mean([u.elapsed_seconds for u in units]))
    # a group sums subpops records, so the two means differ here
    assert de_cell.aggregates["nfe"].mean != pytest.approx(
        np.mean([r.nfe for r in de_cell.records]))


def test_de_group_matches_equal_matching_its_pooled_bests():
    report = run_experiment(small_config(problems=["B1", "B3"], algorithms=["de"], runs=3))
    for cell in report.cells:
        problem = get_problem(cell.problem)
        assert len(cell.groups) == 3
        for group in cell.groups:
            assert group.matched_minimizers == match_minimizers(group.final_bests, problem)


def test_single_run_refuses_aggregation():
    report = run_experiment(small_config(runs=1, algorithms=["mde-itmf"]))
    cell = report.cells[0]
    assert len(cell.records) == 1
    assert cell.aggregates is None


def test_failed_runs_are_recorded_and_experiment_continues():
    config = small_config(algorithms=["mde-itmf"], runs=2, overrides={"gmax": 1})
    report = run_experiment(config)
    assert report.ok  # gmax=1 is legal, runs complete
    bad = small_config(algorithms=["mde-itmf"], runs=2)
    import multide.harness as hz

    original = hz._single_run

    def sabotage(problem_id, algorithm, seed, overrides, trace):
        if seed == 12:
            raise RuntimeError("boom")
        return original(problem_id, algorithm, seed, overrides, trace)

    hz._single_run = sabotage
    try:
        report = run_experiment(bad)
    finally:
        hz._single_run = original
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0]["seed"] == 12
    assert len(report.cells[0].records) == 1


def test_failed_run_reports_its_partial_record(monkeypatch, tmp_path):
    import multide.harness as hz

    real_get_problem = hz.get_problem

    def flaky_problem(pid):
        problem = real_get_problem(pid)
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            return float("nan") if calls["n"] > 40 else problem.objective(p)

        return replace(problem, objective=flaky)

    monkeypatch.setattr(hz, "get_problem", flaky_problem)
    report = run_experiment(small_config(algorithms=["mde-itmf"], runs=2))
    assert len(report.failures) == 2
    emit_outputs(report, tmp_path)
    written = json.loads((tmp_path / "report.json").read_text())["failures"]
    for failure, read_back in zip(report.failures, written):
        problem = flaky_problem("B3")
        with pytest.raises(EvaluationError) as info:
            run_mde_itmf(problem.objective, problem.bounds,
                         replace(problem.default_params, switch_tol=None), failure["seed"])
        partial = info.value.partial_record
        assert failure["nfe"] == partial.nfe > 40
        assert failure["generations_used"] == partial.generations_used
        assert failure["error"].startswith("EvaluationError")
        # The offending point survives report.json bit for bit.
        point = np.array(read_back["point"])
        assert point.tobytes() == info.value.point.tobytes()
        assert read_back["value"] == "nan"


def test_records_identical_across_reruns_modulo_elapsed():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    for ca, cb in zip(a.cells, b.cells):
        for ra, rb in zip(ca.records, cb.records):
            assert ra.seed == rb.seed
            assert ra.nfe == rb.nfe
            assert ra.generations_used == rb.generations_used
            assert ra.matched_minimizers == rb.matched_minimizers
            for pa, pb in zip(ra.final_bests, rb.final_bests):
                assert np.array_equal(pa.coords, pb.coords)


def test_parallel_matches_sequential():
    seq = run_experiment(small_config(algorithms=["mde-itmf"], runs=2))
    par = run_experiment(small_config(algorithms=["mde-itmf"], runs=2, parallel=True))
    for ca, cb in zip(seq.cells, par.cells):
        assert ca.aggregates["nfe"] == cb.aggregates["nfe"]
        assert ca.aggregates["ngp"] == cb.aggregates["ngp"]
        for ra, rb in zip(ca.records, cb.records):
            assert np.array_equal(ra.final_bests[0].coords, rb.final_bests[0].coords)


# ------------------------------------------------------------------ outputs

def test_emit_outputs_files_and_headers(tmp_path):
    config = small_config(trace=True)
    report = run_experiment(config)
    paths = emit_outputs(report, tmp_path)
    names = {p.name for p in paths}
    assert {"runs.csv", "aggregates.csv", "report.json", "trace.csv"} <= names

    runs = read_rows(tmp_path / "runs.csv")
    assert runs[0] == RUNS_CSV_HEADER
    assert len(runs) - 1 == 6 + 3 + 3

    aggregates = read_rows(tmp_path / "aggregates.csv")
    assert aggregates[0] == AGGREGATES_CSV_HEADER
    assert len(aggregates) - 1 == 3 * 1 * 3  # algorithms x problems x metrics

    trace = read_rows(tmp_path / "trace.csv")
    assert trace[0] == TRACE_CSV_HEADER

    with open(tmp_path / "report.json") as fh:
        blob = json.load(fh)
    assert set(blob) == {"cells", "config", "failures", "problems"}
    assert blob["problems"]["B3"]["formula"]


def traced_report(*traces, problem="B1"):
    """A one-cell report with one hand-made run per trace.

    An int ``d`` stands for a one-row trace in ``d`` dimensions; an array or
    ``None`` becomes the run's trace as it is.
    """
    records = []
    for i, trace in enumerate(traces):
        if isinstance(trace, int):
            trace = np.array([[1, 0, *np.linspace(0.1, 0.3, trace), 1.5, 0.25]])
        records.append(RunRecord(algorithm="mde-itmf", seed=i, elapsed_seconds=0.0, nfe=1,
                                 final_bests=best_records(np.zeros((1, 2)), [0.0]),
                                 generations_used=[1], problem=problem,
                                 matched_minimizers=set(), trace=trace))
    return ExperimentReport(
        config=small_config(problems=["B1"], algorithms=["mde-itmf"], runs=len(traces)),
        cells=[CellResult(problem=problem, algorithm="mde-itmf", records=records)],
        failures=[],
    )


SPECIAL_VALUES = [-0.0, 5e-324, 1e300, math.inf, 1 / 3, -2.5e-7, 12.0]


def special_trace(d, rows=5):
    """``rows`` trace rows in ``d`` dimensions cycling through :data:`SPECIAL_VALUES`."""
    values = np.resize(SPECIAL_VALUES, (rows, d + 2))
    return np.column_stack([np.arange(rows) // 2 + 1, np.arange(rows) % 2, values])


def list_of_rows_trace_csv(report, d) -> bytes:
    """``trace.csv`` built from a list of every row: the byte-for-byte reference."""
    rows = [
        [record.algorithm, record.problem, record.seed, int(gen), int(subpop)]
        + [f"{float(v):.17g}" for v in values]
        for cell in report.cells for record in cell.records if record.trace is not None
        for gen, subpop, *values in np.asarray(record.trace, dtype=float).tolist()
    ]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(trace_csv_header(d))
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_streamed_trace_csv_equals_the_list_of_rows_writer(d, tmp_path):
    report = traced_report(special_trace(d), np.empty((0, d + 4)), None, special_trace(d, 3),
                           problem='B1, "quoted" 5%')
    emit_outputs(report, tmp_path)
    written = (tmp_path / "trace.csv").read_bytes()
    assert written == list_of_rows_trace_csv(report, d)
    assert written.count(b"\r\n") == 1 + 5 + 3
    assert b'"B1, ""quoted"" 5%"' in written


def test_trace_output_memory_does_not_grow_with_the_trace(tmp_path):
    rows = 1000
    trace = np.column_stack([np.arange(rows) // 2 + 1, np.arange(rows) % 2,
                             np.random.default_rng(0).random((rows, 4))])
    report = traced_report(*[trace] * 20)
    tracemalloc.start()
    try:
        emit_outputs(report, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.csv").read_bytes().count(b"\n") == 1 + 20 * rows
    assert peak < 2 * 2**20  # a list of all 20,000 rows takes about 8 MB


def test_trace_header_names_one_column_per_dimension(tmp_path):
    emit_outputs(traced_report(3), tmp_path)
    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == ["algorithm", "problem", "seed", "generation", "subpop",
                       "best_x1", "best_x2", "best_x3", "best_f", "spreading"]
    assert len(rows[1]) == len(rows[0])
    assert rows[1][3:5] == ["1", "0"]  # generation and subpop stay integers
    assert rows[1][rows[0].index("best_f")] == "1.5"

    emit_outputs(traced_report(2), tmp_path / "flat")
    assert read_rows(tmp_path / "flat" / "trace.csv")[0] == TRACE_CSV_HEADER


def test_trace_rows_of_mixed_dimensions_are_refused(tmp_path):
    with pytest.raises(ConfigurationError, match="dimensions"):
        emit_outputs(traced_report(2, 3), tmp_path)
    assert not any(tmp_path.iterdir())  # refused before any file is written


def test_best_points_field_has_17_significant_digits(tmp_path):
    report = run_experiment(small_config(algorithms=["mde-itmf"], runs=2))
    emit_outputs(report, tmp_path)
    rows = read_rows(tmp_path / "runs.csv")
    field = rows[1][RUNS_CSV_HEADER.index("best_points")]
    triples = field.split(";")
    assert len(triples) == 2  # one per subpopulation
    x, y, f = triples[0].split(",")
    assert len(x.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 15


def test_outputs_reproducible_modulo_elapsed(tmp_path):
    for sub in ("one", "two"):
        emit_outputs(run_experiment(small_config(trace=True)), tmp_path / sub)
    first = scrub_rows(read_rows(tmp_path / "one" / "runs.csv"))
    second = scrub_rows(read_rows(tmp_path / "two" / "runs.csv"))
    assert first == second
    assert read_rows(tmp_path / "one" / "trace.csv") == read_rows(tmp_path / "two" / "trace.csv")
    with open(tmp_path / "one" / "report.json") as fh:
        ja = scrub_json(json.load(fh))
    with open(tmp_path / "two" / "report.json") as fh:
        jb = scrub_json(json.load(fh))
    ja["config"].pop("out_dir", None), jb["config"].pop("out_dir", None)
    assert ja == jb


def test_report_config_reproduces_the_same_runs(tmp_path):
    config = small_config(algorithms=["dewi"], runs=2)
    emit_outputs(run_experiment(config), tmp_path)
    with open(tmp_path / "report.json") as fh:
        replay_config = config_from_dict(json.load(fh))
    replay = run_experiment(replay_config)
    emit_outputs(replay, tmp_path / "replay")
    assert scrub_rows(read_rows(tmp_path / "runs.csv")) == scrub_rows(
        read_rows(tmp_path / "replay" / "runs.csv")
    )


def test_trace_rows_end_below_spread_tolerance(tmp_path):
    config = ExperimentConfig(problems=["B1"], algorithms=["mde-itmf"], runs=1,
                              seed=0, trace=True)
    report = run_experiment(config)
    emit_outputs(report, tmp_path)
    rows = read_rows(tmp_path / "trace.csv")[1:]
    eps = 5e-5
    last_spread = {}
    for row in rows:
        last_spread[row[TRACE_CSV_HEADER.index("subpop")]] = float(row[-1])
    assert len(last_spread) == 4
    assert all(v < eps for v in last_spread.values())


# -------------------------------------------------------------------- sweep

def test_single_value_sweep_matches_experiment():
    base = small_config(algorithms=["mde-itmf"], runs=3)
    sweep = run_sweep(SweepConfig(base=base, parameter="np", values=[20]))
    direct = run_experiment(
        small_config(algorithms=["mde-itmf"], overrides={"np": 20}, runs=3)
    )
    cell_sweep = sweep.rows[0][1].cells[0]
    cell_direct = direct.cells[0]
    assert cell_sweep.aggregates["nfe"] == cell_direct.aggregates["nfe"]
    assert cell_sweep.aggregates["ngp"] == cell_direct.aggregates["ngp"]


def test_switch_tol_sweep_runs_clean(tmp_path):
    base = ExperimentConfig(problems=["B3"], algorithms=["dewi"], runs=2, seed=4)
    values = [5e-1, 4e-1, 3e-1, 2e-1, 1e-1, 1e-2, 1e-3, 5e-4, 2.5e-4, 1e-4]
    report = run_sweep(SweepConfig(base=base, parameter="tol", values=values))
    assert report.ok
    paths = emit_outputs(report, tmp_path)
    rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0] == SWEEP_CSV_HEADER
    assert len(rows) - 1 == len(values) * 3  # one cell, three metrics per value
    assert {p.name for p in paths} == {"sweep.csv", "report.json"}


def spy_on_runs(monkeypatch) -> list:
    """The arguments of every run the harness makes from now on, in order."""
    import multide.harness as hz

    real_single_run, runs = hz._single_run, []

    def counting_single_run(*args):
        runs.append(args)
        return real_single_run(*args)

    monkeypatch.setattr(hz, "_single_run", counting_single_run)
    return runs


def test_sweep_refuses_a_bad_later_value_before_any_run(monkeypatch):
    runs = spy_on_runs(monkeypatch)
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf"], runs=2)
    with pytest.raises(ConfigurationError, match=r"F must be a number in \[0, 1\], got 1.5"):
        run_sweep(SweepConfig(base=base, parameter="f", values=[0.5, 1.5]))
    assert runs == []


def test_library_sweep_collects_no_traces(tmp_path):
    base = ExperimentConfig(problems=["B3"], algorithms=["de", "dewi"], runs=2, trace=True)
    report = run_sweep(SweepConfig(base=base, parameter="np", values=[10]))
    records = [r for _, exp in report.rows for cell in exp.cells for r in cell.records]
    assert len(records) == 6 and all(r.trace is None for r in records)
    emit_outputs(report, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text())["config"]["base"]["trace"] is False


@pytest.mark.parametrize("values", [[np.int64(20), np.int64(24)], [20, 24.0]])
def test_sweep_values_are_stored_and_written_as_floats(values, tmp_path):
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf"], runs=2)
    sweep = SweepConfig(base=base, parameter="np", values=values)
    want = [float(v) for v in values]
    assert sweep.values == want and all(type(v) is float for v in sweep.values)
    emit_outputs(run_sweep(sweep), tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["values"] == want
    assert [row["value"] for row in report["rows"]] == want


def test_sweep_report_states_the_runs_of_each_cell(tmp_path):
    base = ExperimentConfig(problems=["B3"], algorithms=["mde-itmf", "dewi"], runs=2, seed=3)
    report = run_sweep(SweepConfig(base=base, parameter="np", values=[10]))
    emit_outputs(report, tmp_path)
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert sorted(config) == ["base", "parameter", "values"]
    assert [len(cell.records) for cell in report.rows[0][1].cells] == [config["base"]["runs"]] * 2


# ---------------------------------------------------------------------- CLI

def test_cli_list_prints_all_problems(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for pid in ("B1", "B5", "B10"):
        assert pid in out
    assert "Himmelblau" in out


def test_cli_run_writes_outputs(tmp_path, capsys):
    code = cli_main([
        "run", "--problem", "B3", "--algo", "mde-itmf", "--runs", "2",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "runs.csv").exists()
    assert (tmp_path / "aggregates.csv").exists()
    assert (tmp_path / "report.json").exists()
    out = capsys.readouterr().out
    assert "mde-itmf" in out


def test_cli_accepts_config_file_with_flag_override(tmp_path):
    cfg = {"problems": ["B3"], "algorithms": ["mde-itmf"], "runs": 2, "seed": 5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--runs", "1",
                     "--out", str(out_dir)])
    assert code == 0
    with open(out_dir / "report.json") as fh:
        blob = json.load(fh)
    assert blob["config"]["runs"] == 1  # flag beat the file value
    assert blob["config"]["seed"] == 5


def test_cli_merges_file_and_flag_overrides(tmp_path):
    cfg = {"problems": ["B3"], "algorithms": ["mde-itmf"], "runs": 2, "seed": 5,
           "overrides": {"np": 8, "f": 0.5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["run", "--config", str(cfg_path), "--param", "f=0.6",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "report.json") as fh:
        config = json.load(fh)["config"]
    assert config["overrides"] == {"np": 8.0, "f": 0.6}
    assert config["problems"] == ["B3"] and config["runs"] == 2 and config["seed"] == 5


def test_cli_rerunning_a_report_leaves_its_files_alone(tmp_path, capsys):
    res = tmp_path / "res"
    assert cli_main(["run", "--problem", "B3", "--algo", "mde-itmf", "--runs", "2",
                     "--out", str(res)]) == 0
    before = {path.name: path.read_bytes() for path in res.iterdir()}
    capsys.readouterr()
    assert cli_main(["run", "--config", str(res / "report.json"), "--param", "np=40"]) == 0
    assert {path.name: path.read_bytes() for path in res.iterdir()} == before
    assert "wrote" not in capsys.readouterr().out
    # --out still names where the replay goes
    assert cli_main(["run", "--config", str(res / "report.json"), "--param", "np=40",
                     "--out", str(tmp_path / "replay")]) == 0
    with open(tmp_path / "replay" / "report.json") as fh:
        assert json.load(fh)["config"]["overrides"] == {"np": 40.0}
    assert {path.name: path.read_bytes() for path in res.iterdir()} == before


def test_cli_writes_to_a_config_files_out_dir_unless_out_is_given(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problems": ["B3"], "algorithms": ["mde-itmf"], "runs": 2,
                                  "out_dir": str(tmp_path / "planned")}))
    assert cli_main(["run", "--config", str(config)]) == 0
    assert (tmp_path / "planned" / "report.json").exists()
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "flag")]) == 0
    with open(tmp_path / "flag" / "report.json") as fh:
        assert json.load(fh)["config"]["out_dir"] == str(tmp_path / "flag")
    capsys.readouterr()


@pytest.mark.parametrize("form", ["--out", "config"])
def test_cli_refuses_an_empty_output_directory(form, tmp_path, capsys, monkeypatch):
    # Both forms printed the table, wrote no file and exited 0.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": ""} if form == "config" else {}))
    argv = ["run", "--config", str(config), "--problem", "B3", "--algo", "de", "--runs", "2"]
    code = cli_main(argv + (["--out", ""] if form == "--out" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: out_dir must be a path or null, got an empty string\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    with pytest.raises(ConfigurationError, match="empty string"):
        small_config(out_dir="")


def test_cli_takes_a_sweep_report_as_config(tmp_path, capsys):
    sw = tmp_path / "sw"
    assert cli_main(["sweep", "--problem", "B3", "--algo", "mde-itmf", "--runs", "2",
                     "--seed", "4", "--sweep-param", "np", "--values", "8,12",
                     "--out", str(sw)]) == 0
    before = {path.name: path.read_bytes() for path in sw.iterdir()}
    assert cli_main(["run", "--config", str(sw / "report.json"),
                     "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "report.json") as fh:
        config = json.load(fh)["config"]
    assert (config["problems"], config["algorithms"]) == (["B3"], ["mde-itmf"])
    assert (config["runs"], config["seed"], config["overrides"]) == (2, 4, {})
    assert cli_main(["sweep", "--config", str(sw / "report.json"), "--sweep-param", "f",
                     "--values", "0.5", "--out", str(tmp_path / "again")]) == 0
    rows = read_rows(tmp_path / "again" / "sweep.csv")
    assert len(rows) - 1 == 3 and {row[:2] for row in map(tuple, rows[1:])} == {("f", "0.5")}
    assert {path.name: path.read_bytes() for path in sw.iterdir()} == before
    capsys.readouterr()


# README lists the override keys in lowercase; every way of naming one takes them as listed.
UPPERCASE_KEYS = [
    (["run", "--param", "NP=20"], None),
    (["sweep", "--sweep-param", "NP", "--values", "20"], None),
    (["run"], {"overrides": {"NP": 20}}),
]


@pytest.mark.parametrize("argv, settings", UPPERCASE_KEYS, ids=["param", "sweep-param", "config"])
def test_cli_override_keys_are_the_listed_lowercase_names(argv, settings, tmp_path, capsys,
                                                          monkeypatch):
    runs = spy_on_runs(monkeypatch)
    if settings is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        argv = argv + ["--config", str(config)]
    code = cli_main(argv + ["--problem", "B3", "--algo", "de", "--runs", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "'NP'" in captured.err
    assert captured.out == "" and runs == []


def test_cli_checks_ranges_after_the_flags_join_the_config_file(tmp_path, capsys):
    # eps=1e-3 alone is above B3's switch_tol of 5e-4; the flag's tol lifts it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"overrides": {"eps": 1e-3}}))
    assert cli_main(["run", "--config", str(config), "--problem", "B3", "--algo", "dewi",
                     "--runs", "1", "--param", "tol=1e-2"]) == 0
    capsys.readouterr()


def test_cli_trace_subcommand(tmp_path, capsys):
    code = cli_main([
        "trace", "--problem", "B3", "--algo", "dewi", "--seed", "9",
        "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert rows[0] == TRACE_CSV_HEADER
    assert len(rows) > 10
    assert "bests:" in capsys.readouterr().out


def test_cli_sweep_subcommand(tmp_path):
    code = cli_main([
        "sweep", "--problem", "B3", "--algo", "mde-itmf", "--runs", "2",
        "--sweep-param", "np", "--values", "8,12", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) - 1 == 2 * 3


# Each was once accepted or ended in a raw traceback instead of a config error.
MALFORMED_CLI = [
    ["run", "--param", "np=15.5"],
    ["run", "--param", "nsp=2.7"],
    ["sweep", "--sweep-param", "np", "--values", "15.5,20"],
    ["run", "--param", "np=nan"],
    ["run", "--param", "gmax=inf"],
    ["run", "--config", "{config}"],
    ["run", "--param", "rho=nan"],
    ["run", "--param", "beta=nan"],
    ["run", "--param", "beta=inf"],
    ["run", "--param", "eps=nan"],
    ["run", "--param", "eps=inf"],
    ["run", "--param", "tol=nan"],
    ["run", "--seed", "-1"],
    # with the appended --problem B3: one problem named by id and by name
    ["run", "--problem", "six-hump camel"],
    ["run", "--algo", "de", "--algo", "de"],
]


@pytest.mark.parametrize("argv", MALFORMED_CLI, ids=lambda argv: " ".join(argv[1:]))
def test_cli_refuses_malformed_overrides_before_any_run(argv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"overrides": {"np": "abc"}}))
    out = tmp_path / "out"
    argv = [a.replace("{config}", str(config)) for a in argv]
    code = cli_main(argv + ["--problem", "B3", "--runs", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""  # nothing ran, so no table was printed
    assert not out.exists()


def test_cli_refuses_an_infinite_spreading_tolerance(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--problem", "B1", "--algo", "de", "--runs", "2",
                     "--param", "eps=inf", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: spread_tol must be a number in (0, inf), got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "B2", "--algo", "de", "--runs", "2", "--param", "eps=1e-3"],
    ["sweep", "--problem", "B2", "--algo", "mde-itmf", "--runs", "2", "--sweep-param", "eps",
     "--values", "1e-4,1e-3"],
], ids=["de", "mde-itmf"])
def test_cli_eps_above_the_rows_switch_tol_without_dewi(argv, tmp_path, capsys):
    # B2's row carries switch_tol=5e-4 for dewi, which neither of these reads;
    # an eps above it once exited 2 on the switch tolerance.
    assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("algos", [["--algo", "dewi"], ["--algo", "de", "--algo", "dewi"], []],
                         ids=["dewi", "de,dewi", "default"])
def test_cli_eps_above_switch_tol_is_refused_when_dewi_runs(algos, tmp_path, capsys, monkeypatch):
    runs = spy_on_runs(monkeypatch)
    out = tmp_path / "out"
    code = cli_main(["run", "--problem", "B2", *algos, "--runs", "2", "--param", "eps=1e-3",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: switch_tol must be greater than the spreading tolerance\n")
    assert runs == [] and not out.exists()


def test_cli_sweep_refuses_a_bad_later_value_before_any_run(tmp_path, capsys, monkeypatch):
    runs = spy_on_runs(monkeypatch)
    out = tmp_path / "out"
    code = cli_main(["sweep", "--problem", "B3", "--algo", "mde-itmf", "--runs", "2",
                     "--sweep-param", "f", "--values", "0.5,1.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: F must be a number in [0, 1], got 1.5\n"
    assert captured.out == ""  # nothing ran, so no table was printed
    assert not out.exists()
    assert runs == []


# Each once ended in a raw TypeError or JSONDecodeError, ran with a
# fractional seed or a boolean run count, or ran a cell twice. A sweep runs
# its config's runs per value. A string is the file's raw text, a dict is
# written as JSON.
# A --config path that names no file, and one that names a directory.
MISSING_FILE, A_DIRECTORY = "missing file", "a directory"
MALFORMED_CONFIGS = [
    ("run", {"seed": "5"}),
    ("run", {"runs": 2.5}),
    ("run", {"seed": 1.5, "runs": 2}),
    ("run", {"runs": True}),
    ("sweep", {"runs": 2.5}),
    ("run", {"trace": "false"}),
    ("run", {"parallel": "no"}),
    ("run", {"overrides": [1, 2]}),
    ("run", {"problems": "B3"}),
    ("run", {"seeds": 5}),
    ("run", {"out_dir": 5}),
    ("run", "{bad"),
    ("run", "[1, 2]"),
    ("run", "5"),
    ("sweep", "{bad"),
    ("run", {"problems": ["B3", "six-hump camel"]}),
    ("run", {"algorithms": ["de", "de"]}),
    ("run", MISSING_FILE),
    ("sweep", A_DIRECTORY),
]


@pytest.mark.parametrize("command, settings", MALFORMED_CONFIGS,
                         ids=lambda case: case if isinstance(case, str) else json.dumps(case))
def test_cli_refuses_malformed_runs_and_seed_in_config(command, settings, tmp_path, capsys):
    config = tmp_path / "config.json"
    if settings == A_DIRECTORY:
        config.mkdir()
    elif settings != MISSING_FILE:
        config.write_text(settings if isinstance(settings, str) else json.dumps(settings))
    out = tmp_path / "out"
    extra = ["--sweep-param", "np", "--values", "8"] if command == "sweep" else []
    code = cli_main([command, "--config", str(config), "--problem", "B3", "--algo", "de",
                     "--out", str(out), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    if settings in (MISSING_FILE, A_DIRECTORY):
        assert captured.err.startswith(f"error: cannot read config file {config}: ")
    assert captured.out == ""  # nothing ran, so no table was printed
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_cli_into_a_closed_pipe_writes_its_files_and_exits_1(unbuffered, tmp_path):
    # The reader of stdout is gone before the command starts, as when
    # ``head`` has already exited in ``multide run ... | head -1``.
    src = str(Path(multide.__file__).resolve().parents[1])
    paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    out = tmp_path / "out"
    for argv in (["run", "--problem", "B2", "--runs", "2", "--out", str(out)], ["list"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "multide.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")
    assert sorted(path.name for path in out.iterdir()) == ["aggregates.csv", "report.json",
                                                          "runs.csv"]


def test_cli_sweep_collects_no_traces(tmp_path, monkeypatch):
    import multide.cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trace": True}))
    seen = []

    def fake_sweep(sweep):
        seen.append(sweep)
        return SweepReport(config=sweep, rows=[])

    monkeypatch.setattr(multide.cli, "run_sweep", fake_sweep)
    assert cli_main(["sweep", "--config", str(config), "--problem", "B3",
                     "--sweep-param", "np", "--values", "8"]) == 0
    assert seen[0].base.trace is False


def test_cli_trace_takes_no_runs_or_parallel(capsys):
    for flags in (["--runs", "5"], ["--parallel"]):
        with pytest.raises(SystemExit) as info:
            cli_main(["trace", *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_help_states_each_subcommands_defaults(capsys):
    for command, shown in (("trace", ("B1", "mde-itmf")), ("run", ("all", "all"))):
        with pytest.raises(SystemExit):
            cli_main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"problem id or name (repeatable; default: {shown[0]})" in out
        assert f"algorithm (repeatable; default: {shown[1]})" in out


def test_cli_rejects_bad_input(capsys):
    assert cli_main(["run", "--problem", "nope"]) == 2
    assert cli_main(["run", "--problem", "B3", "--param", "np=abc"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
