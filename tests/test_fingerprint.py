"""Golden outputs: engine results must not move unless a change means them to.

Each case hashes the seed-ordered ``nfe``, ``generations_used`` and final
bests at 17 significant digits, plus the trace rows when a run is traced.
The hashes were recorded before the generation step was rewritten for
speed, so they pin the RNG draw order and every floating-point result of
the engines. A change that alters outputs on purpose updates the hashes
here and says so in CHANGES.md.

The hashes were recorded where numpy dispatches its AVX-512 float64 ``exp``,
``log`` and ``power`` kernels. Without them ``B4 de traced`` moves, as
``tools/dispatch_levels.py`` shows; the other cases hold.
"""

import csv
import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from multide import (
    Bounds,
    DEParams,
    MultiParams,
    PenaltyParams,
    get_problem,
)
from multide.cli import main as cli_main
from multide.harness import ENGINES

SEEDS = (0, 1, 2)


class DoubleWell:
    """sum (x_k^2 - 1)^2 on [-2, 2]^d: 2^d global minima at the corners +-1."""

    def __call__(self, x):
        return float(self.batch(np.asarray(x, dtype=float)[None, :])[0])

    def batch(self, pts):
        return np.sum((pts * pts - 1.0) ** 2, axis=1)


WELL_PARAMS = MultiParams(
    de=DEParams(pop_size=20, F=0.5, CR=0.9, max_generations=300),
    penalty=PenaltyParams(magnitude=50.0, radius=0.5),
    subpops=3,
    switch_tol=5e-4,
)


def _run(algorithm, objective, bounds, params, seed, **kw):
    # The harness's engine table, so the hashes also pin which parameters
    # each algorithm receives.
    engine, engine_params = ENGINES[algorithm]
    return engine(objective, bounds, engine_params(params), seed, **kw)


def _digest(records):
    h = hashlib.sha256()
    for r in records:
        bests = ";".join(
            ",".join(f"{float(v):.17g}" for v in (*p.coords, p.fitness)) for p in r.final_bests
        )
        gens = ",".join(str(g) for g in r.generations_used)
        h.update(f"{r.algorithm} {r.seed} {r.nfe} {gens} {bests}\n".encode())
        for row in () if r.trace is None else r.trace:
            h.update((" ".join(f"{float(v):.17g}" for v in row) + "\n").encode())
    return h.hexdigest()


def _problem_case(pid, algorithm, plain=False, **kw):
    problem = get_problem(pid)
    objective = problem.objective
    if plain:
        def objective(p, _f=problem.objective):  # a callable without ``batch``
            return _f(p)
    return [_run(algorithm, objective, problem.bounds, problem.default_params, s, **kw)
            for s in SEEDS]


def _well_case(algorithm, dim=3, subpops=3, max_generations=300, radius=0.5):
    # dim >= 8 is where numpy's sums over a row switch to pairwise order;
    # the radius is chosen so that the penalty decides some selections.
    bounds = Bounds(np.full(dim, -2.0), np.full(dim, 2.0))
    params = replace(WELL_PARAMS, subpops=subpops,
                     de=replace(WELL_PARAMS.de, max_generations=max_generations),
                     penalty=replace(WELL_PARAMS.penalty, radius=radius))
    return [_run(algorithm, DoubleWell(), bounds, params, s) for s in SEEDS]


CASES = {
    "B1 de": lambda: _problem_case("B1", "de"),
    "B1 mde-itmf": lambda: _problem_case("B1", "mde-itmf"),
    "B1 dewi": lambda: _problem_case("B1", "dewi"),
    "B7 de": lambda: _problem_case("B7", "de"),
    "B7 mde-itmf": lambda: _problem_case("B7", "mde-itmf"),
    "B7 dewi": lambda: _problem_case("B7", "dewi"),
    "B1 dewi traced": lambda: _problem_case("B1", "dewi", collect_trace=True),
    "B4 de traced": lambda: _problem_case("B4", "de", collect_trace=True),
    "B1 mde-itmf plain callable": lambda: _problem_case("B1", "mde-itmf", plain=True),
    "B7 de plain callable": lambda: _problem_case("B7", "de", plain=True),
    "3-D nsp=3 mde-itmf": lambda: _well_case("mde-itmf"),
    "3-D nsp=3 dewi": lambda: _well_case("dewi"),
    "3-D nsp=2 mde-itmf": lambda: _well_case("mde-itmf", subpops=2),
    "9-D nsp=3 mde-itmf": lambda: _well_case("mde-itmf", dim=9, max_generations=60, radius=3.0),
    "9-D nsp=2 dewi": lambda: _well_case("dewi", dim=9, subpops=2, max_generations=60,
                                         radius=3.0),
}

GOLDEN = {
    "3-D nsp=2 mde-itmf": "741bb8d38b9629adc7eac10561c446662456d60554f63bfbf38d5dbf7d80d998",
    "3-D nsp=3 dewi": "0730e5846cda8912e18590955c7039020a6ef670824fa65169e0539d96923621",
    "3-D nsp=3 mde-itmf": "92bc58d653de8f6cadebaedb40c6392c55e00383ec936d51a3d2c1bbd87062f4",
    "9-D nsp=2 dewi": "944247cf005a351201c131a33f95939669d18b678ab8a68e5b0d65b790768c42",
    "9-D nsp=3 mde-itmf": "5afca9106d826c709972acbf0efe3d29dd22a9b6fd0ed6ee83617b6b23e42f89",
    "B1 de": "d36b2bda87fa46d52f04e646f7bb61d80b1111eaeb502ccc3165307d1353b410",
    "B1 dewi": "7226acd57c61270e402871acb06ae9bbaeacae1dd5824ce0acc28394df56c474",
    "B1 dewi traced": "6c61f8bb70102553eab3f119f1e811476e169f653605992a351f01a8632d217d",
    "B1 mde-itmf": "8326436aea5eae5d6a198e90b561c7517a9da6eecff15af62997c90346fc638b",
    "B1 mde-itmf plain callable": "8326436aea5eae5d6a198e90b561c7517a9da6eecff15af62997c90346fc638b",
    "B4 de traced": "9ea1170d0234b1e0936c756e77ad1bd83e1d0d56fcd7357345299e885985bc86",
    "B7 de": "854db32fff2ad57d1e2e144526e1b50794acad9176c27e318dbbea2b062ea7b2",
    "B7 de plain callable": "854db32fff2ad57d1e2e144526e1b50794acad9176c27e318dbbea2b062ea7b2",
    "B7 dewi": "f15e4fff0b5c9c4fe0752b0ec0038101961a11d3806f49327821158ac086bcf9",
    "B7 mde-itmf": "5b84b87c1a62e2ec45beb77928d23c0d6b2f39afaaa68c049408bd4cdb58e7dc",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_fingerprint(case):
    assert _digest(CASES[case]()) == GOLDEN[case]


# Output files of two CLI commands, hashed with every elapsed_seconds value
# and out_dir blanked: the only fields that may differ between two runs.
# They pin the file formats (columns, quoting, JSON keys and layout, the
# sweep's config block, the problem provenance table), not just the numbers.
GOLDEN_OUTPUTS = {
    "run": (
        ["run", "--problem", "B3", "--problem", "B7", "--runs", "2", "--seed", "5", "--trace"],
        {
            "runs.csv": "990fa5b7780d7c526c59eb0c4f1d2e94b24fc9992566c8b7df86e6de827f6867",
            "aggregates.csv": "393ac50f77a0ff88073f533dac43209fbce3a131d9b69e90017d8e9bda5e16b0",
            "report.json": "2024e60d8324d1cd13a9c7f3c6a5603fdbb559a43cb80fad459387a5b905b642",
            "trace.csv": "6edcb2d87882dea1a67ec1c99bd47a3bb4d4584f77f6234d77ef44a115df8d1c",
        },
    ),
    "sweep": (
        ["sweep", "--problem", "B3", "--runs", "2", "--sweep-param", "np", "--values", "15,20"],
        {
            "sweep.csv": "7ef38a86fd14461d96f0edf792a648679432771c7d8de2c089a4396483cf7800",
            "report.json": "6fd2320123a9d83fd9b5bf9d065164c902e817608a83a82bd8928cf9300c96f2",
        },
    ),
    # One run per cell: every aggregates.csv row is blank and every cell's
    # "aggregates" is null.
    "run one": (
        ["run", "--problem", "B3", "--runs", "1"],
        {
            "runs.csv": "e7c08808de9cff6ea3b73191ebcd77203fd2bf4d9c3947f8b850fc206e1a40d0",
            "aggregates.csv": "9823621de25e8a15c2899f2471529b32c40a2a990205e264a1d753f99daa685f",
            "report.json": "dccde5ae3e62cdd161d9cd99a730c95b5167da64a1a57724777e409da26051b9",
        },
    ),
}


def _blank_json(node):
    if isinstance(node, dict):
        return {k: None if k in ("elapsed_seconds", "out_dir") else _blank_json(v)
                for k, v in node.items()}
    if isinstance(node, list):
        return [_blank_json(v) for v in node]
    return node


def _blank_csv(text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    header = rows[0]
    for row in rows[1:]:
        if "elapsed_seconds" in header:
            row[header.index("elapsed_seconds")] = ""
        if "metric" in header and row[header.index("metric")] == "elapsed_seconds":
            start = header.index("mean")
            row[start:start + 3] = ["", "", ""]
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _blanked_digest(path):
    text = path.read_text()
    if path.suffix == ".json":
        text = json.dumps(_blank_json(json.loads(text)), indent=2, sort_keys=True) + "\n"
    else:
        text = _blank_csv(text)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN_OUTPUTS))
def test_cli_output_files_match_golden(command, tmp_path, capsys):
    argv, golden = GOLDEN_OUTPUTS[command]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden)
    assert {name: _blanked_digest(tmp_path / name) for name in golden} == golden


# emit_outputs of an experiment whose mde-itmf seed-12 run fails with a
# partial record: pins the failures block, with the exact offending point,
# value and nfe (every row the objective was handed), the failed cell's blank
# rows and the complete DE cell's groups next to it.
GOLDEN_FAILED_RUN = {
    "runs.csv": "7c6f245344e7313349cf3cf7cc1b092bca158799aa530f2867ca51ff3e2e89b1",
    "aggregates.csv": "18000e097082d06e66bd21b46577ef66c1d3f1d3a8c70c598e91b7d53008073a",
    "report.json": "828de76a8f1c1c37e2101fa22eb575f4546b62e6e1fa4a4eb143a56d9a5d4dfa",
}


def test_failed_run_outputs_match_golden(tmp_path, monkeypatch):
    import multide.harness as hz

    real_get_problem, real_single_run = hz.get_problem, hz._single_run

    def flaky_problem(pid):
        problem = real_get_problem(pid)
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            return float("nan") if calls["n"] > 40 else problem.objective(p)

        return replace(problem, objective=flaky)

    def one_flaky_run(problem_id, algorithm, seed, params, trace):
        with monkeypatch.context() as m:
            if (algorithm, seed) == ("mde-itmf", 12):
                m.setattr(hz, "get_problem", flaky_problem)
            return real_single_run(problem_id, algorithm, seed, params, trace)

    monkeypatch.setattr(hz, "_single_run", one_flaky_run)
    config = hz.ExperimentConfig(problems=["B3"], algorithms=["de", "mde-itmf"], runs=2, seed=11)
    report = hz.run_experiment(config)
    assert [f["seed"] for f in report.failures] == [12]
    assert report.failures[0]["nfe"] > 40
    assert report.cells[0].groups is not None and report.cells[1].aggregates is None
    hz.emit_outputs(report, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN_FAILED_RUN)
    assert {name: _blanked_digest(tmp_path / name)
            for name in GOLDEN_FAILED_RUN} == GOLDEN_FAILED_RUN
