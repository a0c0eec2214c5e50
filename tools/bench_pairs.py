"""Paired perfbench runs of two source checkouts, written as one BENCH_<name>.json.

Run from the root of a source checkout, with two checkouts to compare
(for example ``git archive`` copies of a parent commit and of a change):

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --name penalty_layout --out BENCH_penalty_layout.json

For every workload in BENCHMARK.json it runs the checkouts' own, unchanged
``perfbench/run.py --seed 7 --seconds R --trace 0`` (R: BENCHMARK.json's
``run_seconds``) in 10 alternating pairs (odd pairs parent first, even pairs
change first), then ``--seconds 2 --trace 1`` in 8 pairs for every
per-layer figure BENCHMARK.json lists. It also times
``python -X importtime -c "import multide"`` in 15 alternating pairs.
Every figure comes with the parent's own spread (``setup_s`` included),
so a move smaller than that reads as noise.
The verdict rule is the one BENCHMARK.json's bounds imply; see VERDICT_RULE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
SEED = 7
PAIRS = 10                           # the fewest pairs a gain may be claimed on
# A traced run times one pass after --seconds / 2 of warm-up, so its length
# buys little: over 8 runs of one parent tree on grid, the interquartile
# range of core.generate_trials.us_per_call was 8.2% of the median at 2 s and
# 7.0% at 6 s (crowded 10.2% and scalar 6.8% over 6 runs at 2 s). Eight pairs
# give quartiles over 8 runs, so a per-call move past about 10% resolves.
TRACE_SECONDS, TRACE_PAIRS = 2, 8
IMPORT_PAIRS = 15

VERDICT_RULE = (
    "worse: the change's median is worse than the parent's by more than the BENCHMARK.json "
    "bound; unresolved: otherwise, when the parent's own interquartile range is wider than the "
    "bound and not every change run reads better than every parent run; within bound: the rest")


def perfbench(checkout: Path, workload: str, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` process: its metric values, fingerprints and info."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return {"error": (proc.stderr or proc.stdout).strip()[-2000:]}
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "fingerprint": info["fingerprint"],
        "setup_s_samples": info.get("setup_s_samples"),
    }


def import_us(checkout: Path) -> int:
    """Cumulative microseconds of ``import multide`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import multide"],
                          env=env, capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "multide":
            return int(fields[1])
    raise RuntimeError(f"no multide line in -X importtime output:\n{proc.stderr[-2000:]}")


def alternate(pairs: int, run) -> dict[str, list]:
    """``run(side)`` for each side in ``pairs`` pairs, odd pairs parent first."""
    out = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out[side].append(run(side))
    return out


def figure(runs: dict[str, list], name: str) -> dict[str, list] | None:
    """Each side's values of metric ``name`` in run order, ``None`` where a run failed.

    ``None`` as a whole when either side has no value at all.
    """
    values = {side: [r.get("metrics", {}).get(name) for r in runs[side]] for side in SIDES}
    if all(any(v is not None for v in vs) for vs in values.values()):
        return values
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list, change: list, better: str, bound: float | None) -> dict:
    """Medians, the parent's spread, paired wins and (with a bound) the verdict.

    ``parent[i]`` and ``change[i]`` are pair i's runs; a pair where either
    side has no value (``None``: the run failed) counts for neither side.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change)
               if p is not None and c is not None)
    parent = [v for v in parent if v is not None]
    change = [v for v in change if v is not None]
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    out = {
        "parent_median": round(p_med, 6),
        "change_median": round(c_med, 6),
        "change_vs_parent": round(rel, 4),
        "parent_min_q1_q3_max": [round(v, 6) for v in (min(parent), q1, q3, max(parent))],
        "parent_iqr_over_median": round((q3 - q1) / p_med, 4) if p_med else 0.0,
        "pairs_change_better": wins,
        "runs_per_side": [len(parent), len(change)],
    }
    if bound is not None:
        if sign * rel < -bound:
            verdict = "worse"
        elif out["parent_iqr_over_median"] > bound and not (
                min(change) > max(parent) if sign > 0 else max(change) < min(parent)):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out["bound"] = bound
        out["verdict"] = verdict
    return out


def machine() -> str:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip() + ", "
                break
    except OSError:
        pass
    return (f"{model}{os.cpu_count()} cores, {len(os.sched_getaffinity(0))} usable by this "
            f"process, {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent source checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed source checkout")
    parser.add_argument("--name", required=True, help="the BENCH file's name field")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<name>.json to write")
    parser.add_argument("--what", default="", help="one paragraph: what the change is")
    parser.add_argument("--claim", default=None, help="the claimed gain, if any")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}

    report = {
        "name": args.name,
        "what": args.what,
        "claim": args.claim,
        "command": (f"python3 tools/bench_pairs.py: perfbench/run.py --workload W --seed {SEED} "
                    f"--seconds {seconds} --trace 0 in each checkout, {PAIRS} pairs per "
                    f"workload, then --seconds {TRACE_SECONDS} --trace 1 in {TRACE_PAIRS} "
                    f"pairs; odd pairs parent first, even pairs change first"),
        "machine": machine(),
        "verdict_rule": VERDICT_RULE,
        "summary": {},
        "per_layer": {},
        "fingerprints": {},
        "import_multide_us": {},
        "runs": {},
    }
    imports = alternate(IMPORT_PAIRS, lambda side: import_us(checkouts[side]))
    report["import_multide_us"] = {
        "samples": imports,
        **compare(imports["parent"], imports["change"], "lower", None),
    }
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}: --trace 0", file=sys.stderr, flush=True)
        timed = alternate(PAIRS, lambda side: perfbench(checkouts[side], workload, seconds, 0))
        print(f"{workload}: --trace 1", file=sys.stderr, flush=True)
        traced = alternate(TRACE_PAIRS, lambda side: perfbench(
            checkouts[side], workload, TRACE_SECONDS, 1))
        report["runs"][workload] = {"trace0": timed, "trace1": traced}
        report["fingerprints"][workload] = {
            side: sorted({fp for r in timed[side] + traced[side]
                          for fp in r.get("fingerprint", ())})
            for side in SIDES}
        summary = report["summary"][workload] = {
            "correct": {side: all(r.get("correct") is True for r in timed[side] + traced[side])
                        for side in SIDES}}
        for name, m in end_to_end.items():
            values = figure(timed, name)
            if values:
                summary[name] = compare(values["parent"], values["change"], m["better"], m["bound"])
        per_layer = report["per_layer"][workload] = {}
        for name, m in layers.items():
            values = figure(traced, name)
            if values:
                per_layer[name] = compare(values["parent"], values["change"], m["better"], None)
        # after every workload, so an interrupted run keeps what it measured
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
