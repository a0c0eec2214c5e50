"""multide benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload's passes are timed with nothing wrapped
and the end-to-end metrics are reported; set-up time is the median of
several fresh processes that each import ``multide`` and build the inputs.
With ``--trace 1`` the pass is timed untraced, then run once more with
every layer wrapped (``layers.py``), and the per-layer metrics are
reported. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
informational fields (outputs fingerprint, raw times, machine).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and multide are imported late, so that a set-up probe's clock
# covers their import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_PROBES = 7
MIN_PASSES = 3
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

# Reference kernel, run after every engine run for KERNEL_SHARE of the time
# since its previous call. REFERENCE_KERNEL_S is about its median wall time
# on the 2-core x86_64 machine (Python 3.11, numpy 2.4) the benchmark was
# written on, so scaled figures read as seconds there.
KERNEL_STEPS = 100
KERNEL_SHARE = 0.1
REFERENCE_KERNEL_S = 0.003


def _import_workloads():
    """Import the benchmark against the checkout's own ``src/multide``."""
    if not (SRC / "multide" / "__init__.py").is_file():
        sys.exit(f"error: no multide sources at {SRC / 'multide'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def _setup_probe(workload: str, seed: int):
    """Time the import of multide and the input generation, in this process."""
    t0 = time.perf_counter()
    wl = _import_workloads()
    wl.make_inputs(wl.WORKLOADS[workload], seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def _setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Session:
    """Passes over one workload's inputs, with their checks and fingerprints."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl = wl
        self.inputs = wl.make_inputs(wl.WORKLOADS[workload], seed)
        self.out_dir = OUT / workload
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.fingerprints: set[str] = set()

    def run_pass(self, between_runs=None):
        result = self.wl.run_pass(self.inputs, self.out_dir, between_runs)
        bad, messages = self.wl.check_pass(self.inputs, result)
        self.attempted += self.inputs.runs
        self.failed += len(result.failures) + bad
        self.messages += messages + [f"{f['problem']} {f['algorithm']} seed={f['seed']}: "
                                     f"{f['error']}" for f in result.failures]
        self.fingerprints.add(self.wl.fingerprint(result.records))
        self.passes.append(result)
        return result

    @property
    def correct(self) -> bool:
        # Every pass runs the same seeds, so every pass must give the same outputs.
        return self.failed == 0 and not self.messages and len(self.fingerprints) == 1

    def info(self) -> dict:
        return {
            "workload": self.inputs.workload.name,
            "master_seed": self.inputs.master_seed,
            "runs_per_pass": self.inputs.runs,
            "passes": len(self.passes),
            "pass_wall_s": [round(p.wall_s, 4) for p in self.passes],
            "fingerprint": sorted(self.fingerprints),
            "failed_runs": self.failed / self.attempted if self.attempted else None,
            "problems": self.messages[:10],
            **_machine(),
        }


def _kernel_seconds() -> float:
    """Wall time of a fixed numpy + Python loop shaped like a DE generation.

    It touches no multide code, so its time tracks only the machine.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random((30, 2))
    t0 = time.perf_counter()
    for _ in range(KERNEL_STEPS):
        r = rng.integers(0, 30, size=(30, 3))
        donors = x[r[:, 0]] + 0.5 * (x[r[:, 1]] - x[r[:, 2]])
        trial = np.where(rng.random((30, 2)) <= 0.8, donors, x)
        better = np.sum(trial * trial, axis=1) <= np.sum(x * x, axis=1)
        x = np.where(better[:, None], trial, x)
    return time.perf_counter() - t0


def _timed(session: Session, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over repeated passes of the same seeded runs.

    Run times are medians over passes, scaled to reference speed: after every
    engine run (outside the timed region) the reference kernel runs for
    about a tenth of the time since its last call, so its samples spread
    over the run like the workload's time does, and ``speed`` is the
    kernel's nominal time over its median time. On a shared machine, phases
    of a minute or more run every process 30-50% slower, and shorter bursts
    come and go within a second. Both slow the kernel and the workload
    together, so the scaled figures move far less than the raw ones (in the
    info line). Set-up time is the raw median of the probes: import time
    (reading and loading modules) does not follow the kernel, and scaling
    it made two ten-seed sets disagree by 40%.
    """
    kernel = []
    last = time.perf_counter()

    def calibrate():
        nonlocal last
        budget = KERNEL_SHARE * (time.perf_counter() - last)
        spent = 0.0
        while spent < budget or not spent:
            kernel.append(_kernel_seconds())
            spent += kernel[-1]
        last = time.perf_counter()

    t_end = time.perf_counter() + seconds
    while len(session.passes) < MIN_PASSES or time.perf_counter() < t_end:
        session.run_pass(calibrate)
    passes = session.passes
    first = passes[0]
    job_s = [statistics.median(p.run_s[job] for p in passes if job in p.run_s)
             for job in first.run_s]
    raw = {
        "runs_per_s": len(first.run_s) / statistics.median(p.wall_s for p in passes),
        "run_ms_p50": statistics.median(job_s) * 1e3,
        "subpop_gens_per_s": first.subpop_gens / statistics.median(p.engine_s for p in passes),
    }
    speed = REFERENCE_KERNEL_S / statistics.median(kernel)
    metrics = {
        "runs_per_s": (raw["runs_per_s"] / speed, "1/s"),
        "run_ms_p50": (raw["run_ms_p50"] * speed, "ms"),
        "subpop_gens_per_s": (raw["subpop_gens_per_s"] / speed, "1/s"),
        "nfe_per_run": (statistics.fmean(r.nfe for r in first.records), "count"),
        "ngp_mean": (statistics.fmean(u.ngp for u in first.units), "count"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = [s * 1e3 for p in passes for s in p.run_s.values()]
    info = {"speed": speed, "raw": raw, "run_samples": len(samples),
            "setup_s_samples": setup}
    if len(samples) >= P90_MIN_SAMPLES:
        info["raw_run_ms_p90"] = statistics.quantiles(samples, n=10)[-1]
    return metrics, info


def _traced(session: Session, seconds: float) -> tuple[dict, dict]:
    import layers

    t_end = time.perf_counter() + seconds / 2
    while not session.passes or time.perf_counter() < t_end:
        session.run_pass()
    untraced = statistics.median(p.wall_s for p in session.passes)
    tracer = layers.Tracer()
    missing = tracer.install(session.inputs)
    try:
        result = session.run_pass()
    finally:
        tracer.uninstall()
    spans_path = session.out_dir / "spans.npz"
    tracer.save(spans_path)
    metrics = layers.layer_metrics(tracer, result, untraced)
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT)), "unwrapped": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    wl = _import_workloads()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(wl.WORKLOADS)}")
    if args.trace:
        session = Session(wl, args.workload, args.seed)
        metrics, extra = _traced(session, args.seconds)
    else:
        setup = _setup_seconds(args.workload, args.seed)
        session = Session(wl, args.workload, args.seed)
        metrics, extra = _timed(session, args.seconds, setup)

    print(json.dumps({"info": {**session.info(), **extra}}))
    print(json.dumps({
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
