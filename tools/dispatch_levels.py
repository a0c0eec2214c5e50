"""Which golden cases and perfbench fingerprints move with numpy's SIMD dispatch level.

Run from the root of a source checkout, optionally naming another checkout
to test (for example a ``git archive`` copy of a parent commit):

    python3 tools/dispatch_levels.py [--checkout ../parent]

numpy picks its float64 ``exp`` and ``power`` kernels at import, by CPU
feature, so the same seed may give other bits on a CPU without AVX-512.
``NPY_DISABLE_CPU_FEATURES`` makes numpy skip the named features in the
process it is set for. This script runs the checkout's
``tests/test_fingerprint.py`` and its ``perfbench/run.py --seed 7
--seconds 1 --trace 0`` on every BENCHMARK.json workload, each in a child
process: once with the variable unset and once with it set to LOWER. It
prints the features numpy dispatches to at each level, every golden case
whose outcome and every fingerprint that differs between the two, and
any that fail at both. It sets the variable only for its children, writes
no file and changes no output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VARIABLE = "NPY_DISABLE_CPU_FEATURES"
LOWER = "AVX512_SPR AVX512_ICL X86_V4"  # the path of an x86-64 CPU without AVX-512
LEVELS = {"default": None, "no AVX-512": LOWER}

SHOWN = "AVX2 X86_V3 AVX512F AVX512_SKX " + LOWER  # the features each level reports as active
FEATURES = f"""
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(np.__version__, *(f for f in {SHOWN!r}.split() if __cpu_features__.get(f)))
"""


def child_env(checkout: Path, level: str | None) -> dict:
    """This process's environment for a child, at one dispatch level."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop(VARIABLE, None)
    if level is not None:
        env[VARIABLE] = level
    return env


def run(args: list[str], checkout: Path, level: str | None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=checkout, env=child_env(checkout, level),
                          capture_output=True, text=True, check=False)


def golden_outcomes(checkout: Path, level: str | None) -> dict[str, str]:
    """Each ``tests/test_fingerprint.py`` case -> PASSED or FAILED."""
    proc = run(["-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                "tests/test_fingerprint.py"], checkout, level)
    found = dict((case, outcome) for outcome, case in
                 re.findall(r"^(PASSED|FAILED|ERROR) tests/test_fingerprint\.py::(.+?)(?: - .*)?$",
                            proc.stdout, re.M))
    if not found:
        sys.exit(f"error: no test outcomes from {checkout}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return found


def fingerprint(checkout: Path, workload: str, level: str | None) -> str:
    """The workload's perfbench fingerprint, with ``correct: false`` or a failure marked."""
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", "0"], checkout, level)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        return "error: " + (proc.stderr or proc.stdout).strip()[-300:]
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    prints = ",".join(info["fingerprint"])
    return prints if result["correct"] else prints + " (correct: false)"


def compare(title: str, by_level: dict[str, dict[str, str]]) -> None:
    """Print the keys whose values differ between the levels, and those failing at every level."""
    (a, first), (b, second) = by_level.items()
    moved = [key for key in first if first[key] != second.get(key)]
    print(f"{title}: {len(moved)} of {len(first)} differ between '{a}' and '{b}'")
    for key in moved:
        print(f"  {key}\n    {a}: {first[key]}\n    {b}: {second.get(key)}")
    stuck = [key for key in first if first[key] == second.get(key) == "FAILED"]
    for key in stuck:
        print(f"  {key}: FAILED at both levels")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to test (default: this one)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    workloads = [w["name"] for w in json.loads((checkout / "BENCHMARK.json").read_text())["workloads"]]
    goldens, prints = {}, {}
    print(f"checkout: {checkout}")
    for name, level in LEVELS.items():
        features = run(["-c", FEATURES], checkout, level).stdout.split()
        print(f"level '{name}' ({VARIABLE}={level or '<unset>'}): numpy {features[0]}, "
              f"active: {' '.join(features[1:]) or 'none of those shown'}")
        goldens[name] = golden_outcomes(checkout, level)
        prints[name] = {w: fingerprint(checkout, w, level) for w in workloads}
    compare("golden cases", goldens)
    compare("perfbench --seed 7 fingerprints", prints)
    return 0


if __name__ == "__main__":
    sys.exit(main())
