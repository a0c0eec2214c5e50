"""Per-layer tracing: wrappers rebound around the layers from outside.

``Tracer.install`` rebinds the layer functions ``multide.multipop`` calls,
the ``RngStream`` draw methods, the objectives handed to the engines and
the engine, scoring and output calls of ``workloads``. Each wrapped call
records a span (name, start, end, parent span, engine run id) in memory,
plus counts derived from the call's inputs and outputs. ``uninstall``
puts every original back.

A span's self time is its duration minus the wrapper-inclusive time of its
children, so the wrappers' own bookkeeping is charged to no layer; it shows
up only in the traced pass's wall time (``trace.overhead_ratio``).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import multide.multipop
from multide import RngStream

import workloads

# Span name -> function name rebound in multide.multipop. generate_trials
# and evaluate_batch live in core and penalty_batch in deflation; they are
# named after their home module but wrapped where the engine looks them up.
ENGINE_LAYERS = {
    "core.generate_trials": "generate_trials",
    "core.evaluate_batch": "evaluate_batch",
    "deflation.penalty_batch": "penalty_batch",
    "multipop.snapshot_anchors": "snapshot_anchors",
    "multipop.selection_step": "selection_step",
    "multipop.subpop_spreading": "subpop_spreading",
}

# Span name -> function name rebound in the benchmark's own workloads module.
BENCH_LAYERS = {
    "multipop.run": ("run_de", "run_mde_itmf", "run_dewi"),
    "metrics.match_minimizers": ("match_minimizers",),
    "metrics.group_de_runs": ("group_de_runs",),
    "metrics.aggregate": ("aggregate",),
    "harness.emit_outputs": ("emit_outputs",),
}

RNG_METHODS = ("uniform", "integers")

# Donor indices and forced crossover indices: integer draws every
# generate_trials call makes before any rejection redraw.
BASE_INTEGER_DRAWS = 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("i")       # name id
        self.parent = array("i")    # index of the enclosing span, -1 at top
        self.run = array("i")       # engine run id, -1 outside engine runs
        self.start = array("d")
        self.end = array("d")
        self.outer = array("d")     # time from wrapper entry to wrapper exit
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._run_id = -1
        self._next_run = 0
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None, new_run=False):
        """Return ``fn`` wrapped in a span; ``observe(args, result)`` counts."""
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            idx = len(self.sid)
            if new_run:
                self._run_id, self._next_run = self._next_run, self._next_run + 1
            self.sid.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self._run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.outer.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if new_run:
                    self._run_id = -1
                self.start[idx] = start
                self.end[idx] = end
                self.outer[idx] = end - enter
            if observe is not None:
                observe(args, result)
            self.outer[idx] = time.perf_counter() - enter
            return result

        return traced

    def mask(self, name: str) -> np.ndarray:
        """Boolean mask over all spans selecting those named ``name``."""
        sid = np.frombuffer(self.sid, dtype=np.int32)
        return sid == self._ids.get(name, -1)

    def current(self) -> str | None:
        top = self._stack[-1]
        return None if top < 0 else self.names[self.sid[top]]

    def _rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, inputs) -> list[str]:
        """Wrap every layer; return the names of layers that were not found."""
        missing = []
        observers = {
            "deflation.penalty_batch": self._observe_penalty,
            "multipop.selection_step": self._observe_selection,
        }
        for name, attr in ENGINE_LAYERS.items():
            fn = getattr(multide.multipop, attr, None)
            if fn is None:
                missing.append(name)
                continue
            self._rebind(multide.multipop, attr, self.wrap(name, fn, observers.get(name)))
        for name, attrs in BENCH_LAYERS.items():
            for attr in attrs:
                self._rebind(workloads, attr,
                             self.wrap(name, getattr(workloads, attr), new_run=name == "multipop.run"))
        for method in RNG_METHODS:
            self._rebind(RngStream, method, self._counting_draw(getattr(RngStream, method), method))
        traced = {}
        for cell in inputs.cells:
            key = id(cell.objective)
            if key not in traced:
                traced[key] = self._traced_objective(cell.objective)
            self._rebind(cell, "objective", traced[key])
        return missing

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting_draw(self, method, kind):
        counts = self.counts

        def draw(stream, *args, **kwargs):
            counts["rng.draw_calls"] += 1
            if kind == "integers" and self.current() == "core.generate_trials":
                counts["core.generate_trials.integer_draws"] += 1
            return method(stream, *args, **kwargs)

        return draw

    def _observe_penalty(self, args, result):
        if not np.any(result):
            self.counts["deflation.penalty_batch.zero_calls"] += 1

    def _observe_selection(self, args, result):
        coords, trials, bounds = args[0], args[2], args[6]
        self.counts["multipop.trials"] += len(trials)
        self.counts["multipop.oob_trials"] += int(np.count_nonzero(~bounds.contains_all(trials)))
        self.counts["multipop.accepted_trials"] += int(
            np.count_nonzero(np.any(result[0] != coords, axis=1))
        )

    def _traced_objective(self, objective):
        counts = self.counts

        def one_row(args, result):
            counts["benchmarks.objective.rows"] += 1

        def rows(args, result):
            counts["benchmarks.objective.rows"] += len(args[0])

        call = self.wrap("benchmarks.objective", objective, one_row)
        if getattr(objective, "batch", None) is None:
            return call
        return _BatchObjective(call, self.wrap("benchmarks.objective", objective.batch, rows))

    # -- derived figures --------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(duration, self time) of every span."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        outer = np.frombuffer(self.outer)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=outer[child], minlength=len(parent))
        return dur, dur - covered

    def save(self, path: Path):
        """Write every span, as numpy arrays, to ``path`` (an .npz file)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.sid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class _BatchObjective:
    """A traced objective that keeps the ``batch`` method of the original."""

    def __init__(self, call, batch):
        self._call = call
        self.batch = batch

    def __call__(self, x):
        return self._call(x)


def layer_metrics(tracer: Tracer, result, untraced_wall: float) -> dict:
    """Per-layer figures of one traced pass, as ``{name: (value, unit)}``."""
    dur, self_t = tracer.self_times()
    traced_wall = result.wall_s
    c = tracer.counts

    def calls(name):
        return int(np.count_nonzero(tracer.mask(name)))

    def self_s(name):
        return float(self_t[tracer.mask(name)].sum())

    def dur_s(name):
        return float(dur[tracer.mask(name)].sum())

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("core.generate_trials", "deflation.penalty_batch"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.us_per_call"] = (per(self_s(name) * 1e6, calls(name)), "us")
    gt_calls = calls("core.generate_trials")
    m["core.generate_trials.redraw_rounds"] = (
        per(c["core.generate_trials.integer_draws"] - BASE_INTEGER_DRAWS * gt_calls, gt_calls),
        "1/call",
    )
    m["deflation.penalty_batch.zero_ratio"] = (
        per(c["deflation.penalty_batch.zero_calls"], calls("deflation.penalty_batch")), "ratio"
    )
    for name in ("multipop.snapshot_anchors", "multipop.selection_step",
                 "multipop.subpop_spreading", "core.evaluate_batch", "benchmarks.objective"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["benchmarks.objective.rows"] = (c["benchmarks.objective.rows"], "count")
    m["multipop.loop_self_s"] = (self_s("multipop.run"), "s")
    m["multipop.subpop_gens"] = (result.subpop_gens, "count")
    m["multipop.trials"] = (c["multipop.trials"], "count")
    m["multipop.trial_accept_ratio"] = (per(c["multipop.accepted_trials"], c["multipop.trials"]),
                                        "ratio")
    m["multipop.oob_ratio"] = (per(c["multipop.oob_trials"], c["multipop.trials"]), "ratio")
    m["rng.draw_calls"] = (c["rng.draw_calls"], "count")
    m["metrics.score_s"] = (sum(dur_s(n) for n in ("metrics.match_minimizers",
                                                   "metrics.group_de_runs",
                                                   "metrics.aggregate")), "s")
    m["harness.emit_outputs_s"] = (dur_s("harness.emit_outputs"), "s")
    m["harness.output_bytes"] = (workloads.output_bytes(result), "bytes")
    deflation = self_s("deflation.penalty_batch") + self_s("multipop.snapshot_anchors")
    evaluation = self_s("core.evaluate_batch") + self_s("benchmarks.objective")
    m["deflation.share"] = (per(deflation, traced_wall), "ratio")
    m["evaluation.share"] = (per(evaluation, traced_wall), "ratio")
    m["harness.emit_outputs_share"] = (per(dur_s("harness.emit_outputs"), traced_wall), "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_ratio"] = (per(traced_wall, untraced_wall), "ratio")
    m["trace.spans"] = (len(dur), "count")
    return m
