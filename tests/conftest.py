"""Shared test helpers: scripted RNG, evaluation counters, minimizer oracle, hypothesis settings."""

import os

import numpy as np
from hypothesis import settings

from multide.core import evaluate_batch

# MULTIDE_HYPOTHESIS=slow runs the property tests that take their settings
# from ``examples`` with the slow profile's example count instead.
settings.register_profile("slow", max_examples=2000, deadline=None)
SLOW = os.environ.get("MULTIDE_HYPOTHESIS") == "slow"
if SLOW:
    settings.load_profile("slow")


def examples(count):
    """Settings for a property test: ``count`` examples, or the slow profile's."""
    return settings(deadline=None) if SLOW else settings(max_examples=count, deadline=None)


class FakeRng:
    """Scripted stand-in for RngStream that replays queued draws."""

    def __init__(self, uniforms=None, generations=None):
        self._uniforms = list(uniforms or [])
        self._generations = list(generations or [])

    def uniform(self, size=None):
        value = np.asarray(self._uniforms.pop(0), dtype=float)
        return float(value) if size is None else value.reshape(size)

    def trial_draws(self, n, d):
        """The next queued (donors, forced, uniforms) generation: a script holds no redraws."""
        donors, forced, uniforms = self._generations.pop(0)
        return (np.ravel(donors).tolist(), np.asarray(forced).reshape(n),
                np.asarray(uniforms, dtype=float).reshape(n, d))


def trial_values(trials, bounds, objective):
    """What the engine hands ``selection_step``: in-bounds trials' base values, +inf elsewhere."""
    trials = np.asarray(trials, dtype=float)
    inside = bounds.contains_all(trials)
    values = np.full(len(trials), np.inf)
    if inside.any():
        values[inside] = evaluate_batch(objective, trials[inside])
    return values


class CountingObjective:
    """Wraps an objective and counts base evaluations, batch-aware."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.fn(x)

    def batch(self, pts):
        self.count += len(pts)
        inner = getattr(self.fn, "batch", None)
        if inner is not None:
            return inner(pts)
        return np.array([self.fn(p) for p in pts])


def sphere(p):
    return float(p[0] * p[0] + p[1] * p[1])


_ORACLE = {}


def grid_polish_minimizers(problem):
    """Locate a problem's global minimizers independently of the registry.

    Dense grid scan over the domain, local descent (Nelder-Mead) from the
    lowest cells, then distance-clustering of the polished points that
    reach the global level. Returns a read-only (n, 2) array of
    representatives, computed once per problem id and session.
    """
    if problem.pid not in _ORACLE:
        found = _grid_polish(problem)
        found.flags.writeable = False
        _ORACLE[problem.pid] = found
    return _ORACLE[problem.pid]


def _grid_polish(problem, grid=401, starts=300, merge_radius=0.02):
    from scipy.optimize import minimize

    lo, hi = problem.bounds.lower, problem.bounds.upper
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    vals = problem.objective.batch(pts)
    order = np.argsort(vals)[:starts]
    polished = []
    for idx in order:
        res = minimize(
            problem.objective, pts[idx], method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
        )
        polished.append((np.asarray(res.x, dtype=float), float(res.fun)))
    fmin = min(f for _, f in polished)
    gate = fmin + 1e-6 * max(1.0, abs(fmin))
    clusters = []
    for x, f in polished:
        if f > gate:
            continue
        for c in clusters:
            if np.linalg.norm(x - c) <= merge_radius:
                break
        else:
            clusters.append(x)
    return np.array(clusters)


def compass_minimal(problem, minimizer, step=1e-4):
    """True when the objective increases in all 8 compass directions."""
    m = np.asarray(minimizer, dtype=float)
    f0 = problem.objective(m)
    for dx in (-step, 0.0, step):
        for dy in (-step, 0.0, step):
            if dx == 0.0 and dy == 0.0:
                continue
            if problem.objective(m + np.array([dx, dy])) <= f0:
                return False
    return True
