"""Shared test helpers: scripted RNG, evaluation counters, minimizer oracle."""

import numpy as np

from multide.core import evaluate_batch


class FakeRng:
    """Scripted stand-in for RngStream that replays queued draws."""

    def __init__(self, uniforms=None, integers=None):
        self._uniforms = list(uniforms or [])
        self._integers = list(integers or [])

    def uniform(self, size=None):
        value = np.asarray(self._uniforms.pop(0), dtype=float)
        return float(value) if size is None else value.reshape(size)

    def integers(self, low, high=None, size=None):
        value = self._integers.pop(0)
        return value if size is None else np.asarray(value).reshape(size)

    def window(self, n, count):
        """The next queued integer block, flattened: a script holds no redraws."""
        return np.asarray(self._integers[0]).ravel().tolist()

    def skip(self, n, count):
        self._integers.pop(0)


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


def grid_polish_minimizers(problem, grid=401, starts=300, merge_radius=0.02):
    """Locate a problem's global minimizers independently of the registry.

    Dense grid scan over the domain, local descent (Nelder-Mead) from the
    lowest cells, then distance-clustering of the polished points that
    reach the global level. Returns an (n, 2) array of representatives.
    """
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
