"""Building blocks of DE/rand/1/bin on box-bounded domains.

Bounds, parameters and run records (a run's final bests are one record
array), plus the operators every engine runs on whole (sub)populations at
once: uniform initialization, checked batch evaluation, trial generation
(mutation and binomial crossover) and the population spreading measure.
The engines themselves, canonical ``run_de`` included, live in
:mod:`multide.multipop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .rng import RngStream, is_count

# Below this normalized magnitude the spreading denominator is treated as
# degenerate and the measure falls back to mean distance / domain diagonal.
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class Bounds:
    """Per-dimension lower/upper limits defining a hyper-parallelepiped domain."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.array(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.array(self.upper, dtype=float))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ConfigurationError("bounds must be two vectors of equal length")
        if self.lower.size == 0:
            raise ConfigurationError("bounds must have at least one dimension")
        if not np.all(self.lower < self.upper):
            raise ConfigurationError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "span", self.upper - self.lower)  # side lengths U - L
        if not np.all(np.isfinite(self.span)):
            raise ConfigurationError("bounds must be finite, with finite side lengths")
        for limits in (self.lower, self.upper, self.span):
            limits.flags.writeable = False  # frozen all the way down

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.span))

    def contains(self, x) -> bool:
        return bool(self.contains_all(np.asarray(x, dtype=float)[None])[0])

    def contains_all(self, pts: np.ndarray) -> np.ndarray:
        """Row-wise containment mask for an (n, d) array of points."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[1:] != self.lower.shape:
            raise ConfigurationError(f"points must be (n, {self.dim}) rows, got shape {pts.shape}")
        return np.logical_and.reduce((pts >= self.lower) & (pts <= self.upper), axis=1)


@dataclass(frozen=True)
class DEParams:
    """Control parameters of DE/rand/1/bin.

    ``spread_tol`` is the threshold on the population spreading measure
    below which a (sub)population is considered converged.
    """

    pop_size: int
    F: float
    CR: float
    max_generations: int = 1000
    spread_tol: float = 5e-5

    def __post_init__(self):
        if not is_count(self.pop_size) or self.pop_size < 4:
            raise ConfigurationError(
                "pop_size must be an integer >= 4 (mutation needs three distinct donors)")
        if not 0.0 <= self.F <= 1.0:
            raise ConfigurationError("F must lie in [0, 1]")
        if not 0.0 <= self.CR <= 1.0:
            raise ConfigurationError("CR must lie in [0, 1]")
        if not is_count(self.max_generations) or self.max_generations < 1:
            raise ConfigurationError("max_generations must be an integer >= 1")
        if not 0.0 < self.spread_tol < math.inf:
            raise ConfigurationError("spread_tol must be positive and finite")


@dataclass
class RunRecord:
    """Outcome of one engine execution.

    ``final_bests`` is a :func:`best_records` array with one row per
    subpopulation (one row for canonical DE): ``coords`` holds the (nsp, d)
    best points and ``fitness`` their base objective values.
    ``generations_used`` counts the evolution steps applied
    to each subpopulation. ``problem`` and ``matched_minimizers`` are filled
    by the harness once the run is matched against a benchmark registry
    entry. When tracing was requested, ``trace`` holds one row per
    subpopulation and generation as an ``(rows, d + 4)`` float array:
    generation, subpopulation, the best point's coordinates, its base
    fitness and the spreading. It is an array because a row then takes
    ``8 * (d + 4)`` bytes, about a fifth of a tuple of Python objects.
    """

    algorithm: str
    seed: int
    elapsed_seconds: float
    nfe: int
    final_bests: np.recarray
    generations_used: list[int]
    problem: Optional[str] = None
    matched_minimizers: Optional[set[int]] = None
    trace: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def ngp(self) -> Optional[int]:
        """Distinct known minimizers matched, when the run has been scored."""
        return None if self.matched_minimizers is None else len(self.matched_minimizers)


def best_records(coords, fitness) -> np.recarray:
    """Final bests as one record array: ``coords`` (k, d) and base ``fitness`` (k,).

    ``bests.coords`` and ``bests.fitness`` are the fields as whole arrays.
    ``bests[i].coords`` works too, but costs microseconds per element read.
    """
    coords, fitness = np.asarray(coords, dtype=float), np.asarray(fitness, dtype=float)
    if coords.ndim != 2 or fitness.shape != coords.shape[:1]:
        raise ConfigurationError(f"bests need (k, d) coords and (k,) fitness, "
                                 f"got {coords.shape} and {fitness.shape}")
    # Each array gets its own dtype, so renaming one's fields renames no other's. It is
    # a record dtype up front: a recarray view of a plain one would build a second.
    dtype = np.dtype((np.record, [("coords", float, coords.shape[1:]), ("fitness", float)]))
    out = np.empty(len(fitness), dtype)
    out["coords"], out["fitness"] = coords, fitness
    return out.view(np.recarray)


def evaluate_batch(objective, pts: np.ndarray) -> np.ndarray:
    """Evaluate ``objective`` on the rows of ``pts``, checking the result.

    Uses the objective's vectorized ``batch`` method when it has one,
    otherwise falls back to one call per row. Raises
    :class:`ConfigurationError` unless there is exactly one value per row,
    so a wrongly shaped ``batch`` is never broadcast into the fitness, and
    :class:`EvaluationError` carrying the first offending point if any
    value comes back NaN or infinite.
    """
    pts = np.asarray(pts, dtype=float)
    batch = getattr(objective, "batch", None)
    if batch is not None:
        values = np.asarray(batch(pts), dtype=float)
    else:
        values = np.array([objective(p) for p in pts], dtype=float)
    if values.shape != (len(pts),):
        raise ConfigurationError(
            f"objective returned values shaped {values.shape} for {len(pts)} points; "
            f"expected ({len(pts)},)"
        )
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < len(values):
        k = int(np.argmin(finite))
        raise EvaluationError(
            f"objective returned non-finite value {values[k]} at {pts[k]}",
            point=pts[k].copy(),
            value=float(values[k]),
        )
    return values


def init_population(bounds: Bounds, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` uniform random points inside ``bounds`` as a (count, d) array.

    Each coordinate is L_k + h (U_k - L_k) with a fresh uniform h per
    coordinate.
    """
    if count < 1:
        raise ConfigurationError("population count must be >= 1")
    h = rng.uniform(size=(count, bounds.dim))
    return bounds.lower + h * bounds.span


def _spreading(pops: np.ndarray, bests: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Average relative normalized distance of each (k, n, d) population's rows to its best.

    Returns one value per population of the stack; ``bests`` is (k, d).
    Distances are scaled per dimension by the domain side lengths and
    divided by the normalized magnitude of the best point. When the best
    point sits at the normalized origin (degenerate denominator), the
    unnormalized mean distance divided by the domain diagonal is used.
    """
    span, n = bounds.span, pops.shape[1]
    # One row per dimension, in C order: reducing over axis 1 then adds the
    # squared terms dimension by dimension, whatever the memory layout of
    # ``pops``. np.add.reduce is what np.sum and ndarray.mean reduce with,
    # minus their Python wrappers.
    diff = np.subtract(pops.transpose(0, 2, 1), bests[:, :, None], order="C")  # (k, d, n)
    best_rel = bests / span
    # matmul takes each row's dot product as np.dot does, bit for bit.
    denom = np.sqrt(np.matmul(best_rel[:, None, :], best_rel[:, :, None])[:, 0])  # (k, 1)
    rel = diff / span[:, None]
    numer = np.sqrt(np.add.reduce(rel * rel, axis=1))  # (k, n)
    if min(denom.ravel().tolist()) >= DEGENERATE_NORM:
        return np.add.reduce(numer / denom, axis=1) / n
    degenerate = denom[:, 0] < DEGENERATE_NORM
    denom[degenerate] = 1.0  # their spreading is replaced below
    out = np.add.reduce(numer / denom, axis=1) / n
    dist = np.sqrt(np.add.reduce(diff[degenerate] ** 2, axis=1))
    out[degenerate] = np.add.reduce(dist, axis=1) / n / bounds.diagonal
    return out


def generate_trials(pops: np.ndarray, F: float, CR: float, rngs) -> np.ndarray:
    """Mutation + crossover for a (k, n, d) stack of populations at once.

    ``rngs`` holds one stream per population; the result holds one trial
    vector per row. Each stream gives one :meth:`RngStream.trial_draws`
    call per generation, which fixes its draw order: donor index triples
    (colliding rows redrawn round by round), then the forced crossover
    indices, then one uniform per coordinate.
    """
    k, n, d = pops.shape
    triples, rnbr, uniforms = [], [], []
    for rng in rngs:
        r, forced, u = rng.trial_draws(n, d)
        triples += r
        rnbr.append(forced)
        uniforms.append(u)
    flat = pops.reshape(k * n, d)
    r = np.fromiter(triples, np.intp, 3 * k * n).reshape(k, 3 * n)
    if k > 1:  # donor rows in ``flat``: population j's rows start at j * n
        r += np.arange(0, k * n, n)[:, None]
        rnbr, uniforms = [np.concatenate(rnbr)], [np.concatenate(uniforms)]
    x = flat.take(r.reshape(k * n, 3).T, axis=0)             # (3, k n, d)
    donors = x[0] + F * (x[1] - x[2])
    take = uniforms[0] <= CR
    take[np.arange(k * n), rnbr[0]] = True
    return np.where(take, donors, flat).reshape(k, n, d)
