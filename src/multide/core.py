"""Building blocks of DE/rand/1/bin on box-bounded domains.

Bounds, parameters and run records (a run's final bests are one record
array), plus the operators every engine runs on whole (sub)populations at
once: uniform initialization, checked batch evaluation, trial generation
(mutation and binomial crossover) and the population spreading measure;
also the squared distances that the penalty and minimizer matching share.
The engines themselves, canonical ``run_de`` included, live in
:mod:`multide.multipop`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .rng import RngStream, _index, _real

# Below this normalized magnitude the spreading denominator is treated as
# degenerate and the measure falls back to mean distance / domain diagonal.
DEGENERATE_NORM = 1e-12


def as_rows(pts, dim: int) -> np.ndarray:
    """``pts`` as a float (n, ``dim``) array; any other shape raises :class:`ConfigurationError`."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[1:] != (dim,):
        raise ConfigurationError(f"points must be (n, {dim}) rows, got shape {pts.shape}")
    return pts


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
        # hypot scales its terms, so a diagonal the float range holds never overflows
        object.__setattr__(self, "diagonal", math.hypot(*self.span))
        if self.diagonal == math.inf:  # as it is for an infinite limit or side length
            raise ConfigurationError("bounds must be finite, with a finite diagonal")
        for limits in (self.lower, self.upper, self.span):
            limits.flags.writeable = False  # frozen all the way down

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x) -> bool:
        return bool(self.contains_all(np.asarray(x, dtype=float)[None])[0])

    def contains_all(self, pts: np.ndarray) -> np.ndarray:
        """Row-wise containment mask for an (n, d) array of points."""
        pts = as_rows(pts, self.dim)
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
        _index(self.pop_size, "pop_size", 4)  # mutation needs three donors besides the row
        _real(self.F, "F", 0, 1)
        _real(self.CR, "CR", 0, 1)
        _index(self.max_generations, "max_generations", 1)
        _real(self.spread_tol, "spread_tol", 0, np.inf, closed=False)


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
    :class:`ConfigurationError` unless ``pts`` is 2-D and there is exactly
    one value per row, so a single point is never evaluated coordinate by
    coordinate and a wrongly shaped ``batch`` is never broadcast into the
    fitness, and
    :class:`EvaluationError` carrying the first offending point if any
    value comes back NaN or infinite.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ConfigurationError(f"points must be (n, d) rows, got shape {pts.shape}")
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
    _index(count, "population count", 1)
    h = rng.uniform(count * bounds.dim).reshape(count, bounds.dim)
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
    with np.errstate(over="ignore"):  # a distance past the float range reads inf
        dist = np.sqrt(np.add.reduce(diff[degenerate] ** 2, axis=1))
        out[degenerate] = np.add.reduce(dist, axis=1) / n / bounds.diagonal
    return out


def _squared_distances(refs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The (k, n) squared distances of every row of ``refs`` (k, d) to every row of ``pts`` (n, d).

    Below 8 dimensions the squares are added one by one, as numpy adds
    fewer than 8 terms; from 8 up in numpy's pairwise order over each
    distance's contiguous run of d squares. So the result has the bits of
    ``((refs[:, None] - pts) ** 2).sum(axis=2)`` on any memory layout. A
    square or sum past the float range reads inf and ``inf - inf`` reads
    NaN, without numpy's warnings, for callers to ignore or refuse.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if refs.shape[1] < 8:  # the (k, d, n) layout of ``_spreading``, reduced over d
            diff = np.subtract(refs[:, :, None], pts.T, order="C")
            diff *= diff
            return np.add.reduce(diff, axis=1)
        diff = np.subtract(refs[:, None, :], pts, order="C")  # (k, n, d)
        diff *= diff
        return np.add.reduce(diff, axis=2)


def generate_trials(pops: np.ndarray, F: float, sources) -> np.ndarray:
    """Mutation + crossover for a (k, n, d) stack of populations at once.

    ``sources`` holds one :meth:`RngStream.trials` iterator per population,
    made for its ``(n, d)``; the result holds one trial vector per row. Each
    call takes the next generation of every source, which fixes its
    stream's draw order: donor index triples (colliding rows redrawn round
    by round), then the forced crossover indices, then one uniform per
    coordinate. Sources made for another ``(n, d)`` raise :class:`ConfigurationError`.
    """
    k, n, d = pops.shape
    flat = pops.reshape(k * n, d)
    if k == 1:
        r, take = next(sources[0])
    else:
        rows, masks = zip(*[next(source) for source in sources])
        take = np.concatenate(masks)
    if take.shape != flat.shape:
        raise ConfigurationError(f"trial masks {take.shape} for population rows {flat.shape}")
    if k > 1:  # donor rows in ``flat``: population j's rows start at j * n
        r = np.concatenate(rows, axis=1) + np.arange(0, k * n, n).repeat(n)
    x = flat.take(r, axis=0)  # (3, k n, d)
    donors = x[0] + F * (x[1] - x[2])
    return np.where(take, donors, flat).reshape(k, n, d)
