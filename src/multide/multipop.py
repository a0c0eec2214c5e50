"""DE engines: canonical DE, penalized co-evolution and its toggled hybrid.

``run_de`` is canonical single-population DE/rand/1/bin. ``run_mde_itmf``
evolves several DE subpopulations at once, each selecting against the
objective penalized around every other subpopulation's current best, so
the subpopulations repel each other into distinct global minima.
``run_dewi`` uses the same machinery as an initializer: once a
subpopulation has contracted below a switch tolerance it falls back to
plain DE selection to refine its minimum undisturbed. All three engines
share one generation loop, so with one subpopulation the multipopulation
engines reproduce ``run_de`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Bounds,
    DEParams,
    Point,
    RunRecord,
    _spreading,
    evaluate_batch,
    generate_trials,
    init_population,
    is_count,
)
from .deflation import PenaltyParams, penalty_batch
from .errors import ConfigurationError, EvaluationError
from .rng import RngStream


@dataclass(frozen=True)
class MultiParams:
    """Parameter bundle for the multipopulation engines.

    ``switch_tol`` is only meaningful for the hybrid engine and must stay
    strictly above the DE spreading tolerance, otherwise the plain-DE
    refinement phase could never be entered before freezing.
    """

    de: DEParams
    penalty: Optional[PenaltyParams] = None
    subpops: int = 1
    switch_tol: Optional[float] = None

    def __post_init__(self):
        if not is_count(self.subpops) or self.subpops < 1:
            raise ConfigurationError("subpops must be an integer >= 1")
        if self.switch_tol is not None and not self.switch_tol > self.de.spread_tol:
            raise ConfigurationError("switch_tol must be greater than the spreading tolerance")


def selection_step(
    coords: np.ndarray,
    fitness: np.ndarray,
    trials: np.ndarray,
    own_index: int,
    anchors: Optional[np.ndarray],
    penalty: Optional[PenaltyParams],
    bounds: Bounds,
    objective,
) -> tuple[np.ndarray, np.ndarray]:
    """One-to-one selection over a whole subpopulation.

    Out-of-bounds trials lose without being evaluated. In-bounds trials
    are evaluated once on the base objective; the comparison is made on
    base + repulsion penalty when ``anchors`` (an (nsp, d) array, see
    :func:`penalty_batch`) is given, with parents reusing their cached base
    fitness, and on the base values otherwise. Ties go to the trial.
    Returns new coordinates and base-fitness arrays; the inputs are left
    untouched.
    """
    if anchors is not None and penalty is None:
        raise ConfigurationError("penalized selection needs penalty parameters")
    feasible = bounds.contains_all(trials)
    n_feasible = np.count_nonzero(feasible)
    if n_feasible == len(feasible):
        rows = None
        cand, parents, parent_fit = trials, coords, fitness
    elif n_feasible:
        rows = feasible.nonzero()[0]
        cand, parents, parent_fit = trials[rows], coords[rows], fitness[rows]
    else:
        return coords.copy(), fitness.copy()
    cand_fit = evaluate_batch(objective, cand)
    cand_score, parent_score = cand_fit, parent_fit
    if anchors is not None:
        # Penalty rows are independent, so one call scores trials and parents.
        pen = penalty_batch(np.concatenate((cand, parents)), own_index, anchors, penalty)
        m = len(cand)
        cand_score = cand_fit + pen[:m]
        parent_score = parent_fit + pen[m:]
    wins = cand_score <= parent_score
    if rows is None:
        return np.where(wins[:, None], cand, coords), np.where(wins, cand_fit, fitness)
    new_coords, new_fitness = coords.copy(), fitness.copy()
    rows = rows[wins]
    new_coords[rows] = cand[wins]
    new_fitness[rows] = cand_fit[wins]
    return new_coords, new_fitness


class _CountingObjective:
    """Wraps an objective and counts every base evaluation.

    ``batch`` returns the raw values; the engine reads them through
    :func:`evaluate_batch`, which checks them once.
    """

    def __init__(self, fn):
        self._fn = fn
        self._batch = getattr(fn, "batch", None)
        self.count = 0

    def batch(self, pts):
        self.count += len(pts)
        if self._batch is not None:
            return self._batch(pts)
        return [self._fn(p) for p in pts]


def _run_engine(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    rng,
    algorithm: str,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Shared generation loop for the three engines.

    Subpopulations are updated in ascending order, and each one's anchor
    row is rewritten right after its update, so improvements made
    earlier in the same generation already repel later subpopulations.
    Selection is penalized when ``params.penalty`` is set and, if
    ``params.switch_tol`` is set too, only while the subpopulation's
    spreading is at or above it; ``algorithm`` only labels the record.
    ``observer(gen, pop, fit, frozen)`` is called after every generation
    with the engine's own state: ``pop`` shaped (nsp, pop_size, d), ``fit``
    the (nsp, pop_size) base values and one frozen flag per
    subpopulation. Treat them as read-only.
    """
    de, penalty, switch_tol, nsp = params.de, params.penalty, params.switch_tol, params.subpops
    stream = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    counter = _CountingObjective(objective)
    t0 = time.perf_counter()
    gens = [0] * nsp
    # pop[j] is subpopulation j as one C-contiguous (pop_size, d) block.
    pop = np.empty((nsp, de.pop_size, bounds.dim))
    fit = np.empty((nsp, de.pop_size))
    anchors = None
    trace = [] if collect_trace else None

    def record(trace_array=None) -> RunRecord:
        return RunRecord(
            algorithm=algorithm,
            seed=stream.seed,
            elapsed_seconds=time.perf_counter() - t0,
            nfe=counter.count,
            final_bests=[] if anchors is None else list(map(Point, anchors, fit.min(axis=1))),
            generations_used=list(gens),
            trace=trace_array,
        )

    try:
        streams = stream.split(nsp)
        for j in range(nsp):
            pop[j] = init_population(bounds, de.pop_size, streams[j])
            fit[j] = evaluate_batch(counter, pop[j])
        # anchors[j] is a copy of subpopulation j's best row (ties go to the
        # lowest index), rewritten whenever fit[j] changes.
        anchors = pop[np.arange(nsp), fit.argmin(axis=1)]
        frozen = [False] * nsp

        for gen in range(1, de.max_generations + 1):
            if all(frozen):
                break
            for j in range(nsp):
                if frozen[j]:
                    continue
                coords, fitness = pop[j], fit[j]  # views: writing them updates pop and fit
                spread = _spreading(coords, anchors[j], bounds)
                if spread < de.spread_tol:
                    frozen[j] = True
                else:
                    penalized = penalty is not None and (switch_tol is None or spread >= switch_tol)
                    trials = generate_trials(coords, de.F, de.CR, streams[j])
                    coords[:], fitness[:] = selection_step(
                        coords, fitness, trials, j,
                        anchors if penalized else None, penalty, bounds, counter,
                    )
                    anchors[j] = coords[fitness.argmin()]
                    gens[j] += 1
                if collect_trace:
                    best_f = float(fitness[fitness.argmin()])  # the anchor's own fitness
                    trace.append((gen, j, *anchors[j].tolist(), best_f, spread))
            if observer is not None:
                observer(gen, pop, fit, frozen)

        return record(None if trace is None else np.array(trace).reshape(-1, bounds.dim + 4))
    except EvaluationError as err:
        err.partial_record = record()
        raise


def run_de(
    objective: Callable,
    bounds: Bounds,
    params: DEParams,
    rng,
    *,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Run canonical DE/rand/1/bin until convergence or the generation cap.

    The run halts when the whole-population spreading measure drops below
    ``params.spread_tol`` or after ``params.max_generations`` generations.
    ``rng`` may be an :class:`RngStream` or an int seed; the record is fully
    determined by (seed, params, objective).
    """
    return _run_engine(objective, bounds, MultiParams(de=params), rng, "de",
                       collect_trace=collect_trace, observer=observer)


def run_mde_itmf(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    rng,
    *,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Penalized multipopulation DE: every subpopulation, every generation.

    Each non-frozen subpopulation computes its spreading, freezes when it
    falls below the tolerance, and otherwise evolves one generation with
    penalized selection against the other subpopulations' current bests.
    The run ends at the generation cap or when every subpopulation is
    frozen; the record carries one final best per subpopulation and the
    count of base-objective evaluations.
    """
    if params.penalty is None:
        raise ConfigurationError("run_mde_itmf needs penalty parameters")
    if params.switch_tol is not None:
        raise ConfigurationError("params carry a switch tolerance; use run_dewi for the hybrid")
    return _run_engine(objective, bounds, params, rng, "mde-itmf",
                       collect_trace=collect_trace, observer=observer)


def run_dewi(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    rng,
    *,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Hybrid engine: penalized exploration, then plain DE refinement.

    Per subpopulation and generation: spreading at or above ``switch_tol``
    keeps penalized selection active; between the spreading tolerance and
    ``switch_tol`` selection drops to the plain base objective; below the
    spreading tolerance the subpopulation freezes. The switch is
    re-derived every generation, so a subpopulation that disperses again
    resumes penalized selection.
    """
    if params.penalty is None:
        raise ConfigurationError("run_dewi needs penalty parameters")
    if params.switch_tol is None:
        raise ConfigurationError("run_dewi needs a switch tolerance (see MultiParams.switch_tol)")
    return _run_engine(objective, bounds, params, rng, "dewi",
                       collect_trace=collect_trace, observer=observer)
