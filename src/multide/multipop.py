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

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Bounds,
    DEParams,
    RunRecord,
    _spreading,
    best_records,
    evaluate_batch,
    generate_trials,
    init_population,
)
from .deflation import PenaltyParams, penalty_batch
from .errors import ConfigurationError, EvaluationError
from .rng import RngStream, _index, _real


@dataclass(frozen=True)
class MultiParams:
    """Parameter bundle for the multipopulation engines.

    ``switch_tol`` is only meaningful for the hybrid engine and must stay
    strictly above the DE spreading tolerance, otherwise the plain-DE
    refinement phase could never be entered before freezing. A row's
    foreign penalty terms sum to at most ``magnitude * (subpops - 1)``, which
    must be finite, so no engine run overflows its penalties.
    """

    de: DEParams
    penalty: Optional[PenaltyParams] = None
    subpops: int = 1
    switch_tol: Optional[float] = None

    def __post_init__(self):
        _index(self.subpops, "subpops", 1)
        foreign = self.subpops - 1
        if self.penalty is not None and not math.isfinite(self.penalty.magnitude * foreign):
            raise ConfigurationError(f"penalty magnitude {self.penalty.magnitude!r} times "
                                     f"{foreign} foreign subpopulations overflows")
        if self.switch_tol is not None and not _real(self.switch_tol, "switch_tol") > self.de.spread_tol:
            raise ConfigurationError("switch_tol must be greater than the spreading tolerance")


def selection_step(
    coords: np.ndarray,
    fitness: np.ndarray,
    trials: np.ndarray,
    own_index: int,
    anchors: Optional[np.ndarray],
    penalty: Optional[PenaltyParams],
    bounds: Bounds,
    trial_fitness: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One-to-one selection over a whole subpopulation.

    ``trial_fitness`` holds the trials' base values, with +inf for the
    trials outside ``bounds``: those lose without ever being evaluated,
    even to a parent whose penalized score overflows to +inf.
    The comparison is made on base + repulsion penalty when ``anchors`` (an
    (nsp, d) array, see :func:`penalty_batch`) is given, with parents
    reusing their cached base fitness, and on the base values otherwise.
    Ties go to the trial. Returns new coordinates and base-fitness arrays;
    the inputs are left untouched. ``trials`` must have the (n, d) shape of
    ``coords``, and ``fitness`` and ``trial_fitness`` must be (n,): other
    shapes are refused, not broadcast. ``bounds`` is not read, since
    ``trial_fitness`` already marks the trials outside it; it stays only
    because perfbench's ``--trace 1`` tracer reads it as ``args[6]``.
    """
    if anchors is not None and penalty is None:
        raise ConfigurationError("penalized selection needs penalty parameters")
    rows = coords.shape[:1]
    if (coords.ndim != 2 or trials.shape != coords.shape
            or fitness.shape != rows or trial_fitness.shape != rows):
        raise ConfigurationError(
            f"selection needs (n, d) coords and trials and (n,) fitness and trial fitness, got "
            f"{coords.shape}, {trials.shape}, {fitness.shape} and {trial_fitness.shape}")
    if anchors is None:
        wins = trial_fitness <= fitness
    else:
        # Penalty rows are independent, so one call scores trials and parents.
        pen = penalty_batch(np.concatenate((trials, coords)), own_index, anchors, penalty)
        m = len(trials)
        wins = trial_fitness + pen[:m] <= fitness + pen[m:]
        # A parent's penalized score can overflow to +inf; a trial outside
        # the bounds (+inf, the only non-finite value the engine passes)
        # must lose all the same, not tie.
        wins &= np.isfinite(trial_fitness)
    return np.where(wins[:, None], trials, coords), np.where(wins, trial_fitness, fitness)


def _run_engine(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    seed: int,
    algorithm: str,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Shared generation loop for the three engines.

    Each generation steps the live subpopulations as one stack (spreading,
    trials, bounds check, evaluation), then selects per subpopulation in
    ascending order, rewriting each one's anchor row right after its
    update, so earlier improvements already repel later subpopulations.
    Selection is penalized when ``params.penalty`` is set and, if
    ``params.switch_tol`` is set too, only while the subpopulation's
    spreading is at or above it; ``algorithm`` only labels the record. A
    non-finite trial value fails the run before any selection of its
    generation: the error's ``partial_record`` holds the state after the
    previous generation, and its ``nfe`` counts every row the objective
    was handed, the failing call's included.
    ``observer(gen, pop, fit, frozen)`` is called after every generation
    with the engine's own state: ``pop`` shaped (nsp, pop_size, d),
    ``fit`` the (nsp, pop_size) base values and a new list of one frozen
    flag per subpopulation. Treat the arrays as read-only.
    """
    de, penalty, switch_tol, nsp = params.de, params.penalty, params.switch_tol, params.subpops
    nfe = 0
    t0 = time.perf_counter()
    gens = [0] * nsp
    n, dim = de.pop_size, bounds.dim
    # pop[j] is subpopulation j as one C-contiguous (pop_size, d) block.
    pop = np.empty((nsp, n, dim))
    fit = np.empty((nsp, n))
    anchors = None
    trace = [] if collect_trace else None

    def stack(array, js):  # rows js of array, without a copy when that is all of it
        return array if len(js) == nsp else array[js]

    def record(trace_array=None) -> RunRecord:
        return RunRecord(
            algorithm=algorithm,
            seed=int(seed),
            elapsed_seconds=time.perf_counter() - t0,
            nfe=nfe,
            final_bests=(best_records(np.empty((0, dim)), ()) if anchors is None
                         else best_records(anchors, fit.min(axis=1))),
            generations_used=list(gens),
            trace=trace_array,
        )

    try:
        streams = RngStream(seed).split(nsp)
        for j in range(nsp):
            pop[j] = init_population(bounds, n, streams[j])
            nfe += n
            fit[j] = evaluate_batch(objective, pop[j])
        sources = [stream.trials(n, dim, de.CR) for stream in streams]
        # anchors[j] is a copy of subpopulation j's best row (ties go to the
        # lowest index), rewritten whenever fit[j] changes.
        anchors = pop[np.arange(nsp), fit.argmin(axis=1)]
        live = list(range(nsp))  # the subpopulations not frozen yet

        for gen in range(1, de.max_generations + 1):
            if not live:
                break
            spreads = _spreading(stack(pop, live), stack(anchors, live), bounds).tolist()
            steps = [j for j, spread in zip(live, spreads) if spread >= de.spread_tol]
            if steps:
                trials = generate_trials(stack(pop, steps), de.F, [sources[j] for j in steps])
                flat = trials.reshape(-1, dim)
                rows = bounds.contains_all(flat).nonzero()[0]
                nfe += len(rows)
                if len(rows) == len(flat):
                    values = evaluate_batch(objective, flat)
                else:
                    values = np.full(len(flat), np.inf)  # out-of-bounds trials lose
                    if len(rows):
                        values[rows] = evaluate_batch(objective, flat[rows])
                stepped = zip(trials, values.reshape(-1, n))
            for j, spread in zip(live, spreads):
                if spread >= de.spread_tol:
                    penalized = penalty is not None and (switch_tol is None or spread >= switch_tol)
                    coords, values_j = next(stepped)
                    pop[j], fit[j] = selection_step(
                        pop[j], fit[j], coords, j,
                        anchors if penalized else None, penalty, bounds, values_j,
                    )
                    anchors[j] = pop[j, fit[j].argmin()]
                    gens[j] += 1
                if collect_trace:
                    best_f = float(fit[j].min())  # the anchor's own fitness
                    trace.append((gen, j, *anchors[j].tolist(), best_f, spread))
            live = steps
            if observer is not None:
                observer(gen, pop, fit, [j not in live for j in range(nsp)])

        return record(None if trace is None else np.array(trace).reshape(-1, bounds.dim + 4))
    except EvaluationError as err:
        err.partial_record = record()
        raise


def run_de(
    objective: Callable,
    bounds: Bounds,
    params: DEParams,
    seed: int,
    *,
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Run canonical DE/rand/1/bin until convergence or the generation cap.

    The run halts when the whole-population spreading measure drops below
    ``params.spread_tol`` or after ``params.max_generations`` generations.
    The record is fully determined by (seed, params, objective).
    """
    return _run_engine(objective, bounds, MultiParams(de=params), seed, "de",
                       collect_trace=collect_trace, observer=observer)


def run_mde_itmf(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    seed: int,
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
    return _run_engine(objective, bounds, params, seed, "mde-itmf",
                       collect_trace=collect_trace, observer=observer)


def run_dewi(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    seed: int,
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
    return _run_engine(objective, bounds, params, seed, "dewi",
                       collect_trace=collect_trace, observer=observer)
