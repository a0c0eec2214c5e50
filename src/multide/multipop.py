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
from dataclasses import dataclass, replace
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
)
from .deflation import AnchorSet, PenaltyParams, penalty_batch
from .errors import ConfigurationError, EvaluationError
from .rng import as_stream


@dataclass
class PopulationTensor:
    """All subpopulations in one array, laid out (dim, pop_size, n_subpops).

    ``fitness`` caches the base objective value of every individual
    (penalties are never cached here, because the anchors they depend on
    move every generation). The engines keep their population
    subpopulation-major and hand observers a tensor of transposed views,
    so it always shows the live state.
    """

    data: np.ndarray
    fitness: np.ndarray
    generation: int = 0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.fitness = np.asarray(self.fitness, dtype=float)
        if self.data.ndim != 3:
            raise ConfigurationError("population tensor must be 3-D (dim, pop, subpops)")
        if self.fitness.shape != self.data.shape[1:]:
            raise ConfigurationError("fitness array must be shaped (pop, subpops)")

    @property
    def n_subpops(self) -> int:
        return self.data.shape[2]

    @property
    def pop_size(self) -> int:
        return self.data.shape[1]

    def subpop(self, j: int) -> np.ndarray:
        """Coordinates of subpopulation ``j`` as an (pop_size, dim) array."""
        return self.data[:, :, j].T

    def best_index(self, j: int) -> int:
        """Index of the base-fitness argmin in subpopulation j; lowest index wins ties."""
        return int(np.argmin(self.fitness[:, j]))


@dataclass
class SubpopState:
    """Per-subpopulation engine state.

    Once ``frozen`` (spreading fell below the tolerance) the subpopulation
    is never mutated again for the rest of the run. ``deflation_active``
    is always true under the penalized engine; under the hybrid it simply
    mirrors whether the last spreading was still at or above the switch
    tolerance.
    """

    frozen: bool = False
    deflation_active: bool = True
    last_spreading: Optional[float] = None


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
        if self.subpops < 1:
            raise ConfigurationError("subpops must be >= 1")
        if self.switch_tol is not None and self.switch_tol <= self.de.spread_tol:
            raise ConfigurationError("switch_tol must be greater than the spreading tolerance")


def best_of_subpop(tensor: PopulationTensor, j: int) -> Point:
    """Best member of subpopulation ``j`` by the cached base fitness."""
    i = tensor.best_index(j)
    return Point(tensor.data[:, i, j].copy(), float(tensor.fitness[i, j]))


def subpop_spreading(tensor: PopulationTensor, j: int, bounds: Bounds) -> float:
    """Spreading of subpopulation ``j`` around its own best member."""
    best = tensor.data[:, tensor.best_index(j), j]
    return _spreading(tensor.subpop(j), best, bounds)


def snapshot_anchors(tensor: PopulationTensor) -> AnchorSet:
    """Anchor matrix with every subpopulation's current best as a column."""
    idx = [tensor.best_index(j) for j in range(tensor.n_subpops)]
    return AnchorSet(tensor.data[:, idx, range(tensor.n_subpops)].copy())


def selection_step(
    coords: np.ndarray,
    fitness: np.ndarray,
    trials: np.ndarray,
    own_index: int,
    anchors: Optional[AnchorSet],
    penalty: Optional[PenaltyParams],
    bounds: Bounds,
    use_penalty: bool,
    objective,
) -> tuple[np.ndarray, np.ndarray]:
    """One-to-one selection over a whole subpopulation.

    Out-of-bounds trials lose without being evaluated. In-bounds trials
    are evaluated once on the base objective; the comparison is made on
    base + repulsion penalty when ``use_penalty`` is set (parents reuse
    their cached base fitness) and on the base values otherwise. Ties go
    to the trial. Returns new coordinates and base-fitness arrays; the
    inputs are left untouched.
    """
    if use_penalty and (anchors is None or penalty is None):
        raise ConfigurationError("penalized selection needs anchors and penalty parameters")
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
    if use_penalty:
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


def _partial_record(algorithm, seed, t0, counter, gens, tensor):
    bests = []
    if tensor is not None:
        bests = [best_of_subpop(tensor, j) for j in range(tensor.n_subpops)]
    return RunRecord(
        algorithm=algorithm,
        seed=seed,
        elapsed_seconds=time.perf_counter() - t0,
        nfe=counter.count,
        final_bests=bests,
        generations_used=list(gens),
    )


def _run_engine(
    objective: Callable,
    bounds: Bounds,
    de: DEParams,
    nsp: int,
    penalty: Optional[PenaltyParams],
    switch_tol: Optional[float],
    rng,
    algorithm: str,
    anchor_mode: str = "sequential",
    collect_trace: bool = False,
    observer=None,
) -> RunRecord:
    """Shared generation loop for the three engines.

    Subpopulations are updated in ascending order. In the default
    ``sequential`` anchor mode each subpopulation's anchor column is
    rewritten right after its update, so improvements made earlier in the
    same generation already repel later subpopulations; ``synchronous``
    mode copies the anchors once per generation, which is the
    deterministic semantics a per-subpopulation parallel update would
    need. ``observer(gen, tensor, states)`` is called after every
    generation for instrumentation; treat its arguments as read-only.
    """
    if anchor_mode not in ("sequential", "synchronous"):
        raise ConfigurationError("anchor_mode must be 'sequential' or 'synchronous'")
    stream = as_stream(rng)
    counter = _CountingObjective(objective)
    t0 = time.perf_counter()
    gens = [0] * nsp
    tensor = None  # set once every subpopulation is initialized
    try:
        streams = stream.split(nsp)
        # pop[j] is subpopulation j as one C-contiguous (pop_size, dim)
        # block; the tensor observers see is a transposed view of pop/fit.
        pop = np.empty((nsp, de.pop_size, bounds.dim))
        fit = np.empty((nsp, de.pop_size))
        for j in range(nsp):
            pop[j] = init_population(bounds, de.pop_size, streams[j])
            fit[j] = evaluate_batch(counter, pop[j])
        tensor = PopulationTensor(pop.transpose(2, 1, 0), fit.T, generation=0)
        # best[j] is the argmin of fit[j], refreshed whenever fit[j] changes;
        # anchor column j is pop[j, best[j]], rewritten at the same time.
        best = [int(fit[j].argmin()) for j in range(nsp)]
        anchors = snapshot_anchors(tensor)
        states = [SubpopState(deflation_active=(algorithm == "mde-itmf")) for _ in range(nsp)]
        trace = [] if collect_trace else None

        for gen in range(1, de.max_generations + 1):
            if all(st.frozen for st in states):
                break
            tensor.generation = gen
            step_anchors = AnchorSet(anchors.matrix) if anchor_mode == "synchronous" else anchors
            for j in range(nsp):
                st = states[j]
                if st.frozen:
                    continue
                coords = pop[j]
                spread = _spreading(coords, coords[best[j]], bounds)
                st.last_spreading = spread
                if spread < de.spread_tol:
                    st.frozen = True
                    st.deflation_active = False
                    if collect_trace:
                        b = best[j]
                        trace.append((gen, j, *coords[b].tolist(), float(fit[j, b]), spread))
                    continue
                if algorithm == "de":
                    use_penalty = False
                elif algorithm == "mde-itmf":
                    use_penalty = True
                else:
                    use_penalty = spread >= switch_tol
                st.deflation_active = use_penalty
                trials = generate_trials(coords, de.F, de.CR, streams[j])
                new_coords, new_fitness = selection_step(
                    coords, fit[j], trials, j,
                    step_anchors if use_penalty else None, penalty, bounds, use_penalty, counter,
                )
                pop[j] = new_coords
                fit[j] = new_fitness
                b = best[j] = int(new_fitness.argmin())
                anchors.matrix[:, j] = new_coords[b]
                gens[j] += 1
                if collect_trace:
                    trace.append((gen, j, *new_coords[b].tolist(), float(new_fitness[b]), spread))
            if observer is not None:
                observer(gen, tensor, states)

        return RunRecord(
            algorithm=algorithm,
            seed=stream.seed,
            elapsed_seconds=time.perf_counter() - t0,
            nfe=counter.count,
            final_bests=[best_of_subpop(tensor, j) for j in range(nsp)],
            generations_used=gens,
            trace=None if trace is None else np.array(trace).reshape(-1, bounds.dim + 4),
        )
    except EvaluationError as err:
        err.partial_record = _partial_record(algorithm, stream.seed, t0, counter, gens, tensor)
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
    return _run_engine(
        objective, bounds, params, 1, None, None, rng, "de",
        collect_trace=collect_trace, observer=observer,
    )


def run_mde_itmf(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    rng,
    *,
    anchor_mode: str = "sequential",
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
    return _run_engine(
        objective, bounds, params.de, params.subpops, params.penalty, None,
        rng, "mde-itmf", anchor_mode=anchor_mode,
        collect_trace=collect_trace, observer=observer,
    )


def run_dewi(
    objective: Callable,
    bounds: Bounds,
    params: MultiParams,
    rng,
    *,
    anchor_mode: str = "sequential",
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
    return _run_engine(
        objective, bounds, params.de, params.subpops, params.penalty, params.switch_tol,
        rng, "dewi", anchor_mode=anchor_mode,
        collect_trace=collect_trace, observer=observer,
    )


def without_switch_tol(params: MultiParams) -> MultiParams:
    """Copy of ``params`` with the hybrid switch tolerance removed."""
    return replace(params, switch_tol=None)
