"""The engine's vectorized layers against reference copies of their plain form.

The references below are the straightforward formulations of
``generate_trials``, ``penalty_batch`` and ``_spreading``. The engine's
versions are tuned to make fewer numpy calls, but must return the same
bits and consume the same random draws, or seeded runs would change.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import examples
from hypothesis import given
from hypothesis import strategies as st

from multide import (
    Bounds,
    DEParams,
    MultiParams,
    PenaltyParams,
    RngStream,
    get_problem,
    init_population,
)
from multide.core import _spreading, evaluate_batch, generate_trials
from multide.deflation import penalty_batch
from multide.harness import ENGINES


def reference_generate_trials(coords, F, CR, rng):
    n, d = coords.shape
    own = np.arange(n)
    r = rng.integers(0, n, size=(n, 3))
    while True:
        bad = (
            (r[:, 0] == own) | (r[:, 1] == own) | (r[:, 2] == own)
            | (r[:, 0] == r[:, 1]) | (r[:, 0] == r[:, 2]) | (r[:, 1] == r[:, 2])
        )
        if not bad.any():
            break
        r[bad] = rng.integers(0, n, size=(int(bad.sum()), 3))
    donors = coords[r[:, 0]] + F * (coords[r[:, 1]] - coords[r[:, 2]])
    rnbr = rng.integers(0, d, size=n)
    take = rng.uniform(size=(n, d)) <= CR
    take[own, rnbr] = True
    return np.where(take, donors, coords)


def reference_penalty_batch(pts, own_index, anchors, params):
    cols = [k for k in range(len(anchors)) if k != own_index]
    if not cols:
        return np.zeros(len(pts))
    foreign = anchors[cols].T
    diff = pts[:, :, None] - foreign[None, :, :]
    delta = np.sqrt(np.sum(diff * diff, axis=1))
    active = delta <= params.radius
    return params.magnitude * np.sum(np.exp(-delta) * active, axis=1)


def reference_spreading(coords, best, bounds):
    span = bounds.span
    rel = (coords - best) / span
    numer = np.sqrt(np.sum(rel * rel, axis=1))
    best_rel = best / span
    denom = math.sqrt(float(np.dot(best_rel, best_rel)))
    if denom < 1e-12:
        dist = np.sqrt(np.sum((coords - best) ** 2, axis=1))
        return float(dist.mean() / bounds.diagonal)
    return float((numer / denom).mean())


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4, 5, 15, 30])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generate_trials_matches_reference_draw_for_draw(n, d):
    for seed in range(150):
        coords = RngStream(10_000 + seed).uniform(size=(n, d)) * 4.0 - 2.0
        a, b = RngStream(seed), RngStream(seed)
        got = generate_trials(coords[None], 0.7, 0.4, [a])[0]
        want = reference_generate_trials(coords, 0.7, 0.4, b)
        assert same_bits(got, want)
        # both consumed exactly the same draws
        assert a.uniform() == b.uniform()


@pytest.mark.parametrize("nsp", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_penalty_batch_matches_reference_bit_for_bit(nsp, d):
    rng = RngStream(nsp * 10 + d)
    for trial in range(20):
        anchors = (rng.uniform(size=(d, nsp)) * 2.0 - 1.0).T
        pts = rng.uniform(size=(1 + trial % 7, d)) * 2.0 - 1.0
        for radius in (1e-9, 0.3, 0.8, 5.0):  # none, some and all anchors active
            params = PenaltyParams(magnitude=2.0e3, radius=radius)
            for own in range(nsp):
                got = penalty_batch(pts, own, anchors, params)
                assert same_bits(got, reference_penalty_batch(pts, own, anchors, params))


def test_penalty_batch_rows_do_not_depend_on_batch_size():
    # selection scores trials and parents in one stacked call
    rng = RngStream(5)
    params = PenaltyParams(magnitude=2.0e3, radius=0.8)
    for d in (2, 3, 9):
        anchors = (rng.uniform(size=(d, 4)) * d).T
        a = rng.uniform(size=(6, d))
        b = rng.uniform(size=(6, d))
        for own in range(4):
            both = penalty_batch(np.concatenate((a, b)), own, anchors, params)
            assert same_bits(both[:6], reference_penalty_batch(a, own, anchors, params))
            assert same_bits(both[6:], reference_penalty_batch(b, own, anchors, params))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 9])
def test_spreading_matches_reference_bit_for_bit(d):
    # The engine has always summed a distance's squared terms dimension by
    # dimension, as the reference does on a Fortran-ordered population;
    # numpy sums a contiguous row of 8 or more terms in another order.
    bounds = Bounds(np.full(d, -3.0), np.linspace(1.0, 4.0, d))
    rng = RngStream(d)
    for n in (4, 9, 30):
        coords = bounds.lower + rng.uniform(size=(n, d)) * bounds.span
        for best in (coords[0], np.zeros(d)):  # regular and degenerate denominator
            want = reference_spreading(np.asfortranarray(coords), best, bounds)
            assert _spreading(coords[None], best[None], bounds).tolist() == [want]
            fortran = np.asfortranarray(coords)[None]
            assert _spreading(fortran, best[None], bounds).tolist() == [want]


# ------------------------------------------------- the stacked generation step

def reference_selection(coords, fitness, trials, own_index, anchors, penalty, bounds, objective):
    """Selection of one subpopulation that evaluates its own in-bounds trials."""
    rows = bounds.contains_all(trials).nonzero()[0]
    new_coords, new_fitness = coords.copy(), fitness.copy()
    if not len(rows):
        return new_coords, new_fitness
    cand = trials[rows]
    cand_fit = evaluate_batch(objective, cand)
    cand_score, parent_score = cand_fit, fitness[rows]
    if anchors is not None:
        cand_score = cand_fit + penalty_batch(cand, own_index, anchors, penalty)
        parent_score = fitness[rows] + penalty_batch(coords[rows], own_index, anchors, penalty)
    wins = cand_score <= parent_score
    new_coords[rows[wins]] = cand[wins]
    new_fitness[rows[wins]] = cand_fit[wins]
    return new_coords, new_fitness


def reference_run(objective, bounds, params, seed):
    """The generation loop that steps one subpopulation after the other.

    Returns what a record reports (final bests, nfe, generations used and
    trace bytes) and, per generation, the penalized flags of the
    subpopulations stepped.
    """
    de, penalty, switch_tol, nsp = params.de, params.penalty, params.switch_tol, params.subpops

    class Counting:
        count = 0

        def batch(self, pts):
            self.count += len(pts)
            batch = getattr(objective, "batch", None)
            return batch(pts) if batch is not None else [objective(p) for p in pts]

    counting = Counting()
    streams = RngStream(seed).split(nsp)
    pop = [init_population(bounds, de.pop_size, s) for s in streams]
    fit = [evaluate_batch(counting, p) for p in pop]
    anchors = np.array([p[f.argmin()] for p, f in zip(pop, fit)])
    frozen, gens, trace, modes = [False] * nsp, [0] * nsp, [], []
    for gen in range(1, de.max_generations + 1):
        if all(frozen):
            break
        modes.append([])
        for j in range(nsp):
            if frozen[j]:
                continue
            spread = reference_spreading(np.asfortranarray(pop[j]), anchors[j], bounds)
            if spread < de.spread_tol:
                frozen[j] = True
            else:
                penalized = penalty is not None and (switch_tol is None or spread >= switch_tol)
                modes[-1].append(penalized)
                trials = reference_generate_trials(pop[j], de.F, de.CR, streams[j])
                pop[j], fit[j] = reference_selection(
                    pop[j], fit[j], trials, j, anchors if penalized else None, penalty,
                    bounds, counting)
                anchors[j] = pop[j][fit[j].argmin()]
                gens[j] += 1
            trace.append((gen, j, *anchors[j].tolist(), float(fit[j].min()), spread))
    outcome = {
        "bests": [(a.tolist(), float(f.min())) for a, f in zip(anchors, fit)],
        "nfe": counting.count,
        "gens": gens,
        "trace": np.array(trace).reshape(-1, bounds.dim + 4).tobytes(),
    }
    return outcome, modes


def check_against_reference(problem, algorithm, seed, objective=None, **changes):
    """Run ``algorithm`` as the harness does and compare it with the reference loop."""
    engine, engine_params = ENGINES[algorithm]
    params = engine_params(replace(problem.default_params, **changes))
    objective = problem.objective if objective is None else objective
    record = engine(objective, problem.bounds, params, seed, collect_trace=True)
    got = {
        "bests": [(b.coords.tolist(), b.fitness) for b in record.final_bests],
        "nfe": record.nfe,
        "gens": record.generations_used,
        "trace": record.trace.tobytes(),
    }
    if isinstance(params, DEParams):  # canonical DE: one subpopulation, no penalty
        params = MultiParams(de=params)
    want, modes = reference_run(objective, problem.bounds, params, seed)
    assert got == want
    return want, modes


@pytest.mark.parametrize("pid", [f"B{i}" for i in range(1, 11)])
@pytest.mark.parametrize("algorithm", ["de", "mde-itmf", "dewi"])
def test_engines_match_the_per_subpopulation_loop(pid, algorithm):
    for seed in (0, 1, 2):
        check_against_reference(get_problem(pid), algorithm, seed)


@pytest.mark.parametrize("pid", ["B1", "B7"])
def test_five_subpopulations_match_the_per_subpopulation_loop(pid):
    for seed in (3, 4):
        want, _ = check_against_reference(get_problem(pid), "mde-itmf", seed, subpops=5)
        # the subpopulations freeze at different generations
        assert len(set(want["gens"])) > 1


def test_degenerate_spreading_denominator_matches_the_per_subpopulation_loop():
    # B2's minimizer sits at the origin: a converged anchor there makes the
    # spreading fall back to the domain diagonal.
    problem = get_problem("B2")
    hits = 0
    real = _spreading

    def spreading(pops, bests, bounds):
        nonlocal hits
        best_rel = np.atleast_2d(bests) / bounds.span  # one best or a stack of them
        hits += int(np.count_nonzero(np.linalg.norm(best_rel, axis=1) < 1e-12))
        return real(pops, bests, bounds)

    import multide.multipop as mp

    mp._spreading = spreading
    try:
        for algorithm in ("de", "mde-itmf"):
            check_against_reference(problem, algorithm, 5)
    finally:
        mp._spreading = real
    assert hits > 0


def test_dewi_generations_mixing_penalized_and_plain_steps_match():
    problem = get_problem("B1")
    _, modes = check_against_reference(problem, "dewi", 6)
    assert any(True in m and False in m for m in modes)


class RandomBox:
    """A random box and DE settings; the problem ``check_against_reference`` runs."""

    def __init__(self, bounds, params):
        self.bounds, self.default_params = bounds, params

    @staticmethod
    def objective(p):  # a plain callable: evaluated row by row
        return float(np.sum(np.sin(3.0 * p) + 0.1 * p * p))


@examples(40)
@given(data=st.data())
def test_random_stacks_match_the_per_subpopulation_loop(data):
    d = data.draw(st.integers(1, 3))
    lower = np.array(data.draw(st.lists(st.floats(-5.0, 0.0), min_size=d, max_size=d)))
    width = np.array(data.draw(st.lists(st.floats(0.5, 5.0), min_size=d, max_size=d)))
    spread_tol = data.draw(st.floats(1e-3, 0.2))
    de = DEParams(pop_size=data.draw(st.integers(4, 12)), F=data.draw(st.floats(0.0, 1.0)),
                  CR=data.draw(st.floats(0.0, 1.0)), max_generations=data.draw(st.integers(1, 12)),
                  spread_tol=spread_tol)
    params = MultiParams(
        de=de,
        penalty=PenaltyParams(magnitude=data.draw(st.floats(0.1, 100.0)),
                              radius=data.draw(st.floats(0.05, 2.0))),
        subpops=data.draw(st.integers(1, 5)),
        switch_tol=spread_tol * data.draw(st.floats(1.5, 20.0)),
    )
    algorithm = data.draw(st.sampled_from(["de", "mde-itmf", "dewi"]))
    check_against_reference(RandomBox(Bounds(lower, lower + width), params), algorithm,
                            data.draw(st.integers(0, 2**32 - 1)))
