"""Tests for the multipopulation engines and their selection step."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import CountingObjective, sphere

from multide import (
    Bounds,
    ConfigurationError,
    DEParams,
    EvaluationError,
    MultiParams,
    PenaltyParams,
    Point,
    RngStream,
    get_problem,
    run_de,
    run_dewi,
    run_mde_itmf,
    selection_step,
    snapshot_anchors,
    subpop_spreading,
)
from multide.core import _spreading
from multide.multipop import without_switch_tol

BOX = Bounds(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


def make_state(subpops, objective):
    """Build the engine's (pop, fit) arrays from per-subpopulation coordinate lists."""
    pop = np.array(subpops, dtype=float)
    fit = np.array([[objective(p) for p in coords] for coords in pop])
    return pop, fit


# A run's final bests are its anchor rows with their base fitness, so these
# pin which member snapshot_anchors picks.

def test_best_of_subpop_tie_goes_to_lowest_index():
    pop, fit = make_state([[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]], sphere)
    (best,) = snapshot_anchors(pop, fit)
    assert np.array_equal(best, [1.0, 1.0])
    # rows 1 and 3 tie for the lowest fitness at different points
    pop, fit = make_state([[(1.0, 1.0), (0.5, -0.5), (1.0, 1.0), (-0.5, 0.5)]], sphere)
    assert fit[0, 1] == fit[0, 3]
    (best,) = snapshot_anchors(pop, fit)
    assert np.array_equal(best, [0.5, -0.5])


def test_best_of_subpop_himmelblau_pair():
    problem = get_problem("B1")
    pop, fit = make_state([[(0.0, 0.0), (3.0, 2.0)]], problem.objective)
    (best,) = snapshot_anchors(pop, fit)
    assert np.array_equal(best, [3.0, 2.0])
    assert fit.min(axis=1).tolist() == [0.0]


def test_best_of_subpop_invariant_to_non_best_permutation():
    pts = [(0.5, 0.5), (1.0, 0.0), (0.1, 0.1), (0.9, 0.9)]
    a = snapshot_anchors(*make_state([pts], sphere))
    b = snapshot_anchors(*make_state([[pts[3], pts[1], pts[2], pts[0]]], sphere))
    assert np.array_equal(a, b)


def test_final_bests_one_point_per_subpop_as_copies():
    pop, fit = make_state(
        [
            [(1.0, 1.0), (0.2, 0.2), (1.5, 1.5)],
            [(0.9, 0.9), (1.1, 1.1), (-0.1, 0.1)],
        ],
        sphere,
    )
    bests = snapshot_anchors(pop, fit)
    assert bests.tolist() == [[0.2, 0.2], [-0.1, 0.1]]
    pop[:] = 0.0
    assert bests[1].tolist() == [-0.1, 0.1]


def test_finished_record_bests_are_the_last_anchor_rows():
    problem = get_problem("B1")
    last = {}

    def watch(gen, pop, fit, frozen):
        last.update(pop=pop.copy(), fit=fit.copy())

    for algo, run in (("mde-itmf", run_mde_itmf), ("dewi", run_dewi)):
        params = problem.default_params if algo == "dewi" else without_switch_tol(
            problem.default_params)
        record = run(problem.objective, problem.bounds, params, 3, observer=watch)
        assert np.array_equal([p.coords for p in record.final_bests],
                              snapshot_anchors(last["pop"], last["fit"]))
        assert [p.fitness for p in record.final_bests] == last["fit"].min(axis=1).tolist()


def test_subpop_spreading_matches_whole_population_measure():
    coords = RngStream(4).uniform(size=(12, 2))
    pop, fit = make_state([coords], sphere)
    best = coords[np.argmin([sphere(c) for c in coords])]
    assert subpop_spreading(pop, fit, 0, BOX) == pytest.approx(
        _spreading(coords, best, BOX), rel=1e-15
    )


def test_subpop_spreading_zero_when_collapsed():
    pop, fit = make_state([[(0.5, 0.5)] * 5], sphere)
    assert subpop_spreading(pop, fit, 0, BOX) == 0.0


def test_snapshot_anchors_columns_are_subpop_bests():
    pop, fit = make_state(
        [
            [(1.0, 1.0), (0.2, 0.2), (1.5, 1.5)],
            [(0.9, 0.9), (1.1, 1.1), (-0.1, 0.1)],
        ],
        sphere,
    )
    anchors = snapshot_anchors(pop, fit)
    assert anchors.shape == (2, 2) and len(anchors) == 2
    assert np.array_equal(anchors[0], [0.2, 0.2])
    assert np.array_equal(anchors[1], [-0.1, 0.1])


def test_snapshot_anchors_track_improvements_per_subpop():
    pop, fit = make_state(
        [
            [(1.0, 1.0), (0.5, 0.5), (1.5, 1.5)],
            [(0.9, 0.9), (1.1, 1.1), (0.8, 0.8)],
        ],
        sphere,
    )
    before = snapshot_anchors(pop, fit)
    # subpopulation 1 improves one member; subpopulation 0 untouched
    pop[1, 0] = [0.05, 0.05]
    fit[1, 0] = sphere([0.05, 0.05])
    after = snapshot_anchors(pop, fit)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(after[1], [0.05, 0.05])
    assert not np.array_equal(before[1], after[1])


# ------------------------------------------------------------ selection step

def random_scenario(seed, pop_size=8):
    rng = RngStream(seed)
    coords = rng.uniform(size=(pop_size, 2)) * 3 - 1.5
    fitness = np.array([sphere(c) for c in coords])
    trials = rng.uniform(size=(pop_size, 2)) * 5 - 2.5  # some rows out of bounds
    anchors = np.stack([rng.uniform(size=2), rng.uniform(size=2)])
    return coords, fitness, trials, anchors


def select_greedy(target, trial, objective, bounds):
    """Reference one-to-one selection: out of bounds loses, ties go to the trial."""
    if not bounds.contains(trial):
        return target
    f_trial = float(objective(trial))
    return Point(trial, f_trial) if f_trial <= target.fitness else target


def test_selection_step_plain_matches_select_greedy():
    coords, fitness, trials, _ = random_scenario(7)
    new_coords, new_fitness = selection_step(
        coords, fitness, trials, 0, None, None, BOX, sphere
    )
    for i in range(len(coords)):
        expect = select_greedy(Point(coords[i], fitness[i]), trials[i], sphere, BOX)
        assert np.array_equal(new_coords[i], expect.coords)
        assert new_fitness[i] == expect.fitness


def test_selection_step_penalized_equals_plain_when_anchors_far():
    coords, fitness, trials, _ = random_scenario(8)
    far = np.array([[50.0, 50.0], [-60.0, 10.0]])
    penalty = PenaltyParams(magnitude=2000.0, radius=1.0)
    plain = selection_step(coords, fitness, trials, 0, None, None, BOX, sphere)
    pen = selection_step(coords, fitness, trials, 0, far, penalty, BOX, sphere)
    assert np.array_equal(plain[0], pen[0])
    assert np.array_equal(plain[1], pen[1])


def test_selection_step_parent_survives_inside_foreign_radius():
    # Trecanni landscape: objective is nonnegative, so a trial sitting on a
    # foreign anchor carries at least magnitude * exp(-radius) of penalty.
    problem = get_problem("B2")
    penalty = problem.default_params.penalty
    parent = np.array([[-2.0, 0.0]])
    fitness = np.array([problem.objective(parent[0])])
    trial = np.array([[0.0, 0.0]])  # the foreign anchor itself, base value 0
    anchors = np.stack([parent[0], np.zeros(2)])
    new_coords, new_fitness = selection_step(
        parent, fitness, trial, 0, anchors, penalty, problem.bounds, problem.objective
    )
    assert np.array_equal(new_coords[0], [-2.0, 0.0])


def test_selection_step_out_of_bounds_trials_never_evaluated():
    counting = CountingObjective(sphere)
    coords = np.array([[0.0, 0.0], [0.5, 0.5]])
    fitness = np.array([0.0, 0.5])
    trials = np.array([[5.0, 5.0], [-3.0, 0.0]])
    new_coords, new_fitness = selection_step(
        coords, fitness, trials, 0, None, None, BOX, counting
    )
    assert counting.count == 0
    assert np.array_equal(new_coords, coords)
    assert np.array_equal(new_fitness, fitness)


def test_selection_step_penalized_score_never_worsens():
    from multide.deflation import penalty_batch

    penalty = PenaltyParams(magnitude=100.0, radius=1.0)
    for seed in range(50):
        coords, fitness, trials, anchors = random_scenario(seed)
        new_coords, new_fitness = selection_step(
            coords, fitness, trials, 0, anchors, penalty, BOX, sphere
        )
        old_score = fitness + penalty_batch(coords, 0, anchors, penalty)
        new_score = new_fitness + penalty_batch(new_coords, 0, anchors, penalty)
        assert np.all(new_score <= old_score + 1e-12)


def test_selection_step_needs_penalty_params_for_penalized_mode():
    coords, fitness, trials, anchors = random_scenario(1)
    with pytest.raises(ConfigurationError):
        selection_step(coords, fitness, trials, 0, anchors, None, BOX, sphere)


# ------------------------------------------------------------------ engines

def test_multiparams_validation():
    de = DEParams(pop_size=10, F=0.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        MultiParams(de=de, subpops=0)
    with pytest.raises(ConfigurationError):
        MultiParams(de=de, switch_tol=de.spread_tol)


def test_parameter_bundles_refuse_nan():
    nan = float("nan")
    de = DEParams(pop_size=10, F=0.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=0.5, CR=0.5, spread_tol=nan)
    with pytest.raises(ConfigurationError):
        PenaltyParams(magnitude=nan, radius=1.0)
    with pytest.raises(ConfigurationError):
        PenaltyParams(magnitude=1.0, radius=nan)
    with pytest.raises(ConfigurationError):
        MultiParams(de=de, switch_tol=nan)


def test_engine_parameter_bundle_contracts():
    problem = get_problem("B1")
    params = problem.default_params
    with pytest.raises(ConfigurationError):
        run_mde_itmf(problem.objective, problem.bounds, params, 0)  # carries switch_tol
    with pytest.raises(ConfigurationError):
        run_dewi(problem.objective, problem.bounds, without_switch_tol(params), 0)
    bare = replace(without_switch_tol(params), penalty=None)
    with pytest.raises(ConfigurationError):
        run_mde_itmf(problem.objective, problem.bounds, bare, 0)


def test_single_subpop_engine_reproduces_run_de():
    problem = get_problem("B1")
    params = replace(without_switch_tol(problem.default_params), subpops=1)
    for seed in (0, 1, 2):
        a = run_de(problem.objective, problem.bounds, params.de, seed)
        b = run_mde_itmf(problem.objective, problem.bounds, params, seed)
        assert a.nfe == b.nfe
        assert a.generations_used == b.generations_used
        assert np.array_equal(a.final_bests[0].coords, b.final_bests[0].coords)
        assert a.final_bests[0].fitness == b.final_bests[0].fitness


def test_dewi_with_huge_switch_tol_is_unpenalized_co_evolution():
    # Deflation needs spreading >= switch_tol, so a huge threshold keeps the
    # penalty path off; a vanishing magnitude keeps the penalized engine's
    # scores bitwise equal to base values. Both runs must coincide.
    problem = get_problem("B1")
    params = problem.default_params
    huge = replace(params, switch_tol=1e9)
    vanishing = replace(
        without_switch_tol(params), penalty=replace(params.penalty, magnitude=1e-300)
    )
    for seed in (0, 1):
        a = run_dewi(problem.objective, problem.bounds, huge, seed)
        b = run_mde_itmf(problem.objective, problem.bounds, vanishing, seed)
        assert a.nfe == b.nfe
        assert a.generations_used == b.generations_used
        for pa, pb in zip(a.final_bests, b.final_bests):
            assert np.array_equal(pa.coords, pb.coords)


def test_dewi_with_switch_tol_just_above_eps_matches_penalized_engine():
    problem = get_problem("B1")
    params = problem.default_params
    tight = replace(params, switch_tol=float(np.nextafter(params.de.spread_tol, np.inf)))
    for seed in (0, 1):
        a = run_dewi(problem.objective, problem.bounds, tight, seed)
        b = run_mde_itmf(problem.objective, problem.bounds, without_switch_tol(params), seed)
        assert a.nfe == b.nfe
        for pa, pb in zip(a.final_bests, b.final_bests):
            assert np.array_equal(pa.coords, pb.coords)


def test_frozen_subpopulations_stay_bitwise_unchanged():
    problem = get_problem("B1")
    frozen_snapshots = {}

    def watch(gen, pop, fit, frozen):
        for j, is_frozen in enumerate(frozen):
            if is_frozen and j not in frozen_snapshots:
                frozen_snapshots[j] = (pop[j].copy(), fit[j].copy())
            elif is_frozen:
                assert np.array_equal(pop[j], frozen_snapshots[j][0])
                assert np.array_equal(fit[j], frozen_snapshots[j][1])

    record = run_mde_itmf(
        problem.objective, problem.bounds, without_switch_tol(problem.default_params),
        0, observer=watch,
    )
    assert len(frozen_snapshots) == 4  # every subpopulation converged and froze
    assert all(g < problem.default_params.de.max_generations for g in record.generations_used)


def test_engine_nfe_matches_external_counter():
    problem = get_problem("B1")
    counting = CountingObjective(problem.objective)
    record = run_mde_itmf(
        counting, problem.bounds, without_switch_tol(problem.default_params), 0
    )
    assert record.nfe == counting.count
    assert record.nfe > 0


def test_engine_finds_all_himmelblau_minima_single_run():
    problem = get_problem("B1")
    record = run_mde_itmf(
        problem.objective, problem.bounds, without_switch_tol(problem.default_params), 0
    )
    from multide import count_ngp

    assert count_ngp(record.final_bests, problem) == 4
    assert record.algorithm == "mde-itmf"
    assert record.seed == 0


def test_observer_sees_live_base_fitness_and_sticky_freezing():
    problem = get_problem("B1")
    params = without_switch_tol(problem.default_params)
    seen = {"gens": [], "frozen": [False] * params.subpops}

    def watch(gen, pop, fit, frozen):
        assert pop.shape == (params.subpops, params.de.pop_size, 2)
        assert fit.shape == (params.subpops, params.de.pop_size)
        assert len(frozen) == params.subpops
        for j in range(params.subpops):
            # base values only: a cached penalty would make these differ
            assert np.array_equal(fit[j], problem.objective.batch(pop[j]))
            assert frozen[j] or not seen["frozen"][j]  # a freeze never clears
        seen["frozen"] = list(frozen)
        seen["gens"].append(gen)

    record = run_mde_itmf(problem.objective, problem.bounds, params, 0, observer=watch)
    assert seen["gens"] == list(range(1, len(seen["gens"]) + 1))
    assert len(seen["gens"]) == max(record.generations_used) + 1
    assert all(seen["frozen"])


def test_engine_abort_carries_partial_record():
    problem = get_problem("B1")
    calls = {"n": 0}

    def flaky(p):
        calls["n"] += 1
        return float("nan") if calls["n"] > 300 else problem.objective(p)

    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(flaky, problem.bounds, without_switch_tol(problem.default_params), 0)
    partial = info.value.partial_record
    assert partial is not None
    assert partial.nfe >= 300
    assert partial.algorithm == "mde-itmf"


def test_partial_record_final_bests_are_evaluated_in_bounds_points():
    problem = get_problem("B1")
    params = without_switch_tol(problem.default_params)
    init_nfe = params.subpops * params.de.pop_size
    calls = {"n": 0}

    def turns_nan(p):
        calls["n"] += 1
        return float("nan") if calls["n"] > init_nfe + 150 else problem.objective(p)

    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(turns_nan, problem.bounds, params, 0)
    partial = info.value.partial_record
    assert len(partial.final_bests) == params.subpops
    for p in partial.final_bests:
        assert problem.bounds.contains(p.coords)
        assert p.fitness == problem.objective(p.coords)
    assert sum(partial.generations_used) > 0


def test_partial_record_is_empty_when_initialization_fails():
    problem = get_problem("B1")
    params = without_switch_tol(problem.default_params)
    calls = {"n": 0}

    def fails_in_second_subpop(p):
        calls["n"] += 1
        return float("nan") if calls["n"] > params.de.pop_size + 3 else problem.objective(p)

    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(fails_in_second_subpop, problem.bounds, params, 0)
    partial = info.value.partial_record
    assert partial.final_bests == []
    assert partial.generations_used == [0] * params.subpops
    assert partial.nfe == 2 * params.de.pop_size
