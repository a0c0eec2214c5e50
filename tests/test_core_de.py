"""Operator-level and single-engine tests for canonical DE."""

import math

import numpy as np
import pytest
from conftest import CountingObjective, FakeRng, sphere

from multide import (
    Bounds,
    ConfigurationError,
    DEParams,
    EvaluationError,
    Point,
    RngStream,
    crossover,
    get_problem,
    init_population,
    mutate,
    run_de,
    select_greedy,
    spreading_measure,
)
from multide.core import donor_indices, evaluate_batch

UNIT = Bounds(np.zeros(2), np.ones(2))


# ---------------------------------------------------------------- rng stream

def test_rng_same_seed_same_draws():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.uniform(size=16), b.uniform(size=16))
    assert np.array_equal(a.integers(0, 100, size=8), b.integers(0, 100, size=8))


def test_rng_split_is_deterministic_and_independent():
    kids1 = RngStream(7).split(3)
    kids2 = RngStream(7).split(3)
    for c1, c2 in zip(kids1, kids2):
        assert np.array_equal(c1.uniform(size=8), c2.uniform(size=8))
    draws = [tuple(c.uniform(size=4)) for c in RngStream(7).split(3)]
    assert len(set(draws)) == 3


# ----------------------------------------------------------------- bounds

def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        Bounds(np.array([0.0]), np.array([1.0, 2.0]))
    b = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert b.span.tolist() == [2.0, 2.0]
    assert b.contains([0.0, 1.0]) and not b.contains([0.0, 2.5])


def test_de_params_validation():
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=3, F=0.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=1.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=0.5, CR=-0.1)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=0.5, CR=0.5, spread_tol=0.0)


# ----------------------------------------------------------- initialization

def test_init_population_containment_and_unset_fitness():
    pop = init_population(UNIT, 50, RngStream(1))
    assert len(pop) == 50
    for p in pop:
        assert UNIT.contains(p.coords)
        assert p.fitness is None


def test_init_population_zero_draw_hits_lower_corner():
    rng = FakeRng(uniforms=[np.zeros((3, 2))])
    pop = init_population(Bounds(np.array([-2.0, 5.0]), np.array([3.0, 9.0])), 3, rng)
    for p in pop:
        assert np.array_equal(p.coords, [-2.0, 5.0])


def test_init_population_seed_reproducibility():
    a = init_population(UNIT, 20, RngStream(42))
    b = init_population(UNIT, 20, RngStream(42))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.coords, pb.coords)


def test_init_population_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        init_population(UNIT, 0, RngStream(0))


# ----------------------------------------------------------------- mutation

def _pop(*coords):
    return [Point(np.array(c, dtype=float)) for c in coords]


def test_mutate_direct_arithmetic():
    pop = _pop((1, 1), (3, 3), (1, 1), (9, 9))
    rng = FakeRng(choices=[[0, 1, 2]])
    v = mutate(pop, 3, 0.5, rng)
    assert np.array_equal(v, [2.0, 2.0])


def test_mutate_f_zero_returns_first_donor():
    pop = _pop((1, 2), (5, 5), (7, 7), (9, 9))
    rng = FakeRng(choices=[[1, 2, 3]])
    assert np.array_equal(mutate(pop, 0, 0.0, rng), [5.0, 5.0])


def test_mutate_zero_difference_collapses_to_base():
    pop = _pop((4, 4), (4, 4), (4, 4), (4, 4), (4, 4))
    v = mutate(pop, 0, 0.9, RngStream(3))
    assert np.array_equal(v, [4.0, 4.0])


def test_mutate_requires_four_members():
    with pytest.raises(ConfigurationError):
        mutate(_pop((0, 0), (1, 1), (2, 2)), 0, 0.5, RngStream(0))


def test_donor_indices_distinct_and_exclude_target():
    rng = RngStream(11)
    for _ in range(2000):
        r = donor_indices(8, 5, rng)
        assert len(set(r.tolist())) == 3
        assert 5 not in r


# ---------------------------------------------------------------- crossover

def test_crossover_cr_one_copies_donor():
    rng = RngStream(2)
    target = Point(np.array([0.0, 0.0, 0.0]))
    donor = np.array([1.0, 2.0, 3.0])
    for _ in range(50):
        assert np.array_equal(crossover(target, donor, 1.0, rng), donor)


def test_crossover_cr_zero_changes_exactly_one_coordinate():
    rng = RngStream(3)
    target = Point(np.array([0.0, 0.0, 0.0, 0.0]))
    donor = np.array([1.0, 1.0, 1.0, 1.0])
    for _ in range(200):
        u = crossover(target, donor, 0.0, rng)
        assert int(np.sum(u == 1.0)) == 1


def test_crossover_scripted_example():
    # forced index 0 takes the donor; the second coordinate draws 0.9 > CR
    rng = FakeRng(integers=[0], uniforms=[np.array([0.3, 0.9])])
    u = crossover(Point(np.array([10.0, 20.0])), np.array([1.0, 2.0]), 0.1, rng)
    assert np.array_equal(u, [1.0, 20.0])


def test_crossover_always_inherits_from_donor():
    rng = RngStream(4)
    target = Point(np.array([0.0, 0.0]))
    donor = np.array([1.0, 1.0])
    for _ in range(5000):
        cr = float(rng.uniform())
        u = crossover(target, donor, cr, rng)
        assert np.any(u == 1.0)


def test_crossover_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        crossover(Point(np.zeros(2)), np.zeros(3), 0.5, RngStream(0))


# ---------------------------------------------------------------- selection

def test_select_greedy_rejects_out_of_bounds_without_evaluating():
    counting = CountingObjective(sphere)
    target = Point(np.array([0.5, 0.5]), fitness=0.5)
    out = select_greedy(target, np.array([1.5, 0.5]), counting, UNIT)
    assert out is target
    assert counting.count == 0


def test_select_greedy_tie_goes_to_trial():
    target = Point(np.array([0.5, 0.5]), fitness=0.5)
    flat = lambda p: 0.5
    out = select_greedy(target, np.array([0.25, 0.25]), flat, UNIT)
    assert np.array_equal(out.coords, [0.25, 0.25])
    assert out.fitness == 0.5


def test_select_greedy_himmelblau_example():
    problem = get_problem("B1")
    target = Point(np.array([0.0, 0.0]), fitness=problem.objective(np.zeros(2)))
    assert target.fitness == 170.0
    out = select_greedy(target, np.array([3.0, 2.0]), problem.objective, problem.bounds)
    assert np.array_equal(out.coords, [3.0, 2.0])
    assert out.fitness == 0.0


def test_select_greedy_evaluates_stale_target():
    counting = CountingObjective(sphere)
    target = Point(np.array([0.5, 0.5]))
    out = select_greedy(target, np.array([0.1, 0.1]), counting, UNIT)
    assert counting.count == 2
    assert out.fitness == pytest.approx(0.02)


def test_select_greedy_propagates_non_finite():
    bad = lambda p: float("nan")
    target = Point(np.array([0.5, 0.5]), fitness=1.0)
    with pytest.raises(EvaluationError) as info:
        select_greedy(target, np.array([0.2, 0.2]), bad, UNIT)
    assert np.array_equal(info.value.point, [0.2, 0.2])


# ---------------------------------------------------------------- spreading

def test_spreading_zero_on_collapsed_population():
    best = Point(np.array([0.3, 0.7]))
    pop = [Point(np.array([0.3, 0.7])) for _ in range(6)]
    assert spreading_measure(pop, best, UNIT) == 0.0


def test_spreading_hand_computed_example():
    best = Point(np.array([0.5, 0.5]))
    pop = [best, Point(np.array([0.5, 1.0]))]
    expected = 0.5 * (0.5 / math.sqrt(0.5))
    assert spreading_measure(pop, best, UNIT) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.35355339, abs=1e-8)


def test_spreading_permutation_invariant():
    rng = RngStream(5)
    coords = rng.uniform(size=(8, 2))
    pop = [Point(c) for c in coords]
    best = pop[3]
    base = spreading_measure(pop, best, UNIT)
    perm = [pop[i] for i in [5, 1, 7, 3, 0, 6, 2, 4]]
    assert spreading_measure(perm, best, UNIT) == pytest.approx(base, rel=1e-15)


def test_spreading_degenerate_denominator_uses_domain_diagonal():
    sym = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    best = Point(np.zeros(2))
    pop = [best, Point(np.array([1.0, 0.0]))]
    expected = 0.5 / math.sqrt(8.0)
    assert spreading_measure(pop, best, sym) == pytest.approx(expected, rel=1e-12)


def test_spreading_nonnegative_random_populations():
    rng = RngStream(9)
    for _ in range(100):
        coords = rng.uniform(size=(10, 2))
        pop = [Point(c) for c in coords]
        best = min(pop, key=lambda p: sphere(p.coords))
        assert spreading_measure(pop, best, UNIT) >= 0.0


# ------------------------------------------------------------------ run_de

FAST = DEParams(pop_size=10, F=0.5, CR=0.9, max_generations=60, spread_tol=1e-4)
BOX = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_run_de_deterministic_for_seed():
    a = run_de(sphere, BOX, FAST, 5)
    b = run_de(sphere, BOX, FAST, 5)
    assert a.nfe == b.nfe
    assert a.generations_used == b.generations_used
    assert np.array_equal(a.final_bests[0].coords, b.final_bests[0].coords)
    assert a.final_bests[0].fitness == b.final_bests[0].fitness


def test_run_de_constant_objective_terminates_at_cap():
    params = DEParams(pop_size=6, F=0.5, CR=0.5, max_generations=15, spread_tol=1e-6)
    record = run_de(lambda p: 0.0, BOX, params, 1)
    assert record.generations_used == [15]
    assert record.final_bests[0].fitness == 0.0


def test_run_de_best_fitness_non_increasing():
    history = []

    def watch(gen, tensor, states):
        history.append(float(tensor.fitness[:, 0].min()))

    run_de(sphere, BOX, FAST, 3, observer=watch)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_run_de_population_stays_in_bounds():
    problem = get_problem("B1")

    def watch(gen, tensor, states):
        pts = tensor.subpop(0)
        assert problem.bounds.contains_all(pts).all()

    run_de(problem.objective, problem.bounds, problem.default_params.de, 2, observer=watch)


def test_run_de_himmelblau_hits_global_level():
    """Empirical check: nearly every seeded run polishes a minimum below 1e-6."""
    problem = get_problem("B1")
    hits = 0
    for seed in range(100):
        record = run_de(problem.objective, problem.bounds, problem.default_params.de, seed)
        hits += record.final_bests[0].fitness < 1e-6
    assert hits >= 95


def test_run_de_aborts_with_partial_record_on_bad_objective():
    calls = {"n": 0}

    def flaky(p):
        calls["n"] += 1
        return float("nan") if calls["n"] > 25 else sphere(p)

    with pytest.raises(EvaluationError) as info:
        run_de(flaky, BOX, FAST, 0)
    partial = info.value.partial_record
    assert partial is not None
    assert partial.nfe > 0
    assert info.value.point is not None


@pytest.mark.parametrize("shape", ["scalar", "column"])
def test_wrongly_shaped_batch_is_a_configuration_error(shape):
    problem = get_problem("B1")

    class Misshaped:
        def __call__(self, x):
            return problem.objective(x)

        def batch(self, pts):
            values = problem.objective.batch(pts)
            return float(values[0]) if shape == "scalar" else values[:, None]

    with pytest.raises(ConfigurationError, match="shaped"):
        evaluate_batch(Misshaped(), np.zeros((3, 2)))
    with pytest.raises(ConfigurationError, match="shaped"):
        run_de(Misshaped(), problem.bounds, problem.default_params.de, 0)
