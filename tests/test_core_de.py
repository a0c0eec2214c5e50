"""Operator-level and single-engine tests for canonical DE."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import CountingObjective, FakeRng, reference_trial_draws, sphere, trial_values

from multide import (
    Bounds,
    ConfigurationError,
    DEParams,
    EvaluationError,
    RngStream,
    get_problem,
    init_population,
    run_de,
    selection_step,
)
from multide.core import _spreading, evaluate_batch, generate_trials

UNIT = Bounds(np.zeros(2), np.ones(2))


def trials_of(pop, F, source):
    """``generate_trials`` on a single population drawing from one ``trials`` iterator."""
    return generate_trials(pop[None], F, [source])[0]


def spread_of(pop, best, bounds):
    """``_spreading`` of a single population."""
    return _spreading(pop[None], best[None], bounds).item()


# ---------------------------------------------------------------- rng stream

def test_rng_same_seed_same_draws():
    a = RngStream(42)
    b = RngStream(42)
    assert np.array_equal(a.uniform(16), b.uniform(16))
    (rows_a, take_a), (rows_b, take_b) = next(a.trials(8, 2, 0.5)), next(b.trials(8, 2, 0.5))
    assert np.array_equal(rows_a, rows_b) and np.array_equal(take_a, take_b)


def test_rng_split_is_deterministic_and_independent():
    kids1 = RngStream(7).split(3)
    kids2 = RngStream(7).split(3)
    for c1, c2 in zip(kids1, kids2):
        assert np.array_equal(c1.uniform(8), c2.uniform(8))
    draws = [tuple(c.uniform(4)) for c in RngStream(7).split(3)]
    assert len(set(draws)) == 3


# ----------------------------------------------------------------- bounds

def test_bounds_validation():
    with pytest.raises(ConfigurationError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError):
        Bounds(np.array([0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ConfigurationError, match="^bounds must have at least one dimension$"):
        Bounds([], [])
    # Finite side lengths whose diagonal is past the float range.
    with pytest.raises(ConfigurationError, match="^bounds must be finite, with a finite diagonal$"):
        Bounds([0.0, 0.0], [1.5e308, 1.5e308])
    b = Bounds(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert b.span.tolist() == [2.0, 2.0]
    assert b.contains([0.0, 1.0]) and not b.contains([0.0, 2.5])


@pytest.mark.parametrize("points", [[0.5], [[0.5]], [[0.5], [0.2]], [0.1, 0.2, 0.3], 0.5,
                                    [[[0.5, 0.5]]]], ids=repr)
def test_bounds_refuse_points_of_another_width(points):
    # Broadcasting against the 2-D box would answer each of these.
    b = Bounds([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError, match=r"points must be \(n, 2\) rows"):
        b.contains_all(points)
    with pytest.raises(ConfigurationError, match=r"points must be \(n, 2\) rows"):
        b.contains(points)


def test_bounds_span_is_computed_once():
    b = Bounds(np.array([-1.0, 0.1]), np.array([0.3, 2.0]))
    assert b.span is b.span
    assert b.span.tobytes() == (b.upper - b.lower).tobytes()
    wider = replace(b, upper=np.array([0.3, 5.0]))
    assert wider.span.tobytes() == (wider.upper - wider.lower).tobytes()
    assert wider.span[1] != b.span[1]
    assert [f.name for f in fields(Bounds)] == ["lower", "upper"]


@pytest.mark.parametrize("lower, upper", [
    ([-np.inf, -1.0], [np.inf, 1.0]),
    ([0.0, 0.0], [1.0, np.inf]),
    ([-1e308, 0.0], [1e308, 1.0]),  # finite limits, infinite side length
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_bounds_refuse_non_finite_limits(lower, upper):
    with pytest.raises(ConfigurationError, match="finite"):
        Bounds(np.array(lower), np.array(upper))


@pytest.mark.parametrize("field, value", [
    ("pop_size", 10.5), ("pop_size", 10.0), ("pop_size", True),
    ("max_generations", 5.5), ("max_generations", "5"),
])
def test_de_params_refuse_non_integer_counts(field, value):
    kwargs = {"pop_size": 10, "F": 0.5, "CR": 0.5, field: value}
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        DEParams(**kwargs)


def test_de_params_refuse_infinite_spread_tol():
    # An infinite tolerance would freeze every subpopulation before its first step.
    with pytest.raises(ConfigurationError,
                       match=r"spread_tol must be a number in \(0, inf\), got inf"):
        DEParams(pop_size=30, F=0.7, CR=0.8, spread_tol=float("inf"))


def test_de_params_validation():
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=3, F=0.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=1.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=0.5, CR=-0.1)
    with pytest.raises(ConfigurationError):
        DEParams(pop_size=10, F=0.5, CR=0.5, spread_tol=0.0)
    de = DEParams(pop_size=np.int64(10), F=0.5, CR=0.5, max_generations=np.int32(5))
    assert (de.pop_size, de.max_generations) == (10, 5)


# ----------------------------------------------------------- initialization

def test_init_population_containment_and_shape():
    pop = init_population(UNIT, 50, RngStream(1))
    assert pop.shape == (50, 2)
    assert UNIT.contains_all(pop).all()


def test_init_population_zero_draw_hits_lower_corner():
    rng = FakeRng(uniforms=[np.zeros((3, 2))])
    pop = init_population(Bounds(np.array([-2.0, 5.0]), np.array([3.0, 9.0])), 3, rng)
    for p in pop:
        assert np.array_equal(p, [-2.0, 5.0])


def test_init_population_seed_reproducibility():
    a = init_population(UNIT, 20, RngStream(42))
    b = init_population(UNIT, 20, RngStream(42))
    assert np.array_equal(a, b)


def test_init_population_rejects_bad_count():
    # 2.5, 3.0 and True once raised a raw TypeError from the draw.
    for count in (0, -1, 2.5, 3.0, True, "3", None):
        with pytest.raises(ConfigurationError, match="population count"):
            init_population(UNIT, count, RngStream(0))
    assert init_population(UNIT, np.int64(3), RngStream(0)).shape == (3, 2)


# ------------------------------------------------- mutation and crossover

# generate_trials takes one generation per stream from its trials
# iterator: the (3, n) donor rows (drawn with redraws of colliding rows,
# none when the script is valid) and the (n, d) crossover mask, u <= CR
# with each row's forced index set.

def scripted(donors, forced=None, uniforms=None, dim=2, CR=1.0):
    """A one-item iterator, as ``trials`` yields, of scripted donors, forced indices and uniforms."""
    donors = np.array(donors)
    n = len(donors)
    forced = np.zeros(n, dtype=int) if forced is None else np.array(forced)
    take = (np.zeros((n, dim)) if uniforms is None else np.array(uniforms)) <= CR
    take[np.arange(n), forced] = True
    return iter([(donors.T, take)])


def valid_donors(n, gen):
    """One (n, 3) block of distinct donor rows that each exclude their own row."""
    return np.array([gen.permutation([k for k in range(n) if k != i])[:3] for i in range(n)])


def donor_triple(row, i):
    """Decode (r1, r2, r3) from row ``i`` of trials of ``np.eye(n)`` at F=0.5, CR=1.

    The trial is then its donor e_r1 + 0.5 (e_r2 - e_r3): exactly one 1.0,
    one 0.5 and one -0.5, all off position i, and zeros elsewhere, if and
    only if r1, r2, r3 are distinct and differ from i. Returns None for
    any other row.
    """
    nonzero = np.flatnonzero(row)
    if len(nonzero) != 3 or i in nonzero:
        return None
    found = {float(row[k]): int(k) for k in nonzero}
    if sorted(found) != [-0.5, 0.5, 1.0]:
        return None
    return found[1.0], found[0.5], found[-0.5]


def test_mutate_direct_arithmetic():
    pop = np.array([(1, 1), (3, 3), (1, 1), (9, 9)], dtype=float)
    source = scripted([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    trials = trials_of(pop, 0.5, source)
    assert np.array_equal(trials[3], [2.0, 2.0])
    assert np.array_equal(trials, [[-1.0, -1.0], [-3.0, -3.0], [-2.0, -2.0], [2.0, 2.0]])


def test_mutate_f_zero_returns_first_donor():
    pop = np.array([(1, 2), (5, 5), (7, 7), (9, 9)], dtype=float)
    source = scripted([[1, 2, 3], [2, 0, 3], [3, 0, 1], [0, 1, 2]])
    trials = trials_of(pop, 0.0, source)
    assert np.array_equal(trials, pop[[1, 2, 3, 0]])


def test_mutate_zero_difference_collapses_to_base():
    pop = np.full((5, 2), 4.0)
    trials = trials_of(pop, 0.9, RngStream(3).trials(5, 2, 0.5))
    assert np.array_equal(trials, pop)


def test_mutate_requires_four_members():
    with pytest.raises(ConfigurationError, match="trials n must be an integer >= 4"):
        RngStream(0).trials(3, 2, 0.5)


def test_donor_indices_distinct_and_exclude_target():
    source = RngStream(11).trials(8, 8, 1.0)
    pop = np.eye(8)
    for _ in range(2000):
        trials = trials_of(pop, 0.5, source)
        for i, row in enumerate(trials):
            assert donor_triple(row, i) is not None


def test_crossover_cr_one_copies_donor():
    gen = np.random.default_rng(2)
    pop = np.arange(12.0).reshape(4, 3) ** 2
    for _ in range(50):
        donors = valid_donors(4, gen)
        script = scripted(donors, gen.integers(0, 3, size=4), gen.random((4, 3)), dim=3)
        expected = pop[donors[:, 0]] + 0.7 * (pop[donors[:, 1]] - pop[donors[:, 2]])
        assert np.array_equal(trials_of(pop, 0.7, script), expected)
    # the same on live draws: every trial is a whole, valid donor
    source = RngStream(2).trials(6, 6, 1.0)
    pop = np.eye(6)
    for _ in range(50):
        trials = trials_of(pop, 0.5, source)
        assert all(donor_triple(row, i) is not None for i, row in enumerate(trials))


def test_crossover_cr_zero_changes_exactly_one_coordinate():
    source = RngStream(3).trials(5, 4, 0.0)
    # F = 0 makes every donor another row, which differs from the target
    # in every coordinate
    pop = np.repeat(np.arange(5.0)[:, None], 4, axis=1)
    for _ in range(200):
        trials = trials_of(pop, 0.0, source)
        assert np.array_equal(np.count_nonzero(trials != pop, axis=1), np.ones(5))


def test_crossover_scripted_example():
    # row 0: forced index 0 takes the donor; the second coordinate draws 0.9 > CR
    pop = np.array([(10, 20), (1, 2), (3, 4), (5, 6)], dtype=float)
    source = scripted(
        [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
        forced=[0, 1, 0, 1],
        uniforms=[[0.3, 0.9], [0.9, 0.9], [0.05, 0.1], [0.9, 0.9]],
        CR=0.1,
    )
    trials = trials_of(pop, 0.0, source)
    assert np.array_equal(trials[0], [1.0, 20.0])
    assert np.array_equal(trials, [[1.0, 20.0], [1.0, 20.0], [10.0, 20.0], [5.0, 20.0]])


def test_crossover_always_inherits_from_donor():
    # CR is drawn from the stream once per iterator; each iterator serves 20 generations.
    rng = RngStream(4)
    pop = np.repeat(np.arange(4.0)[:, None], 2, axis=1)
    for _ in range(250):
        source = rng.trials(4, 2, rng.uniform(1).item())
        for _ in range(20):
            assert (trials_of(pop, 0.0, source) != pop).any(axis=1).all()


def test_trials_serve_their_blocks_generation_by_generation():
    # Each block's generations in order, then the next block's: the stream
    # moves once per block, when its first generation is taken, and the
    # items are what generate_trials applies.
    stream, ref = RngStream(8), np.random.default_rng(8)
    items = stream.trials(5, 2, 0.5)
    pop = np.arange(10.0).reshape(5, 2) ** 2
    blocks = 0
    for _ in range(3 * 40):
        at = (stream._at, len(stream._halves))
        rows, take = next(items)
        blocks += (stream._at, len(stream._halves)) != at
        r, f, u = reference_trial_draws(ref.integers, ref.random, 5, 2)
        want = u <= 0.5
        want[np.arange(5), f] = True
        assert rows.T.ravel().tolist() == r and np.array_equal(take, want)
        # the same generation through generate_trials
        donors = pop[rows[0]] + 0.5 * (pop[rows[1]] - pop[rows[2]])
        assert np.array_equal(trials_of(pop, 0.5, iter([(rows, take)])), np.where(want, donors, pop))
    assert 3 <= blocks < 40  # several generations per block


def test_generate_trials_refuses_sources_of_another_shape():
    # A (5, 1) mask would otherwise broadcast over (5, 2) rows silently.
    pop = np.zeros((2, 5, 2))
    for k in (1, 2):
        for n, d in ((5, 1), (6, 2), (4, 2)):
            with pytest.raises(ConfigurationError, match="trial masks"):
                generate_trials(pop[:k], 0.5, [RngStream(j).trials(n, d, 0.5) for j in range(k)])


# ---------------------------------------------------------------- selection

def select_one(parent, fitness, trial, objective, bounds=UNIT):
    """Plain selection of one trial against one parent with a cached fitness."""
    trials = np.array([trial], dtype=float)
    coords, fit = selection_step(
        np.array([parent], dtype=float), np.array([fitness], dtype=float),
        trials, 0, None, None, bounds, trial_values(trials, bounds, objective),
    )
    return coords[0], fit[0]


def test_select_greedy_rejects_out_of_bounds_without_evaluating():
    # an out-of-bounds trial arrives unevaluated, as +inf, and loses
    coords, fit = selection_step(
        np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]),
        np.array([[1.5, 0.5], [0.1, 0.1]]), 0, None, None, UNIT, np.array([np.inf, 0.02]),
    )
    assert np.array_equal(coords, [[0.5, 0.5], [0.1, 0.1]])
    assert fit.tolist() == [0.5, 0.02]
    # the engine evaluates only in-bounds trials, each once
    seen = []

    def recording(p):
        seen.append(np.array(p))
        return sphere(p)

    record = run_de(recording, UNIT, FAST, 4)
    assert len(seen) == record.nfe
    assert all(UNIT.contains(p) for p in seen)
    # some trials left the box: fewer evaluations than points drawn
    assert record.nfe < FAST.pop_size * (1 + record.generations_used[0])


def test_select_greedy_tie_goes_to_trial():
    flat = lambda p: 0.5
    coords, fit = select_one([0.5, 0.5], 0.5, [0.25, 0.25], flat)
    assert np.array_equal(coords, [0.25, 0.25])
    assert fit == 0.5


def test_select_greedy_himmelblau_example():
    problem = get_problem("B1")
    f0 = problem.objective(np.zeros(2))
    assert f0 == 170.0
    coords, fit = select_one([0.0, 0.0], f0, [3.0, 2.0], problem.objective, problem.bounds)
    assert np.array_equal(coords, [3.0, 2.0])
    assert fit == 0.0


def test_select_greedy_propagates_non_finite():
    # the first trial's NaN stops the run, and the error names that trial
    seen = []

    def bad(p):
        seen.append(np.array(p))
        return sphere(p) if len(seen) <= FAST.pop_size else float("nan")

    with pytest.raises(EvaluationError) as info:
        run_de(bad, UNIT, FAST, 0)
    assert np.array_equal(info.value.point, seen[FAST.pop_size])


# ---------------------------------------------------------------- spreading

def test_spreading_zero_on_collapsed_population():
    best = np.array([0.3, 0.7])
    pop = np.tile(best, (6, 1))
    assert spread_of(pop, best, UNIT) == 0.0


def test_spreading_hand_computed_example():
    best = np.array([0.5, 0.5])
    pop = np.array([best, [0.5, 1.0]])
    expected = 0.5 * (0.5 / math.sqrt(0.5))
    assert spread_of(pop, best, UNIT) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.35355339, abs=1e-8)


def test_spreading_permutation_invariant():
    pop = np.random.default_rng(5).random((8, 2))
    best = pop[3]
    base = spread_of(pop, best, UNIT)
    perm = pop[[5, 1, 7, 3, 0, 6, 2, 4]]
    assert spread_of(perm, best, UNIT) == pytest.approx(base, rel=1e-15)


def test_spreading_degenerate_denominator_uses_domain_diagonal():
    sym = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    best = np.zeros(2)
    pop = np.array([best, [1.0, 0.0]])
    expected = 0.5 / math.sqrt(8.0)
    assert spread_of(pop, best, sym) == pytest.approx(expected, rel=1e-12)


def test_spreading_nonnegative_random_populations():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pop = rng.random((10, 2))
        best = pop[np.argmin([sphere(c) for c in pop])]
        assert spread_of(pop, best, UNIT) >= 0.0


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

    def watch(gen, pop, fit, frozen):
        history.append(float(fit[0].min()))

    run_de(sphere, BOX, FAST, 3, observer=watch)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_run_de_population_stays_in_bounds():
    problem = get_problem("B1")

    def watch(gen, pop, fit, frozen):
        assert pop.shape == (1, problem.default_params.de.pop_size, 2)
        assert problem.bounds.contains_all(pop[0]).all()

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


def test_evaluate_batch_refuses_points_that_are_not_rows():
    # A plain callable took each coordinate of [3.0, 2.0], or each row of a (2, 3, 2)
    # stack, as a point; a batch method ended in a raw IndexError.
    for objective in (lambda x: float(np.sum(x)), get_problem("B1").objective):
        for bad in ([3.0, 2.0], np.zeros((2, 3, 2)), 1.0):
            with pytest.raises(ConfigurationError, match=r"points must be \(n, d\) rows"):
                evaluate_batch(objective, bad)
