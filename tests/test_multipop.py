"""Tests for the multipopulation engines and their selection step."""

import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import CountingObjective, sphere, trial_values

from multide import (
    Bounds,
    ConfigurationError,
    DEParams,
    EvaluationError,
    MultiParams,
    PenaltyParams,
    RngStream,
    best_records,
    get_problem,
    group_de_runs,
    init_population,
    match_minimizers,
    run_de,
    run_dewi,
    run_mde_itmf,
    selection_step,
    system_problem,
)
from multide.core import _spreading
from multide.deflation import penalty_batch
from multide.harness import ENGINES, ExperimentConfig, config_from_dict

BOX = Bounds(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))


# A run's final bests are its anchor rows with their base fitness, so these
# pin which member the engine takes as a subpopulation's best.

B1 = get_problem("B1")
B1_MDE = replace(B1.default_params, switch_tol=None)
NSP, N = B1_MDE.subpops, B1_MDE.de.pop_size


def start_anchors(init_values, seed=5):
    """Start anchors of a B1 mde-itmf run, and each subpopulation's initial draw.

    The objective returns ``init_values`` (shaped (nsp, pop_size), in
    evaluation order) for the initial populations, or B1's own values when
    it is None, and NaN on the first trial. The run stops before any step
    moves an anchor, so the partial record's bests are the start anchors.
    """
    draws = [init_population(B1.bounds, N, s) for s in RngStream(seed).split(NSP)]
    if init_values is None:
        init_values = [B1.objective.batch(d) for d in draws]
    values = iter(np.asarray(init_values, dtype=float).ravel().tolist())
    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(lambda p: next(values, float("nan")), B1.bounds, B1_MDE, seed)
    partial = info.value.partial_record
    assert partial.generations_used == [0] * NSP
    return partial.final_bests, draws


def test_best_of_subpop_tie_goes_to_lowest_index():
    bests, draws = start_anchors(np.ones((NSP, N)))
    assert np.array_equal([b.coords for b in bests], [d[0] for d in draws])
    assert [b.fitness for b in bests] == [1.0] * NSP
    # rows 1 and 3 tie for the lowest value at different points
    values = np.ones((NSP, N))
    values[:, [1, 3]] = 0.5
    bests, draws = start_anchors(values)
    assert np.array_equal([b.coords for b in bests], [d[1] for d in draws])


def test_best_of_subpop_himmelblau_pair():
    bests, draws = start_anchors(None)
    for best, draw in zip(bests, draws):
        values = B1.objective.batch(draw)
        assert np.array_equal(best.coords, draw[values.argmin()])
        assert best.fitness == values.min()


def test_best_of_subpop_invariant_to_non_best_permutation():
    # Each subpopulation's best sits at its own row; reversing the values of
    # the other rows moves no anchor.
    values = np.linspace(1.0, 2.0, NSP * N).reshape(NSP, N)
    best_rows = [2, 5, 7, 11]
    values[np.arange(NSP), best_rows] = 0.0
    reversed_values = values.copy()
    for j, row in enumerate(best_rows):
        others = np.delete(np.arange(N), row)
        reversed_values[j, others] = values[j, others[::-1]]
    for script in (values, reversed_values):
        bests, draws = start_anchors(script)
        assert np.array_equal([b.coords for b in bests],
                              [d[row] for d, row in zip(draws, best_rows)])


def test_final_bests_one_point_per_subpop_as_copies():
    engine_state = {}

    def keep_reference(gen, pop, fit, frozen):
        engine_state["pop"] = pop

    record = run_mde_itmf(B1.objective, B1.bounds, B1_MDE, 3, observer=keep_reference)
    assert len(record.final_bests) == NSP
    before = [b.coords.copy() for b in record.final_bests]
    engine_state["pop"][:] = 0.0
    assert np.array_equal([b.coords for b in record.final_bests], before)


def test_finished_record_bests_are_the_last_anchor_rows():
    last = {}

    def watch(gen, pop, fit, frozen):
        last.update(pop=pop.copy(), fit=fit.copy())

    for algorithm in ("mde-itmf", "dewi"):
        engine, engine_params = ENGINES[algorithm]
        params = engine_params(B1.default_params)
        record = engine(B1.objective, B1.bounds, params, 3, observer=watch)
        anchors = last["pop"][np.arange(NSP), last["fit"].argmin(axis=1)]
        assert np.array_equal([p.coords for p in record.final_bests], anchors)
        assert [p.fitness for p in record.final_bests] == last["fit"].min(axis=1).tolist()


def test_trace_rows_track_each_subpops_best_and_spreading():
    # One row per live or just-frozen subpopulation and generation: its best
    # after the generation, and its spreading around its own best before it.
    states = {}

    def watch(gen, pop, fit, frozen):
        states[gen] = (pop.copy(), fit.copy(), list(frozen))

    record = run_mde_itmf(B1.objective, B1.bounds, B1_MDE, 0, collect_trace=True, observer=watch)
    rows = {(int(r[0]), int(r[1])): r[2:] for r in record.trace}
    assert len(rows) == len(record.trace)
    frozen_seen = 0
    for gen, (pop, fit, frozen) in states.items():
        for j in range(NSP):
            was_frozen = gen > 1 and states[gen - 1][2][j]
            assert ((gen, j) in rows) == (not was_frozen)
            if was_frozen:
                continue
            b = fit[j].argmin()
            assert np.array_equal(rows[gen, j][:2], pop[j, b])
            assert rows[gen, j][2] == fit[j, b]
            if gen > 1:
                prev_pop, prev_fit, _ = states[gen - 1]
                before = prev_pop[j, prev_fit[j].argmin()]
                assert rows[gen, j][3] == _spreading(prev_pop[j][None], before[None], B1.bounds)[0]
            frozen_seen += frozen[j]
    assert frozen_seen == NSP


# ------------------------------------------------------------ selection step

def random_scenario(seed, pop_size=8):
    rng = np.random.default_rng(seed)
    coords = rng.random((pop_size, 2)) * 3 - 1.5
    fitness = np.array([sphere(c) for c in coords])
    trials = rng.random((pop_size, 2)) * 5 - 2.5  # some rows out of bounds
    anchors = np.stack([rng.random(2), rng.random(2)])
    return coords, fitness, trials, anchors


def select_greedy(target, trial, objective, bounds):
    """Reference one-to-one selection: out of bounds loses, ties go to the trial."""
    if not bounds.contains(trial):
        return target
    f_trial = float(objective(trial))
    return best_records([trial], [f_trial])[0] if f_trial <= target.fitness else target


def test_selection_step_plain_matches_select_greedy():
    coords, fitness, trials, _ = random_scenario(7)
    new_coords, new_fitness = selection_step(
        coords, fitness, trials, 0, None, None, BOX, trial_values(trials, BOX, sphere)
    )
    for i in range(len(coords)):
        target = best_records([coords[i]], [fitness[i]])[0]
        expect = select_greedy(target, trials[i], sphere, BOX)
        assert np.array_equal(new_coords[i], expect.coords)
        assert new_fitness[i] == expect.fitness


def test_selection_step_penalized_equals_plain_when_anchors_far():
    coords, fitness, trials, _ = random_scenario(8)
    far = np.array([[50.0, 50.0], [-60.0, 10.0]])
    penalty = PenaltyParams(magnitude=2000.0, radius=1.0)
    values = trial_values(trials, BOX, sphere)
    plain = selection_step(coords, fitness, trials, 0, None, None, BOX, values)
    pen = selection_step(coords, fitness, trials, 0, far, penalty, BOX, values)
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
        parent, fitness, trial, 0, anchors, penalty, problem.bounds,
        trial_values(trial, problem.bounds, problem.objective),
    )
    assert np.array_equal(new_coords[0], [-2.0, 0.0])


def test_selection_step_out_of_bounds_trials_never_evaluated():
    # out-of-bounds trials arrive unevaluated, as +inf, and lose
    coords = np.array([[0.0, 0.0], [0.5, 0.5]])
    fitness = np.array([0.0, 0.5])
    trials = np.array([[5.0, 5.0], [-3.0, 0.0]])
    new_coords, new_fitness = selection_step(
        coords, fitness, trials, 0, None, None, BOX, np.full(2, np.inf)
    )
    assert np.array_equal(new_coords, coords)
    assert np.array_equal(new_fitness, fitness)
    # live: no engine ever hands the objective an out-of-bounds point
    seen = []

    def recording(p):
        seen.append(np.array(p))
        return B1.objective(p)

    for algorithm in ("mde-itmf", "dewi"):
        engine, engine_params = ENGINES[algorithm]
        record = engine(recording, B1.bounds, engine_params(B1.default_params), 3)
        assert len(seen) == record.nfe
        assert all(B1.bounds.contains(p) for p in seen)
        seen.clear()


def test_selection_step_penalized_score_never_worsens():
    from multide.deflation import penalty_batch

    penalty = PenaltyParams(magnitude=100.0, radius=1.0)
    for seed in range(50):
        coords, fitness, trials, anchors = random_scenario(seed)
        new_coords, new_fitness = selection_step(
            coords, fitness, trials, 0, anchors, penalty, BOX, trial_values(trials, BOX, sphere)
        )
        old_score = fitness + penalty_batch(coords, 0, anchors, penalty)
        new_score = new_fitness + penalty_batch(new_coords, 0, anchors, penalty)
        assert np.all(new_score <= old_score + 1e-12)


def test_selection_step_out_of_bounds_trial_loses_to_an_overflowing_parent():
    # Three foreign anchors on the parent lift its penalized score to +inf.
    # The out-of-bounds trial's +inf mark tied with it and won; an in-bounds
    # trial still wins that tie.
    penalty = PenaltyParams(magnitude=1e308, radius=1.0)
    anchors = np.zeros((4, 2))
    coords, fitness = np.zeros((2, 2)), np.zeros(2)
    trials = np.array([[99.0, 99.0], [0.0, 0.0]])
    with np.errstate(over="ignore"):
        new_coords, new_fitness = selection_step(
            coords, fitness, trials, 0, anchors, penalty, BOX, np.array([np.inf, 1.0]))
    assert new_coords.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert new_fitness.tolist() == [0.0, 1.0]


@pytest.mark.filterwarnings("error")
def test_huge_domains_run_and_score_without_overflow_warnings():
    # Squared distances past the float range read +inf, so they give no
    # penalty and match no minimizer; they once raised numpy's overflow warning.
    huge = Bounds([-1e200] * 2, [1e200] * 2)
    de = DEParams(pop_size=10, F=0.5, CR=0.9, max_generations=20)
    multi = MultiParams(de=de, penalty=PenaltyParams(2.0, 1.0), subpops=3)
    objective = lambda x: float(np.abs(x).sum())  # finite everywhere in the domain
    for run, params in ((run_de, de), (run_mde_itmf, multi),
                        (run_dewi, replace(multi, switch_tol=1e-3))):
        assert run(objective, huge, params, 0).generations_used[0] == 20
    # A best at the origin makes the spreading fall back to distances over
    # the diagonal (2.8e200, which numpy's norm overflowed on); a distance
    # past the float range reads inf, so the population keeps stepping.
    run_de(objective, huge, replace(de, max_generations=1000), 1)
    rows = np.array([[[1e200, 0.0], [0.0, -1e200], [-1e200, 0.0], [0.0, 1e200]]])
    assert _spreading(rows, np.zeros((1, 2)), huge).tolist() == [np.inf]
    distant = penalty_batch(np.zeros((3, 2)), 0, np.full((3, 2), 1e308), PenaltyParams(2.0, 1.0))
    assert distant.tolist() == [0.0, 0.0, 0.0]
    assert match_minimizers(best_records([[1e200, 0.0]], [0.0]), B1) == set()


def test_selection_step_needs_penalty_params_for_penalized_mode():
    coords, fitness, trials, anchors = random_scenario(1)
    with pytest.raises(ConfigurationError):
        selection_step(coords, fitness, trials, 0, anchors, None, BOX,
                       trial_values(trials, BOX, sphere))


SHAPE_MISMATCHES = {
    # One trial value against four parents gave every winner that value.
    "one trial value": lambda c, f, t, v: (c, f, t, v[:1]),
    # One trial row replaced every parent that lost.
    "one trial row": lambda c, f, t, v: (c, f, t[:1], v),
    "trials of another width": lambda c, f, t, v: (c, f, t[:, :1], v),
    "fitness as a column": lambda c, f, t, v: (c, f[:, None], t, v),
    "trial values as a column": lambda c, f, t, v: (c, f, t, v[:, None]),
    "one point as coords": lambda c, f, t, v: (c[0], f[:2], t[0], v[:2]),
}


@pytest.mark.parametrize("penalized", [False, True], ids=["plain", "penalized"])
@pytest.mark.parametrize("mismatch", list(SHAPE_MISMATCHES))
def test_selection_step_refuses_mismatched_shapes(mismatch, penalized):
    coords, fitness, trials, anchors = random_scenario(2, pop_size=4)
    values = trial_values(trials, BOX, sphere)
    coords, fitness, trials, values = SHAPE_MISMATCHES[mismatch](coords, fitness, trials, values)
    penalty = PenaltyParams(magnitude=100.0, radius=1.0)
    with pytest.raises(ConfigurationError, match="selection needs"):
        selection_step(coords, fitness, trials, 0, anchors if penalized else None,
                       penalty if penalized else None, BOX, values)


# ------------------------------------------------------------------ engines

def test_multiparams_validation():
    de = DEParams(pop_size=10, F=0.5, CR=0.5)
    with pytest.raises(ConfigurationError):
        MultiParams(de=de, subpops=0)
    with pytest.raises(ConfigurationError):
        MultiParams(de=de, switch_tol=de.spread_tol)
    for subpops in (2.5, True):
        with pytest.raises(ConfigurationError, match="subpops must be an integer"):
            MultiParams(de=de, subpops=subpops)
    assert MultiParams(de=de, subpops=np.int64(2)).subpops == 2


# An int past str's digit limit, which a refusal names by its digit count.
HUGE, HUGE_SHOWN = 10**5000, "an integer of 5001 digits"


def shown(value) -> str:
    return HUGE_SHOWN if value in (HUGE, -HUGE) else repr(value)


# Each parameter, as its refusal names it -> (its interval, None for own_index's
# integer rule; a call taking it).
BUNDLE_FIELDS = {
    "F": ("[0, 1]", lambda v: DEParams(pop_size=10, F=v, CR=0.5)),
    "CR": ("[0, 1]", lambda v: DEParams(pop_size=10, F=0.5, CR=v)),
    "spread_tol": ("(0, inf)", lambda v: DEParams(pop_size=10, F=0.5, CR=0.5, spread_tol=v)),
    "magnitude": ("(0, inf)", lambda v: PenaltyParams(magnitude=v, radius=1.0)),
    "radius": ("(0, inf)", lambda v: PenaltyParams(magnitude=1.0, radius=v)),
    "switch_tol": ("[-inf, inf]",
                   lambda v: MultiParams(de=DEParams(pop_size=10, F=0.5, CR=0.5), switch_tol=v)),
    "match_tolerance": ("(0, inf)", lambda v: system_problem(
        get_problem("B7").objective, BOX, [[0.0, 0.0]], match_tolerance=v)),
    "trials CR": ("[0, 1]", lambda v: RngStream(0).trials(6, 2, v)),
    "parameter f": ("(-inf, inf)",
                    lambda v: ExperimentConfig(problems=["B1"], overrides={"f": v})),
    "own_index": (None, lambda v: penalty_batch(np.zeros((2, 2)), v, np.ones((3, 2)),
                                                PenaltyParams(magnitude=1.0, radius=1.0))),
}


# A string, None or a list once ended in a raw TypeError, and a bool was taken as 0 or 1.
# (None is switch_tol's "unset".)
@pytest.mark.parametrize("field, value", [
    *[(field, value) for field in BUNDLE_FIELDS for value in ("1", True, None, [1])
      if (field, value) != ("switch_tol", None)],
    ("own_index", 1.5), ("own_index", np.float64(1.0)),
], ids=repr)
def test_parameter_bundles_refuse_bools_and_non_numbers(field, value):
    with pytest.raises(ConfigurationError, match=field):
        BUNDLE_FIELDS[field][1](value)


@pytest.mark.parametrize("field", list(BUNDLE_FIELDS))
def test_parameter_bundles_take_numpy_numbers(field):
    BUNDLE_FIELDS[field][1](np.int64(1) if field == "own_index" else np.float32(0.5))


# An open interval refuses its bounds too, so a radius of inf is refused.
@pytest.mark.parametrize("field", [field for field in BUNDLE_FIELDS if field != "own_index"])
def test_every_real_parameter_takes_one_rule(field):
    interval, call = BUNDLE_FIELDS[field]
    low, high = (float(bound) for bound in interval[1:-1].split(", "))
    past = [value for value in (low - 0.5, high + 0.5) if np.isfinite(value)]
    if interval[0] == "(":
        past += [low, high]
    if np.isfinite(high):
        past.append(HUGE)
    for bad in (True, "1", None, [1], float("nan"), *past):
        if (field, bad) == ("switch_tol", None):
            continue
        with pytest.raises(ConfigurationError, match=re.escape(
                f"{field} must be a number in {interval}, got {shown(bad)}")):
            call(bad)
    if not np.isfinite(high):  # inside the interval, but no float holds it
        with pytest.raises(ConfigurationError, match=re.escape(f"{field} is too large for a float")):
            call(10**400)


DE = DEParams(pop_size=10, F=0.5, CR=0.5)

# Every size, count and seed, as its refusal names it -> (lowest value, a call taking it).
COUNT_INPUTS = {
    "pop_size": (4, lambda v: DEParams(pop_size=v, F=0.5, CR=0.5)),
    "max_generations": (1, lambda v: replace(DE, max_generations=v)),
    "subpops": (1, lambda v: MultiParams(de=DE, subpops=v)),
    "population count": (1, lambda v: init_population(BOX, v, RngStream(0))),
    "group_size": (1, lambda v: group_de_runs([], v)),
    "trials n": (4, lambda v: RngStream(0).trials(v, 2, 0.5)),
    "trials d": (1, lambda v: RngStream(0).trials(6, v, 0.5)),
    "runs": (1, lambda v: ExperimentConfig(problems=["B1"], runs=v)),
    "seed": (0, lambda v: ExperimentConfig(problems=["B1"], seed=v)),
}


@pytest.mark.parametrize("what", list(COUNT_INPUTS))
def test_every_count_input_takes_one_integer_rule(what):
    low, call = COUNT_INPUTS[what]
    for bad in (True, 2.5, "3", None, low - 1, -HUGE):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"{what} must be an integer >= {low}, got {shown(bad)}")):
            call(bad)
    call(np.int64(low))
    # A config file's JSON number 2.0 is still the whole number 2.
    assert config_from_dict({"problems": ["B1"], "runs": 2.0, "seed": 3.0}).runs == 2


def test_engine_parameter_bundle_contracts():
    problem = get_problem("B1")
    params = problem.default_params
    with pytest.raises(ConfigurationError):
        run_mde_itmf(problem.objective, problem.bounds, params, 0)  # carries switch_tol
    with pytest.raises(ConfigurationError):
        run_dewi(problem.objective, problem.bounds, replace(params, switch_tol=None), 0)
    with pytest.raises(ConfigurationError, match="^run_dewi needs penalty parameters$"):
        run_dewi(problem.objective, problem.bounds, replace(params, penalty=None), 0)
    bare = replace(params, switch_tol=None, penalty=None)
    with pytest.raises(ConfigurationError):
        run_mde_itmf(problem.objective, problem.bounds, bare, 0)


# Each once ran: 3.7 as seed 3, True as seed 1, and a split stream under a
# recorded seed that did not reproduce it; -1 ended in numpy's ValueError.
@pytest.mark.parametrize("seed", [3.7, True, -1, RngStream(5, (3,))], ids=repr)
def test_engines_refuse_a_seed_that_is_not_a_whole_number(seed):
    problem = get_problem("B3")
    for engine, engine_params in ENGINES.values():
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            engine(problem.objective, problem.bounds, engine_params(problem.default_params), seed)


def test_numpy_integer_seed_runs_as_the_same_int():
    problem = get_problem("B3")
    a = run_de(problem.objective, problem.bounds, problem.default_params.de, np.int64(5))
    b = run_de(problem.objective, problem.bounds, problem.default_params.de, 5)
    assert type(a.seed) is int and a.seed == b.seed == 5
    assert (a.nfe, a.generations_used) == (b.nfe, b.generations_used)
    assert [(p.coords.tolist(), p.fitness) for p in a.final_bests] == \
        [(p.coords.tolist(), p.fitness) for p in b.final_bests]


def test_single_subpop_engine_reproduces_run_de():
    problem = get_problem("B1")
    params = replace(problem.default_params, switch_tol=None, subpops=1)
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
    vanishing = replace(params, switch_tol=None,
                        penalty=replace(params.penalty, magnitude=1e-300))
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
        b = run_mde_itmf(problem.objective, problem.bounds, replace(params, switch_tol=None), seed)
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
        problem.objective, problem.bounds, replace(problem.default_params, switch_tol=None),
        0, observer=watch,
    )
    assert len(frozen_snapshots) == 4  # every subpopulation converged and froze
    assert all(g < problem.default_params.de.max_generations for g in record.generations_used)


def test_engine_nfe_matches_external_counter():
    problem = get_problem("B1")
    counting = CountingObjective(problem.objective)
    record = run_mde_itmf(
        counting, problem.bounds, replace(problem.default_params, switch_tol=None), 0
    )
    assert record.nfe == counting.count
    assert record.nfe > 0


def test_engine_finds_all_himmelblau_minima_single_run():
    problem = get_problem("B1")
    record = run_mde_itmf(
        problem.objective, problem.bounds, replace(problem.default_params, switch_tol=None), 0
    )
    assert len(match_minimizers(record.final_bests, problem)) == 4
    assert record.algorithm == "mde-itmf"
    assert record.seed == 0


def test_observer_sees_live_base_fitness_and_sticky_freezing():
    problem = get_problem("B1")
    params = replace(problem.default_params, switch_tol=None)
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
        run_mde_itmf(flaky, problem.bounds, replace(problem.default_params, switch_tol=None), 0)
    partial = info.value.partial_record
    assert partial is not None
    assert partial.nfe >= 300
    assert partial.algorithm == "mde-itmf"


def test_partial_record_final_bests_are_evaluated_in_bounds_points():
    problem = get_problem("B1")
    params = replace(problem.default_params, switch_tol=None)
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
    params = replace(problem.default_params, switch_tol=None)
    calls = {"n": 0}

    def fails_in_second_subpop(p):
        calls["n"] += 1
        return float("nan") if calls["n"] > params.de.pop_size + 3 else problem.objective(p)

    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(fails_in_second_subpop, problem.bounds, params, 0)
    partial = info.value.partial_record
    assert len(partial.final_bests) == 0
    assert partial.generations_used == [0] * params.subpops
    assert partial.nfe == 2 * params.de.pop_size


def capped(params, gmax):
    return replace(params, de=replace(params.de, max_generations=gmax))


@pytest.mark.parametrize("nsp", [2, 3, 4])
def test_failed_generation_reports_the_previous_one_and_every_call(nsp, monkeypatch):
    # A NaN on subpopulation 1's first evaluated trial of generation 2 fails
    # the run as it stood after generation 1, with every objective call counted.
    import multide.multipop as mp

    params = replace(B1_MDE, subpops=nsp)
    stacks, real_generate_trials = [], mp.generate_trials

    def recording_generate_trials(pops, F, sources):
        stacks.append(real_generate_trials(pops, F, sources))
        return stacks[-1]

    monkeypatch.setattr(mp, "generate_trials", recording_generate_trials)
    run_mde_itmf(B1.objective, B1.bounds, capped(params, 2), 8)
    monkeypatch.undo()
    trials = stacks[1]  # generation 2's stack: every subpopulation steps
    assert len(trials) == nsp
    target = trials[1][B1.bounds.contains_all(trials[1])][0]
    gen2_rows = int(np.count_nonzero(B1.bounds.contains_all(trials.reshape(-1, 2))))
    calls = {"n": 0}

    def failing(p):
        calls["n"] += 1
        return float("nan") if np.array_equal(p, target) else B1.objective(p)

    with pytest.raises(EvaluationError) as info:
        run_mde_itmf(failing, B1.bounds, params, 8)
    partial = info.value.partial_record
    one_gen = run_mde_itmf(B1.objective, B1.bounds, capped(params, 1), 8)
    assert partial.nfe == calls["n"] == one_gen.nfe + gen2_rows
    assert partial.generations_used == one_gen.generations_used == [1] * nsp
    digits = [[f"{v:.17g}" for v in (*b.coords, b.fitness)] for b in partial.final_bests]
    assert digits == [[f"{v:.17g}" for v in (*b.coords, b.fitness)] for b in one_gen.final_bests]
    assert np.array_equal(info.value.point, target)


def test_dewi_equals_mde_itmf_at_default_settings():
    """At the registry's switch tolerance DEwI's switch changes no outcome on B1-B10.

    ``dewi`` and ``mde-itmf`` (``switch_tol=None``) give the same ``nfe``,
    generations and final bests, bit for bit, at seeds 0-2, as README
    states. A change to ``run_dewi`` that breaks this brings ROADMAP item
    7's switch study: where DEwI departs from MDE-ITMF and at what cost.
    """
    for pid in [f"B{i}" for i in range(1, 11)]:
        problem = get_problem(pid)
        plain = replace(problem.default_params, switch_tol=None)
        for seed in range(3):
            dewi = run_dewi(problem.objective, problem.bounds, problem.default_params, seed)
            mde = run_mde_itmf(problem.objective, problem.bounds, plain, seed)
            assert (dewi.nfe, dewi.generations_used) == (mde.nfe, mde.generations_used)
            assert dewi.final_bests.tobytes() == mde.final_bests.tobytes()
