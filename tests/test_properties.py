"""Property tests of the three engines over random dimensions, boxes and sizes.

Every property is checked through the engines' observer, which sees the
live ``(nsp, pop_size, d)`` population, its ``(nsp, pop_size)`` base
fitness and one frozen flag per subpopulation after each generation.
"""

import numpy as np
from conftest import CountingObjective, examples
from hypothesis import given
from hypothesis import strategies as st

from multide import Bounds, DEParams, MultiParams, PenaltyParams
from multide.harness import ENGINES

PROPERTY_SETTINGS = examples(60)


class DoubleWell:
    """Two wells per axis at a quarter and three quarters of the box."""

    def __init__(self, bounds):
        self.mid = (bounds.lower + bounds.upper) / 2
        self.half = bounds.span / 2

    def __call__(self, x):
        return float(self.batch(np.asarray(x, dtype=float)[None, :])[0])

    def batch(self, pts):
        z = (pts - self.mid) / self.half
        return np.sum((z * z - 0.25) ** 2, axis=1)


@st.composite
def engine_cases(draw, algorithms=("de", "mde-itmf", "dewi")):
    d = draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d)))
    bounds = Bounds(lower, lower + width)
    de = DEParams(
        pop_size=draw(st.integers(4, 12)),
        F=draw(st.floats(0.0, 1.0)),
        CR=draw(st.floats(0.0, 1.0)),
        max_generations=draw(st.integers(1, 30)),
    )
    algorithm = draw(st.sampled_from(algorithms))
    params = MultiParams(
        de=de,
        penalty=PenaltyParams(magnitude=draw(st.floats(0.1, 100.0)),
                              radius=draw(st.floats(0.01, 2.0)) * bounds.diagonal),
        subpops=draw(st.integers(1, 3)),
        switch_tol=draw(st.floats(1e-4, 1.0)) if algorithm == "dewi" else None,
    )
    return algorithm, bounds, params, draw(st.integers(0, 2**32 - 1))


def _run(case, objective, **kw):
    algorithm, bounds, params, seed = case
    engine, engine_params = ENGINES[algorithm]
    return engine(objective, bounds, engine_params(params), seed, **kw)


@PROPERTY_SETTINGS
@given(engine_cases())
def test_every_population_row_stays_in_bounds(case):
    bounds = case[1]
    generations = []

    def watch(gen, pop, fit, frozen):
        generations.append(gen)
        for coords in pop:
            assert bounds.contains_all(coords).all()

    record = _run(case, DoubleWell(bounds), observer=watch)
    assert generations
    for p in record.final_bests:
        assert bounds.contains(p.coords)


@PROPERTY_SETTINGS
@given(engine_cases(algorithms=("de",)))
def test_de_best_fitness_never_increases(case):
    history = []

    def watch(gen, pop, fit, frozen):
        history.append(fit.min(axis=1).copy())

    record = _run(case, DoubleWell(case[1]), observer=watch)
    for before, after in zip(history, history[1:]):
        assert np.all(after <= before)
    assert record.final_bests[0].fitness == history[-1][0]


@PROPERTY_SETTINGS
@given(engine_cases())
def test_nfe_equals_an_external_counter(case):
    counting = CountingObjective(DoubleWell(case[1]))
    record = _run(case, counting)
    assert record.nfe == counting.count
    nsp = 1 if case[0] == "de" else case[2].subpops
    assert record.nfe >= nsp * case[2].de.pop_size


@PROPERTY_SETTINGS
@given(engine_cases())
def test_rerun_at_the_same_seed_gives_an_identical_record(case):
    objective = DoubleWell(case[1])
    a = _run(case, objective, collect_trace=True)
    b = _run(case, objective, collect_trace=True)
    assert (a.algorithm, a.seed, a.nfe, a.generations_used) == (
        b.algorithm, b.seed, b.nfe, b.generations_used)
    assert len(a.final_bests) == len(b.final_bests)
    for pa, pb in zip(a.final_bests, b.final_bests):
        assert np.array_equal(pa.coords, pb.coords)
        assert pa.fitness == pb.fitness
    assert np.array_equal(a.trace, b.trace)
