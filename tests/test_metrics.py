"""Tests for minimizer matching, DE grouping, and descriptive statistics."""

import numpy as np
import pytest
from conftest import examples
from hypothesis import given
from hypothesis import strategies as st

from multide import (
    ConfigurationError,
    RunRecord,
    aggregate,
    best_records,
    get_problem,
    group_de_runs,
    list_problems,
    match_minimizers,
)


def pts(*coords):
    return best_records(np.array(coords, dtype=float), np.zeros(len(coords)))


def record(seed, nfe, bests, et=0.5):
    return RunRecord(
        algorithm="de", seed=seed, elapsed_seconds=et, nfe=nfe,
        final_bests=bests, generations_used=[10], problem="B1",
    )


# ------------------------------------------------------------------- NGP

def test_count_ngp_all_four_himmelblau():
    problem = get_problem("B1")
    assert len(match_minimizers(pts(*problem.known_minimizers), problem)) == 4


def test_count_ngp_duplicates_count_once():
    problem = get_problem("B1")
    assert len(match_minimizers(pts((3.0, 2.0), (3.0, 2.0), (3.0, 2.0), (3.0, 2.0)), problem)) == 1


def test_count_ngp_near_match_and_miss():
    problem = get_problem("B1")
    bests = pts((3.02, 2.01), (5.9, 5.9))
    assert len(match_minimizers(bests, problem)) == 1
    assert match_minimizers(bests, problem) == {0}


def test_count_ngp_bounded_and_monotone():
    problem = get_problem("B1")
    coords = [(3.0, 2.0)]
    assert len(match_minimizers(pts(*coords), problem)) == 1
    coords.append((-2.805118, 3.131313))
    assert len(match_minimizers(pts(*coords), problem)) == 2
    coords.extend(problem.known_minimizers)
    assert len(match_minimizers(pts(*coords), problem)) == problem.minimizer_count


def test_match_boundary_is_inclusive():
    problem = get_problem("B1")
    at_tol = pts((3.0 + problem.match_tolerance, 2.0))
    assert len(match_minimizers(at_tol, problem)) == 1


@pytest.mark.parametrize("coords", [[[0.0]], [[0.0, 0.0, 0.0]], np.empty((0, 1))], ids=repr)
def test_match_refuses_bests_of_another_width(coords):
    # Broadcasting would match a (1, 1) best at 0.0 to B2's minimizer (0, 0).
    coords = np.asarray(coords, dtype=float)
    with pytest.raises(ConfigurationError, match=r"bests must be \(k, 2\) points"):
        match_minimizers(best_records(coords, np.zeros(len(coords))), get_problem("B2"))


def reference_matches(coords, problem):
    """Per-best matching: one distance row per best, as a loop over the bests."""
    matched = set()
    minimizers = np.asarray(problem.known_minimizers, dtype=float)
    for best in coords:
        dist = np.sqrt(np.sum((minimizers - best) ** 2, axis=1))
        matched.update(int(i) for i in np.flatnonzero(dist <= problem.match_tolerance))
    return matched


@st.composite
def registry_bests(draw):
    """A registry problem and 0-12 bests: anywhere, near a minimizer, or exactly at
    the match tolerance from one along an axis, with repeats."""
    problem = draw(st.sampled_from(list_problems()))
    minimizers, tol = problem.known_minimizers, problem.match_tolerance
    unit = st.floats(0.0, 1.0)
    anywhere = st.tuples(unit, unit).map(
        lambda u: problem.bounds.lower + np.array(u) * problem.bounds.span)
    index = st.integers(0, problem.minimizer_count - 1)
    near = st.tuples(index, st.floats(-2 * tol, 2 * tol), st.floats(-2 * tol, 2 * tol)).map(
        lambda t: minimizers[t[0]] + np.array(t[1:]))
    at_tol = st.tuples(index, st.sampled_from([(tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol)]))
    at_tol = at_tol.map(lambda t: minimizers[t[0]] + np.array(t[1]))
    distinct = draw(st.lists(st.one_of(anywhere, near, at_tol), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=12))
    return problem, np.array(rows, dtype=float).reshape(-1, 2)


@examples(200)
@given(registry_bests())
def test_match_minimizers_equals_the_per_best_loop(case):
    problem, coords = case
    bests = best_records(coords, np.zeros(len(coords)))
    assert match_minimizers(bests, problem) == reference_matches(coords, problem)


def test_best_records_fields_are_the_arrays_it_was_given():
    coords, fitness = np.arange(6.0).reshape(3, 2), np.array([0.5, 1.5, 2.5])
    bests = best_records(coords, fitness)
    assert isinstance(bests, np.recarray) and len(bests) == 3
    assert np.array_equal(bests.coords, coords) and np.array_equal(bests.fitness, fitness)
    assert np.array_equal(bests[1].coords, coords[1]) and bests[1].fitness == 1.5
    coords[0, 0] = 99.0  # a copy, not a view of the caller's array
    assert bests.coords[0, 0] == 0.0
    assert best_records(np.empty((0, 2)), []).coords.shape == (0, 2)


def test_renaming_one_best_records_array_leaves_the_others():
    earlier, renamed = pts((0.0, 0.0)), pts((1.0, 1.0), (2.0, 2.0))
    (group,) = group_de_runs([record(0, 1, earlier), record(1, 1, renamed)], 2)
    assert earlier.dtype == renamed.dtype and type(earlier) is type(renamed) is np.recarray
    renamed.dtype.names = ("x", "y")
    later = pts((3.0, 3.0))
    for bests in (earlier, later, group.final_bests):
        assert bests.dtype.names == ("coords", "fitness")
        assert bests.coords.shape == (len(bests), 2) and bests.fitness.shape == (len(bests),)
    group.final_bests.dtype.names = ("a", "b")
    assert earlier.dtype.names == later.dtype.names == ("coords", "fitness")
    assert best_records(np.zeros((1, 3)), [0.0]).dtype != later.dtype


@pytest.mark.parametrize("coords, fitness", [
    (np.zeros(2), [0.0]), (np.zeros((2, 2)), [0.0]), (np.zeros((1, 2)), [[0.0]]),
])
def test_best_records_refuses_mismatched_shapes(coords, fitness):
    with pytest.raises(ConfigurationError):
        best_records(coords, fitness)


# --------------------------------------------------------------- grouping

def test_group_de_runs_shapes_and_sums():
    records = [record(seed=i, nfe=100 + i, bests=pts((3.0, 2.0))) for i in range(12)]
    groups = group_de_runs(records, 4)
    assert len(groups) == 3
    assert groups[0].nfe == sum(100 + i for i in range(4))
    assert groups[0].elapsed_seconds == pytest.approx(2.0)
    assert len(groups[0].final_bests) == 4
    assert groups[0].seed == 0 and groups[1].seed == 4
    assert isinstance(groups[0].final_bests, np.recarray)
    assert groups[0].final_bests.coords.shape == (4, 2)


def test_group_of_identical_runs_has_ngp_one():
    problem = get_problem("B1")
    records = [record(seed=i, nfe=50, bests=pts((3.0, 2.0))) for i in range(4)]
    group = group_de_runs(records, 4)[0]
    assert len(match_minimizers(group.final_bests, problem)) == 1


def test_group_matches_are_the_union_of_its_runs_matches():
    problem = get_problem("B1")
    bests = [pts(problem.known_minimizers[0]), pts(problem.known_minimizers[2]), pts((0.0, 0.0)),
             pts(problem.known_minimizers[0])]
    records = [record(seed=i, nfe=50, bests=b) for i, b in enumerate(bests)]
    for r in records:
        r.matched_minimizers = match_minimizers(r.final_bests, problem)
    (group,) = group_de_runs(records, 4)
    assert group.matched_minimizers == {0, 2} == match_minimizers(group.final_bests, problem)
    assert group.ngp == 2
    # one unscored run leaves the whole group unscored
    records[2].matched_minimizers = None
    (group,) = group_de_runs(records, 4)
    assert group.matched_minimizers is None and group.ngp is None


def test_group_de_runs_rejects_indivisible_count():
    records = [record(seed=i, nfe=1, bests=pts((0.0, 0.0))) for i in range(10)]
    with pytest.raises(ConfigurationError, match="cannot group 10 records"):
        group_de_runs(records, 4)


@pytest.mark.parametrize("size", [True, 2.0, 0, -2, None], ids=repr)
def test_group_de_runs_refuses_a_size_that_is_not_a_count(size):
    # True grouped by 1, 2.0 raised a raw TypeError and 0 a plain ValueError.
    records = [record(seed=i, nfe=1, bests=pts((0.0, 0.0))) for i in range(4)]
    with pytest.raises(ConfigurationError, match="group_size"):
        group_de_runs(records, size)
    assert len(group_de_runs(records, np.int64(2))) == 2


# ------------------------------------------------------------- aggregation

def test_aggregate_constant_values():
    stats = aggregate([2.0, 2.0, 2.0, 2.0])
    assert stats.mean == 2.0
    assert stats.stddev == 0.0
    assert stats.cv_percent == 0.0


def test_aggregate_population_convention():
    stats = aggregate([0.0, 4.0])
    assert stats.mean == 2.0
    assert stats.stddev == 2.0
    assert stats.cv_percent == 100.0


def test_aggregate_zero_mean_has_no_cv():
    stats = aggregate([0.0, 0.0, 0.0])
    assert stats.mean == 0.0
    assert stats.cv_percent is None


def test_aggregate_refuses_single_value():
    with pytest.raises(ConfigurationError, match="at least two values"):
        aggregate([3.14])


def test_aggregate_permutation_invariant_and_scale_covariant():
    values = [1.0, 5.0, 2.5, 9.0, 4.0]
    base = aggregate(values)
    shuffled = aggregate([values[i] for i in [3, 0, 4, 2, 1]])
    assert shuffled == base
    scaled = aggregate([7.0 * v for v in values])
    assert scaled.mean == pytest.approx(7.0 * base.mean, rel=1e-15)
    assert scaled.stddev == pytest.approx(7.0 * base.stddev, rel=1e-12)
    assert scaled.cv_percent == pytest.approx(base.cv_percent, rel=1e-12)


def test_all_fours_ngp_list_has_zero_sigma():
    stats = aggregate([4.0] * 30)
    assert stats.mean == 4.0
    assert stats.stddev == 0.0
