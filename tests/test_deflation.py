"""Tests for the repulsion penalty and residual-sum objectives."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import CountingObjective, sphere, trial_values

from multide import (
    Bounds,
    ConfigurationError,
    PenaltyParams,
    ResidualObjective,
    get_problem,
    run_dewi,
    selection_step,
)
from multide.benchmarks import DEFAULT_SYSTEM
from multide.deflation import penalty_batch


def anchors_of(*vectors):
    """(nsp, d) anchor array with one row per given vector."""
    return np.array(vectors, dtype=float)


def penalty_at(x, own_index, anchors, params):
    """Penalty at one point, through the batch function the engines call."""
    return float(penalty_batch(np.array([x], dtype=float), own_index, anchors, params)[0])


def test_indicator_boundary_is_inside():
    params = PenaltyParams(magnitude=1.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [0.0, 0.0])
    for inside in (0.5, 1.0):
        expected = math.exp(-inside)
        assert penalty_at([inside, 0.0], 0, anchors, params) == pytest.approx(expected, rel=1e-15)
    assert penalty_at([1.5, 0.0], 0, anchors, params) == 0.0


def test_penalty_params_validation():
    with pytest.raises(ConfigurationError):
        PenaltyParams(magnitude=0.0, radius=1.0)
    with pytest.raises(ConfigurationError):
        PenaltyParams(magnitude=10.0, radius=-1.0)


def test_penalized_at_foreign_anchor_adds_full_magnitude():
    params = PenaltyParams(magnitude=2000.0, radius=1.5)
    anchors = anchors_of([5.0, 5.0], [0.25, 0.25])
    x = np.array([0.25, 0.25])  # exactly on the foreign anchor (own_index 0)
    assert sphere(x) + penalty_at(x, 0, anchors, params) == pytest.approx(sphere(x) + 2000.0)


def test_penalized_far_from_all_anchors_equals_base():
    params = PenaltyParams(magnitude=2000.0, radius=0.5)
    anchors = anchors_of([10.0, 10.0], [-10.0, -10.0])
    x = np.array([0.0, 0.0])
    assert penalty_at(x, 0, anchors, params) == 0.0


def test_penalized_single_subpop_has_empty_sum():
    params = PenaltyParams(magnitude=2000.0, radius=2.0)
    anchors = anchors_of([0.0, 0.0])
    x = np.array([0.0, 0.0])
    assert penalty_at(x, 0, anchors, params) == 0.0


def test_penalty_self_exclusion_by_index():
    params = PenaltyParams(magnitude=100.0, radius=2.0)
    x = np.array([0.1, 0.1])
    a1 = anchors_of([0.1, 0.1], [1.0, 1.0])
    a2 = anchors_of([-9.0, 4.0], [1.0, 1.0])  # own row moved, foreign fixed
    assert penalty_at(x, 0, a1, params) == penalty_at(x, 0, a2, params)
    assert penalty_at(x, 0, a1, params) == pytest.approx(
        100.0 * math.exp(-np.linalg.norm([0.9, 0.9])), rel=1e-15
    )


def test_penalty_discontinuity_at_radius():
    params = PenaltyParams(magnitude=2000.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [0.0, 0.0])
    inside = penalty_at([params.radius - 1e-9, 0.0], 0, anchors, params)
    on_edge = penalty_at([params.radius, 0.0], 0, anchors, params)
    outside = penalty_at([params.radius + 1e-9, 0.0], 0, anchors, params)
    floor = params.magnitude * math.exp(-params.radius)
    assert on_edge == pytest.approx(floor, rel=1e-12)
    assert inside == pytest.approx(floor, rel=1e-6)
    assert outside == 0.0


def test_penalized_dominates_base_with_equality_iff_far():
    rng = np.random.default_rng(12)
    params = PenaltyParams(magnitude=50.0, radius=0.8)
    for _ in range(200):
        anchors = anchors_of(rng.random(2) * 4 - 2, rng.random(2) * 4 - 2)
        x = rng.random(2) * 4 - 2
        base = sphere(x)
        pen = base + penalty_at(x, 0, anchors, params)
        assert pen >= base
        far = np.linalg.norm(x - anchors[1]) > params.radius
        assert (pen == base) == far


def test_penalized_performs_exactly_one_base_evaluation(monkeypatch):
    # penalized selection compares each in-bounds trial's one base value and
    # reuses the parents' cached values
    import multide.multipop as mp

    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])
    coords = np.array([[0.5, 0.5], [0.2, 0.4], [0.9, 0.1]])
    fitness = np.array([sphere(c) for c in coords])
    trials = np.array([[0.4, 0.5], [5.0, 0.0], [0.8, 0.2]])  # the middle one leaves the box
    bounds = Bounds(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    new_coords, _ = selection_step(coords, fitness, trials, 1, anchors, params, bounds,
                                   trial_values(trials, bounds, sphere))
    assert np.array_equal(new_coords[1], coords[1])
    # live: the engine evaluates every in-bounds trial once, nothing more
    problem = get_problem("B1")
    real, inside = mp.selection_step, []

    def watch(*args):
        inside.append(np.count_nonzero(args[6].contains_all(args[2])))
        return real(*args)

    monkeypatch.setattr(mp, "selection_step", watch)
    counting = CountingObjective(problem.objective)
    params = replace(problem.default_params, switch_tol=None, subpops=3)
    record = mp.run_mde_itmf(counting, problem.bounds, params, 0)
    pop_size = problem.default_params.de.pop_size
    assert counting.count == record.nfe == 3 * pop_size + sum(inside)


def test_penalty_dimension_mismatch():
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError):
        penalty_at([0.0, 0.0], 0, anchors, params)


def test_penalty_own_index_must_name_an_anchor_column():
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [1.0, 1.0])
    # 10**5000 is past str's digit limit, so the refusal names it by its digit count.
    for own, shown in ((-1, "-1"), (2, "2"), (10**5000, "an integer of 5001 digits")):
        with pytest.raises(ConfigurationError,
                           match=f"^own_index must be an integer naming an anchor row, got {shown}$"):
            penalty_at([0.0, 0.0], own, anchors, params)


def test_penalty_batch_refuses_malformed_anchor_arrays():
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    pts = np.zeros((3, 2))
    anchors = anchors_of([0.0, 0.0], [1.0, 1.0])
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((2, 2, 2))):
        with pytest.raises(ConfigurationError):
            penalty_batch(pts, 0, bad, params)
    for own in (-1, len(anchors)):
        with pytest.raises(ConfigurationError):
            penalty_batch(pts, own, anchors, params)
    # the first and last rows are valid own indices
    assert penalty_batch(pts, 0, anchors, params).shape == (3,)
    assert penalty_batch(pts, len(anchors) - 1, anchors, params).shape == (3,)


def test_penalty_batch_refuses_anchors_without_coordinates():
    # Zero-width points have no distance terms to sum.
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    with pytest.raises(ConfigurationError, match="anchors must be"):
        penalty_batch(np.zeros((3, 0)), 0, np.zeros((2, 0)), params)


def test_penalty_batch_refuses_points_that_are_not_rows():
    # A 1-D point ended in a raw IndexError, and a (2, 2, 2) stack came back as a (2, 2) array.
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    for bad in (np.array([0.1, 0.2]), np.zeros((2, 2, 2)), np.zeros((3, 1))):
        with pytest.raises(ConfigurationError, match=r"points must be \(n, 2\) rows"):
            penalty_batch(bad, 0, np.zeros((2, 2)), params)


def test_penalty_batch_refuses_undefined_distances():
    # A NaN distance is never <= radius, so unchecked it would read as no penalty.
    params = PenaltyParams(magnitude=2.0, radius=1.0)
    for d in (2, 9):  # both sum orders of core._squared_distances
        pts, anchors = np.zeros((3, d)), np.zeros((3, d))
        for where, row in ((pts, 1), (anchors, 2), (anchors, 0)):  # a point, foreign, own anchor
            where[row, d - 1] = np.nan
            with pytest.raises(ConfigurationError, match="NaN"):
                penalty_batch(pts, 0, anchors, params)
            where[row, d - 1] = 0.0
        pts[1, 0] = anchors[2, 0] = np.inf  # inf - inf, refused without numpy's warning
        with pytest.raises(ConfigurationError, match="NaN"):
            penalty_batch(pts, 0, anchors, params)
        anchors[2, 0] = -np.inf  # an infinite distance is defined
        assert penalty_batch(pts, 0, anchors, params)[1] == 0.0


def test_penalty_batch_matches_scalar():
    params = PenaltyParams(magnitude=7.0, radius=1.3)
    anchors = anchors_of([0.5, 0.5], [-0.5, 0.25], [0.0, -1.0])
    pts = np.random.default_rng(21).random((40, 2)) * 4 - 2
    batch = penalty_batch(pts, 1, anchors, params)
    scalar = np.array([penalty_at(p, 1, anchors, params) for p in pts])
    assert np.array_equal(batch, scalar)
    assert np.count_nonzero(scalar) and not np.all(scalar)


# ------------------------------------------------------------ residual sums

def test_residual_objective_zero_at_root():
    f = ResidualObjective((lambda p: p[0], lambda p: p[1]))
    assert f(np.array([0.0, 0.0])) == 0.0


def test_residual_objective_direct_arithmetic():
    f = ResidualObjective((lambda p: p[0], lambda p: p[1]))
    assert f(np.array([1.0, 2.0])) == 5.0


def test_residual_objective_nonnegative():
    f = ResidualObjective((lambda p: p[0] - p[1], lambda p: p[0] * p[1] - 3.0))
    rng = np.random.default_rng(2)
    for _ in range(100):
        assert f(rng.random(2) * 10 - 5) >= 0.0


def test_default_system_roots_have_tiny_residuals():
    problem = get_problem("B7")
    f = problem.objective
    for root in problem.known_minimizers:
        assert f(root) < 1e-10


def test_vectorized_batch_matches_scalar_for_default_system():
    problem = get_problem("B7")
    assert problem.objective is DEFAULT_SYSTEM
    pts = np.random.default_rng(3).random((25, 2)) * 2 - 1
    batch = problem.objective.batch(pts)
    scalar = np.array([problem.objective(p) for p in pts])
    assert np.allclose(batch, scalar, rtol=1e-15, atol=0)


def test_engine_evaluates_an_unvectorized_system_row_by_row():
    """A system that is not vectorized has no ``batch``: the engine calls it once per row.

    The digest was recorded while ``ResidualObjective`` still looped over
    the rows itself, so evaluating through the engines' one row loop
    changes no result.
    """
    rows = []
    circle, hyperbola = DEFAULT_SYSTEM.residuals

    def counted(p):
        rows.append(np.shape(p))
        return circle(p)

    problem = get_problem("B7")
    objective = ResidualObjective((counted, hyperbola))
    assert not hasattr(objective, "batch")
    record = run_dewi(objective, problem.bounds, problem.default_params, 0)
    assert len(rows) == record.nfe and set(rows) == {(2,)}
    bests = record.final_bests
    text = (f"{record.nfe} {record.generations_used} {bests.coords.tolist()} "
            f"{bests.fitness.tolist()}")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5b36f8541ac616a3ceff9bdb42aaf6d7aa6f954c2756f6bb99916d26a477e211")


def test_nonlinear_system_needs_residuals():
    for residuals in ((), []):
        with pytest.raises(ConfigurationError, match="at least one residual"):
            ResidualObjective(residuals)
        with pytest.raises(ConfigurationError, match="at least one residual"):
            ResidualObjective(residuals, vectorized=True)
