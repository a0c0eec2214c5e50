"""Tests for the repulsion penalty and residual-sum objectives."""

import math

import numpy as np
import pytest
from conftest import CountingObjective, sphere

from multide import (
    Bounds,
    ConfigurationError,
    NonlinearSystem,
    PenaltyParams,
    get_problem,
    residual_objective,
    selection_step,
)
from multide.deflation import penalty_batch
from multide.rng import RngStream


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
    rng = RngStream(12)
    params = PenaltyParams(magnitude=50.0, radius=0.8)
    for _ in range(200):
        anchors = anchors_of(rng.uniform(size=2) * 4 - 2, rng.uniform(size=2) * 4 - 2)
        x = rng.uniform(size=2) * 4 - 2
        base = sphere(x)
        pen = base + penalty_at(x, 0, anchors, params)
        assert pen >= base
        far = np.linalg.norm(x - anchors[1]) > params.radius
        assert (pen == base) == far


def test_penalized_performs_exactly_one_base_evaluation():
    # penalized selection evaluates each in-bounds trial once on the base
    # objective and reuses the parents' cached values
    counting = CountingObjective(sphere)
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])
    coords = np.array([[0.5, 0.5], [0.2, 0.4], [0.9, 0.1]])
    fitness = np.array([sphere(c) for c in coords])
    trials = np.array([[0.4, 0.5], [5.0, 0.0], [0.8, 0.2]])  # the middle one leaves the box
    bounds = Bounds(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    selection_step(coords, fitness, trials, 1, anchors, params, bounds, counting)
    assert counting.count == 2


def test_penalty_dimension_mismatch():
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConfigurationError):
        penalty_at([0.0, 0.0], 0, anchors, params)


def test_penalty_own_index_must_name_an_anchor_column():
    params = PenaltyParams(magnitude=10.0, radius=1.0)
    anchors = anchors_of([0.0, 0.0], [1.0, 1.0])
    for own in (-1, 2):
        with pytest.raises(ConfigurationError):
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


def test_penalty_batch_matches_scalar():
    rng = RngStream(21)
    params = PenaltyParams(magnitude=7.0, radius=1.3)
    anchors = anchors_of([0.5, 0.5], [-0.5, 0.25], [0.0, -1.0])
    pts = rng.uniform(size=(40, 2)) * 4 - 2
    batch = penalty_batch(pts, 1, anchors, params)
    scalar = np.array([penalty_at(p, 1, anchors, params) for p in pts])
    assert np.array_equal(batch, scalar)
    assert np.count_nonzero(scalar) and not np.all(scalar)


# ------------------------------------------------------------ residual sums

def test_residual_objective_zero_at_root():
    system = NonlinearSystem((lambda p: p[0], lambda p: p[1]))
    f = residual_objective(system)
    assert f(np.array([0.0, 0.0])) == 0.0


def test_residual_objective_direct_arithmetic():
    system = NonlinearSystem((lambda p: p[0], lambda p: p[1]))
    f = residual_objective(system)
    assert f(np.array([1.0, 2.0])) == 5.0


def test_residual_objective_nonnegative():
    system = NonlinearSystem((lambda p: p[0] - p[1], lambda p: p[0] * p[1] - 3.0))
    f = residual_objective(system)
    rng = RngStream(2)
    for _ in range(100):
        assert f(rng.uniform(size=2) * 10 - 5) >= 0.0


def test_default_system_roots_have_tiny_residuals():
    problem = get_problem("B7")
    f = problem.objective
    for root in problem.known_minimizers:
        assert f(root) < 1e-10


def test_vectorized_batch_matches_scalar_for_default_system():
    problem = get_problem("B7")
    rng = RngStream(3)
    pts = rng.uniform(size=(25, 2)) * 2 - 1
    batch = problem.objective.batch(pts)
    scalar = np.array([problem.objective(p) for p in pts])
    assert np.allclose(batch, scalar, rtol=1e-15, atol=0)


def test_nonlinear_system_needs_residuals():
    with pytest.raises(ConfigurationError):
        NonlinearSystem(())
