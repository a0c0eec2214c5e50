"""Registry correctness: domains, minimizers, parameter rows, and the oracle."""

import numpy as np
import pytest
from conftest import compass_minimal, grid_polish_minimizers

from multide import Bounds, ConfigurationError, NonlinearSystem, get_problem, list_problems, system_problem

EXPECTED_COUNTS = {
    "B1": 4, "B2": 2, "B3": 2, "B4": 4, "B5": 2,
    "B6": 3, "B7": 4, "B8": 2, "B9": 2, "B10": 2,
}

TWO_PI = 2.0 * np.pi
EXPECTED_DOMAINS = {
    "B1": ((-6, -6), (6, 6)),
    "B2": ((-5, -5), (5, 5)),
    "B3": ((-3, -2), (3, 2)),
    "B4": ((-10, -10), (10, 10)),
    "B5": ((-TWO_PI, -TWO_PI), (TWO_PI, TWO_PI)),
    "B6": ((-5, 0), (10, 15)),
    "B7": ((-1, -1), (1, 1)),
    "B8": ((-500, -500), (500, 500)),
    "B9": ((-500, -500), (500, 500)),
    "B10": ((-32, -32), (32, 32)),
}

# per-problem (pop_size, F, CR, subpops, radius); shared columns checked once
EXPECTED_PARAMS = {
    "B1": (30, 0.7, 0.8, 4, 2.0),
    "B2": (15, 0.4, 0.3, 2, 1.0),
    "B3": (20, 0.7, 0.8, 2, 0.6),
    "B4": (15, 0.6, 0.7, 4, 0.8),
    "B5": (30, 0.8, 0.7, 2, 3.2),
    "B6": (25, 0.6, 0.6, 3, 2.0),
    "B7": (30, 0.6, 0.8, 4, 0.7),
    "B8": (20, 0.5, 0.3, 2, 1.1),
    "B9": (20, 0.4, 0.7, 2, 0.15),
    "B10": (20, 0.4, 0.4, 2, 1.1),
}


def test_registry_has_ten_problems_in_order():
    problems = list_problems()
    assert len(problems) == 10
    assert [p.pid for p in problems] == [f"B{i}" for i in range(1, 11)]
    assert len({p.pid for p in problems}) == 10
    assert len({p.name for p in problems}) == 10


def test_lookup_by_id_and_name():
    assert get_problem("b1").pid == "B1"
    assert get_problem("Himmelblau").pid == "B1"
    assert get_problem("ackley 3").pid == "B10"
    with pytest.raises(ConfigurationError):
        get_problem("B11")


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_minimizer_count_matches_table(pid):
    assert get_problem(pid).minimizer_count == EXPECTED_COUNTS[pid]


@pytest.mark.parametrize("pid", sorted(EXPECTED_DOMAINS))
def test_domain_matches_table(pid):
    problem = get_problem(pid)
    lo, hi = EXPECTED_DOMAINS[pid]
    assert np.allclose(problem.bounds.lower, lo)
    assert np.allclose(problem.bounds.upper, hi)


@pytest.mark.parametrize("pid", sorted(EXPECTED_PARAMS))
def test_default_params_match_table(pid):
    problem = get_problem(pid)
    pop_size, F, CR, subpops, radius = EXPECTED_PARAMS[pid]
    params = problem.default_params
    assert params.de.pop_size == pop_size
    assert params.de.F == F
    assert params.de.CR == CR
    assert params.subpops == subpops
    assert params.penalty.radius == radius
    assert params.de.max_generations == 1000
    assert params.de.spread_tol == 5e-5
    assert params.penalty.magnitude == 2.0e3
    assert params.switch_tol == 5e-4


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_objective_at_stored_minimizers(pid):
    problem = get_problem(pid)
    for m in problem.known_minimizers:
        assert abs(problem.objective(m) - problem.global_value) < 1e-6


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_minimizers_strictly_inside_bounds_and_separated(pid):
    problem = get_problem(pid)
    for m in problem.known_minimizers:
        assert np.all(m > problem.bounds.lower) and np.all(m < problem.bounds.upper)
    mins = problem.known_minimizers
    for i in range(len(mins)):
        for k in range(i + 1, len(mins)):
            assert np.linalg.norm(mins[i] - mins[k]) > 2 * problem.match_tolerance


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_minimizers_are_compass_local_minima(pid):
    problem = get_problem(pid)
    for m in problem.known_minimizers:
        assert compass_minimal(problem, m)


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_objective_finite_on_dense_grid(pid):
    problem = get_problem(pid)
    lo, hi = problem.bounds.lower, problem.bounds.upper
    xs = np.linspace(lo[0], hi[0], 1000)
    ys = np.linspace(lo[1], hi[1], 1000)
    X, Y = np.meshgrid(xs, ys)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    vals = problem.objective.batch(pts)
    assert np.isfinite(vals).all()


def test_exact_literature_values():
    b1 = get_problem("B1")
    assert b1.objective(np.array([3.0, 2.0])) == 0.0
    b2 = get_problem("B2")
    assert b2.objective(np.array([0.0, 0.0])) == 0.0
    assert b2.objective(np.array([-2.0, 0.0])) == 0.0
    b8 = get_problem("B8")
    assert b8.objective(np.array([1.0, 2.0])) == 0.0


def test_default_system_roots_from_quartic():
    """Independent root derivation: y = 0.1/x reduces the system to a quartic."""
    problem = get_problem("B7")
    xs = np.roots([1.0, 0.0, -0.5, 0.0, 0.01])
    assert np.isreal(xs).all()
    roots = []
    for x in np.sort(np.real(xs)):
        roots.append((x, 0.1 / x))
    stored = {tuple(np.round(m, 10)) for m in problem.known_minimizers}
    derived = {tuple(np.round(r, 10)) for r in roots}
    assert stored == derived
    for r in roots:
        assert problem.objective(np.array(r)) < 1e-10


@pytest.mark.parametrize("pid", sorted(EXPECTED_COUNTS))
def test_oracle_rediscovers_stored_minimizers(pid):
    """Grid scan + local descent must find exactly the stored basins."""
    problem = get_problem(pid)
    found = grid_polish_minimizers(problem)
    assert len(found) == problem.minimizer_count
    for m in problem.known_minimizers:
        gaps = [np.linalg.norm(m - f) for f in found]
        assert min(gaps) < 1e-6


def test_system_problem_override():
    system = NonlinearSystem((lambda p: p[0] - 0.25, lambda p: p[1] + 0.5))
    problem = system_problem(
        system,
        Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        [(0.25, -0.5)],
        pid="S1",
        name="shifted point",
    )
    assert problem.objective(np.array([0.25, -0.5])) == 0.0
    assert problem.minimizer_count == 1
    assert problem.default_params.subpops == get_problem("B7").default_params.subpops


def test_malformed_known_roots_fail_when_the_problem_is_built():
    system = NonlinearSystem((lambda p: p[0] - 0.5, lambda p: p[1] - 0.5))
    bounds = Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    # One coordinate for a 2-D box, one root given flat, three coordinates,
    # a NaN, a root outside the box, no root at all, ragged rows, a word.
    for roots in ([(0.5,)], [0.5, 0.5], [(0.5, 0.5, 0.5)], [(0.5, np.nan)], [(0.5, 1.5)],
                  np.empty((0, 2)), [(0.5,), (0.5, 0.5)], [("root", 0.5)]):
        with pytest.raises(ConfigurationError):
            system_problem(system, bounds, roots)
    for tolerance in (0.0, -0.05, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            system_problem(system, bounds, [(0.5, 0.5)], match_tolerance=tolerance)
    corners = system_problem(system, bounds, [(-1.0, -1.0), (1.0, 1.0)])
    assert corners.known_minimizers.shape == (2, 2) and corners.minimizer_count == 2
