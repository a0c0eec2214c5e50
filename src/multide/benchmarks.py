"""The ten-problem benchmark registry: objectives, domains, known minimizers.

Every problem is two-dimensional and multimodal, with all of its global
minimizers known. Minimizer coordinates are stored to full double
precision from a polishing pass (gradient-root refinement of the standard
literature formulas), not from truncated published tables; see each
problem's ``formula`` string for the exact definition used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Bounds, DEParams
from .deflation import NonlinearSystem, PenaltyParams, residual_objective
from .errors import ConfigurationError
from .multipop import MultiParams


class Objective2D:
    """Scalar objective on R^2 backed by one vectorized (x, y) formula.

    ``__call__`` takes a coordinate vector; ``batch`` takes an (n, 2) array
    and evaluates all rows in one vectorized pass, which is what the
    engines use.
    """

    def __init__(self, fxy):
        self._fxy = fxy

    def __call__(self, p) -> float:
        return float(self._fxy(p[0], p[1]))

    def batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return np.asarray(self._fxy(pts[:, 0], pts[:, 1]), dtype=float)


def _himmelblau(x, y):
    return (x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2


def _trecanni(x, y):
    return x**4 + 4.0 * x**3 + 4.0 * x * x + y * y


def _six_hump_camel(x, y):
    return (4.0 - 2.1 * x * x + x**4 / 3.0) * x * x + x * y + (-4.0 + 4.0 * y * y) * y * y


def _cross_in_tray(x, y):
    r = np.sqrt(x * x + y * y)
    inner = np.abs(np.sin(x) * np.sin(y) * np.exp(np.abs(100.0 - r / np.pi))) + 1.0
    return -1e-4 * inner**0.1


def _bird(x, y):
    return (
        np.sin(x) * np.exp((1.0 - np.cos(y)) ** 2)
        + np.cos(y) * np.exp((1.0 - np.sin(x)) ** 2)
        + (x - y) ** 2
    )


def _branin(x, y):
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    return (y - b * x * x + c * x - 6.0) ** 2 + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x) + 10.0


def _wayburn_seader_1(x, y):
    return (x**6 + y**4 - 17.0) ** 2 + (2.0 * x + y - 4.0) ** 2


def _wayburn_seader_2(x, y):
    return (1.613 - 4.0 * (x - 0.3125) ** 2 - 4.0 * (y - 1.625) ** 2) ** 2 + (y - 1.0) ** 2


def _ackley3(x, y):
    return -200.0 * np.exp(-0.02 * np.sqrt(x * x + y * y)) + 5.0 * np.exp(np.cos(3.0 * x) + np.sin(3.0 * y))


def _circle_residual(p):
    return p[0] ** 2 + p[1] ** 2 - 0.5


def _hyperbola_residual(p):
    return p[0] * p[1] - 0.1


DEFAULT_SYSTEM = NonlinearSystem((_circle_residual, _hyperbola_residual), vectorized=True)

# Roots of {x^2 + y^2 = 0.5, xy = 0.1}: x^2 solves the quartic
# t^2 - 0.5 t + 0.01 = 0 in t = x^2, giving the pair (a, b) below with
# a*b = 0.1, plus sign/swap symmetry.
_B7_A = 0.69219129201962083
_B7_B = 0.14446873451445472


@dataclass(eq=False)
class BenchmarkProblem:
    """A registered problem: objective, domain, solutions, default parameters.

    ``known_minimizers`` is an (m, d) array of all global minimizers inside
    the domain; ``match_tolerance`` is the Euclidean radius used when
    counting which of them a run has found. Both are checked here, so a
    malformed root fails when the problem is built, not when a run is
    scored.
    """

    pid: str
    name: str
    objective: object
    bounds: Bounds
    known_minimizers: np.ndarray
    global_value: float
    default_params: MultiParams
    match_tolerance: float = 0.05
    formula: str = ""

    def __post_init__(self):
        try:
            m = self.known_minimizers = np.array(self.known_minimizers, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged rows or non-numbers
            raise ConfigurationError(f"known minimizers must be an array of numbers: {exc}") from None
        if m.ndim != 2 or len(m) < 1 or m.shape[1] != self.bounds.dim:
            raise ConfigurationError(f"known minimizers must be an (m, {self.bounds.dim}) array "
                                     f"with m >= 1, got shape {m.shape}")
        if not self.bounds.contains_all(m).all():  # the bounds are finite, so NaN and inf fail too
            raise ConfigurationError(f"known minimizers must lie inside the bounds, got {m.tolist()}")
        if not 0.0 < self.match_tolerance < math.inf:
            raise ConfigurationError("match_tolerance must be positive and finite")

    @property
    def minimizer_count(self) -> int:
        return len(self.known_minimizers)


def _row(pop_size, F, CR, subpops, radius):
    # Shared columns of the control-parameter table: Gmax=1000,
    # eps=5e-5, beta=2e3, tol=5e-4 for every problem.
    return MultiParams(
        de=DEParams(pop_size=pop_size, F=F, CR=CR, max_generations=1000, spread_tol=5e-5),
        penalty=PenaltyParams(magnitude=2.0e3, radius=radius),
        subpops=subpops,
        switch_tol=5e-4,
    )


def _problem(pid, name, fxy, formula, lo, hi, minimizers, global_value, params):
    return BenchmarkProblem(
        pid=pid,
        name=name,
        objective=Objective2D(fxy),
        bounds=Bounds(np.array(lo, dtype=float), np.array(hi, dtype=float)),
        known_minimizers=minimizers,
        global_value=global_value,
        default_params=params,
        formula=formula,
    )


def system_problem(
    system: NonlinearSystem,
    bounds: Bounds,
    known_roots,
    *,
    pid: str = "SYS",
    name: str = "user system",
    default_params: Optional[MultiParams] = None,
    match_tolerance: float = 0.05,
    formula: str = "sum of squared residuals",
) -> BenchmarkProblem:
    """Build a problem from a user-supplied nonlinear system.

    This is the override path for the system-of-equations slot: the
    default system there is a stand-in with the documented root structure,
    and callers with a concrete system of their own wrap it here (roots
    must be known for minimizer counting). Parameters default to the
    registered system problem's row.
    """
    if default_params is None:
        default_params = _REGISTRY["B7"].default_params
    return BenchmarkProblem(
        pid=pid,
        name=name,
        objective=residual_objective(system),
        bounds=bounds,
        known_minimizers=known_roots,
        global_value=0.0,
        default_params=default_params,
        match_tolerance=match_tolerance,
        formula=formula,
    )


def _build_registry() -> dict[str, BenchmarkProblem]:
    two_pi = 2.0 * np.pi
    c = 1.3494066171539108  # cross-in-tray minimizer coordinate
    problems = [
        _problem(
            "B1", "Himmelblau", _himmelblau,
            "(x^2 + y - 11)^2 + (x + y^2 - 7)^2",
            (-6, -6), (6, 6),
            [
                (3.0, 2.0),
                (-2.8051180869527449, 3.131312518250573),
                (-3.7793102533777469, -3.2831859912861694),
                (3.5844283403304917, -1.8481265269644036),
            ],
            0.0,
            _row(30, 0.7, 0.8, 4, 2.0),
        ),
        _problem(
            "B2", "Trecanni", _trecanni,
            "x^4 + 4x^3 + 4x^2 + y^2",
            (-5, -5), (5, 5),
            [(0.0, 0.0), (-2.0, 0.0)],
            0.0,
            _row(15, 0.4, 0.3, 2, 1.0),
        ),
        _problem(
            "B3", "Six-Hump Camel", _six_hump_camel,
            "(4 - 2.1x^2 + x^4/3)x^2 + xy + (-4 + 4y^2)y^2",
            (-3, -2), (3, 2),
            [
                (0.089842013100318062, -0.71265640302073963),
                (-0.089842013100318062, 0.71265640302073963),
            ],
            -1.0316284534898774,
            _row(20, 0.7, 0.8, 2, 0.6),
        ),
        _problem(
            "B4", "Cross-in-tray", _cross_in_tray,
            "-1e-4 (|sin(x) sin(y) exp(|100 - sqrt(x^2+y^2)/pi|)| + 1)^0.1",
            (-10, -10), (10, 10),
            [(c, c), (c, -c), (-c, c), (-c, -c)],
            -2.0626118708227369,
            _row(15, 0.6, 0.7, 4, 0.8),
        ),
        _problem(
            "B5", "Bird", _bird,
            "sin(x) exp((1-cos y)^2) + cos(y) exp((1-sin x)^2) + (x-y)^2",
            (-two_pi, -two_pi), (two_pi, two_pi),
            [
                (4.701043130249553, 3.1529385037249301),
                (-1.5821421769300335, -3.1302468034546564),
            ],
            -106.76453674926467,
            _row(30, 0.8, 0.7, 2, 3.2),
        ),
        _problem(
            "B6", "Branin RCOS", _branin,
            "(y - 5.1x^2/(4pi^2) + 5x/pi - 6)^2 + 10(1 - 1/(8pi))cos(x) + 10",
            (-5, 0), (10, 15),
            [
                (-3.1415926535897932, 12.275),
                (3.1415926535897932, 2.275),
                (9.4247779607693797, 2.475),
            ],
            0.39788735772973834,
            _row(25, 0.6, 0.6, 3, 2.0),
        ),
        system_problem(
            DEFAULT_SYSTEM,
            Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            [(_B7_A, _B7_B), (_B7_B, _B7_A), (-_B7_A, -_B7_B), (-_B7_B, -_B7_A)],
            pid="B7",
            name="System of equations",
            default_params=_row(30, 0.6, 0.8, 4, 0.7),
            formula="(x^2 + y^2 - 0.5)^2 + (xy - 0.1)^2",
        ),
        _problem(
            "B8", "Wayburn Seader 1", _wayburn_seader_1,
            "(x^6 + y^4 - 17)^2 + (2x + y - 4)^2",
            (-500, -500), (500, 500),
            [(1.0, 2.0), (1.5968041538769333, 0.80639169224613333)],
            0.0,
            _row(20, 0.5, 0.3, 2, 1.1),
        ),
        _problem(
            "B9", "Wayburn Seader 2", _wayburn_seader_2,
            "(1.613 - 4(x - 0.3125)^2 - 4(y - 1.625)^2)^2 + (y - 1)^2",
            (-500, -500), (500, 500),
            [(0.20013897472877884, 1.0), (0.42486102527122116, 1.0)],
            0.0,
            _row(20, 0.4, 0.7, 2, 0.15),
        ),
        _problem(
            "B10", "Ackley 3", _ackley3,
            "-200 exp(-0.02 sqrt(x^2+y^2)) + 5 exp(cos(3x) + sin(3y))",
            (-32, -32), (32, 32),
            [
                (0.68257718315157942, -0.36070186306103735),
                (-0.68257718315157942, -0.36070186306103735),
            ],
            -195.62902826227934,
            _row(20, 0.4, 0.4, 2, 1.1),
        ),
    ]
    return {p.pid: p for p in problems}


_REGISTRY = _build_registry()
_BY_NAME = {p.name.lower(): p.pid for p in _REGISTRY.values()}


def get_problem(key: str) -> BenchmarkProblem:
    """Look up a problem by id ("B1".."B10", case-insensitive) or by name."""
    token = str(key).strip().lower()
    pid = token.upper() if token.upper() in _REGISTRY else _BY_NAME.get(token)
    if pid is None:
        raise ConfigurationError(
            f"unknown problem {key!r}; expected one of {', '.join(_REGISTRY)} or a problem name"
        )
    return _REGISTRY[pid]


def list_problems() -> list[BenchmarkProblem]:
    """All registered problems, in id order."""
    return [_REGISTRY[f"B{i}"] for i in range(1, 11)]
