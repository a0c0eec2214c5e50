"""Performance accounting: minimizer matching, DE run grouping, statistics.

NGP — the number of distinct known global minimizers a run has found — is
counted geometrically: a minimizer is matched when any final best point
lies within the problem's match tolerance of it, and several bests hitting
the same minimizer count once. Matching by objective value could not tell
symmetric minimizers apart, which is precisely the quantity of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import RunRecord, _squared_distances, best_records
from .errors import ConfigurationError
from .rng import _index


def match_minimizers(final_bests: np.recarray, problem) -> set[int]:
    """Indices of the known minimizers ``final_bests`` match, from one (k, m) distance matrix."""
    minimizers = np.asarray(problem.known_minimizers, dtype=float)
    coords = final_bests.coords
    if coords.shape[1:] != minimizers.shape[1:]:
        raise ConfigurationError(f"bests must be (k, {minimizers.shape[1]}) points, "
                                 f"got shape {coords.shape}")
    dist = np.sqrt(_squared_distances(coords, minimizers))  # (k, m)
    return set(np.flatnonzero((dist <= float(problem.match_tolerance)).any(axis=0)).tolist())


def group_de_runs(records: Sequence[RunRecord], group_size: int) -> list[RunRecord]:
    """Merge consecutive single-population DE runs into comparable groups.

    Every ``group_size`` consecutive records are combined — elapsed time
    and evaluation counts summed, final bests concatenated — so a group's
    NGP is computed over the same number of search attempts as one
    multipopulation run. Its ``matched_minimizers`` is the union of the
    runs' sets, ``None`` unless every run has been scored.
    """
    _index(group_size, "group_size", 1)
    if len(records) % group_size != 0:
        raise ConfigurationError(f"cannot group {len(records)} records into groups of {group_size}")
    groups = []
    for start in range(0, len(records), group_size):
        chunk = records[start:start + group_size]
        matched = [r.matched_minimizers for r in chunk]
        groups.append(
            RunRecord(
                algorithm=chunk[0].algorithm,
                seed=chunk[0].seed,
                elapsed_seconds=sum(r.elapsed_seconds for r in chunk),
                nfe=sum(r.nfe for r in chunk),
                final_bests=best_records(np.concatenate([r.final_bests.coords for r in chunk]),
                                         np.concatenate([r.final_bests.fitness for r in chunk])),
                generations_used=[g for r in chunk for g in r.generations_used],
                problem=chunk[0].problem,
                matched_minimizers=None if None in matched else set().union(*matched),
            )
        )
    return groups


@dataclass(frozen=True)
class AggregateStats:
    """Mean, population standard deviation, and coefficient of variation.

    ``cv_percent`` is 100 * stddev / mean and is ``None`` when the mean is
    zero (the ratio is undefined there).
    """

    mean: float
    stddev: float
    cv_percent: Optional[float]


def aggregate(values: Sequence[float]) -> AggregateStats:
    """Descriptive statistics over a set of run measurements.

    Uses the population convention (divide by n) for the standard
    deviation. Needs at least two values; aggregating a single run is
    refused so a lone number is never dressed up as a distribution.
    """
    if len(values) < 2:
        raise ConfigurationError("aggregate needs at least two values")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    stddev = float(math.sqrt(float(((arr - mean) ** 2).mean())))
    cv = None if mean == 0.0 else 100.0 * stddev / mean
    return AggregateStats(mean=mean, stddev=stddev, cv_percent=cv)
