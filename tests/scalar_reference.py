"""Scalar placebo statistics, one assignment object at a time.

The tests hold the engine's streamed mask rows and ``im_t_test`` to this
independent reference. The adjustment factor compensates for unbalanced
group sizes; it does not studentize. :func:`placebo_statistics` is instead
the engine's own arithmetic on explicit mask rows, which full enumeration's
prefix and suffix sums must match bitwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from fewclusters import engine
from fewclusters.model import (
    ClusterLayout,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    TooManyAssignments,
)


class DegenerateVariance(FewClustersError):
    """Two-sample variance of a placebo split is exactly zero."""


@dataclass(frozen=True)
class Assignment:
    """A placebo labeling: the sorted 0-based indices designated treated."""

    treated_set: tuple[int, ...]

    def __post_init__(self):
        ts = tuple(sorted(int(i) for i in self.treated_set))
        if len(set(ts)) != len(ts):
            raise FewClustersError("treated_set has duplicate indices")
        object.__setattr__(self, "treated_set", ts)

    @classmethod
    def identity(cls, layout: ClusterLayout) -> "Assignment":
        return cls(tuple(range(layout.q1)))

    def is_identity(self, layout: ClusterLayout) -> bool:
        return self.treated_set == tuple(range(layout.q1))

    def complement(self, layout: ClusterLayout) -> tuple[int, ...]:
        treated = set(self.treated_set)
        return tuple(i for i in range(layout.q) if i not in treated)


def enumerate_assignments(
    layout: ClusterLayout, cap: int = engine.ENUMERATION_CAP
) -> list[Assignment]:
    """All C(q, q1) treated-index combinations, identity first, lexicographic."""
    total = math.comb(layout.q, layout.q1)
    if total > cap:
        raise TooManyAssignments(
            f"C({layout.q}, {layout.q1}) = {total} exceeds the cap of {cap}"
        )
    return [
        Assignment(combo)
        for combo in itertools.combinations(range(layout.q), layout.q1)
    ]


def subsample_assignments(
    layout: ClusterLayout, m: int, seed: int
) -> list[Assignment]:
    """Identity plus m i.i.d. uniform draws (with replacement) of assignments."""
    if m < 1:
        raise FewClustersError(f"number of subsampled assignments must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    draws = [Assignment.identity(layout)]
    for _ in range(m):
        picked = rng.choice(layout.q, size=layout.q1, replace=False)
        draws.append(Assignment(tuple(int(i) for i in picked)))
    return draws


def _split(x: EstimateVector, a: Assignment) -> tuple[np.ndarray, np.ndarray]:
    layout = x.layout
    treated = np.asarray(a.treated_set, dtype=int)
    if treated.shape[0] != layout.q1:
        raise ValueError(
            f"assignment has {treated.shape[0]} treated indices, layout needs {layout.q1}"
        )
    mask = np.zeros(layout.q, dtype=bool)
    mask[treated] = True
    return x.values[mask], x.values[~mask]


def comparison_of_means(x: EstimateVector, a: Assignment) -> float:
    """Mean of x over the assignment's treated set minus the complement mean.

    At the identity assignment this is the observed statistic summarizing
    all pairwise treated-vs-untreated comparisons.
    """
    t, u = _split(x, a)
    # np.sum uses pairwise summation, keeping results stable across run orders
    return float(np.sum(t) / t.size - np.sum(u) / u.size)


def two_sample_variance(x: EstimateVector, a: Assignment) -> float:
    """Two-sample variance of the split: sum of squared-error terms per group.

    Each group contributes its within-group sum of squared deviations divided
    by (group size) * (group size - 1). Requires at least two clusters per
    group.
    """
    layout = x.layout
    if layout.q1 < 2 or layout.q0 < 2:
        raise GroupTooSmall(
            f"two-sample variance needs q1, q0 >= 2, got ({layout.q1}, {layout.q0})"
        )
    t, u = _split(x, a)
    sst = float(np.sum((t - np.sum(t) / t.size) ** 2))
    ssu = float(np.sum((u - np.sum(u) / u.size) ** 2))
    return sst / (t.size * (t.size - 1)) + ssu / (u.size * (u.size - 1))


def adjusted_statistic(x: EstimateVector, a: Assignment) -> float:
    """Comparison of means rescaled by the ratio of observed to placebo spread.

    The identity assignment short-circuits to the plain comparison of means,
    so the observed statistic is bitwise identical in adjusted and unadjusted
    modes. A zero placebo spread at a non-identity assignment is an error;
    the permutation engine maps that case to a signed infinity instead.
    """
    if a.is_identity(x.layout):
        return comparison_of_means(x, a)
    s_pi = two_sample_variance(x, a)
    if s_pi == 0.0:
        raise DegenerateVariance(
            f"placebo split {a.treated_set} is constant within both groups"
        )
    s_obs = two_sample_variance(x, Assignment.identity(x.layout))
    return comparison_of_means(x, a) * math.sqrt(s_obs / s_pi)


def placebo_statistics(
    values: np.ndarray, mask: np.ndarray, q1: int, adjusted: bool
) -> np.ndarray:
    """The placebo statistic of every assignment row of a bool ``mask``, row
    0 the identity, from each row's treated sums."""
    v = np.asarray(values, dtype=float)[None]
    moments = (v, v * v) if adjusted else (v,)
    sums = engine._mask_sums([mask.astype(float)], moments)
    return engine._statistics(moments, [sums], mask.shape[0], q1)[0]
