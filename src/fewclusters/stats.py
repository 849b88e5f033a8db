"""Scalar placebo statistics: comparison of means and variance adjustments.

The estimates fed into these functions deliberately carry no per-cluster
standardization; the adjustment factor exists to compensate for unbalanced
treated/untreated group sizes, not to studentize.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Assignment, DegenerateVariance, EstimateVector, GroupTooSmall


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
