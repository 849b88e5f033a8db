"""Competing inference methods used as benchmarks for the placebo test.

Implemented here: the two-sample t test on per-cluster estimates, the
sign-change permutation test on matched-pair estimates, pooled OLS with a
cluster-robust variance estimator (CRVE), the t(q-1) test based on it, and
the wild cluster bootstrap with 6-point weights and the null imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .model import (
    Cluster,
    ClusterDataset,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    RankDeficient,
    TestResult,
    UnbalancedGroups,
)
from . import engine

# 6-point bootstrap weight support (mean 0, variance 1), each point 1/6
WEBB_POINTS = np.array(
    [
        -math.sqrt(1.5),
        -1.0,
        -math.sqrt(0.5),
        math.sqrt(0.5),
        1.0,
        math.sqrt(1.5),
    ]
)


@dataclass(frozen=True)
class PooledFit:
    """Pooled OLS treatment coefficient with its cluster-robust t statistic."""

    beta_hat: float
    se_crve: float
    t_stat: float
    n: int
    q: int
    d: int


def im_t_test(x: EstimateVector, alpha: float, side: str = "greater") -> TestResult:
    """Two-sample t test on per-cluster estimates, df = min(q1, q0) - 1.

    The variance sums each group's squared deviations over size * (size - 1).
    """
    q1, q0 = x.layout.q1, x.layout.q0
    if q1 < 2 or q0 < 2:
        raise GroupTooSmall(f"two-sample variance needs q1, q0 >= 2, got ({q1}, {q0})")
    t, u = x.values[:q1], x.values[q1:]
    # np.sum uses pairwise summation, keeping results stable across run orders
    mean_t, mean_u = np.sum(t) / q1, np.sum(u) / q0
    numerator = float(mean_t - mean_u)
    sst = float(np.sum((t - mean_t) ** 2))
    ssu = float(np.sum((u - mean_u) ** 2))
    s = math.sqrt(sst / (q1 * (q1 - 1)) + ssu / (q0 * (q0 - 1)))
    if s == 0.0:
        stat = math.copysign(math.inf, numerator) if numerator != 0.0 else 0.0
    else:
        stat = numerator / s
    return _student_t_decision(stat, min(q1, q0) - 1, alpha, side)


def _student_t_decision(stat: float, df: int, alpha: float, side: str) -> TestResult:
    """Critical value, p-value and decision for a statistic referred to t(df)."""
    # stdtr(df, x) is the t(df) cdf and stdtrit(df, q) its inverse
    if side == "greater":
        crit = float(special.stdtrit(df, 1.0 - alpha))
        p = float(special.stdtr(df, -stat))
        reject = stat > crit
    elif side == "less":
        crit = float(special.stdtrit(df, alpha))
        p = float(special.stdtr(df, stat))
        reject = stat < crit
    else:
        crit = float(special.stdtrit(df, 1.0 - alpha / 2.0))
        p = float(2.0 * special.stdtr(df, -abs(stat)))
        reject = abs(stat) > crit
    return TestResult(
        statistic=stat,
        critical_value=crit,
        p_value=p,
        reject=bool(reject),
        n_assignments=0,
        side=side,
    )


def pair_clusters(
    dataset: ClusterDataset,
    strategy: str = "random",
    seed: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Match each treated cluster to one untreated cluster.

    "random" shuffles the untreated side with the given seed; "by_size"
    sorts both groups by cluster size and pairs rank to rank. Returns
    (treated index, untreated index) pairs into the canonical ordering.
    """
    layout = dataset.layout
    if layout.q1 != layout.q0:
        raise UnbalancedGroups(
            f"pairing needs q1 == q0, got ({layout.q1}, {layout.q0})"
        )
    treated = list(range(layout.q1))
    untreated = list(range(layout.q1, layout.q))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        untreated = [untreated[i] for i in rng.permutation(len(untreated))]
    elif strategy == "by_size":
        treated.sort(key=lambda i: dataset.clusters[i].size)
        untreated.sort(key=lambda i: dataset.clusters[i].size)
    else:
        raise ValueError(f"unknown pairing strategy {strategy!r}")
    return list(zip(treated, untreated))


def _sign_flip_statistics(beta_hats: np.ndarray) -> np.ndarray:
    """The matched-pair statistic under every sign vector, identity first."""
    # bit row r set where sign vector r keeps a sign: all +1 first, the last
    # pair flipping fastest
    signs = np.where(engine.bit_rows(beta_hats.shape[0]), 1.0, -1.0)
    flipped = signs * beta_hats
    means = flipped.mean(axis=1)
    denom = np.sqrt(np.sum((flipped - means[:, None]) ** 2, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = means / denom
    degenerate = denom == 0.0
    if np.any(degenerate):
        values[degenerate] = np.sign(means[degenerate]) * np.inf
        values[degenerate & (means == 0.0)] = 0.0
    return values


def crs_sign_test(
    beta_hats: Sequence[float],
    alpha: float,
    randomized: bool = False,
    seed: Optional[int] = None,
) -> TestResult:
    """Sign-change permutation test on matched-pair treatment estimates.

    Evaluates the studentized mean under all 2^q1 sign vectors. The
    nonrandomized decision uses the ascending-quantile rule; the randomized
    variant draws one uniform against the tie-splitting test function.
    """
    b = np.asarray(beta_hats, dtype=float)
    if b.shape[0] < 2:
        raise FewClustersError("sign test needs at least two pair estimates")
    values = _sign_flip_statistics(b)
    observed = float(values[0])
    c, delta = engine.randomized_threshold(values, alpha)
    p = engine.p_value(observed, values)
    if randomized:
        u = float(np.random.default_rng(seed).uniform())
        phi = 1.0 if observed > c else (delta if observed == c else 0.0)
        reject = phi >= u
    else:
        reject = observed > c
    warnings: tuple[str, ...] = ()
    if not randomized and math.floor(values.shape[0] * alpha) == 0:
        warnings = (engine.ZERO_POWER_WARNING,)
    return TestResult(
        statistic=observed,
        critical_value=c,
        p_value=p,
        reject=bool(reject),
        n_assignments=int(values.shape[0]),
        randomized_threshold=delta,
        warnings=warnings,
    )


def _pooled_design(
    clusters: Sequence[Cluster],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack (intercept, treatment dummy, covariates), outcomes, cluster sizes."""
    blocks = [
        np.column_stack(
            [
                np.ones(c.size),
                np.full(c.size, 1.0 if c.treated else 0.0),
                c.covariate_matrix,
            ]
        )
        for c in clusters
    ]
    return (
        np.vstack(blocks),
        np.concatenate([c.outcomes for c in clusters]),
        np.asarray([c.size for c in clusters]),
    )


def crve_dof_factor(n: int, d: int, q: int) -> float:
    """Degrees-of-freedom correction (n-1)q / ((n-d)(q-1)) for the CRVE."""
    return (n - 1) * q / ((n - d) * (q - 1))


def _crve_fit(
    design: np.ndarray, y: np.ndarray, sizes: np.ndarray
) -> tuple[PooledFit, np.ndarray]:
    """Pooled OLS treatment coefficient with its CRVE t statistic, and (X'X)^-1."""
    n, d = design.shape
    q = sizes.shape[0]
    xtx = design.T @ design
    if np.linalg.matrix_rank(xtx) < d:
        raise RankDeficient("pooled design matrix is rank deficient")
    xtx_inv = np.linalg.inv(xtx)
    coef = xtx_inv @ (design.T @ y)
    resid = y - design @ coef
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    meat = np.zeros((d, d))
    for k in range(q):
        score = design[bounds[k] : bounds[k + 1]].T @ resid[bounds[k] : bounds[k + 1]]
        meat += np.outer(score, score)
    cov = crve_dof_factor(n, d, q) * xtx_inv @ meat @ xtx_inv
    se = math.sqrt(max(cov[1, 1], 0.0))
    beta = float(coef[1])
    t_stat = beta / se if se > 0.0 else math.copysign(math.inf, beta) if beta else 0.0
    fit = PooledFit(beta_hat=beta, se_crve=se, t_stat=t_stat, n=n, q=q, d=d)
    return fit, xtx_inv


@dataclass(frozen=True)
class PooledRegression:
    """The pooled design, outcomes and cluster sizes with their CRVE fit.

    Built once per dataset by :func:`pooled_regression` and shared by the
    t(q-1) test and the wild cluster bootstrap.
    """

    design: np.ndarray
    y: np.ndarray
    sizes: np.ndarray
    fit: PooledFit
    xtx_inv: np.ndarray


def pooled_regression(dataset: ClusterDataset) -> PooledRegression:
    """Pooled OLS of outcome on (1, treatment, covariates) with its CRVE fit."""
    design, y, sizes = _pooled_design(dataset.clusters)
    fit, xtx_inv = _crve_fit(design, y, sizes)
    return PooledRegression(design, y, sizes, fit, xtx_inv)


def pooled_ols_crve(dataset: ClusterDataset) -> PooledFit:
    """Pooled OLS of outcome on (1, treatment, covariates) with CRVE."""
    return pooled_regression(dataset).fit


def bch_t_test(fit: PooledFit, alpha: float, side: str = "greater") -> TestResult:
    """Compare the pooled CRVE t statistic to a t(q-1) critical value."""
    return _student_t_decision(fit.t_stat, fit.q - 1, alpha, side)


def webb_weights(rng: np.random.Generator, size) -> np.ndarray:
    """Draws from the 6-point bootstrap weight distribution."""
    return WEBB_POINTS[rng.integers(0, 6, size=size)]


def wild_cluster_bootstrap_test(
    dataset: ClusterDataset,
    alpha: float,
    side: str = "greater",
    b_reps: int = 199,
    seed: Optional[int] = None,
) -> TestResult:
    """Wild cluster bootstrap of the pooled CRVE t statistic, null imposed.

    See :func:`wild_bootstrap_pooled`, which this runs on the dataset's
    pooled regression.
    """
    return wild_bootstrap_pooled(
        pooled_regression(dataset), alpha, side, b_reps=b_reps, seed=seed
    )


def wild_bootstrap_pooled(
    regression: PooledRegression,
    alpha: float,
    side: str = "greater",
    b_reps: int = 199,
    seed: Optional[int] = None,
) -> TestResult:
    """Wild cluster bootstrap of a pooled regression's CRVE t statistic.

    The restricted fit drops the treatment dummy. Each bootstrap draw scales
    every cluster's restricted residuals by one 6-point weight, rebuilds the
    outcomes, refits the unrestricted regression, and recomputes the t
    statistic. The p-value is the plain fraction of bootstrap statistics at
    least as extreme as the observed one. The critical value is the matching
    quantile of the bootstrap statistics: the 1 - alpha quantile of t* for
    "greater", the alpha quantile of t* for "less", and the 1 - alpha
    quantile of |t*| for a two-sided test.
    """
    design, y, sizes = regression.design, regression.y, regression.sizes
    xtx_inv = regression.xtx_inv
    n, d = design.shape
    q = sizes.shape[0]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    observed = regression.fit.t_stat

    restricted = np.delete(design, 1, axis=1)
    coef_r, *_ = np.linalg.lstsq(restricted, y, rcond=None)
    if np.linalg.matrix_rank(restricted) < restricted.shape[1]:
        raise RankDeficient("restricted pooled design is rank deficient")
    fitted_r = restricted @ coef_r
    resid_r = y - fitted_r

    # row vector extracting the treatment coefficient from X'y*
    g = design @ xtx_inv[:, 1]

    rng = np.random.default_rng(seed)
    w_cluster = webb_weights(rng, size=(q, b_reps))
    w_obs = np.repeat(w_cluster, sizes, axis=0)
    y_star = fitted_r[:, None] + w_obs * resid_r[:, None]

    coefs = xtx_inv @ (design.T @ y_star)
    resid = y_star - design @ coefs
    beta_star = g @ y_star
    var_star = np.zeros(b_reps)
    for k in range(q):
        sl = slice(bounds[k], bounds[k + 1])
        var_star += (g[sl] @ resid[sl]) ** 2
    se_star = np.sqrt(crve_dof_factor(n, d, q) * var_star)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = beta_star / se_star
    t_star[se_star == 0.0] = np.sign(beta_star[se_star == 0.0]) * np.inf

    if side == "greater":
        p = float(np.count_nonzero(t_star >= observed)) / b_reps
        crit = float(np.quantile(t_star, 1.0 - alpha))
    elif side == "less":
        p = float(np.count_nonzero(t_star <= observed)) / b_reps
        crit = float(np.quantile(t_star, alpha))
    else:
        p = float(np.count_nonzero(np.abs(t_star) >= abs(observed))) / b_reps
        crit = float(np.quantile(np.abs(t_star), 1.0 - alpha))
    return TestResult(
        statistic=observed,
        critical_value=crit,
        p_value=p,
        reject=p <= alpha,
        n_assignments=b_reps,
        side=side,
    )


def pair_beta_ols(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from pooled OLS of each matched pair."""
    betas = np.empty(len(pairs))
    for i, (ti, ui) in enumerate(pairs):
        design, y, _ = _pooled_design((dataset.clusters[ti], dataset.clusters[ui]))
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        betas[i] = coef[1]
    return betas


def pair_beta_probit(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from a probit fit of each matched pair."""
    from .estimators import _probit_newton

    betas = np.empty(len(pairs))
    for i, (ti, ui) in enumerate(pairs):
        design, y, _ = _pooled_design((dataset.clusters[ti], dataset.clusters[ui]))
        y01 = (y > 0).astype(float)
        coef, _ = _probit_newton(design, y01)
        betas[i] = coef[1]
    return betas
