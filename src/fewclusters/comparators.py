"""Competing inference methods used as benchmarks for the placebo test.

Implemented here: the two-sample t test on per-cluster estimates, the
sign-change permutation test on matched-pair estimates, pooled OLS with a
cluster-robust variance estimator (CRVE), the t(q-1) test based on it, and
the wild cluster bootstrap with 6-point weights and the null imposed. Their
least-squares fits use ``estimators.least_squares`` and its rank rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .estimators import least_squares, probit_newton_batch
from .model import (
    Cluster,
    ClusterDataset,
    EstimateVector,
    EstimationError,
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
    q: int


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
    # imported here, so that a run without a t test never loads scipy;
    # stdtr(df, x) is the t(df) cdf and stdtrit(df, q) its inverse
    from scipy import special

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


def _signed_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, where x / 0 is +-inf and 0 / 0 is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where((den == 0.0) & (num == 0.0), 0.0, ratio)


def _sign_flip_statistics(beta_hats: np.ndarray) -> np.ndarray:
    """The matched-pair statistic under every sign vector, identity first."""
    # bit row r set where sign vector r keeps a sign: all +1 first, the last
    # pair flipping fastest
    signs = np.where(engine.bit_rows(beta_hats.shape[0]), 1.0, -1.0)
    flipped = signs * beta_hats
    means = flipped.mean(axis=1)
    denom = np.sqrt(np.sum((flipped - means[:, None]) ** 2, axis=1))
    return _signed_ratio(means, denom)


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


# clusters whose right-hand sides share one solve for ``a`` in pooled_regression,
# so its memory grows with n * A_BLOCK, not n * q
A_BLOCK = 16


def crve_dof_factor(n: int, d: int, q: int) -> float:
    """Degrees-of-freedom correction (n-1)q / ((n-d)(q-1)) for the CRVE."""
    return (n - 1) * q / ((n - d) * (q - 1))


@dataclass(frozen=True)
class PooledRegression:
    """The pooled CRVE regression reduced to per-cluster sums, null imposed.

    The restricted fit drops the treatment dummy and leaves residuals u.
    Rebuilding the outcomes as fitted + w_k * u_k for cluster weights w and
    refitting is linear in w, so with g = X (X'X)^-1 e_1 three per-cluster
    sums carry every refit: ``h[k] = g_k'u_k``, ``t[k] = X_k'g_k`` and
    ``a[:, k] = (X'X)^-1 X_k'u_k``. A refit's treatment coefficient is h'w
    and cluster k's treatment score is h_k w_k - t[k]'(a w) (Roodman,
    MacKinnon, Nielsen and Webb 2019, "Fast and wild"). Weights of one give
    back the observed outcomes. Built once per dataset by
    :func:`pooled_regression` and shared by the t(q-1) test and the wild
    cluster bootstrap.
    """

    h: np.ndarray  # (q,)
    t: np.ndarray  # (q, d)
    a: np.ndarray  # (d, q)
    n: int

    @property
    def q(self) -> int:
        return self.h.shape[0]

    def _beta_se(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scores = self.h[:, None] * w - self.t @ (self.a @ w)
        dof = crve_dof_factor(self.n, self.t.shape[1], self.q)
        return self.h @ w, np.sqrt(dof * np.sum(scores**2, axis=0))

    def t_stats(self, w: np.ndarray) -> np.ndarray:
        """The refit's CRVE t statistic for each column of weights w (q, B);
        q equal weights c scale the refit by c: exactly sign(c) * observed t."""
        t = _signed_ratio(*self._beta_se(w))
        equal = np.all(w == w[:1], axis=0)
        return np.where(equal, np.sign(w[0]) * self.fit.t_stat, t)

    @cached_property
    def fit(self) -> PooledFit:
        """The observed fit: the arithmetic of t_stats at weights of one."""
        beta, se = self._beta_se(np.ones((self.q, 1)))
        t_stat = float(_signed_ratio(beta, se)[0])
        return PooledFit(float(beta[0]), float(se[0]), t_stat, self.q)


def pooled_regression(dataset: ClusterDataset) -> PooledRegression:
    """Pooled OLS of outcome on (1, treatment, covariates), per-cluster sums.

    The restricted fit (treatment dummy D dropped) of [y, D] leaves u and
    D~, so g = D~ / (D~'D~) by Frisch-Waugh; column k of ``a`` is the full
    fit of u_k in cluster k's rows and 0 elsewhere. Residuals within
    n * eps * max|y| of zero are rounding noise of outcomes the restricted
    regressors fit exactly (constant outcomes, say); they are set to zero,
    so the t statistic and every bootstrap draw of it are 0. Columns of
    ``a`` are solved A_BLOCK clusters at a time. RankDeficient
    when n <= d, which leaves the CRVE no degrees of freedom.
    """
    design, y, sizes = _pooled_design(dataset.clusters)
    n, d = design.shape
    if n <= d:
        raise RankDeficient(f"{n} pooled rows leave no residual for {d} coefficients")
    restricted = np.delete(design, 1, axis=1)
    rhs = np.column_stack([y, design[:, 1]])
    u, d_tilde = (rhs - restricted @ least_squares(restricted, rhs)).T
    if np.max(np.abs(u)) <= n * np.finfo(float).eps * np.max(np.abs(y)):
        u = np.zeros(n)
    q = sizes.shape[0]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    starts = bounds[:-1]
    a = np.empty((d, q))
    for lo in range(0, q, A_BLOCK):
        hi = min(lo + A_BLOCK, q)
        rows = np.arange(bounds[lo], bounds[hi])
        u_blocks = np.zeros((n, hi - lo))
        u_blocks[rows, np.repeat(np.arange(hi - lo), sizes[lo:hi])] = u[rows]
        a[:, lo:hi] = least_squares(design, u_blocks)
    g = d_tilde / (d_tilde @ d_tilde)
    h = np.add.reduceat(g * u, starts)
    t = np.add.reduceat(design * g[:, None], starts)
    return PooledRegression(h, t, a, n)


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

    Each draw scales every cluster's restricted residuals by one 6-point
    weight and takes the t statistic of the refit, from the regression's
    per-cluster sums in O(q * b_reps) memory. The p-value is the plain
    fraction of bootstrap statistics at least as extreme as the observed one.
    The critical value is the matching quantile of the bootstrap statistics:
    the 1 - alpha quantile of t* for "greater", the alpha quantile of t* for
    "less", and the 1 - alpha quantile of |t*| for a two-sided test.
    """
    rng = np.random.default_rng(seed)
    t_star = regression.t_stats(webb_weights(rng, size=(regression.q, b_reps)))
    observed = regression.fit.t_stat

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


def _pair_betas(dataset: ClusterDataset, pairs, fits) -> np.ndarray:
    """Coefficient 1 (the treatment dummy) of each pair's pooled fit.

    ``fits(designs, ys)`` gives each pair's coefficients or its error; the
    first failing pair raises EstimationError naming both clusters.
    """
    clusters = [(dataset.clusters[ti], dataset.clusters[ui]) for ti, ui in pairs]
    designs, ys, _ = zip(*(_pooled_design(pair) for pair in clusters))
    betas = np.empty(len(pairs))
    for i, (pair, coef) in enumerate(zip(clusters, fits(designs, ys))):
        if isinstance(coef, FewClustersError):
            raise EstimationError(pair[0].id, coef, partner=pair[1].id) from coef
        betas[i] = coef[1]
    return betas


def _least_squares_each(designs, ys):
    """least_squares of each design in turn, or the error it raised."""
    for design, y in zip(designs, ys):
        try:
            yield least_squares(design, y)
        except FewClustersError as exc:
            yield exc


def pair_beta_ols(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from pooled OLS of each matched pair."""
    return _pair_betas(dataset, pairs, _least_squares_each)


def _probit_batch(designs, ys):
    """The probit fits of all pairs as one batch: coefficients or the error."""
    betas, _, errors = probit_newton_batch(designs, [(y > 0).astype(float) for y in ys])
    return [error or beta for beta, error in zip(betas, errors)]


def pair_beta_probit(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from a probit fit of each matched pair."""
    return _pair_betas(dataset, pairs, _probit_batch)
