"""Competing inference methods used as benchmarks for the placebo test.

Implemented here: the two-sample t test on per-cluster estimates, the
sign-change permutation test on matched-pair estimates, pooled OLS with a
cluster-robust variance estimator (CRVE), the t(q-1) test based on it, and
the wild cluster bootstrap with 6-point weights and the null imposed. Their
designs come from ``estimators.stacked_design``, which reads a dataset's
rows through its offsets, and their fits from the estimators' one fit path
and its rank rule. The sign-change test decides, and warns of zero power,
by the placebo test's rule: ``engine.one_sided_greater`` and ``zero_power``.
The t tests and the sign-change test run over a replication group as
arrays, row by row, so each dataset's result has the bits it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from .estimators import qr_factors, solve_factors, stacked_design, thetas
from .model import (
    ClusterDataset,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    RankDeficient,
    TestResult,
    TooManyAssignments,
    UnbalancedGroups,
    each,
    unwrap,
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
    This is :func:`im_t_tests` on a group of one.
    """
    return im_t_tests([x], alpha, side)[0]


def im_t_tests(
    vectors: Sequence[EstimateVector], alpha: float, side: str = "greater"
) -> list[TestResult]:
    """:func:`im_t_test` of each vector of a group, one layout for all, with
    the statistics as one vector."""
    q1, q0 = vectors[0].layout.q1, vectors[0].layout.q0
    if q1 < 2 or q0 < 2:
        raise GroupTooSmall(f"two-sample variance needs q1, q0 >= 2, got ({q1}, {q0})")
    values = np.stack([x.values for x in vectors])
    t, u = values[:, :q1], values[:, q1:]
    # np.sum is pairwise along a row whose entries are adjacent in memory, as
    # in these slices of C-ordered rows, so each row sums as it does alone; a
    # gather such as values[:, [0, 2]] is laid out by column and can differ
    mean_t, mean_u = np.sum(t, axis=1) / q1, np.sum(u, axis=1) / q0
    sst = np.sum((t - mean_t[:, None]) ** 2, axis=1)
    ssu = np.sum((u - mean_u[:, None]) ** 2, axis=1)
    s = np.sqrt(sst / (q1 * (q1 - 1)) + ssu / (q0 * (q0 - 1)))
    return _student_t_decisions(_signed_ratio(mean_t - mean_u, s), min(q1, q0) - 1, alpha, side)


def _student_t_decisions(
    stats: np.ndarray, df: int, alpha: float, side: str
) -> list[TestResult]:
    """Critical value, p-value and decision for each statistic referred to
    t(df): one critical value for all."""
    # imported here, so that a run without a t test never loads scipy;
    # stdtr(df, x) is the t(df) cdf and stdtrit(df, q) its inverse
    from scipy import special

    if side == "greater":
        crit = float(special.stdtrit(df, 1.0 - alpha))
        p = special.stdtr(df, -stats)
        reject = stats > crit
    elif side == "less":
        crit = float(special.stdtrit(df, alpha))
        p = special.stdtr(df, stats)
        reject = stats < crit
    else:
        crit = float(special.stdtrit(df, 1.0 - alpha / 2.0))
        p = 2.0 * special.stdtr(df, -np.abs(stats))
        reject = np.abs(stats) > crit
    return [
        TestResult(
            statistic=stat,
            critical_value=crit,
            p_value=p_j,
            reject=reject_j,
            n_assignments=0,
            side=side,
        )
        for stat, p_j, reject_j in zip(stats.tolist(), p.tolist(), reject.tolist())
    ]


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
        sizes = np.diff(dataset.offsets).tolist()
        treated.sort(key=sizes.__getitem__)
        untreated.sort(key=sizes.__getitem__)
    else:
        raise ValueError(f"unknown pairing strategy {strategy!r}")
    return list(zip(treated, untreated))


def _signed_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, where x / 0 is +-inf and 0 / 0 is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
    return np.where((den == 0.0) & (num == 0.0), 0.0, ratio)


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
    values = sign_flip_statistics(beta_hats)[None]
    return sign_flip_tests(values, alpha, randomized, [seed])[0]


@cache
def _signs(pairs: int) -> np.ndarray:
    """Every sign vector of ``pairs`` pairs as rows of +-1: all +1 first,
    the last pair flipping fastest (bit row r set where it keeps a sign)."""
    signs = np.where(engine.bit_rows(pairs), 1.0, -1.0)
    signs.flags.writeable = False
    return signs


def check_sign_table(pairs: int) -> None:
    """Raises TooManyAssignments when the table of all 2**pairs sign vectors
    would hold more than ``engine.ENUMERATION_CAP`` signs: from 20 pairs on."""
    if 2**pairs * pairs > engine.ENUMERATION_CAP:
        raise TooManyAssignments(
            f"all 2**{pairs} sign vectors of {pairs} pairs, {2**pairs * pairs} signs, "
            f"exceed the cap of {engine.ENUMERATION_CAP}"
        )


def sign_flip_statistics(beta_hats) -> np.ndarray:
    """The matched-pair statistic under every sign vector, identity first,
    of each row of ``beta_hats`` (..., pairs): shape (..., 2**pairs), each
    row's arithmetic along its own row, in runs of rows of at most
    ``engine.GROUP_CELLS`` signs (at least one row)."""
    b = np.asarray(beta_hats, dtype=float)
    pairs = b.shape[-1]
    if pairs < 2:
        raise FewClustersError("sign test needs at least two pair estimates")
    check_sign_table(pairs)
    signs = _signs(pairs)
    rows = b.reshape(-1, pairs)
    stats = np.empty((rows.shape[0], signs.shape[0]))
    step = max(1, engine.GROUP_CELLS // signs.size)
    for start in range(0, rows.shape[0], step):
        flipped = signs * rows[start : start + step, None, :]
        means = flipped.mean(axis=-1)
        denom = np.sqrt(np.sum((flipped - means[..., None]) ** 2, axis=-1))
        stats[start : start + step] = _signed_ratio(means, denom)
    return stats.reshape(b.shape[:-1] + stats.shape[-1:])


def sign_flip_tests(
    values: np.ndarray, alpha: float, randomized: bool, seeds: Sequence
) -> list[TestResult]:
    """:func:`crs_sign_test` on each row of the sign-flip distributions
    ``values`` (g, 2**pairs), decided row by row; the randomized test
    rejects when its test function reaches a uniform draw from the row's
    entry of ``seeds``."""
    c, delta, p, reject = engine.one_sided_greater(values, alpha)
    observed = values[:, 0]
    if randomized:
        u = np.array([np.random.default_rng(seed).uniform() for seed in seeds])
        phi = np.where(reject, 1.0, np.where(observed == c, delta, 0.0))
        reject = phi >= u
    n = values.shape[1]
    warnings = () if randomized else engine.zero_power(n, alpha)
    return [
        TestResult(
            statistic=observed_j,
            critical_value=c_j,
            p_value=p_j,
            reject=reject_j,
            n_assignments=n,
            randomized_threshold=delta_j,
            warnings=warnings,
        )
        for observed_j, c_j, p_j, reject_j, delta_j in zip(
            observed.tolist(), c.tolist(), p.tolist(), reject.tolist(), delta.tolist()
        )
    ]


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

    One least-squares solve gives the fit's coefficients b and S = R^-1,
    R the QR factor of the design X, so (X'X)^-1 = S S'. With v = S S' e_1,
    g = X v, and by Frisch-Waugh g = D~ / (D~'D~) with D~ the treatment
    dummy's residual on the other columns, so D~'D~ = 1 / v_1. The
    restricted fit (dummy dropped) has the coefficients b - (b_1 / v_1) v,
    with the dummy's set to 0, and leaves the residuals u. Then
    a = S S' [X_k'u_k]_k, in O(n * d) memory. Residuals within
    n * eps * max|y| of zero are rounding noise of outcomes the restricted
    regressors fit exactly (constant outcomes, say); they are set to zero,
    so the t statistic and every bootstrap draw of it are 0. RankDeficient
    when n <= d, which leaves the CRVE no degrees of freedom, or when the
    rank rule of ``estimators.least_squares`` fails.
    """
    return unwrap(pooled_regressions([dataset])[0])


def pooled_regressions(
    datasets: Sequence[ClusterDataset],
) -> list[PooledRegression | RankDeficient]:
    """:func:`pooled_regression` of each dataset, the solves of all of them
    as one batch: each regression has the bits it has alone, and a dataset
    whose fit fails gets its RankDeficient."""
    designs = [stacked_design(d, "treated") for d in datasets]
    solutions, failed = solve_factors(qr_factors(designs, [d.outcomes for d in datasets]))
    return each(_pooled_sums, datasets, designs, solutions, failed)


def _pooled_sums(
    dataset: ClusterDataset, design: np.ndarray, solution: np.ndarray, failed: bool
) -> PooledRegression:
    """The per-cluster sums of :func:`pooled_regression` from its solve."""
    n, d = design.shape
    if n <= d:
        raise RankDeficient(f"{n} pooled rows leave no residual for {d} coefficients")
    if failed:
        raise RankDeficient("design matrix is rank deficient")
    y = dataset.outcomes
    b, inverse = solution[:, 0], solution[:, 1:]
    v = inverse @ inverse[1]
    restricted = b - b[1] / v[1] * v
    restricted[1] = 0.0
    u = y - design @ restricted
    if np.max(np.abs(u)) <= n * np.finfo(float).eps * np.max(np.abs(y)):
        u = np.zeros(n)
    starts = dataset.offsets[:-1]
    a = inverse @ (inverse.T @ np.add.reduceat(design * u[:, None], starts).T)
    g = design @ v
    h = np.add.reduceat(g * u, starts)
    t = np.add.reduceat(design * g[:, None], starts)
    return PooledRegression(h, t, a, n)


def pooled_ols_crve(dataset: ClusterDataset) -> PooledFit:
    """Pooled OLS of outcome on (1, treatment, covariates) with CRVE."""
    return pooled_regression(dataset).fit


def bch_t_test(fit: PooledFit, alpha: float, side: str = "greater") -> TestResult:
    """Compare the pooled CRVE t statistic to a t(q-1) critical value."""
    return bch_t_tests([fit], alpha, side)[0]


def bch_t_tests(fits: Sequence[PooledFit], alpha: float, side: str = "greater") -> list[TestResult]:
    """:func:`bch_t_test` of each fit of a group, one q for all, with one
    critical value."""
    stats = np.array([fit.t_stat for fit in fits])
    return _student_t_decisions(stats, fits[0].q - 1, alpha, side)


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
        crit = quantile(t_star, 1.0 - alpha)
    elif side == "less":
        p = float(np.count_nonzero(t_star <= observed)) / b_reps
        crit = quantile(t_star, alpha)
    else:
        p = float(np.count_nonzero(np.abs(t_star) >= abs(observed))) / b_reps
        crit = quantile(np.abs(t_star), 1.0 - alpha)
    return TestResult(
        statistic=observed,
        critical_value=crit,
        p_value=p,
        reject=p <= alpha,
        n_assignments=b_reps,
        side=side,
    )


def quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a float vector, with numpy's own steps
    for its default "linear" method and none of its general set-up: one
    partition at the positions it uses, then its interpolation, which
    counts from the upper value when the weight is 0.5 or more."""
    n = values.shape[0]
    index = (n - 1) * q
    # past the last position numpy reads the last value twice, at index -1
    below = -1 if index >= n - 1 else math.floor(index)
    above = -1 if below == -1 else below + 1
    ordered = np.partition(values, sorted({0, -1, below, above}))
    if np.isnan(ordered[-1]):  # a nan sorts last, and is the quantile
        return float(ordered[-1])
    low, high, weight = float(ordered[below]), float(ordered[above]), index - below
    if weight >= 0.5:
        return high - (high - low) * (1 - weight)
    return low + (high - low) * weight


def pair_beta_ols(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from pooled OLS of each matched pair."""
    return unwrap(pair_betas([dataset], [pairs])[0])


def pair_beta_probit(
    dataset: ClusterDataset, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-pair treatment coefficient from a probit fit of each matched pair;
    a pair with a constant outcome in either cluster fails with Separation."""
    return unwrap(pair_betas([dataset], [pairs], probit=True)[0])


def pair_betas(
    datasets: Sequence[ClusterDataset],
    pairs: Sequence[Sequence[tuple[int, int]]],
    probit: bool = False,
) -> list[np.ndarray | FewClustersError]:
    """:func:`pair_beta_ols` (or :func:`pair_beta_probit`) of each dataset
    and its pairs, the fits of all of them as one batch: each coefficient
    has the bits it has alone, and a dataset whose fit fails gets the error
    the function raises for it."""
    return thetas(datasets, pairs, "treated", probit)
