"""Placebo-assignment enumeration, permutation quantiles, and the test itself.

The statistic of an assignment needs only the sums of the estimates (and of
their squares) over its treated clusters. Full enumeration builds these from
a prefix part and a cached suffix table, so it builds no mask row.

The evaluated set of assignments always has the identity assignment first,
so the observed statistic is a member of the placebo distribution. That
membership is what makes the quantile rule and the p-value rule provably
equivalent, and it also caps the p-value below at 1/N.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    ClusterLayout,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    TestConfig,
    TestResult,
    TooManyAssignments,
)

ENUMERATION_CAP = 10_000_000

# Width of the cached table of suffix rows: all 2**12 rows of 12 bits, split
# by the number of ones (at most C(12, 6) = 924 rows each).
TABLE_BITS = 12

# Subsampled assignments are drawn in blocks of this many rows, so their
# masks take O(DRAW_ROWS * q) memory however many are drawn.
DRAW_ROWS = 1 << 14

# Consecutive blocks of enumerated sums are joined up to this many rows, so
# the elementwise steps run once per 65,536 assignments rather than once per
# prefix block of at most 924.
FUSE_ROWS = 1 << 16

# (v,) for the unadjusted statistic and (v, v * v) for the adjusted one, or
# those summed over the treated clusters of each assignment
Moments = tuple[np.ndarray, ...]

ZERO_POWER_WARNING = (
    "zero power: the placebo set is smaller than 1/alpha, so the observed "
    "statistic can never exceed the critical value"
)


def bit_rows(n: int) -> np.ndarray:
    """All 2**n rows of n bits as bools, column 0 the top bit, descending.

    Row r holds the bits of the integer 2**n - 1 - r, so the all-ones row
    comes first and the all-zeros row last.
    """
    # the narrowest integer type keeps the n-fold temporary small
    dtype = np.min_scalar_type(2**n - 1)
    bits = np.arange(2**n - 1, -1, -1, dtype=dtype)[:, None] >> np.arange(
        n - 1, -1, -1, dtype=dtype
    )
    bits &= 1
    return bits.astype(bool)


@cache
def _suffix_table() -> tuple[np.ndarray, ...]:
    """Entry k: the rows of ``bit_rows(TABLE_BITS)`` with k ones, in order."""
    rows = bit_rows(TABLE_BITS)
    ones = rows.sum(axis=1)
    table = tuple(rows[ones == k] for k in range(TABLE_BITS + 1))
    for block in table:
        block.flags.writeable = False
    return table


def _suffix_rows(t: int, k: int) -> np.ndarray:
    """The rows of t <= TABLE_BITS bits with 0 <= k <= t ones, descending.

    They are the rows of the table entry whose first TABLE_BITS - t bits are
    zero, which are its last C(t, k) rows.
    """
    return _suffix_table()[k][-math.comb(t, k) :, TABLE_BITS - t :]


def _mask_sums(mask: np.ndarray, moments: Moments) -> Moments:
    """Each moment summed over the treated clusters of every mask row."""
    fmask = mask.astype(float)
    return tuple(fmask @ m for m in moments)


def _enumerated_sums(moments: Moments, q1: int) -> Iterator[Moments]:
    """Treated sums of all C(q, q1) assignments in lexicographic order.

    Lexicographic order of the treated sets is descending order of their
    mask rows read as q-bit integers with cluster 0 the top bit, so the
    identity comes first. The last t = min(q, TABLE_BITS) clusters take their
    bits from the cached table, whose rows with k ones give one block of
    suffix sums. The first q - t clusters form a prefix; the prefixes with j
    ones come from ``itertools.combinations`` in descending order and are
    merged by value, and each yields its own sum plus the suffix block with
    q1 - j ones. No product spans more than C(12, 6) rows, so no sum depends
    on how BLAS splits its work.
    """
    q = moments[0].shape[0]
    t = min(q, TABLE_BITS)
    p = q - t
    if p == 0:
        yield _mask_sums(_suffix_rows(t, q1), moments)
        return
    ones = range(max(0, q1 - t), min(q1, p) + 1)
    tails = tuple(m[p:] for m in moments)
    suffix = {j: _mask_sums(_suffix_rows(t, q1 - j), tails) for j in ones}
    runs = [
        (
            (sum(1 << (p - 1 - i) for i in combo), combo)
            for combo in itertools.combinations(range(p), j)
        )
        for j in ones
    ]
    for _, combo in heapq.merge(*runs, reverse=True):
        treated = list(combo)
        yield tuple(
            m[treated].sum() + s for m, s in zip(moments, suffix[len(combo)])
        )


def _fused(blocks: Iterable[Moments], rows: int = FUSE_ROWS) -> Iterator[Moments]:
    """Consecutive blocks joined into blocks of at most ``rows`` rows (a
    longer block passes alone), in order."""
    pending: list[Moments] = []
    count = 0
    for block in blocks:
        size = block[0].shape[0]
        if pending and count + size > rows:
            yield _joined(pending)
            pending, count = [], 0
        pending.append(block)
        count += size
    if pending:
        yield _joined(pending)


def _joined(blocks: list[Moments]) -> Moments:
    if len(blocks) == 1:
        return blocks[0]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _subsampled_masks(
    layout: ClusterLayout, m: int, seed: int
) -> Iterator[np.ndarray]:
    """Mask rows of the identity plus m seeded uniform draws of q1 of the q
    clusters, in blocks of at most DRAW_ROWS draws; the identity leads.

    Each draw is one row of ``rng.permuted`` over the cluster indices, and
    the clusters at which 0..q1-1 land are treated: a uniform q1-subset.
    """
    rng = np.random.default_rng(seed)
    identity = np.arange(layout.q)[None, :]
    for start in range(0, m, DRAW_ROWS):
        rows = min(DRAW_ROWS, m - start)
        draws = rng.permuted(np.repeat(identity, rows, axis=0), axis=1)
        if start == 0:
            draws = np.concatenate([identity, draws])
        yield draws < layout.q1


def permutation_quantile(stats: Sequence[float], alpha: float) -> float:
    """The k-th smallest placebo statistic, k = ceil(N * (1 - alpha)).

    k is computed as N - floor(N * alpha), which is the same integer but
    avoids spurious float round-up at exact multiples.
    """
    values = np.sort(np.asarray(stats, dtype=float))
    n = values.shape[0]
    if n == 0:
        raise FewClustersError("cannot take a quantile of an empty statistic set")
    if not 0.0 < alpha < 1.0:
        raise FewClustersError(f"alpha must be in (0, 1), got {alpha}")
    k = n - math.floor(n * alpha)
    return float(values[k - 1])


def p_value(observed: float, stats: Sequence[float]) -> float:
    """Fraction of placebo statistics >= the observed one (ties count)."""
    values = np.asarray(stats, dtype=float)
    return float(np.count_nonzero(values >= observed)) / values.shape[0]


def randomized_threshold(
    stats: Sequence[float], alpha: float
) -> tuple[float, float]:
    """Critical value plus the tie-splitting probability of the randomized test."""
    values = np.asarray(stats, dtype=float)
    c = permutation_quantile(values, alpha)
    n = values.shape[0]
    n_greater = int(np.count_nonzero(values > c))
    n_equal = int(np.count_nonzero(values == c))
    delta = (n * alpha - n_greater) / n_equal
    return c, delta


def placebo_statistics(
    values: np.ndarray, mask: np.ndarray, q1: int, adjusted: bool
) -> np.ndarray:
    """Evaluate the placebo statistic for every assignment row of ``mask``.

    Row 0 must be the identity assignment. With adjustment, a degenerate
    placebo split (zero two-sample variance away from the identity) maps to
    a signed infinity, or 0.0 when its comparison of means is also zero;
    this keeps quantiles and p-values well defined for degenerate inputs.
    """
    v = np.asarray(values, dtype=float)
    moments = (v, v * v) if adjusted else (v,)
    return _statistics(moments, [_mask_sums(mask, moments)], mask.shape[0], q1)


def _statistics(
    moments: Moments, blocks: Iterable[Moments], n: int, q1: int
) -> np.ndarray:
    """``placebo_statistics`` of n assignments from blocks of treated sums.

    Each block holds, for consecutive assignments (identity first), every
    moment summed over the treated clusters: ``(sum_t,)`` unadjusted,
    ``(sum_t, sumsq_t)`` adjusted. Every step is elementwise, so a row's
    statistic does not depend on how the rows are split into blocks.
    """
    v = moments[0]
    q0 = v.shape[0] - q1
    total = v.sum()
    adjusted = len(moments) == 2
    if adjusted:
        total_sq = moments[1].sum()
    stats = np.empty(n)
    s2_identity = None
    start = 0
    # degenerate splits divide by zero; they are mapped below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sums in blocks:
            sum_t = sums[0]
            sum_u = total - sum_t
            out = stats[start : start + sum_t.shape[0]]
            first = start == 0
            start += sum_t.shape[0]
            if not adjusted:
                np.subtract(sum_t / q1, sum_u / q0, out=out)
                continue

            mean_diff = sum_t / q1 - sum_u / q0
            sumsq_t = sums[1]
            sumsq_u = total_sq - sumsq_t
            ss_t = np.maximum(sumsq_t - sum_t**2 / q1, 0.0)
            ss_u = np.maximum(sumsq_u - sum_u**2 / q0, 0.0)
            s2 = ss_t / (q1 * (q1 - 1)) + ss_u / (q0 * (q0 - 1))
            if first:
                s2_identity = s2[0]
            out[:] = mean_diff * np.sqrt(s2_identity / s2)
            degenerate = s2 == 0.0
            if degenerate.any():
                out[degenerate] = np.sign(mean_diff[degenerate]) * np.inf
                out[degenerate & (mean_diff == 0.0)] = 0.0
            if first:
                # identity ratio is exactly one by construction
                out[0] = mean_diff[0]
    return stats


def _one_sided_greater(
    stats: np.ndarray, alpha: float
) -> tuple[float, float, float, bool]:
    """Critical value, tie-splitting probability, p-value and decision of the
    test that rejects for large values of stats[0]."""
    observed = float(stats[0])
    c, delta = randomized_threshold(stats, alpha)
    return c, delta, p_value(observed, stats), observed > c


def placebo_distribution(x: EstimateVector, cfg: TestConfig) -> np.ndarray:
    """The placebo statistic over every evaluated assignment, identity first.

    All C(q, q1) assignments in lexicographic order, from prefix plus suffix
    sums without a mask row; or, when ``cfg.max_assignments`` is below that
    count, the identity plus that many seeded draws. Raises
    TooManyAssignments before any work when full enumeration would exceed
    ENUMERATION_CAP.
    """
    layout = x.layout
    adjusted = cfg.adjustment == "adjusted"
    if adjusted and (layout.q1 < 2 or layout.q0 < 2):
        raise GroupTooSmall(
            "the adjusted placebo statistic needs at least two clusters per "
            f"group, got ({layout.q1}, {layout.q0}); use adjustment='unadjusted'"
        )
    v = np.asarray(x.values, dtype=float)
    moments = (v, v * v) if adjusted else (v,)
    total = math.comb(layout.q, layout.q1)
    if cfg.max_assignments is not None and total > cfg.max_assignments:
        n = cfg.max_assignments + 1
        masks = _subsampled_masks(layout, cfg.max_assignments, cfg.seed)
        blocks = (_mask_sums(mask, moments) for mask in masks)
    else:
        if total > ENUMERATION_CAP:
            raise TooManyAssignments(
                f"C({layout.q}, {layout.q1}) = {total} exceeds the cap of "
                f"{ENUMERATION_CAP}; use subsampling (max_assignments) instead"
            )
        n = total
        blocks = _fused(_enumerated_sums(moments, layout.q1))
    return _statistics(moments, blocks, n, layout.q1)


def run_placebo_test(x: EstimateVector, cfg: TestConfig) -> TestResult:
    """Run the full placebo test on a vector of per-cluster estimates.

    One-sided "greater" rejects when the observed statistic exceeds the
    permutation quantile. "less" runs the greater-sided test on the negated
    estimates. "two_sided" runs both one-sided tests at alpha/2 and doubles
    the smaller p-value (capped at 1). The tie-splitting probability of the
    randomized test is reported but never used for the decision.
    """
    stats = placebo_distribution(x, cfg)
    n = stats.shape[0]
    if cfg.side == "two_sided":
        alpha = cfg.alpha / 2.0
        c, delta, p_plus, rej_plus = _one_sided_greater(stats, alpha)
        _, _, p_minus, rej_minus = _one_sided_greater(-stats, alpha)
        p, reject = min(1.0, 2.0 * min(p_plus, p_minus)), rej_plus or rej_minus
    else:
        alpha = cfg.alpha
        signed = stats if cfg.side == "greater" else -stats
        c, delta, p, reject = _one_sided_greater(signed, alpha)
    return TestResult(
        statistic=float(stats[0]),
        critical_value=c,
        p_value=p,
        reject=reject,
        n_assignments=n,
        side=cfg.side,
        adjustment=cfg.adjustment,
        randomized_threshold=delta,
        warnings=(ZERO_POWER_WARNING,) if math.floor(n * alpha) == 0 else (),
    )
