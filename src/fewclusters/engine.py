"""Placebo-assignment enumeration, permutation quantiles, and the test itself.

The statistic of an assignment needs only the sums of the estimates (and of
their squares) over its treated clusters. Full enumeration builds these from
a prefix part and a cached suffix table, so it builds no mask row. The
estimate vectors of a replication group are tested together: their placebo
statistics form one (g, n) array, built elementwise, and each row is decided
by the one row-wise rule, so a vector's result has the bits it has alone.

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
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import (
    ClusterLayout,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    TestConfig,
    TestResult,
    TooManyAssignments,
    batch,
    unwrap,
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

# A group's placebo statistics are held at most this many at once: the group
# is tested in runs of rows of at most this many statistics (at least one
# row), so its memory does not grow with the group.
GROUP_CELLS = 1 << 20

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


@cache
def _suffix_rows(t: int, k: int) -> np.ndarray:
    """The rows of t <= TABLE_BITS bits with 0 <= k <= t ones, descending,
    as a read-only float matrix.

    They are the rows of the table entry whose first TABLE_BITS - t bits are
    zero, which are its last C(t, k) rows.
    """
    rows = _suffix_table()[k][-math.comb(t, k) :, TABLE_BITS - t :].astype(float)
    rows.flags.writeable = False
    return rows


def _mask_sums(mask: np.ndarray, moments: Moments) -> Moments:
    """Each moment summed over the treated clusters of every mask row, by
    one matrix-vector product per moment."""
    fmask = np.asarray(mask, dtype=float)
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
        size = block[0].shape[-1]
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
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*blocks))


def _stacked(parts: Sequence[Moments]) -> Moments:
    """One block of every vector's treated sums, each moment stacked (g, b)."""
    return tuple(np.stack(column) for column in zip(*parts))


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
    """The k-th smallest placebo statistic, k = ceil(N * (1 - alpha)): the
    critical value of :func:`one_sided_greater`."""
    return float(one_sided_greater(np.asarray(stats, dtype=float), alpha)[0])


def p_value(observed, stats) -> float | np.ndarray:
    """Fraction of placebo statistics >= the observed one (ties count); of
    each row of ``stats`` (..., n) against its entry of ``observed`` (...)."""
    values = np.asarray(stats, dtype=float)
    above = values >= np.asarray(observed, dtype=float)[..., None]
    return above.sum(axis=-1) / values.shape[-1]


def randomized_threshold(
    stats: Sequence[float], alpha: float
) -> tuple[float, float]:
    """Critical value plus the tie-splitting probability of the randomized
    test: those of :func:`one_sided_greater`."""
    c, delta, _, _ = one_sided_greater(np.asarray(stats, dtype=float), alpha)
    return float(c), float(delta)


def _statistics(
    moments: Moments, blocks: Iterable[Moments], n: int, q1: int
) -> np.ndarray:
    """The placebo statistics of n assignments from blocks of treated sums,
    for each row of the moments.

    A moment is (..., q), a row per estimate vector. Each block holds, for
    consecutive assignments (identity first), every moment summed over the
    treated clusters, (..., b): ``(sum_t,)`` unadjusted, ``(sum_t,
    sumsq_t)`` adjusted. Every step is elementwise, and the totals are sums
    along each row, so a row's statistic does not depend on the other rows
    or on how the assignments are split into blocks.
    """
    v = moments[0]
    q0 = v.shape[-1] - q1
    total = v.sum(axis=-1, keepdims=True)
    adjusted = len(moments) == 2
    if adjusted:
        total_sq = moments[1].sum(axis=-1, keepdims=True)
    stats = np.empty(v.shape[:-1] + (n,))
    s2_identity = None
    start = 0
    # degenerate splits divide by zero; they are mapped below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sums in blocks:
            sum_t = sums[0]
            sum_u = total - sum_t
            out = stats[..., start : start + sum_t.shape[-1]]
            first = start == 0
            start += sum_t.shape[-1]
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
                s2_identity = s2[..., :1]
            out[...] = mean_diff * np.sqrt(s2_identity / s2)
            degenerate = s2 == 0.0
            if degenerate.any():
                out[degenerate] = np.sign(mean_diff[degenerate]) * np.inf
                out[degenerate & (mean_diff == 0.0)] = 0.0
            if first:
                # identity ratio is exactly one by construction
                out[..., 0] = mean_diff[..., 0]
    return stats


def one_sided_greater(
    stats: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Critical value c, tie-splitting probability, p-value and decision
    observed > c of the test that rejects for a large observed statistic,
    for each row of ``stats`` (..., n), whose first entry is the observed
    one; as a row holds it, the decision is p <= alpha.

    c is the k-th smallest of the row, k = ceil(n * (1 - alpha)), computed
    as n - floor(n * alpha): the same integer, without a spurious float
    round-up at exact multiples. Each step is a sort, a count or an
    elementwise step along the row, so a row decides as it would alone.
    This is the one decision rule of the placebo and sign-flip tests.
    """
    n = stats.shape[-1]
    if n == 0:
        raise FewClustersError("cannot take a quantile of an empty statistic set")
    if not 0.0 < alpha < 1.0:
        raise FewClustersError(f"alpha must be in (0, 1), got {alpha}")
    values = np.sort(stats, axis=-1)
    c = values[..., n - math.floor(n * alpha) - 1]
    n_greater = (values > c[..., None]).sum(axis=-1)
    n_equal = (values == c[..., None]).sum(axis=-1)
    delta = (n * alpha - n_greater) / n_equal
    observed = stats[..., 0]
    return c, delta, p_value(observed, stats), observed > c


def zero_power(n: int, alpha: float) -> tuple[str, ...]:
    """Warnings of a non-randomized test of n draws: none, or zero power."""
    return (ZERO_POWER_WARNING,) if math.floor(n * alpha) == 0 else ()


def checked_count(q: int, q1: int, max_assignments: Optional[int] = None) -> int:
    """C(q, q1), the number of placebo assignments. Raises TooManyAssignments
    when the test would evaluate more than ENUMERATION_CAP of them: all
    C(q, q1), or ``max_assignments`` draws when that is fewer."""
    total = math.comb(q, q1)
    drawn = max_assignments is not None and max_assignments < total
    if (max_assignments if drawn else total) > ENUMERATION_CAP:
        what = f"{max_assignments} drawn" if drawn else f"all C({q}, {q1}) = {total}"
        raise TooManyAssignments(
            f"{what} placebo assignments exceed the cap of {ENUMERATION_CAP}"
        )
    return total


def _evaluated(layout: ClusterLayout, cfg: TestConfig) -> tuple[int, bool]:
    """How many assignments the test evaluates, and whether they are drawn:
    all C(q, q1), or the identity and ``cfg.max_assignments`` draws when
    that is fewer. Raises GroupTooSmall when the adjusted statistic lacks a
    spread, and ``checked_count`` raises when the count exceeds the cap."""
    if cfg.adjustment == "adjusted" and (layout.q1 < 2 or layout.q0 < 2):
        raise GroupTooSmall(
            "the adjusted placebo statistic needs at least two clusters per "
            f"group, got ({layout.q1}, {layout.q0}); use adjustment='unadjusted'"
        )
    total = checked_count(layout.q, layout.q1, cfg.max_assignments)
    drawn = cfg.max_assignments is not None and total > cfg.max_assignments
    return (cfg.max_assignments + 1 if drawn else total), drawn


def placebo_distribution(x: EstimateVector, cfg: TestConfig) -> np.ndarray:
    """The placebo statistic over every evaluated assignment, identity first:
    :func:`placebo_distributions` of one vector, drawing from ``cfg.seed``."""
    return placebo_distributions([x], cfg, [cfg.seed])[0]


def placebo_distributions(
    vectors: Sequence[EstimateVector], cfg: TestConfig, seeds: Sequence
) -> np.ndarray:
    """The placebo statistic of each vector, one layout for all, over every
    evaluated assignment, identity first: shape (len(vectors), n).

    All C(q, q1) assignments in lexicographic order, from prefix plus suffix
    sums without a mask row; or, when ``cfg.max_assignments`` is below that
    count, the identity plus that many draws, vector j's from ``seeds[j]``.
    ``checked_count`` raises before any work when either exceeds
    ENUMERATION_CAP. Each treated sum is one product per vector, and the
    statistics are elementwise over the rows. With
    adjustment, a split of zero two-sample variance away from the identity
    gives a signed infinity, or 0.0 when its comparison of means is 0 too,
    so quantiles and p-values stay defined.
    """
    layout = vectors[0].layout
    n, drawn = _evaluated(layout, cfg)
    v = np.array([x.values for x in vectors], dtype=float)
    moments = (v, v * v) if cfg.adjustment == "adjusted" else (v,)
    rows = list(zip(*moments))  # each vector's moments
    if drawn:
        masks = [_subsampled_masks(layout, cfg.max_assignments, seed) for seed in seeds]
        parts = ([_mask_sums(mask, m) for mask, m in zip(block, rows)] for block in zip(*masks))
    else:
        parts = zip(*(_enumerated_sums(m, layout.q1) for m in rows))
    return _statistics(moments, _fused(map(_stacked, parts)), n, layout.q1)


def run_placebo_test(x: EstimateVector, cfg: TestConfig) -> TestResult:
    """Run the full placebo test on a vector of per-cluster estimates.

    One-sided "greater" rejects when the observed statistic exceeds the
    permutation quantile. "less" runs the greater-sided test on the negated
    estimates. "two_sided" runs both one-sided tests at alpha/2 and doubles
    the smaller p-value (capped at 1). The tie-splitting probability of the
    randomized test is reported but never used for the decision. This is
    :func:`run_placebo_tests` on a group of one.
    """
    [result] = run_placebo_tests([x], cfg)
    return unwrap(result)


def run_placebo_tests(
    estimates: Sequence[EstimateVector | FewClustersError],
    cfg: TestConfig,
    seeds: Optional[Sequence] = None,
) -> list[TestResult | FewClustersError]:
    """:func:`run_placebo_test` of each vector of a group, with ``cfg``, and
    vector j drawing any subsample from ``seeds[j]`` (default ``cfg.seed``),
    in order; an error in place of a vector stays its result.

    The vectors' statistics are one array, decided row by row by
    :func:`one_sided_greater`, in runs of at most GROUP_CELLS statistics.
    """
    seeds = [cfg.seed] * len(estimates) if seeds is None else seeds
    return batch(lambda vectors, seeds: _placebo_tests(vectors, cfg, seeds), estimates, seeds)


def _placebo_tests(
    vectors: Sequence[EstimateVector], cfg: TestConfig, seeds: Sequence
) -> list[TestResult]:
    n, _ = _evaluated(vectors[0].layout, cfg)
    step = max(1, GROUP_CELLS // n)
    results = []
    for start in range(0, len(vectors), step):
        rows = slice(start, start + step)
        stats = placebo_distributions(vectors[rows], cfg, seeds[rows])
        if cfg.side == "two_sided":
            alpha = cfg.alpha / 2.0
            c, delta, p_plus, rej_plus = one_sided_greater(stats, alpha)
            _, _, p_minus, rej_minus = one_sided_greater(-stats, alpha)
            p, reject = np.minimum(1.0, 2.0 * np.minimum(p_plus, p_minus)), rej_plus | rej_minus
        else:
            alpha = cfg.alpha
            signed = stats if cfg.side == "greater" else -stats
            c, delta, p, reject = one_sided_greater(signed, alpha)
        warnings = zero_power(n, alpha)
        results += [
            TestResult(
                statistic=observed,
                critical_value=c_j,
                p_value=p_j,
                reject=reject_j,
                n_assignments=n,
                side=cfg.side,
                adjustment=cfg.adjustment,
                randomized_threshold=delta_j,
                warnings=warnings,
            )
            for observed, c_j, p_j, reject_j, delta_j in zip(
                stats[:, 0].tolist(), c.tolist(), p.tolist(), reject.tolist(), delta.tolist()
            )
        ]
    return results
