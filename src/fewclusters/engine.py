"""Placebo-assignment enumeration, permutation quantiles, and the test itself.

The statistic of an assignment needs only the sums of the estimates (and of
their squares) over its treated clusters. Full enumeration builds these from
prefix and suffix rows of ``bit_rows``, so it builds no mask row of a whole
assignment. The estimate vectors of a replication group are tested
together: their placebo statistics form one (g, n) array, built
elementwise, and each row is decided by the one row-wise rule, so a
vector's result has the bits it has alone.

The evaluated set of assignments always has the identity assignment first,
so the observed statistic is a member of the placebo distribution. That
membership is what makes the quantile rule and the p-value rule provably
equivalent, and it also caps the p-value below at 1/N.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

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

# Width of the suffix, whose rows with k ones (at most C(12, 6) = 924) are
# cached per width as float matrices, one for each k.
TABLE_BITS = 12

# Subsampled assignments are drawn in blocks of this many rows, so their
# masks take O(DRAW_ROWS * q) memory however many are drawn.
DRAW_ROWS = 1 << 14

# Enumerated sums come in blocks of up to this many rows, each prefix's
# sums written in place, so the elementwise steps run once per 16,384
# assignments rather than once per prefix block of at most 924, on arrays
# small enough to stay in a core's cache: at 10 + 10 clusters, blocks of
# 65,536 made the adjusted statistics 1.6 times slower. The prefixes of a
# block hold at most this many cluster indices, too.
FUSE_ROWS = 1 << 14

# A group's placebo or sign-flip statistics, or a block of flipped pair
# estimates, are held at most this many at once (at least one row), so
# their memory does not grow with the group or the number of sign vectors.
GROUP_CELLS = 1 << 20

# (v,) for the unadjusted statistic and (v, v * v) for the adjusted one, or
# those summed over the treated clusters of each assignment
Moments = tuple[np.ndarray, ...]

ZERO_POWER_WARNING = (
    "zero power: the placebo set is smaller than 1/alpha, so the observed "
    "statistic can never exceed the critical value"
)


def bit_rows(n: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Rows start to stop - 1 (by default all 2**n) of the rows of n bits as
    bools, column 0 the top bit, descending.

    Row r holds the bits of the integer 2**n - 1 - r, so the all-ones row
    comes first and the all-zeros row last.
    """
    stop = 2**n if stop is None else stop
    # the narrowest integer type keeps the n-fold temporary small
    dtype = np.min_scalar_type(2**n - 1)
    bits = np.arange(2**n - 1 - start, 2**n - 1 - stop, -1, dtype=dtype)[:, None] >> np.arange(
        n - 1, -1, -1, dtype=dtype
    )
    bits &= 1
    return bits.astype(bool)


@cache
def _suffix_rows(t: int) -> tuple[np.ndarray, ...]:
    """For k = 0..t, the rows of ``bit_rows(t)`` with k ones, in order, as
    read-only floats: the rows sorted stably by their number of ones, and
    split."""
    rows = bit_rows(t)
    counts = rows.sum(axis=1)
    ordered = rows[np.argsort(counts, kind="stable")].astype(float)
    ordered.flags.writeable = False
    return tuple(np.split(ordered, np.cumsum(np.bincount(counts, minlength=t + 1))[:-1]))


def _prefixes(p: int, lo: int, hi: int) -> Iterator[list[int]]:
    """The set bits of the rows of ``bit_rows(p)`` with lo to hi ones, in
    order, without the 2**p rows: a walk bit by bit, set before clear, on a
    stack of partial rows that each lead to at least one such row."""
    stack = [(0, [])]  # (next bit, set bits so far)
    while stack:
        start, treated = stack.pop()
        need, room = max(lo - len(treated), 0), min(hi - len(treated), p - start)
        if room == 0 or need == p - start:  # the rest is all zeros or all ones
            yield treated + list(range(start, start + need))
        else:
            stack += [(start + 1, treated), (start + 1, treated + [start])]


def _mask_sums(masks: Sequence[np.ndarray], moments: Moments) -> Moments:
    """Each moment (g, q) summed over the treated clusters of each row of
    float mask j (b, q) for its row j, as (g, b): one matrix-vector product
    per row, since a gemm over all rows could round differently."""
    return tuple(np.stack([mask @ row for mask, row in zip(masks, m)]) for m in moments)


def _prefix_runs(
    prefixes: Iterable[list[int]], width: Callable[[int], int]
) -> Iterator[list[list[int]]]:
    """Consecutive prefixes in runs whose suffix blocks, ``width(ones)`` rows
    each, total at most FUSE_ROWS rows and that hold at most FUSE_ROWS
    cluster indices in all (a longer prefix or block runs alone)."""
    run: list[list[int]] = []
    rows = cells = 0
    for treated in prefixes:
        w = width(len(treated))
        if run and (rows + w > FUSE_ROWS or cells + len(treated) > FUSE_ROWS):
            yield run
            run, rows, cells = [], 0, 0
        run.append(treated)
        rows += w
        cells += len(treated)
    if run:
        yield run


def _enumerated_sums(moments: Moments, q1: int) -> Iterator[Moments]:
    """Treated sums of all C(q, q1) assignments in lexicographic order, for
    each row of the moments (g, q), in blocks of at most FUSE_ROWS
    assignments (a longer suffix block passes alone).

    Lexicographic order of the treated sets is descending order of their
    mask rows read as q-bit integers with cluster 0 the top bit, so the
    identity comes first. The rows of the last t = min(q, TABLE_BITS)
    clusters with k ones give a block of suffix sums. The prefixes of the
    first q - t clusters come in runs, one run per block, of at most
    FUSE_ROWS cluster indices, so a block's memory does not grow with the
    number or length of the prefixes. The prefixes of a run with j ones are
    gathered and summed at once, each along its own C-ordered row of
    entries as on the row alone, and a prefix's sum is added to the suffix
    block with q1 - j ones, in place in the block. No product spans more
    than C(12, 6) rows, so no sum depends on how BLAS splits its work.
    """
    g, q = moments[0].shape
    t = min(q, TABLE_BITS)
    p = q - t
    # sums are (moment, g, rows), so one add writes a prefix's rows of all moments
    suffix: dict[int, np.ndarray] = {}
    stacked = np.stack(moments)
    for run in _prefix_runs(_prefixes(p, q1 - t, q1), lambda j: math.comb(t, q1 - j)):
        by_count: dict[int, list[list[int]]] = {}
        rank = []  # each prefix's index among the run's prefixes with as many ones
        for treated in run:
            rank.append(len(by_count.setdefault(len(treated), [])))
            by_count[len(treated)].append(treated)
        for j in by_count.keys() - suffix.keys():
            table = _suffix_rows(t)[q1 - j]
            suffix[j] = np.stack(_mask_sums([table] * g, [m[:, p:] for m in moments]))
        if p == 0:
            yield tuple(suffix[0])
            return
        prefix_sums = {
            j: np.take(stacked, np.array(rows, np.intp).reshape(len(rows), j), axis=-1).sum(-1)
            for j, rows in by_count.items()
        }
        size = sum(suffix[len(treated)].shape[-1] for treated in run)
        block = np.empty((len(moments), g, size))
        at = 0
        for treated, r in zip(run, rank):
            j = len(treated)
            width = suffix[j].shape[-1]
            np.add(prefix_sums[j][..., r : r + 1], suffix[j], out=block[..., at : at + width])
            at += width
        yield tuple(block)


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
    sumsq_t)`` adjusted. Every step is elementwise, most of them in place
    in a few arrays of a block's shape, and the totals are sums along each
    row, so a row's statistic does not depend on the other rows or on how
    the assignments are split into blocks. The blocks are only read.
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
            out = stats[..., start : start + sum_t.shape[-1]]
            first = start == 0
            start += sum_t.shape[-1]
            sum_u = np.subtract(total, sum_t)
            temp = np.divide(sum_u, q0)
            if not adjusted:
                np.divide(sum_t, q1, out=out)
                out -= temp
                continue

            mean_diff = np.divide(sum_t, q1)
            mean_diff -= temp
            # ss_t = max(sumsq_t - sum_t**2 / q1, 0), then ss_u alike
            np.square(sum_t, out=temp)
            temp /= q1
            s2 = np.subtract(sums[1], temp)
            np.maximum(s2, 0.0, out=s2)
            ss_u = np.subtract(total_sq, sums[1])
            np.square(sum_u, out=temp)
            temp /= q0
            ss_u -= temp
            np.maximum(ss_u, 0.0, out=ss_u)
            # s2 = ss_t / (q1 (q1 - 1)) + ss_u / (q0 (q0 - 1))
            s2 /= q1 * (q1 - 1)
            ss_u /= q0 * (q0 - 1)
            s2 += ss_u
            if first:
                s2_identity = s2[..., :1].copy()
            np.divide(s2_identity, s2, out=temp)
            np.sqrt(temp, out=temp)
            np.multiply(mean_diff, temp, out=out)
            if not s2.all():
                degenerate = s2 == 0.0
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
    round-up at exact multiples. A partition finds it where a sort would
    place it, and the counts are taken on the row as given. Each step is a
    partition, a count or an elementwise step along the row, so a row
    decides as it would alone. This is the one decision rule of the placebo
    and sign-flip tests.
    """
    n = stats.shape[-1]
    if n == 0:
        raise FewClustersError("cannot take a quantile of an empty statistic set")
    if not 0.0 < alpha < 1.0:
        raise FewClustersError(f"alpha must be in (0, 1), got {alpha}")
    k = n - math.floor(n * alpha) - 1
    c = np.partition(stats, k, axis=-1)[..., k]
    n_greater = (stats > c[..., None]).sum(axis=-1)
    n_equal = (stats == c[..., None]).sum(axis=-1)
    delta = (n * alpha - n_greater) / n_equal
    observed = stats[..., 0]
    return c, delta, p_value(observed, stats), observed > c


def capped(count: int, what: str) -> int:
    """``count`` of ``what``: placebo assignments, sign vectors or bootstrap
    weights. Raises TooManyAssignments when it exceeds ENUMERATION_CAP."""
    if count > ENUMERATION_CAP:
        raise TooManyAssignments(f"{what} exceed the cap of {ENUMERATION_CAP}")
    return count


def sign_flip_count(pairs: int) -> int:
    """2**pairs, the number of sign vectors of ``pairs`` pairs, capped."""
    return capped(2**pairs, f"all 2**{pairs} = {2**pairs} sign vectors of {pairs} pairs")


def checked_count(q: int, q1: int, max_assignments: Optional[int] = None) -> int:
    """C(q, q1), the number of placebo assignments. Raises TooManyAssignments
    when the test would evaluate more than ENUMERATION_CAP of them: all
    C(q, q1), or ``max_assignments`` draws when that is fewer."""
    total = math.comb(q, q1)
    if max_assignments is not None and max_assignments < total:
        capped(max_assignments, f"{max_assignments} drawn placebo assignments")
    else:
        capped(total, f"all C({q}, {q1}) = {total} placebo assignments")
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

    All C(q, q1) assignments in lexicographic order or, when
    ``cfg.max_assignments`` is below that count, the identity plus that many
    draws, vector j's from ``seeds[j]``; ``checked_count`` raises first when
    either exceeds ENUMERATION_CAP. With adjustment, a split of zero
    two-sample variance away from the identity gives a signed infinity, or
    0.0 when its comparison of means is 0 too, so quantiles and p-values
    stay defined.
    """
    layout = vectors[0].layout
    n, drawn = _evaluated(layout, cfg)
    v = np.array([x.values for x in vectors], dtype=float)
    moments = (v, v * v) if cfg.adjustment == "adjusted" else (v,)
    if drawn:
        draws = zip(*(_subsampled_masks(layout, cfg.max_assignments, seed) for seed in seeds))
        blocks = (_mask_sums([m.astype(float) for m in masks], moments) for masks in draws)
    else:
        blocks = _enumerated_sums(moments, layout.q1)
    return _statistics(moments, blocks, n, layout.q1)


def run_placebo_test(x: EstimateVector, cfg: TestConfig) -> TestResult:
    """Run the full placebo test on a vector of per-cluster estimates:
    :func:`placebo_tests` on a group of one, drawing from ``cfg.seed``. The
    tie-splitting probability of the randomized test is reported but never
    used for the decision; :func:`decided` gives the rule of each side."""
    return placebo_tests([x], cfg, [cfg.seed])[0]


def placebo_tests(
    vectors: Sequence[EstimateVector], cfg: TestConfig, seeds: Sequence
) -> list[TestResult]:
    """:func:`run_placebo_test` of each vector of a group, one layout for
    all, vector j drawing any subsample from ``seeds[j]``, in order: the
    vectors' :func:`placebo_distributions`, :func:`decided` in runs."""
    n, _ = _evaluated(vectors[0].layout, cfg)
    return decided(
        lambda rows: placebo_distributions(vectors[rows], cfg, seeds[rows]),
        len(vectors), n, cfg.alpha, cfg.side, cfg.adjustment,
    )


def decided(
    build: Callable[[slice], np.ndarray], g: int, n: int, alpha: float,
    side: str = "greater", adjustment: str = "unadjusted",
) -> list[TestResult]:
    """The result of the test of each of g rows of n statistics, observed
    first, ``build(rows)`` giving the statistics of a slice of the rows: the
    one run loop of the placebo and sign-flip tests.

    Runs of at most GROUP_CELLS statistics (at least one row) are decided
    row by row by :func:`one_sided_greater`, "greater" rejecting above the
    permutation quantile c. "less" decides the negated run and reports -c,
    so that it rejects below it; "two_sided" decides both sides at alpha/2,
    reports the "greater" c and doubles the smaller p-value (capped at 1).
    A run is dropped, with the partitioned copy its c views, before the
    next is built.
    """
    alpha = alpha / 2.0 if side == "two_sided" else alpha
    warnings = (ZERO_POWER_WARNING,) if math.floor(n * alpha) == 0 else ()
    step = max(1, GROUP_CELLS // n)
    results = []
    for start in range(0, g, step):
        stats = build(slice(start, start + step))
        if side == "two_sided":
            c, delta, p_plus, rej_plus = one_sided_greater(stats, alpha)
            _, _, p_minus, rej_minus = one_sided_greater(-stats, alpha)
            p, reject = np.minimum(1.0, 2.0 * np.minimum(p_plus, p_minus)), rej_plus | rej_minus
        else:
            c, delta, p, reject = one_sided_greater(stats if side == "greater" else -stats, alpha)
            if side == "less":
                c = -c
        results += [
            TestResult(
                statistic=observed,
                critical_value=c_j,
                p_value=p_j,
                reject=reject_j,
                n_assignments=n,
                side=side,
                adjustment=adjustment,
                randomized_threshold=delta_j,
                warnings=warnings,
            )
            for observed, c_j, p_j, reject_j, delta_j in zip(
                stats[:, 0].tolist(), c.tolist(), p.tolist(), reject.tolist(), delta.tolist()
            )
        ]
        del stats, c  # c may view a partitioned copy: both go before the next run
    return results
