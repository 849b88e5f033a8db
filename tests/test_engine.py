"""Tests for assignment enumeration, quantile/p-value rules, and the test runner."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewclusters import engine
from fewclusters.engine import (
    ZERO_POWER_WARNING,
    bit_rows,
    p_value,
    permutation_quantile,
    placebo_distribution,
    randomized_threshold,
    run_placebo_test,
)
from fewclusters.model import (
    ClusterLayout,
    EstimateVector,
    FewClustersError,
    GroupTooSmall,
    TestConfig,
    TooManyAssignments,
)
from scalar_reference import (
    adjusted_statistic,
    enumerate_assignments,
    placebo_statistics,
    subsample_assignments,
)


# sha256 of the 10+10 placebo distribution of 20 fixed random vectors, adjusted
# and unadjusted, one line each
BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from fewclusters.engine import placebo_distribution
from fewclusters.model import ClusterLayout, EstimateVector, TestConfig
layout = ClusterLayout(10, 10)
for v in np.random.default_rng(47).normal(size=(20, 20)):
    for adjustment in ("adjusted", "unadjusted"):
        stats = placebo_distribution(EstimateVector(v, layout), TestConfig(adjustment=adjustment))
        print(hashlib.sha256(stats.tobytes()).hexdigest())
"""


def vec(values, q1):
    values = np.asarray(values, dtype=float)
    return EstimateVector(values, ClusterLayout(q1=q1, q0=values.size - q1))


def reference_mask(assignments, q):
    """One bool row per assignment, True on its treated indices."""
    idx = np.array([a.treated_set for a in assignments], dtype=int)
    mask = np.zeros((len(assignments), q), dtype=bool)
    mask[np.arange(len(assignments))[:, None], idx] = True
    return mask


class TestEnumeration:
    def test_count_3_3(self):
        assert len(enumerate_assignments(ClusterLayout(3, 3))) == 20

    def test_count_6_6(self):
        assert len(enumerate_assignments(ClusterLayout(6, 6))) == 924

    def test_count_1_1(self):
        assert len(enumerate_assignments(ClusterLayout(1, 1))) == 2

    def test_identity_first_lexicographic(self):
        assignments = enumerate_assignments(ClusterLayout(2, 2))
        sets = [a.treated_set for a in assignments]
        assert sets[0] == (0, 1)
        assert sets == sorted(sets)
        assert sets == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_cap_enforced(self):
        with pytest.raises(TooManyAssignments):
            enumerate_assignments(ClusterLayout(15, 15), cap=1000)

    def test_no_duplicates(self):
        assignments = enumerate_assignments(ClusterLayout(3, 4))
        assert len({a.treated_set for a in assignments}) == math.comb(7, 3)


class TestSubsampling:
    def test_identity_prepended(self):
        layout = ClusterLayout(3, 3)
        draws = subsample_assignments(layout, m=10, seed=0)
        assert len(draws) == 11
        assert draws[0].is_identity(layout)

    def test_deterministic(self):
        layout = ClusterLayout(3, 3)
        a = subsample_assignments(layout, m=100, seed=42)
        b = subsample_assignments(layout, m=100, seed=42)
        assert [x.treated_set for x in a] == [y.treated_set for y in b]

    def test_uniform_frequencies(self):
        # each of the C(6, 3) = 20 assignments should appear with
        # frequency 0.05 +/- 0.02 across 1000 draws
        layout = ClusterLayout(3, 3)
        draws = subsample_assignments(layout, m=1000, seed=7)[1:]
        counts = {}
        for a in draws:
            counts[a.treated_set] = counts.get(a.treated_set, 0) + 1
        assert len(counts) == 20
        for c in counts.values():
            assert abs(c / 1000 - 0.05) < 0.02

    def test_requires_positive_m(self):
        with pytest.raises(FewClustersError):
            subsample_assignments(ClusterLayout(3, 3), m=0, seed=0)


class TestStreamedEnumeration:
    @pytest.mark.parametrize("scale", [65536, 7])
    def test_rows_match_combinations(self, scale):
        # v_i = scale * 2**(q - 1 - i) makes each treated sum scale times its
        # mask row read as a q-bit integer, exactly, and so does v * v for the
        # sums of squares; scale 7 gives sums of several mantissa bits and
        # 65536 squares up to 2**62; q = 13..16 put a prefix of one to four
        # clusters before the table
        for q in range(2, 17):
            v = scale * 2.0 ** np.arange(q - 1, -1, -1)
            for q1 in range(1, q):
                ref = reference_mask(enumerate_assignments(ClusterLayout(q1, q - q1)), q)
                blocks = list(engine._enumerated_sums((v[None], (v * v)[None]), q1))
                for k, weights in enumerate((v, v * v)):
                    np.testing.assert_array_equal(
                        np.concatenate([b[k][0] for b in blocks]),
                        ref.astype(np.int64) @ weights.astype(np.int64),
                    )

    def test_prefixes_are_the_bit_rows_in_range(self):
        for p in range(9):
            rows = bit_rows(p)
            for lo in range(-2, p + 1):
                for hi in range(max(lo, 0), p + 3):
                    expected = [np.flatnonzero(r).tolist() for r in rows if lo <= r.sum() <= hi]
                    assert list(engine._prefixes(p, lo, hi)) == expected, (p, lo, hi)

    def test_rows_match_combinations_past_the_suffix(self):
        # one to three treated (or untreated) clusters among up to 40 put a
        # prefix of up to 28 clusters before the suffix; the prefix rows of
        # bit_rows(28) would take gigabytes
        for q in (25, 31, 40):
            v = 2.0 ** np.arange(q - 1, -1, -1)
            for q1 in (1, 2, 3, q - 3, q - 2, q - 1):
                ref = reference_mask(enumerate_assignments(ClusterLayout(q1, q - q1)), q)
                blocks = engine._enumerated_sums((v[None],), q1)
                np.testing.assert_array_equal(
                    np.concatenate([b[0][0] for b in blocks]),
                    ref.astype(np.int64) @ v.astype(np.int64),
                )

    def test_statistics_do_not_depend_on_the_blocks(self):
        # the same treated sums split into blocks of 1, 924 and 65,536 rows,
        # and as the fused blocks of placebo_distribution, give the same bits
        rng = np.random.default_rng(53)
        for q1, q0 in ((7, 7), (8, 6)):
            for v in (rng.normal(size=q1 + q0), np.r_[np.ones(q1), rng.normal(size=q0)]):
                for adjusted in (True, False):
                    w = v[None]  # a group of one
                    moments = (w, w * w) if adjusted else (w,)
                    sums = [np.concatenate(parts, axis=-1) for parts in
                            zip(*engine._enumerated_sums(moments, q1))]
                    n = sums[0].shape[-1]
                    results = [
                        engine._statistics(
                            moments,
                            (tuple(s[:, i : i + rows] for s in sums) for i in range(0, n, rows)),
                            n,
                            q1,
                        )[0]
                        for rows in (1, 924, 65_536)
                    ]
                    cfg = TestConfig(adjustment="adjusted" if adjusted else "unadjusted")
                    results.append(placebo_distribution(vec(v, q1), cfg))
                    for stats in results[1:]:
                        np.testing.assert_array_equal(stats, results[0])

    @pytest.mark.parametrize("rows, sizes", [(100, [78, 66, 220]), (144, [144, 220])])
    def test_enumerated_blocks_fill_up_to_fuse_rows(self, monkeypatch, rows, sizes):
        # q = 14, q1 = 3: the prefixes 11, 10, 01 and 00 of two clusters lead
        # suffix blocks of C(12, 1) = 12, 66, 66 and C(12, 3) = 220 rows; a
        # block takes the next prefix while it stays within FUSE_ROWS, and a
        # longer prefix block passes alone
        monkeypatch.setattr(engine, "FUSE_ROWS", rows)
        v = 2.0 ** np.arange(13, -1, -1)
        blocks = list(engine._enumerated_sums((v[None],), 3))
        assert [b[0].shape for b in blocks] == [(1, size) for size in sizes]
        ref = reference_mask(enumerate_assignments(ClusterLayout(3, 11)), 14)
        np.testing.assert_array_equal(
            np.concatenate([b[0][0] for b in blocks]), ref.astype(np.int64) @ v.astype(np.int64)
        )

    def test_bit_rows_match_product(self):
        for n in range(1, 9):
            np.testing.assert_array_equal(
                bit_rows(n), np.array(list(itertools.product((True, False), repeat=n)))
            )

    def test_statistics_bitwise_up_to_twelve_clusters(self):
        rng = np.random.default_rng(31)
        for q in range(2, 13):
            for q1 in range(1, q):
                layout = ClusterLayout(q1, q - q1)
                mask = reference_mask(enumerate_assignments(layout), q)
                x = vec(rng.normal(size=q), q1)
                for adjusted in (True, False):
                    if adjusted and min(q1, q - q1) < 2:
                        continue
                    cfg = TestConfig(
                        adjustment="adjusted" if adjusted else "unadjusted"
                    )
                    np.testing.assert_array_equal(
                        placebo_distribution(x, cfg),
                        placebo_statistics(x.values, mask, q1, adjusted),
                    )

    def test_ten_ten_decision_matches_reference(self):
        layout = ClusterLayout(10, 10)
        mask = reference_mask(enumerate_assignments(layout), layout.q)
        rng = np.random.default_rng(37)
        x = vec(rng.normal(size=20) + np.r_[np.full(10, 0.4), np.zeros(10)], q1=10)
        for adjustment in ("adjusted", "unadjusted"):
            ref = placebo_statistics(x.values, mask, 10, adjustment == "adjusted")
            res = run_placebo_test(x, TestConfig(adjustment=adjustment))
            assert res.n_assignments == ref.shape[0] == 184_756
            assert res.p_value == p_value(ref[0], ref)
            assert res.reject == (ref[0] > permutation_quantile(ref, 0.05))

    def test_cap_raised_before_any_rows(self):
        # C(30, 15) = 155,117,520 rows would take 4.6 GB as a bool mask
        x = vec(np.arange(30.0), q1=15)
        tracemalloc.start()
        try:
            with pytest.raises(TooManyAssignments):
                run_placebo_test(x, TestConfig(adjustment="unadjusted"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_memory_bounded_at_twelve_twelve(self):
        # 2,704,156 assignments: the whole float mask alone would be 495 MiB
        x = vec(np.random.default_rng(41).normal(size=24), q1=12)
        tracemalloc.start()
        try:
            res = run_placebo_test(x, TestConfig(side="two_sided"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_assignments == 2_704_156
        assert peak < 128 * 2**20

    def test_memory_bounded_with_long_prefixes(self):
        # 57 of 60 clusters treated: 18,473 prefixes of 45 to 48 clusters
        # before the suffix, whose indices and gathered sums held at once
        # took 50 MiB, for 0.8 MiB of statistics
        vecs = [vec(r, q1=57) for r in np.random.default_rng(59).normal(size=(3, 60))]
        tracemalloc.start()
        try:
            stats = engine.placebo_distributions(vecs, TestConfig(), [None] * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.shape == (3, math.comb(60, 3))
        assert peak < 8 * 2**20

    def test_subsampled_rows_match_draws(self):
        layout = ClusterLayout(4, 5)
        x = vec(np.random.default_rng(43).normal(size=9), q1=4)
        mask = np.concatenate(list(engine._subsampled_masks(layout, 60, seed=3)))
        assert mask.shape == (61, 9)
        np.testing.assert_array_equal(mask[0], np.arange(9) < 4)
        np.testing.assert_array_equal(mask.sum(axis=1), np.full(61, 4))
        cfg = TestConfig(max_assignments=60, seed=3)
        np.testing.assert_array_equal(
            placebo_distribution(x, cfg), placebo_statistics(x.values, mask, 4, True)
        )

    def test_subsampled_draws_repeat_and_are_uniform(self):
        # 20,000 draws span two blocks; each of the C(6, 3) = 20 subsets
        # should appear with frequency 0.05 +/- 0.01
        layout = ClusterLayout(3, 3)
        blocks = list(engine._subsampled_masks(layout, 20_000, seed=7))
        assert max(b.shape[0] for b in blocks) <= engine.DRAW_ROWS + 1
        mask = np.concatenate(blocks)
        again = np.concatenate(list(engine._subsampled_masks(layout, 20_000, seed=7)))
        np.testing.assert_array_equal(mask, again)
        np.testing.assert_array_equal(mask[0], [True] * 3 + [False] * 3)
        codes, counts = np.unique(mask[1:] @ (1 << np.arange(6)), return_counts=True)
        assert len(codes) == 20
        assert all(bin(c).count("1") == 3 for c in codes)
        np.testing.assert_allclose(counts / 20_000, 0.05, atol=0.01)

    def test_ten_ten_independent_of_blas_threads(self, tmp_path):
        # C(20, 10) rows: the prefix-plus-suffix sums must not round
        # differently when OpenBLAS splits a product over two threads
        src = str(Path(engine.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", BLAS_THREADS_SCRIPT],
                capture_output=True, text=True, env=env, timeout=300, check=True,
            )
            digests.append(proc.stdout.split())
        assert len(digests[0]) == 40
        assert digests[0] == digests[1]


class TestGroupBitwise:
    # q = 13..22: a prefix of one to ten clusters before the suffix
    @pytest.mark.parametrize(
        "q1, q0",
        [(7, 6), (7, 7), (9, 6), (8, 8), (9, 8), (9, 9), (10, 9), (10, 10), (6, 15), (16, 6)],
    )
    @pytest.mark.parametrize("adjustment", ["adjusted", "unadjusted"])
    @pytest.mark.parametrize("m", [None, 40])
    def test_group_past_the_suffix_is_each_vector_alone(self, q1, q0, adjustment, m):
        # past 12 clusters the prefixes with j ones are summed over the
        # gathered entries of every row at once; at 10+10 a prefix has up to
        # eight ones, where numpy sums a row laid out by column differently
        # from the row alone
        layout = ClusterLayout(q1, q0)
        rng = np.random.default_rng(59)
        xs = [EstimateVector(v, layout) for v in rng.normal(size=(16, q1 + q0))]
        cfg = TestConfig(adjustment=adjustment, max_assignments=m)
        group = engine.placebo_distributions(xs, cfg, list(range(16)))
        for j, x in enumerate(xs):
            alone = engine.placebo_distributions([x], cfg, [j])[0]
            assert group[j].tobytes() == alone.tobytes(), j


def sorted_decision(stats: np.ndarray, alpha: float):
    """one_sided_greater by a full sort of each row: c read off the sorted
    row, and the counts taken on it."""
    n = stats.shape[-1]
    values = np.sort(stats, axis=-1)
    c = values[..., n - math.floor(n * alpha) - 1]
    n_greater = (values > c[..., None]).sum(axis=-1)
    n_equal = (values == c[..., None]).sum(axis=-1)
    observed = stats[..., 0]
    return c, (n * alpha - n_greater) / n_equal, p_value(observed, stats), observed > c


class TestDecisionRule:
    @pytest.mark.parametrize("g", [1, 3, 16])
    def test_partition_matches_the_sort(self, g):
        # c from a partition, counts on the unsorted row: the same critical
        # value, tie-splitting probability, p-value and decision as a sort,
        # with ties, infinities and rows of one to 400 statistics
        rng = np.random.default_rng(61 + g)
        for n in (1, 2, 5, 20, 21, 400):
            for kind in ("normal", "tied", "infinite"):
                rows = rng.normal(size=(g, n))
                if kind != "normal":
                    rows = rng.integers(-2, 3, size=(g, n)).astype(float)
                if kind == "infinite":
                    rows[rng.random((g, n)) < 0.2] = np.inf
                    rows[rng.random((g, n)) < 0.2] = -np.inf
                for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
                    got = engine.one_sided_greater(rows, alpha)
                    for ours, ref in zip(got, sorted_decision(rows, alpha)):
                        np.testing.assert_array_equal(ours, ref)


class TestQuantile:
    def test_one_to_twenty_at_05(self):
        # N = 20, k = 20 - floor(1) = 19, 19th smallest of {1..20} is 19
        assert permutation_quantile(list(range(1, 21)), 0.05) == 19.0

    def test_small_set(self):
        # N = 6, floor(6 * 0.05) = 0, k = 6: the maximum
        assert permutation_quantile([-2, -1, 0, 0, 1, 2], 0.05) == 2.0

    def test_median_like(self):
        # N = 4, k = 4 - floor(2) = 2
        assert permutation_quantile([1, 2, 3, 4], 0.5) == 2.0

    def test_float_roundup_guard(self):
        # 20 * 0.95 = 19.000000000000004 in floats; k must still be 19
        stats = list(range(1, 21))
        assert permutation_quantile(stats, 0.05) == 19.0
        for n in (20, 40, 60, 80, 100, 120, 200, 1000):
            q = permutation_quantile(list(range(1, n + 1)), 0.05)
            assert q == n - math.floor(n * 0.05)

    def test_invalid_alpha(self):
        with pytest.raises(FewClustersError):
            permutation_quantile([1.0, 2.0], 0.0)

    def test_empty(self):
        with pytest.raises(FewClustersError):
            permutation_quantile([], 0.05)


class TestPValue:
    def test_hand_example(self):
        # stats {1, 2, 0, 0, -1, -2}, observed 1: two values >= 1
        assert p_value(1.0, [1, 2, 0, 0, -1, -2]) == pytest.approx(2 / 6)

    def test_membership_floor(self):
        # observed is always a member, so p >= 1/N
        rng = np.random.default_rng(3)
        for _ in range(100):
            stats = rng.normal(size=20)
            assert p_value(stats[0], stats) >= 1 / 20


class TestRandomizedThreshold:
    def test_unique_max(self):
        # N = 20 distinct values at alpha = 0.05: c = 19, one value > c,
        # one equal, delta = (1 - 1)/1 = 0
        c, delta = randomized_threshold(list(range(1, 21)), 0.05)
        assert c == 19.0
        assert delta == 0.0

    def test_fractional(self):
        # alpha = 0.075: k = 20 - 1 = 19 so c = 19 again, but
        # delta = (20 * 0.075 - 1)/1 = 0.5
        c, delta = randomized_threshold(list(range(1, 21)), 0.075)
        assert c == 19.0
        assert delta == pytest.approx(0.5)

    def test_all_equal(self):
        # all tied: c is the common value, nothing above, N values equal,
        # delta = N * alpha / N = alpha
        c, delta = randomized_threshold([3.0] * 10, 0.05)
        assert c == 3.0
        assert delta == pytest.approx(0.05)

    def test_rows_decide_as_alone(self):
        # one_sided_greater decides each row of a (g, n) array, ties and
        # infinities included, with the bits the row gets on its own
        rng = np.random.default_rng(5)
        rows = [
            rng.normal(size=20),
            np.full(20, 3.0),
            np.r_[np.inf, rng.integers(0, 3, 19).astype(float)],
            np.r_[-np.inf, rng.normal(size=19)],
            np.r_[0.0, rng.integers(-1, 2, 19).astype(float)],
        ]
        for alpha in (0.05, 0.1, 0.5):
            together = engine.one_sided_greater(np.array(rows), alpha)
            for j, row in enumerate(rows):
                alone = engine.one_sided_greater(row, alpha)
                assert [v[j].item() for v in together] == [v.item() for v in alone]
                assert alone[0] == permutation_quantile(row, alpha)
                assert alone[2] == p_value(row[0], row)


class TestPlaceboStatistics:
    def test_unadjusted_hand_values(self):
        layout = ClusterLayout(2, 2)
        mask = reference_mask(enumerate_assignments(layout), 4)
        stats = placebo_statistics(np.array([3.0, 1.0, 2.0, 0.0]), mask, 2, False)
        np.testing.assert_allclose(stats, [1.0, 2.0, 0.0, 0.0, -2.0, -1.0])

    def test_adjusted_matches_scalar(self):
        rng = np.random.default_rng(9)
        layout = ClusterLayout(3, 4)
        assignments = enumerate_assignments(layout)
        mask = reference_mask(assignments, layout.q)
        for _ in range(20):
            x = vec(rng.normal(size=7), q1=3)
            batch = placebo_statistics(x.values, mask, 3, True)
            scalar = [adjusted_statistic(x, a) for a in assignments]
            np.testing.assert_allclose(batch, scalar, rtol=1e-9, atol=1e-12)

    def test_identity_row_bitwise(self):
        rng = np.random.default_rng(5)
        layout = ClusterLayout(3, 3)
        mask = reference_mask(enumerate_assignments(layout), 6)
        for _ in range(20):
            v = rng.normal(size=6)
            adj = placebo_statistics(v, mask, 3, True)
            unadj = placebo_statistics(v, mask, 3, False)
            assert adj[0] == unadj[0]

    def test_degenerate_split_signed_inf(self):
        # constant within both groups for some splits of (1, 1, 0, 0)
        layout = ClusterLayout(2, 2)
        mask = reference_mask(enumerate_assignments(layout), 4)
        stats = placebo_statistics(np.array([1.0, 1.0, 0.0, 0.0]), mask, 2, True)
        # identity: mean diff 1, variance ratio 1
        assert stats[0] == 1.0
        # splits {0,2}, {0,3}, {1,2}, {1,3} have zero variance and zero mean diff
        np.testing.assert_array_equal(stats[1:5], np.zeros(4))
        # complement {2,3}: mean diff -1, degenerate in the same way as identity
        # but identity variance is also 0 -> ratio convention gives signed inf
        assert stats[5] == -np.inf


class TestRunPlaceboTest:
    def test_reject_hand_example(self):
        # x = (5, 4, 6, 1, 0, 2): separation is so clean the observed
        # statistic is the strict maximum of all 20 placebo values
        x = vec([5.0, 4.0, 6.0, 1.0, 0.0, 2.0], q1=3)
        res = run_placebo_test(x, TestConfig(alpha=0.05, adjustment="unadjusted"))
        assert res.statistic == pytest.approx(4.0)
        assert res.n_assignments == 20
        assert res.p_value == pytest.approx(1 / 20)
        assert res.reject

    def test_zero_power_small_design(self):
        # q1 = q0 = 2: N = 6 < 1/alpha, the max is never exceeded
        x = vec([10.0, 9.0, 0.0, 1.0], q1=2)
        res = run_placebo_test(x, TestConfig(alpha=0.05, adjustment="unadjusted"))
        assert not res.reject
        assert res.p_value == pytest.approx(1 / 6)
        assert ZERO_POWER_WARNING in res.warnings

    def test_adjusted_needs_two_per_group(self):
        x = vec([1.0, 2.0, 3.0], q1=1)
        with pytest.raises(GroupTooSmall):
            run_placebo_test(x, TestConfig(adjustment="adjusted"))
        res = run_placebo_test(x, TestConfig(adjustment="unadjusted"))
        assert res.n_assignments == 3

    def test_sign_duality(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            x = vec(rng.normal(size=8), q1=4)
            res_less = run_placebo_test(
                x, TestConfig(side="less", adjustment="unadjusted")
            )
            res_greater_neg = run_placebo_test(
                vec(-x.values, 4), TestConfig(side="greater", adjustment="unadjusted")
            )
            assert res_less.reject == res_greater_neg.reject
            assert res_less.p_value == res_greater_neg.p_value

    def test_two_sided_p_value(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x = vec(rng.normal(size=8), q1=4)
            two = run_placebo_test(x, TestConfig(side="two_sided", alpha=0.10))
            plus = run_placebo_test(x, TestConfig(side="greater", alpha=0.05))
            minus = run_placebo_test(x, TestConfig(side="less", alpha=0.05))
            assert two.p_value == pytest.approx(
                min(1.0, 2.0 * min(plus.p_value, minus.p_value))
            )
            assert two.reject == (plus.reject or minus.reject)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(19)
        alphas = [0.01, 0.05, 0.10, 0.20, 0.40]
        for _ in range(30):
            x = vec(rng.normal(size=8), q1=4)
            rejections = [
                run_placebo_test(x, TestConfig(alpha=a)).reject for a in alphas
            ]
            # once rejected at some level, rejected at every larger level
            for lo, hi in itertools.pairwise(rejections):
                assert hi or not lo

    def test_subsampling_not_used_when_enumerable(self):
        rng = np.random.default_rng(29)
        x = vec(rng.normal(size=10), q1=5)
        res = run_placebo_test(
            x, TestConfig(adjustment="unadjusted", max_assignments=50_000)
        )
        # C(10, 5) = 252 <= 50000: full enumeration wins
        assert res.n_assignments == 252

    def test_subsampling_consistency(self):
        # with q1 = q0 = 10 the exact set has C(20, 10) = 184756 assignments,
        # more than the subsample budget; a large subsample must land near
        # the exact p-value
        rng = np.random.default_rng(23)
        x = vec(rng.normal(size=20) + np.r_[np.full(10, 0.5), np.zeros(10)], q1=10)
        exact = run_placebo_test(x, TestConfig(adjustment="unadjusted"))
        approx = run_placebo_test(
            x,
            TestConfig(adjustment="unadjusted", max_assignments=50_000, seed=4),
        )
        assert approx.n_assignments == 50_001
        assert abs(approx.p_value - exact.p_value) < 0.01

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=6,
            max_size=6,
        ),
        st.floats(min_value=0.01, max_value=0.5),
        st.sampled_from(["adjusted", "unadjusted"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_reject_iff_p_below_alpha(self, values, alpha, adjustment):
        x = vec(values, q1=3)
        res = run_placebo_test(x, TestConfig(alpha=alpha, adjustment=adjustment))
        assert res.reject == (res.p_value <= alpha)
