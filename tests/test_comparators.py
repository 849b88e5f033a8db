"""Tests for the benchmark methods: t tests, sign test, CRVE, wild bootstrap."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t as student_t

from fewclusters import comparators
from fewclusters.comparators import (
    WEBB_POINTS,
    bch_t_test,
    crs_sign_test,
    crve_dof_factor,
    im_t_test,
    pair_beta_ols,
    pair_clusters,
    pooled_ols_crve,
    pooled_regression,
    quantile,
    webb_weights,
    wild_bootstrap_pooled,
    wild_cluster_bootstrap_test,
    sign_flip_statistics,
    _signed_ratio,
    _student_t_decisions,
)
from fewclusters.dgp import LinearDesign, gen_linear
from fewclusters.estimators import stacked_design
from fewclusters.methods import TABLE, Inputs, Setting, stream
from fewclusters.model import (
    Cluster,
    ClusterLayout,
    EstimateVector,
    EstimationError,
    GroupTooSmall,
    RankDeficient,
    UnbalancedGroups,
    validate_dataset,
)
from scalar_reference import Assignment, comparison_of_means, two_sample_variance


def vec(values, q1):
    values = np.asarray(values, dtype=float)
    return EstimateVector(values, ClusterLayout(q1=q1, q0=values.size - q1))


def make_dataset(q1, q0, sizes=None, seed=0, beta=0.0, n_covariates=0, outcome=None):
    """Normal outcomes (or the constant ``outcome``) and normal covariates."""
    rng = np.random.default_rng(seed)
    sizes = sizes or [5] * (q1 + q0)
    clusters = []
    for k in range(q1 + q0):
        treated = k < q1
        y = rng.normal(size=sizes[k]) + (beta if treated else 0.0)
        if outcome is not None:
            y = np.full(sizes[k], outcome)
        x = rng.normal(size=(sizes[k], n_covariates)) if n_covariates else None
        clusters.append(Cluster.from_arrays(f"c{k}", treated, y, covariates=x))
    return validate_dataset(clusters)


def refit_t_stats(dataset, w):
    """Brute-force wild bootstrap t statistics, one refit per column of w.

    Rebuilds y* = restricted fit + w_k * restricted residuals, refits the
    full regression with lstsq, and sums the CRVE meat cluster by cluster.
    """
    x = np.vstack(
        [
            np.column_stack(
                [np.ones(c.size), np.full(c.size, float(c.treated)), c.covariate_matrix]
            )
            for c in dataset.clusters
        ]
    )
    y = np.concatenate([c.outcomes for c in dataset.clusters])
    sizes = [c.size for c in dataset.clusters]
    bounds = np.cumsum([0, *sizes])
    n, d = x.shape
    q = len(sizes)
    restricted = np.delete(x, 1, axis=1)
    fitted = restricted @ np.linalg.lstsq(restricted, y, rcond=None)[0]
    xtx_inv = np.linalg.inv(x.T @ x)
    out = np.empty(w.shape[1])
    for b in range(w.shape[1]):
        y_star = fitted + np.repeat(w[:, b], sizes) * (y - fitted)
        coef = np.linalg.lstsq(x, y_star, rcond=None)[0]
        resid = y_star - x @ coef
        meat = np.zeros((d, d))
        for k in range(q):
            score = x[bounds[k] : bounds[k + 1]].T @ resid[bounds[k] : bounds[k + 1]]
            meat += np.outer(score, score)
        cov = (n - 1) * q / ((n - d) * (q - 1)) * xtx_inv @ meat @ xtx_inv
        out[b] = coef[1] / math.sqrt(cov[1, 1])
    return out


class TestImTTest:
    def test_hand_example(self):
        # x = (3, 1, 2, 0): mean diff 1, S = sqrt(2), stat = 1/sqrt(2),
        # df = 1, crit = 6.314 at alpha = 0.05 one-sided
        res = im_t_test(vec([3.0, 1.0, 2.0, 0.0], q1=2), alpha=0.05)
        assert res.statistic == pytest.approx(1 / math.sqrt(2))
        assert res.critical_value == pytest.approx(6.3138, abs=1e-3)
        assert not res.reject

    def test_df_is_min_minus_one(self):
        x = vec(np.arange(9, dtype=float), q1=3)
        res = im_t_test(x, alpha=0.05)
        assert res.critical_value == pytest.approx(float(student_t.ppf(0.95, 2)))

    def test_zero_spread_convention(self):
        res = im_t_test(vec([2.0, 2.0, 1.0, 1.0], q1=2), alpha=0.05)
        assert res.statistic == math.inf
        assert res.reject

    def test_two_sided(self):
        x = vec([-5.0, -4.0, -6.0, 1.0, 0.0, 2.0], q1=3)
        res = im_t_test(x, alpha=0.05, side="two_sided")
        assert res.reject == (abs(res.statistic) > res.critical_value)

    @pytest.mark.parametrize("side", ["greater", "less", "two_sided"])
    def test_bitwise_equal_to_scalar_reference(self, side):
        # random sizes and scales, some groups of zero spread, and the
        # three zero-spread outcomes +inf, -inf and 0
        rng = np.random.default_rng(47)
        cases = [([2.0, 2.0, 1.0, 1.0], 2), ([1.0, 1.0, 2.0, 2.0], 2), ([1.0] * 5, 2)]
        for trial in range(300):
            q1, q0 = (int(n) for n in rng.integers(2, 13, size=2))
            values = rng.normal(size=q1 + q0) * 10.0 ** rng.integers(-8, 9)
            if trial % 10 == 0:
                values[:q1] = values[0]
            if trial % 20 == 0:
                values[q1:] = values[q1]
            cases.append((values, q1))
        for values, q1 in cases:
            x = vec(values, q1)
            identity = Assignment.identity(x.layout)
            numerator = comparison_of_means(x, identity)
            s = math.sqrt(two_sample_variance(x, identity))
            if s == 0.0:
                stat = math.copysign(math.inf, numerator) if numerator else 0.0
            else:
                stat = numerator / s
            df = min(x.layout.q1, x.layout.q0) - 1
            [expected] = _student_t_decisions(np.array([stat]), df, 0.05, side)
            assert repr(im_t_test(x, 0.05, side)) == repr(expected)

    def test_one_cluster_group_too_small(self):
        with pytest.raises(GroupTooSmall):
            im_t_test(vec([1.0, 2.0, 3.0, 4.0], q1=1), alpha=0.05)


class TestPairClusters:
    def test_by_size(self):
        ds = make_dataset(2, 2, sizes=[7, 3, 4, 9])
        pairs = pair_clusters(ds, strategy="by_size")
        # treated sizes (7, 3) sort to indices (1, 0); untreated (4, 9) to (2, 3)
        assert pairs == [(1, 2), (0, 3)]

    def test_random_deterministic(self):
        ds = make_dataset(3, 3)
        assert pair_clusters(ds, "random", seed=5) == pair_clusters(ds, "random", seed=5)

    def test_random_is_matching(self):
        ds = make_dataset(4, 4)
        pairs = pair_clusters(ds, "random", seed=1)
        assert sorted(t for t, _ in pairs) == [0, 1, 2, 3]
        assert sorted(u for _, u in pairs) == [4, 5, 6, 7]

    def test_unbalanced(self):
        with pytest.raises(UnbalancedGroups):
            pair_clusters(make_dataset(2, 3))


class TestCrsSignTest:
    def test_number_of_sign_vectors(self):
        assert len(sign_flip_statistics(np.array([1.0, 2.0, 3.0]))) == 8

    def test_identity_first(self):
        b = np.array([1.0, 2.0, 3.0])
        values = sign_flip_statistics(b)
        expected = b.mean() / math.sqrt(np.sum((b - b.mean()) ** 2))
        assert values[0] == pytest.approx(expected)

    def test_sign_vectors_in_product_order(self):
        # reference: the sign vectors of itertools.product, all +1 first
        rng = np.random.default_rng(11)
        for q1 in range(2, 9):
            b = rng.normal(size=q1)
            flipped = np.array(list(itertools.product((1.0, -1.0), repeat=q1))) * b
            means = flipped.mean(axis=1)
            denom = np.sqrt(np.sum((flipped - means[:, None]) ** 2, axis=1))
            np.testing.assert_array_equal(sign_flip_statistics(b), means / denom)

    def test_never_rejects_at_three_pairs(self):
        # 2^3 = 8 < 1/alpha at alpha = 0.05: nonrandomized version has no power
        rng = np.random.default_rng(3)
        for _ in range(50):
            res = crs_sign_test(rng.normal(loc=3.0, size=3), alpha=0.05)
            assert not res.reject
            assert res.warnings

    def test_all_positive_five_pairs(self):
        # all 5 estimates positive: the identity statistic is the unique
        # maximum over sign vectors only when flipping changes the value;
        # with distinct magnitudes p = 1/32 < 0.05 -> reject
        res = crs_sign_test(np.array([0.5, 1.0, 1.5, 2.0, 2.5]), alpha=0.05)
        assert res.p_value == pytest.approx(1 / 32)
        assert res.reject
        assert not res.warnings

    def test_equal_magnitudes_degenerate(self):
        # all pair estimates equal: flipping all signs is the only other
        # mean-magnitude extreme; denominators vanish for constant vectors
        res = crs_sign_test(np.array([1.0, 1.0, 1.0, 1.0, 1.0]), alpha=0.05)
        assert res.statistic == math.inf
        # +inf ties with every degenerate same-sign pattern: only the
        # all-plus pattern gives +inf, so p = 1/32
        assert res.p_value == pytest.approx(1 / 32)

    def test_randomized_deterministic_given_seed(self):
        b = np.array([0.4, 0.9, 1.3])
        a = crs_sign_test(b, alpha=0.2, randomized=True, seed=11)
        b2 = crs_sign_test(b, alpha=0.2, randomized=True, seed=11)
        assert a.reject == b2.reject

    def test_randomized_rejects_more_on_average(self):
        # under the null the randomized version should reject about at level
        # alpha while the nonrandomized one cannot reject at all for q1 = 3
        rng = np.random.default_rng(7)
        rejections = 0
        for i in range(400):
            b = rng.normal(size=3)
            res = crs_sign_test(b, alpha=0.2, randomized=True, seed=i)
            rejections += res.reject
        assert 0.12 < rejections / 400 < 0.28

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            b = rng.normal(size=4)
            r1 = crs_sign_test(b, alpha=0.10)
            r2 = crs_sign_test(b * 37.5, alpha=0.10)
            assert r1.reject == r2.reject
            assert r1.p_value == pytest.approx(r2.p_value)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_shares_the_placebo_decision_rule(self, data):
        # a few magnitudes, their negatives and zeros make tied statistics
        q1 = data.draw(st.integers(2, 8), label="q1")
        magnitudes = data.draw(
            st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3), label="magnitudes"
        )
        estimate = st.one_of(
            st.just(0.0),
            st.sampled_from(magnitudes),
            st.sampled_from(magnitudes).map(lambda v: -v),
            st.floats(-5.0, 5.0),
        )
        b = data.draw(st.lists(estimate, min_size=q1, max_size=q1), label="b")
        alpha = data.draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]), label="alpha")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        plain = crs_sign_test(b, alpha)
        assert plain.reject == (plain.p_value <= alpha)
        assert bool(plain.warnings) == (math.floor(2**q1 * alpha) == 0)
        randomized = crs_sign_test(b, alpha, randomized=True, seed=seed)
        assert randomized.warnings == ()
        rule = ("critical_value", "p_value", "randomized_threshold")
        assert [getattr(randomized, k) for k in rule] == [getattr(plain, k) for k in rule]

    def test_both_methods_share_one_distribution(self, monkeypatch):
        # one sign-flip computation serves both methods over the whole group,
        # and each dataset's results are crs_sign_test's on its own pairs
        datasets = [gen_linear(LinearDesign(q1=5, q0=5, h=2), seed) for seed in (4, 5, 6)]
        keys = [(1, 2), (1, 3), (1, 4)]
        inputs = Inputs(Setting("ols_intercept", 5, 5), datasets, 0.1, 6, keys)
        calls = []
        monkeypatch.setattr(
            comparators, "sign_flip_statistics",
            lambda b: calls.append(1) or sign_flip_statistics(b),
        )
        plain = TABLE["crs"].run(inputs)
        randomized = TABLE["crs_randomized"].run(inputs)
        assert len(calls) == 1
        for j, key in enumerate(keys):
            assert plain[j] == crs_sign_test(inputs.pair_betas[j], 0.1)
            u = stream(6, key, "crs_u")
            assert randomized[j] == crs_sign_test(inputs.pair_betas[j], 0.1, True, u)


class TestCrve:
    def test_dof_factor_hand_value(self):
        # n = 100, d = 7, q = 6: (99 * 6) / (93 * 5)
        assert crve_dof_factor(100, 7, 6) == pytest.approx((99 * 6) / (93 * 5))

    def test_singleton_clusters_match_hc0(self):
        # with every cluster a single observation, the CRVE meat reduces to
        # HC0; check equality modulo the DOF factor
        rng = np.random.default_rng(1)
        n = 40
        clusters = [
            Cluster.from_arrays(
                f"c{k}", k < 20, [float(rng.normal() + (k < 20))],
                covariates=rng.normal(size=(1, 1)),
            )
            for k in range(n)
        ]
        ds = validate_dataset(clusters)
        fit = pooled_ols_crve(ds)

        # independent HC0 computation
        x = np.vstack(
            [
                np.column_stack(
                    [np.ones(1), [1.0 if c.treated else 0.0], c.covariate_matrix]
                )
                for c in ds.clusters
            ]
        )
        y = np.concatenate([c.outcomes for c in ds.clusters])
        xtx_inv = np.linalg.inv(x.T @ x)
        coef = xtx_inv @ x.T @ y
        u = y - x @ coef
        hc0 = xtx_inv @ (x.T * u**2) @ x @ xtx_inv
        expected = math.sqrt(crve_dof_factor(n, 3, n) * hc0[1, 1])
        assert fit.se_crve == pytest.approx(expected, rel=1e-10)

    def test_crve_close_to_classical_under_independence(self):
        # independent homoskedastic errors: the mean CRVE variance across
        # replications should be within 20% of the classical OLS variance
        rng = np.random.default_rng(2)
        ratios = []
        for _ in range(200):
            clusters = [
                Cluster.from_arrays(f"c{k}", k < 15, rng.normal(size=6))
                for k in range(30)
            ]
            ds = validate_dataset(clusters)
            fit = pooled_ols_crve(ds)
            x = np.vstack(
                [
                    np.column_stack([np.ones(6), np.full(6, 1.0 if c.treated else 0.0)])
                    for c in ds.clusters
                ]
            )
            y = np.concatenate([c.outcomes for c in ds.clusters])
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            sigma2 = resid @ resid / (x.shape[0] - 2)
            classical = sigma2 * np.linalg.inv(x.T @ x)[1, 1]
            ratios.append(fit.se_crve**2 / classical)
        assert abs(np.mean(ratios) - 1.0) < 0.2


class TestClusterLevelAlgebra:
    @pytest.mark.parametrize("n_covariates", range(6))
    def test_t_stats_match_brute_force_refit(self, n_covariates):
        rng = np.random.default_rng(30 + n_covariates)
        sizes = [int(m) for m in rng.integers(4, 15, size=7)]
        ds = make_dataset(3, 4, sizes, n_covariates, beta=0.4, n_covariates=n_covariates)
        regression = pooled_regression(ds)
        w = webb_weights(rng, size=(7, 60))
        t_ref = refit_t_stats(ds, w)
        np.testing.assert_allclose(regression.t_stats(w), t_ref, rtol=1e-9)
        ones = np.ones((7, 1))
        t_obs = regression.fit.t_stat
        assert t_obs == regression.t_stats(ones)[0]
        assert t_obs == pytest.approx(refit_t_stats(ds, ones)[0], rel=1e-9)

        # the bootstrap's draws are webb_weights(rng, (q, b_reps)) from its seed
        draws = webb_weights(np.random.default_rng(5), size=(7, 199))
        t_ref = refit_t_stats(ds, draws)
        abs_ref = np.abs(t_ref)
        expected = {
            "greater": (np.mean(t_ref >= t_obs), np.quantile(t_ref, 0.9)),
            "less": (np.mean(t_ref <= t_obs), np.quantile(t_ref, 0.1)),
            "two_sided": (np.mean(abs_ref >= abs(t_obs)), np.quantile(abs_ref, 0.9)),
        }
        for side, (p, crit) in expected.items():
            res = wild_bootstrap_pooled(regression, 0.1, side, seed=5)
            assert res.p_value == pytest.approx(p, abs=1e-12)
            assert res.critical_value == pytest.approx(crit, rel=1e-9)

    def test_signed_ratio(self):
        num = np.array([3.0, -2.0, 0.0, 0.0, 1.0])
        den = np.array([0.0, 0.0, 0.0, 2.0, 4.0])
        assert _signed_ratio(num, den).tolist() == [math.inf, -math.inf, 0.0, 0.0, 0.25]


class TestConstantOutcomes:
    # outcomes the restricted regressors fit exactly leave only rounding noise
    # in the residuals; the t statistic is 0 and no test rejects on the noise

    @pytest.mark.parametrize("n_covariates", [0, 1, 2])
    def test_no_test_rejects(self, n_covariates):
        rng = np.random.default_rng(n_covariates)
        for seed in range(40):
            sizes = [int(m) for m in rng.integers(2, 9, size=6)]
            outcome = float(rng.choice([0.0, 1.0, -3.7, 1e6, 2.5e-9]))
            ds = make_dataset(3, 3, sizes, seed, n_covariates=n_covariates, outcome=outcome)
            regression = pooled_regression(ds)
            assert regression.fit.t_stat == 0.0
            w = webb_weights(rng, size=(6, 20))
            assert regression.t_stats(w).tolist() == [0.0] * 20
            for side in ("greater", "less", "two_sided"):
                assert not bch_t_test(regression.fit, 0.05, side).reject
                res = wild_bootstrap_pooled(regression, 0.05, side, seed=seed)
                assert not res.reject

    def test_outcomes_linear_in_covariates(self):
        rng = np.random.default_rng(3)
        clusters = []
        for k in range(6):
            x = rng.normal(size=(5, 2))
            y = 2.0 + x @ [3.0, -0.5]
            clusters.append(Cluster.from_arrays(f"c{k}", k < 3, y, covariates=x))
        fit = pooled_ols_crve(validate_dataset(clusters))
        assert (fit.beta_hat, fit.t_stat) == (0.0, 0.0)


class TestEqualWeightDraws:
    # q equal weights c rescale the observed refit by c, so t* = sign(c) * t
    # exactly; rounding must not decide whether such a draw counts toward p

    def test_p_value_exact(self, monkeypatch):
        import fewclusters.comparators as comparators

        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        columns = np.resize(WEBB_POINTS[WEBB_POINTS > 0], signs.size) * signs
        monkeypatch.setattr(
            comparators, "webb_weights", lambda rng, size: np.tile(columns, (size[0], 1))
        )
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sizes = [int(m) for m in rng.integers(3, 9, size=6)]
            ds = make_dataset(3, 3, sizes, seed, beta=0.5, n_covariates=1)
            regression = pooled_regression(ds)
            t_obs = regression.fit.t_stat
            expected = np.sign(columns) * t_obs
            assert regression.t_stats(np.tile(columns, (6, 1))).tolist() == expected.tolist()
            # the draws with c > 0 give t* = t and count on either side; those
            # with c < 0 give -t, which counts only on the side t points away from
            same = np.count_nonzero(signs > 0) / 8
            p = {
                "greater": same if t_obs > 0 else 1.0,
                "less": same if t_obs < 0 else 1.0,
                "two_sided": 1.0,
            }
            for side, p_side in p.items():
                assert wild_bootstrap_pooled(regression, 0.05, side, b_reps=8).p_value == p_side


class TestPooledRankRule:
    def test_as_many_rows_as_coefficients(self):
        one_row = [Cluster.from_arrays("a", True, [1.0]), Cluster.from_arrays("b", False, [2.0])]
        with pytest.raises(RankDeficient, match="no residual"):
            pooled_regression(validate_dataset(one_row))

    def test_collinear_pooled_design(self):
        # a covariate equal to the treatment dummy
        clusters = [
            Cluster.from_arrays(f"c{k}", k < 2, [1.0, 2.0, 4.0], covariates=[[k < 2]] * 3)
            for k in range(4)
        ]
        with pytest.raises(RankDeficient, match="design matrix is rank deficient"):
            pooled_regression(validate_dataset(clusters))

    def test_rank_deficient_pair_names_both_clusters(self):
        # covariates constant within each cluster are collinear with the
        # intercept and the treatment dummy in a two-cluster fit
        rng = np.random.default_rng(0)
        clusters = [
            Cluster.from_arrays(f"c{k}", k < 3, rng.normal(size=4), covariates=[[k]] * 4)
            for k in range(6)
        ]
        ds = validate_dataset(clusters)
        with pytest.raises(EstimationError) as info:
            pair_beta_ols(ds, [(0, 4), (1, 3), (2, 5)])
        assert (info.value.cluster_id, info.value.partner) == ("c0", "c4")
        assert isinstance(info.value.cause, RankDeficient)
        assert "cluster 'c0' paired with 'c4'" in str(info.value)


class TestBlockedSolve:
    # pooled_regression takes ``a`` from the R factor of its one QR, where an
    # n x q right-hand side solved by lstsq once gave it

    @staticmethod
    def unblocked_a(dataset):
        """``a`` from one lstsq solve with all q right-hand sides."""
        design, y = stacked_design(dataset, "treated"), dataset.outcomes
        sizes = np.diff(dataset.offsets)
        restricted = np.delete(design, 1, axis=1)
        u = y - restricted @ np.linalg.lstsq(restricted, y, rcond=None)[0]
        u_blocks = np.zeros((u.size, sizes.size))
        u_blocks[np.arange(u.size), np.repeat(np.arange(sizes.size), sizes)] = u
        return np.linalg.lstsq(design, u_blocks, rcond=None)[0]

    def test_one_block_is_bitwise_the_single_solve(self):
        # within 1e-12 of the largest entry: a few entries are cancellations
        # far below it, where another summation order moves the last digits
        ds = make_dataset(6, 6, [7 + k for k in range(12)], seed=3, n_covariates=3)
        expected = self.unblocked_a(ds)
        error = np.abs(pooled_regression(ds).a - expected).max()
        assert error <= 1e-12 * np.abs(expected).max()

    def test_many_blocks_match_the_single_solve(self):
        q = 40
        ds = make_dataset(20, 20, [6 + k % 9 for k in range(q)], seed=4, n_covariates=2)
        regression = pooled_regression(ds)
        expected = self.unblocked_a(ds)
        np.testing.assert_allclose(regression.a, expected, rtol=1e-12, atol=0.0)
        w = webb_weights(np.random.default_rng(4), size=(q, 20))
        np.testing.assert_allclose(regression.t_stats(w), refit_t_stats(ds, w), rtol=1e-9)

    @staticmethod
    def traced_peak(dataset):
        pooled_regression(dataset)
        tracemalloc.start()
        try:
            pooled_regression(dataset)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_below_one_column_per_cluster(self):
        # the old single solve held an n x q right-hand side on its own
        q, m = 64, 200
        ds = make_dataset(32, 32, [m] * q, seed=5, n_covariates=3)
        assert self.traced_peak(ds) < q * m * q * 8

    def test_memory_of_order_rows_times_columns(self):
        # 100 clusters of 200 rows: a few copies of the n x (d + 1) block,
        # padded to 32,768 rows, and nothing that grows with n * q
        q, m, covariates = 100, 200, 3
        ds = make_dataset(50, 50, [m] * q, seed=6, n_covariates=covariates)
        n, columns = q * m, 2 + covariates + 1
        assert self.traced_peak(ds) < 8 * n * columns * 8


class TestBchT:
    def test_uses_q_minus_one_df(self):
        ds = make_dataset(3, 3, seed=4)
        fit = pooled_ols_crve(ds)
        res = bch_t_test(fit, alpha=0.05)
        assert res.critical_value == pytest.approx(float(student_t.ppf(0.95, 5)))
        assert res.reject == (res.statistic > res.critical_value)


class TestWildBootstrap:
    def test_weight_support(self):
        w = webb_weights(np.random.default_rng(0), size=1000)
        assert set(np.round(np.abs(w) ** 2, 10)) <= {0.5, 1.0, 1.5}

    def test_weight_moments(self):
        w = webb_weights(np.random.default_rng(1), size=1_000_000)
        assert abs(w.mean()) < 0.005
        assert abs(w.var() - 1.0) < 0.01
        assert WEBB_POINTS.mean() == pytest.approx(0.0)
        assert (WEBB_POINTS**2).mean() == pytest.approx(1.0)

    def test_default_reps(self):
        ds = make_dataset(3, 3, seed=5)
        res = wild_cluster_bootstrap_test(ds, alpha=0.05, seed=0)
        assert res.n_assignments == 199

    def test_deterministic(self):
        ds = make_dataset(3, 3, seed=6)
        a = wild_cluster_bootstrap_test(ds, alpha=0.05, seed=12)
        b = wild_cluster_bootstrap_test(ds, alpha=0.05, seed=12)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic
        assert a.critical_value == b.critical_value

    def test_strong_effect_rejected(self):
        ds = make_dataset(4, 4, seed=7, beta=10.0)
        res = wild_cluster_bootstrap_test(ds, alpha=0.05, seed=1)
        assert res.reject

    def test_p_value_is_fraction_of_b(self):
        ds = make_dataset(3, 3, seed=8)
        res = wild_cluster_bootstrap_test(ds, alpha=0.05, b_reps=100, seed=2)
        assert res.p_value * 100 == pytest.approx(round(res.p_value * 100))

    def test_critical_value_per_side(self):
        # the reported critical value is the quantile that matches each
        # side's p-value, so a rejection always lies beyond it
        sides = ("greater", "less", "two_sided")
        rejected = set()
        for seed in range(20):
            ds = make_dataset(3, 3, seed=seed, beta=1.5 * (seed % 3 - 1))
            res = {s: wild_cluster_bootstrap_test(ds, 0.1, s, seed=seed) for s in sides}
            assert res["less"].critical_value < res["greater"].critical_value
            assert res["two_sided"].critical_value > 0.0
            rejected |= {s for s in sides if res[s].reject}
            if res["greater"].reject:
                assert res["greater"].statistic > res["greater"].critical_value
            if res["less"].reject:
                assert res["less"].statistic < res["less"].critical_value
            if res["two_sided"].reject:
                assert abs(res["two_sided"].statistic) > res["two_sided"].critical_value
        assert rejected == set(sides)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_quantile_bit_equal_to_numpy(self, data):
        # the critical value of each side, on b_reps statistics with ties,
        # signed zeros, infinities and nans among them: np.quantile's bits
        b_reps = data.draw(st.sampled_from([1, 2, 199, 999]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t_star = rng.standard_normal(b_reps)
        if data.draw(st.booleans()):
            t_star = np.round(t_star, 1)  # ties
        specials = st.sampled_from([np.inf, -np.inf, 0.0, -0.0, np.nan])
        for value in data.draw(st.lists(specials, max_size=4)):
            t_star[rng.integers(b_reps)] = value
        alpha = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        for values, q in ((t_star, 1.0 - alpha), (t_star, alpha), (np.abs(t_star), 1.0 - alpha)):
            with np.errstate(invalid="ignore"):
                expected = np.quantile(values, q)
            assert np.float64(quantile(values, q)).tobytes() == expected.tobytes()

    def test_shared_pooled_regression(self):
        ds = make_dataset(4, 4, seed=9, beta=0.5)
        regression = pooled_regression(ds)
        assert regression.fit == pooled_ols_crve(ds)
        for side in ("greater", "less", "two_sided"):
            assert wild_bootstrap_pooled(
                regression, 0.05, side, seed=4
            ) == wild_cluster_bootstrap_test(ds, 0.05, side, seed=4)
