"""Tests for the per-cluster OLS, DiD, and probit estimators."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from fewclusters import estimators
from fewclusters.comparators import (
    pair_beta_ols,
    pair_beta_probit,
    pair_betas,
    pair_clusters,
    pooled_regression,
    pooled_regressions,
)
from fewclusters.dgp import LinearDesign, ProbitDesign, gen_linear, gen_probit
from fewclusters.estimators import (
    estimate_all,
    estimate_many,
    fit_groups,
    least_squares,
    ols_intercept,
    probit_z_estimate,
    stacked_design,
)
from fewclusters.model import (
    Cluster,
    EstimationError,
    FewClustersError,
    MissingPeriodFlag,
    NoConvergence,
    RankDeficient,
    Separation,
    validate_dataset,
)
from fewclusters.probit import (
    MAX_NEWTON_ITER,
    MOMENT_TOL,
    probit_moment,
    probit_moment_jacobian,
    probit_newton_batch,
)


class TestLeastSquares:
    def test_matrix_rhs_solves_each_column(self):
        # a batch of one design with three right-hand sides solves each
        rng = np.random.default_rng(1)
        design = rng.normal(size=(12, 4))
        rhs = rng.normal(size=(12, 3))
        fits = least_squares([design] * 3, list(rhs.T))
        for k, coef in enumerate(fits):
            assert coef.shape == (4,)
            expected = np.linalg.lstsq(design, rhs[:, k], rcond=None)[0]
            np.testing.assert_allclose(coef, expected, rtol=1e-12, atol=1e-14)
            # residuals are orthogonal to the design
            np.testing.assert_allclose(design.T @ (rhs[:, k] - design @ coef), 0.0, atol=1e-12)

    def test_fewer_rows_than_coefficients(self):
        (fit,) = least_squares([np.ones((2, 3))], [np.ones(2)])
        assert isinstance(fit, RankDeficient)
        assert "2 observations cannot identify 3 coefficients" == str(fit)

    def test_nearly_collinear_columns(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        design = np.column_stack([np.ones(20), x, 2.0 * x + 1e-13 * rng.normal(size=20)])
        (fit,) = least_squares([design], [rng.normal(size=20)])
        assert isinstance(fit, RankDeficient)
        assert str(fit) == "design matrix is rank deficient"

    def test_rank_floor_scales_with_the_design(self):
        # the rule is relative to the largest singular value above 1, so
        # rescaling a well-conditioned design by 1e6 does not trip it
        rng = np.random.default_rng(3)
        design = rng.normal(size=(10, 3))
        large, small = least_squares([design * 1e6, design * 1e-12], [np.ones(10)] * 2)
        assert isinstance(large, np.ndarray)
        assert isinstance(small, RankDeficient)

    def test_rule_is_the_singular_value_rule(self):
        # from well conditioned to collinear: the cheap bounds on R and the
        # SVD they fall back on give the decision of the exact rule, away
        # from its floor
        rng = np.random.default_rng(4)
        x, z, y = rng.normal(size=(3, 30))
        decided = set()
        for delta in np.logspace(-16, -2, 57):
            design = np.column_stack([np.ones(30), x, x + delta * z])
            sv = np.linalg.svd(design, compute_uv=False)
            ratio = sv[-1] / (1e-10 * max(sv[0], 1.0))
            if 0.5 < ratio < 2.0:
                continue
            (fit,) = least_squares([design], [y])
            assert isinstance(fit, RankDeficient) == (ratio < 1.0)
            decided.add(ratio < 1.0)
        assert decided == {True, False}


LINEAR_BATCH_SCRIPT = """
import numpy as np
from fewclusters import estimate_all, gen_linear
from fewclusters.comparators import (
    pair_beta_ols, pair_clusters, pooled_regression, pooled_regressions,
)
from fewclusters.dgp import LinearDesign
from fewclusters.estimators import estimate_many, fit_groups, ols_intercept
from fewclusters.model import Cluster, validate_dataset
fits = mismatches = 0
datasets = []
for seed in range(150):
    # clusters of 7-70 rows pad to 8-128 rows, pairs of 14-140 to 16-256
    ds = gen_linear(LinearDesign(q1=6, q0=6, h=2, size_range=(7, 70)), seed)
    did = validate_dataset([
        Cluster.from_arrays(c.id, c.treated, c.outcomes, c.covariate_matrix,
                            np.arange(c.size) % 2)
        for c in ds
    ])
    pairs = pair_clusters(ds, "random", seed)
    datasets.append(ds)
    for batch, one in [
        (estimate_all(ds, "ols_intercept").values, [ols_intercept(c).theta for c in ds]),
        (
            estimate_all(did, "did_slope").values,
            [fit_groups([did], [[(k,)]], "post")[0][0][1] for k in range(12)],
        ),
        (pair_beta_ols(ds, pairs), [pair_beta_ols(ds, [pair])[0] for pair in pairs]),
    ]:
        mismatches += int((batch != np.array(one)).sum())
        fits += batch.size
# the fits of many datasets as one batch: 1,800 clusters and 150 pooled fits
for batch, ds in zip(estimate_many(datasets, "ols_intercept"), datasets):
    mismatches += int((batch.values != estimate_all(ds, "ols_intercept").values).sum())
for batch, ds in zip(pooled_regressions(datasets), datasets):
    one = pooled_regression(ds)
    mismatches += sum(int((x != y).sum()) for x, y in [(batch.h, one.h), (batch.t, one.t), (batch.a, one.a)])
print(fits, mismatches)
"""


class TestLinearBatch:
    def test_batch_equals_batch_of_one_at_one_and_two_blas_threads(self):
        # a fit's padding depends on its own rows only, so batching it with
        # others must not change a bit, however OpenBLAS splits its work
        src = str(Path(estimators.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", LINEAR_BATCH_SCRIPT],
                capture_output=True, text=True, env=env, timeout=300, check=True,
            )
            assert proc.stdout.split() == ["4500", "0"]

    def test_failed_fits_are_their_own_values(self):
        rng = np.random.default_rng(5)
        good = rng.normal(size=(20, 3))
        collinear = good.copy()
        collinear[:, 2] = 2.0 * collinear[:, 1]
        designs = [good, good[:2], collinear, good * 1e6, good * 1e-12, good[:9]]
        ys = [rng.normal(size=d.shape[0]) for d in designs]
        fits = least_squares(designs, ys)
        assert str(fits[1]) == "2 observations cannot identify 3 coefficients"
        assert str(fits[2]) == str(fits[4]) == "design matrix is rank deficient"
        assert all(isinstance(fits[i], RankDeficient) for i in (1, 2, 4))
        for i in (0, 3, 5):
            assert fits[i].tolist() == least_squares([designs[i]], [ys[i]])[0].tolist()
            expected = np.linalg.lstsq(designs[i], ys[i], rcond=None)[0]
            np.testing.assert_allclose(fits[i], expected, rtol=1e-9)


class TestOlsIntercept:
    def test_no_covariates_is_mean(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0, 6.0])
        assert ols_intercept(c).theta == pytest.approx(3.0)

    def test_exact_interpolation(self):
        # y = 2 + 3x fit on two points recovers the intercept exactly
        c = Cluster.from_arrays(
            "a", True, [5.0, 8.0], covariates=np.array([[1.0], [2.0]])
        )
        fit = ols_intercept(c)
        assert fit.theta == pytest.approx(2.0, abs=1e-12)
        assert fit.nuisance[0] == pytest.approx(3.0, abs=1e-12)

    def test_rank_deficient_constant_covariate(self):
        c = Cluster.from_arrays(
            "a", True, [1.0, 2.0, 3.0], covariates=np.ones((3, 1))
        )
        with pytest.raises(RankDeficient):
            ols_intercept(c)

    def test_more_params_than_rows(self):
        c = Cluster.from_arrays("a", True, [1.0], covariates=np.array([[1.0, 2.0]]))
        with pytest.raises(RankDeficient):
            ols_intercept(c)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4))
        beta = np.array([1.5, -2.0, 0.5, 3.0])
        y = 0.7 + x @ beta
        c = Cluster.from_arrays("a", True, y, covariates=x)
        fit = ols_intercept(c)
        assert fit.theta == pytest.approx(0.7, abs=1e-10)
        np.testing.assert_allclose(fit.nuisance, beta, atol=1e-10)


def did_dataset(c):
    """A dataset of the treated cluster c and an untreated one, which has post
    flags when c has them."""
    post = None if c.post is None else [0, 1, 1]
    return validate_dataset([c, Cluster.from_arrays("o", False, [0.0, 1.0, 3.0], post=post)])


def did_reference(c):
    """The coefficients of outcome on (1, post, covariates), by lstsq."""
    design = np.column_stack([np.ones(c.size), c.post, c.covariate_matrix])
    return np.linalg.lstsq(design, c.outcomes, rcond=None)[0]


class TestDidSlope:
    def test_two_period_difference(self):
        c = Cluster.from_arrays(
            "a", True, [1.0, 1.0, 3.0, 3.0], post=[False, False, True, True]
        )
        theta = estimate_all(did_dataset(c), "did_slope").values[0]
        assert theta == pytest.approx(2.0)
        assert theta == pytest.approx(did_reference(c)[1])

    def test_with_fixed_effect(self):
        # pre mean 5, post mean 6: slope 1 regardless of the level
        c = Cluster.from_arrays(
            "a", True, [5.0, 5.0, 6.0, 6.0], post=[False, False, True, True]
        )
        ds = did_dataset(c)
        assert estimate_all(ds, "did_slope").values[0] == pytest.approx(1.0)
        coef, _ = fit_groups([ds], [[(0,)]], "post")[0]
        np.testing.assert_allclose(coef, [5.0, 1.0])
        np.testing.assert_allclose(coef, did_reference(c))

    def test_all_post_rank_deficient(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0], post=[True, True])
        with pytest.raises(EstimationError) as info:
            estimate_all(did_dataset(c), "did_slope")
        assert info.value.cluster_id == "a"
        assert isinstance(info.value.cause, RankDeficient)

    def test_missing_flag(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0], post=None)
        with pytest.raises(EstimationError) as info:
            estimate_all(did_dataset(c), "did_slope")
        assert isinstance(info.value.cause, MissingPeriodFlag)

    def test_equals_least_squares_reference(self):
        for seed in range(4):
            ds = with_post(gen_linear(LinearDesign(q1=3, q0=3, h=2), seed))
            expected = [did_reference(c)[1] for c in ds]
            np.testing.assert_allclose(
                estimate_all(ds, "did_slope").values, expected, rtol=1e-10, atol=1e-12
            )


class TestProbit:
    def test_intercept_only_quantile(self):
        # 30% successes with no covariates: theta solves Phi(theta) = 0.3
        y = np.array([1.0] * 30 + [-1.0] * 70)
        c = Cluster.from_arrays("a", True, y)
        fit = probit_z_estimate(c)
        assert fit.theta == pytest.approx(norm.ppf(0.3), abs=1e-8)

    def test_balanced_gives_zero(self):
        y = np.array([1.0] * 50 + [-1.0] * 50)
        c = Cluster.from_arrays("a", True, y)
        assert probit_z_estimate(c).theta == pytest.approx(0.0, abs=1e-8)

    def test_constant_outcome_separation(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0, 3.0])
        with pytest.raises(Separation):
            probit_z_estimate(c)

    def test_separated_covariate_diverges(self):
        # outcome perfectly predicted by the sign of a tiny-scale covariate:
        # the moment condition has no zero, the slope runs off to infinity
        x = np.r_[np.full(25, 0.001), np.full(25, -0.001)].reshape(-1, 1)
        x = x + np.linspace(0, 1e-5, 50).reshape(-1, 1)
        y = np.r_[np.ones(25), -np.ones(25)]
        c = Cluster.from_arrays("a", True, y, covariates=x)
        with pytest.raises(NoConvergence):
            probit_z_estimate(c)

    def test_moment_at_fixed_point(self):
        # the returned parameters drive the moment norm below tolerance
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 2))
        latent = 0.4 + x @ np.array([1.0, -0.5]) + rng.normal(size=200)
        c = Cluster.from_arrays("a", True, np.sign(latent), covariates=x)
        fit = probit_z_estimate(c)
        design = np.column_stack([np.ones(200), x])
        beta = np.r_[fit.theta, fit.nuisance]
        y01 = (np.sign(latent) > 0).astype(float)
        assert np.linalg.norm(probit_moment(design, y01, beta)) < MOMENT_TOL

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        y01 = (rng.random(200) < 0.5).astype(float)
        design = np.column_stack([np.ones(200), x])
        beta = rng.normal(scale=0.5, size=3)
        jac = probit_moment_jacobian(design, y01, beta)
        step = 1e-5
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd = (
                probit_moment(design, y01, beta + e)
                - probit_moment(design, y01, beta - e)
            ) / (2 * step)
            np.testing.assert_allclose(jac[:, j], fd, rtol=1e-6, atol=1e-9)

    def test_newton_matches_public_moment_loop(self):
        # the batched fit takes the moment and the Jacobian from one product
        # and sums in another order; a loop on the public moment, Jacobian
        # and np.linalg.norm must give the same iteration count and the same
        # coefficients to rel 1e-9
        def reference(design, y01):
            beta = np.zeros(design.shape[1])
            psi = probit_moment(design, y01, beta)
            norm = np.linalg.norm(psi)
            for iteration in range(1, MAX_NEWTON_ITER + 1):
                if norm < MOMENT_TOL:
                    return beta, iteration - 1
                jac = probit_moment_jacobian(design, y01, beta)
                step = np.linalg.solve(jac, -psi)
                scale = 1.0
                for _ in range(31):
                    candidate = beta + scale * step
                    if np.linalg.norm(probit_moment(design, y01, candidate)) < norm:
                        break
                    scale *= 0.5
                beta = candidate
                psi = probit_moment(design, y01, beta)
                norm = np.linalg.norm(psi)
            raise AssertionError("reference loop did not converge")

        rng = np.random.default_rng(11)
        for _ in range(40):
            m, k = int(rng.integers(20, 400)), int(rng.integers(0, 4))
            x = rng.normal(size=(m, k))
            latent = rng.normal(scale=0.5) + x @ rng.normal(scale=0.5, size=k)
            y01 = (latent + rng.normal(size=m) > 0).astype(float)
            design = np.column_stack([np.ones(m), x])
            (beta,), (iterations,), (error,) = probit_newton_batch([design], [y01])
            expected, expected_iterations = reference(design, y01)
            assert error is None
            np.testing.assert_allclose(beta, expected, rtol=1e-9, atol=0)
            assert iterations == expected_iterations

    def test_rmse_shrinks_with_sample_size(self):
        # root-mean-square error of the probit constant over 500 draws
        # must be smaller at m = 400 than at m = 100
        def rmse(m, seed):
            rng = np.random.default_rng(seed)
            errs = []
            for _ in range(500):
                latent = 0.25 + rng.normal(size=m)
                c = Cluster.from_arrays("a", True, np.sign(latent))
                errs.append(probit_z_estimate(c).theta - 0.25)
            return np.sqrt(np.mean(np.square(errs)))

        assert rmse(400, 3) < rmse(100, 4)


BATCH_SCRIPT = """
import numpy as np
from fewclusters import estimate_all, gen_probit, probit_z_estimate
from fewclusters.comparators import pair_beta_probit, pair_clusters
from fewclusters.dgp import ProbitDesign
fits = mismatches = 0
for seed in range(24):
    # 12 clusters of 350-500 rows and p = 6; 6 pairs of 700-1000 rows and p = 7
    ds = gen_probit(ProbitDesign(q1=6, q0=6, beta=0.05 * (seed % 10)), seed)
    batch = estimate_all(ds, "probit").values
    one = np.array([probit_z_estimate(c).theta for c in ds])
    pairs = pair_clusters(ds, "random", seed)
    pair_batch = pair_beta_probit(ds, pairs)
    pair_one = np.array([pair_beta_probit(ds, [pair])[0] for pair in pairs])
    mismatches += int((batch != one).sum() + (pair_batch != pair_one).sum())
    fits += batch.size + pair_batch.size
print(fits, mismatches)
"""

# today's messages of the three ways a probit fit fails
FAILURE_MESSAGES = {
    "singular": "singular probit Jacobian: Singular matrix",
    "constant": "constant binary outcome",
    "separating": "probit constant escaped past 20.0; outcomes are likely separated",
}


def probit_cluster(kind, name, treated, rng, m=400):
    x = rng.normal(size=(m, 2))
    if kind == "singular":  # a duplicated covariate column
        x[:, 1] = x[:, 0]
        y = x[:, 0] + rng.normal(size=m) > 0
    elif kind == "constant":
        y = np.ones(m)
    elif kind == "separating":  # the first covariate splits the outcomes
        x *= [30.0, 1.0]
        y = x[:, 0] > 15.0
    else:
        y = 0.2 + x @ [0.5, -0.3] + rng.normal(size=m) > 0
    return Cluster.from_arrays(name, treated, np.asarray(y, dtype=float), covariates=x)


class TestProbitBatch:
    def test_batch_equals_batch_of_one_at_one_and_two_blas_threads(self):
        # padding a fit's rows and batching it with others must not change
        # a bit, however OpenBLAS splits its work
        src = str(Path(estimators.__file__).resolve().parents[1])
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", BATCH_SCRIPT],
                capture_output=True, text=True, env=env, timeout=300, check=True,
            )
            assert proc.stdout.split() == ["432", "0"]

    @pytest.mark.parametrize("order", list(itertools.permutations(FAILURE_MESSAGES)))
    def test_first_failing_cluster_is_named(self, order):
        rng = np.random.default_rng(67)
        kinds = ["good", *order, "good", "good"]
        ds = validate_dataset(
            [probit_cluster(kind, f"c{i}", i < 3, rng) for i, kind in enumerate(kinds)]
        )
        with pytest.raises(EstimationError) as info:
            estimate_all(ds, "probit")
        message = FAILURE_MESSAGES[order[0]]
        assert info.value.cluster_id == "c1"
        assert str(info.value.cause) == message
        assert str(info.value) == f"estimation failed for cluster 'c1': {message}"

    def test_survivors_match_batch_of_one(self):
        rng = np.random.default_rng(71)
        kinds = ["good", "singular", "good", "constant", "separating", "good"]
        ds = validate_dataset(
            [probit_cluster(kind, f"c{i}", i < 5, rng) for i, kind in enumerate(kinds)]
        )
        fits = fit_groups([ds], [[(k,) for k in range(len(ds))]], probit=True)
        for kind, cluster, fit in zip(kinds, ds, fits):
            if kind != "good":
                assert str(fit) == FAILURE_MESSAGES[kind]
                continue
            coef, iterations = fit
            one = probit_z_estimate(cluster)
            assert coef[0] == one.theta
            assert coef[1:].tolist() == one.nuisance.tolist()
            assert iterations == one.iterations


class TestEstimateAll:
    def test_vector_order_and_values(self):
        ds = validate_dataset(
            [
                Cluster.from_arrays("u1", False, [10.0, 14.0]),
                Cluster.from_arrays("t1", True, [1.0, 3.0]),
                Cluster.from_arrays("t2", True, [5.0, 7.0]),
            ]
        )
        x = estimate_all(ds, "ols_intercept")
        np.testing.assert_allclose(x.values, [2.0, 6.0, 12.0])

    def test_error_names_cluster(self):
        ds = validate_dataset(
            [
                Cluster.from_arrays(
                    "good", True, [1.0, 2.0], covariates=np.array([[0.0], [1.0]])
                ),
                Cluster.from_arrays(
                    "bad", False, [1.0, 2.0, 3.0], covariates=np.ones((3, 1))
                ),
            ]
        )
        with pytest.raises(EstimationError) as info:
            estimate_all(ds, "ols_intercept")
        assert info.value.cluster_id == "bad"
        assert isinstance(info.value.cause, RankDeficient)

    def test_unknown_method(self):
        ds = validate_dataset(
            [
                Cluster.from_arrays("a", True, [1.0]),
                Cluster.from_arrays("b", False, [1.0]),
            ]
        )
        with pytest.raises(ValueError):
            estimate_all(ds, "ridge")


def with_post(dataset):
    """The dataset's clusters with alternating pre and post rows."""
    return validate_dataset(
        [
            Cluster.from_arrays(
                c.id, c.treated, c.outcomes, c.covariate_matrix, np.arange(c.size) % 2
            )
            for c in dataset
        ]
    )


def one_fit_path_dataset(estimator, seed):
    if estimator == "probit":
        return gen_probit(ProbitDesign(q1=3, q0=3, h=2, beta=0.3), seed)
    ds = gen_linear(LinearDesign(q1=3, q0=3, h=2, beta=0.5), seed)
    return with_post(ds) if estimator == "did_slope" else ds


def did_fit(c):
    """The post-period slope of one cluster's own (1, post, covariates)
    design, solved as a batch of one."""
    design = np.column_stack([np.ones(c.size), c.post, c.covariate_matrix])
    return least_squares([design], [c.outcomes])[0][1]


# estimator -> the θ of one cluster, fitted on its own
PUBLIC_FITS = {
    "ols_intercept": lambda c: ols_intercept(c).theta,
    "did_slope": did_fit,
    "probit": lambda c: probit_z_estimate(c).theta,
}


class TestOneFitPath:
    @pytest.mark.parametrize("estimator", list(PUBLIC_FITS))
    def test_estimate_all_equals_per_cluster_fits(self, estimator):
        for seed in range(4):
            ds = one_fit_path_dataset(estimator, seed)
            one = [PUBLIC_FITS[estimator](c) for c in ds]
            assert estimate_all(ds, estimator).values.tolist() == one

    @pytest.mark.parametrize("pair_beta", [pair_beta_ols, pair_beta_probit])
    def test_pair_betas_equal_one_pair_calls(self, pair_beta):
        for seed in range(4):
            estimator = "probit" if pair_beta is pair_beta_probit else "ols_intercept"
            ds = one_fit_path_dataset(estimator, seed)
            pairs = pair_clusters(ds, "random", seed)
            one = [pair_beta(ds, [pair])[0] for pair in pairs]
            assert pair_beta(ds, pairs).tolist() == one

    @pytest.mark.parametrize("dummy", [None, "post", "treated"])
    def test_stacked_design_equals_column_stack_forms(self, dummy):
        ds = with_post(gen_linear(LinearDesign(q1=2, q0=2, h=2), 9))
        for members in [(0,), (1, 2), (3, 0), range(4)]:
            group = [ds.clusters[k] for k in members]
            blocks = []
            for c in group:
                columns = [np.ones(c.size)]
                if dummy == "post":
                    columns.append(c.post)
                elif dummy == "treated":
                    columns.append(np.full(c.size, 1.0 if c.treated else 0.0))
                blocks.append(np.column_stack([*columns, c.covariate_matrix]))
            design = estimators._rows(stacked_design(ds, dummy), ds.offsets, members)
            y = estimators._rows(ds.outcomes, ds.offsets, members)
            assert design.tolist() == np.vstack(blocks).tolist()
            assert y.tolist() == np.concatenate([c.outcomes for c in group]).tolist()

    def test_failed_fits_are_values(self):
        good = Cluster.from_arrays("g", True, [1.0, 2.0, 4.0], post=[0, 1, 1])
        flat = Cluster.from_arrays("f", False, [1.0, 2.0, 4.0], post=[1, 1, 1])
        bare = validate_dataset([
            Cluster.from_arrays("b", True, [1.0, 2.0, 4.0]),
            Cluster.from_arrays("c", False, [1.0, 2.0, 4.0]),
        ])
        with_post = validate_dataset([good, flat])
        fits = fit_groups([with_post, bare], [[(0,), (1,)], [(0,)]], "post")
        assert fits[0][0].tolist() == least_squares(
            [np.column_stack([np.ones(3), good.post])], [good.outcomes]
        )[0].tolist()
        assert isinstance(fits[1], RankDeficient)
        assert isinstance(fits[2], MissingPeriodFlag)
        assert str(fits[2]) == "no post indicator"

    def test_pair_probit_with_a_constant_cluster_fails(self):
        # with c0's outcomes all one, the pair's moment condition has no zero:
        # a finite coefficient would come from the moment tolerance, not the data
        rng = np.random.default_rng(11)
        kinds = ["constant", "good", "good", "good", "good", "good"]
        ds = validate_dataset(
            [probit_cluster(kind, f"c{i}", i < 3, rng) for i, kind in enumerate(kinds)]
        )
        fits = fit_groups([ds], [[(0, 3)]], "treated", probit=True)
        assert str(fits[0]) == "constant binary outcome"
        with pytest.raises(EstimationError) as info:
            pair_beta_probit(ds, [(1, 4), (0, 3), (2, 5)])
        assert (info.value.cluster_id, info.value.partner) == ("c0", "c3")
        assert isinstance(info.value.cause, Separation)
        # the untreated side constant fails the same way
        flipped = validate_dataset(
            [probit_cluster(kind, f"c{i}", i >= 3, rng) for i, kind in enumerate(kinds)]
        )
        with pytest.raises(EstimationError, match="constant binary outcome"):
            pair_beta_probit(flipped, pair_clusters(flipped, "by_size"))


def replaced(dataset, k, constant=None, rows=None):
    """The dataset with cluster k's outcomes made constant, or cut to its
    first rows."""
    clusters = list(dataset)
    c = clusters[k]
    y = c.outcomes if constant is None else np.full(c.size, constant)
    clusters[k] = Cluster.from_arrays(c.id, c.treated, y[:rows], c.covariate_matrix[:rows])
    return validate_dataset(clusters)


def assert_per_dataset(batch, alone, same):
    """Each good dataset j's value in ``batch`` is bitwise ``alone(j)``, and
    the one failing dataset holds the error of the type and message that
    ``alone(j)`` raises."""
    failures = 0
    for j, value in enumerate(batch):
        try:
            one = alone(j)
        except FewClustersError as exc:
            failures += 1
            assert type(value) is type(exc) and str(value) == str(exc)
        else:
            assert same(value, one)
    assert failures == 1


class TestPerDatasetValues:
    """A batch's fits mixing good datasets with one failing dataset."""

    def test_estimate_many_with_a_short_cluster(self):
        datasets = [gen_linear(LinearDesign(), seed) for seed in range(4)]
        # 3 rows cannot identify the intercept and 5 covariate slopes
        datasets.insert(2, replaced(datasets[2], 4, rows=3))
        assert_per_dataset(
            estimate_many(datasets, "ols_intercept"),
            lambda j: estimate_all(datasets[j], "ols_intercept"),
            lambda a, b: a.values.tolist() == b.values.tolist(),
        )

    def test_pair_betas_with_a_constant_outcome_cluster(self):
        design = ProbitDesign(beta=0.3, size_range=(150, 200))
        datasets = [gen_probit(design, seed) for seed in range(4)]
        datasets.insert(1, replaced(datasets[1], 3, constant=1.0))
        pairs = [pair_clusters(ds, "random", seed) for seed, ds in enumerate(datasets)]
        batch = pair_betas(datasets, pairs, probit=True)
        assert_per_dataset(
            batch, lambda j: pair_beta_probit(datasets[j], pairs[j]),
            lambda a, b: a.tolist() == b.tolist(),
        )
        assert str(batch[1]).endswith("constant binary outcome")

    def test_pooled_regressions_without_residual_rows(self):
        datasets = [gen_linear(LinearDesign(), seed) for seed in range(4)]
        x = np.ones((1, 5))
        # n = 2 rows for the intercept, the dummy and 5 covariates
        datasets.insert(3, validate_dataset([
            Cluster.from_arrays("t", True, [1.0], x),
            Cluster.from_arrays("u", False, [2.0], x),
        ]))
        assert_per_dataset(
            pooled_regressions(datasets), lambda j: pooled_regression(datasets[j]),
            lambda a, b: all(
                getattr(a, f).tolist() == getattr(b, f).tolist() for f in "hta"
            ) and a.n == b.n,
        )
