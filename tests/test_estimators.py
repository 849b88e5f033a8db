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
from fewclusters.estimators import (
    MAX_NEWTON_ITER,
    MOMENT_TOL,
    _probit_fits,
    estimate_all,
    did_slope,
    least_squares,
    ols_intercept,
    probit_moment,
    probit_moment_jacobian,
    probit_newton_batch,
    probit_z_estimate,
)
from fewclusters.model import (
    Cluster,
    EstimationError,
    MissingPeriodFlag,
    NoConvergence,
    RankDeficient,
    Separation,
    validate_dataset,
)


class TestLeastSquares:
    def test_matrix_rhs_solves_each_column(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(12, 4))
        rhs = rng.normal(size=(12, 3))
        coef = least_squares(design, rhs)
        assert coef.shape == (4, 3)
        for k in range(3):
            expected = np.linalg.lstsq(design, rhs[:, k], rcond=None)[0]
            np.testing.assert_allclose(coef[:, k], expected, rtol=1e-12, atol=1e-14)
        # residuals are orthogonal to the design
        resid = rhs - design @ coef
        np.testing.assert_allclose(design.T @ resid, 0.0, atol=1e-12)

    def test_fewer_rows_than_coefficients(self):
        with pytest.raises(RankDeficient, match="cannot identify"):
            least_squares(np.ones((2, 3)), np.ones(2))

    def test_nearly_collinear_columns(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        design = np.column_stack([np.ones(20), x, 2.0 * x + 1e-13 * rng.normal(size=20)])
        with pytest.raises(RankDeficient, match="rank deficient"):
            least_squares(design, rng.normal(size=(20, 2)))

    def test_rank_floor_scales_with_the_design(self):
        # the rule is relative to the largest singular value above 1, so
        # rescaling a well-conditioned design by 1e6 does not trip it
        rng = np.random.default_rng(3)
        design = rng.normal(size=(10, 3))
        least_squares(design * 1e6, np.ones(10))
        with pytest.raises(RankDeficient):
            least_squares(design * 1e-12, np.ones(10))


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


class TestDidSlope:
    def test_two_period_difference(self):
        c = Cluster.from_arrays(
            "a", True, [1.0, 1.0, 3.0, 3.0], post=[False, False, True, True]
        )
        assert did_slope(c).theta == pytest.approx(2.0)

    def test_with_fixed_effect(self):
        # pre mean 5, post mean 6: slope 1 regardless of the level
        c = Cluster.from_arrays(
            "a", True, [5.0, 5.0, 6.0, 6.0], post=[False, False, True, True]
        )
        fit = did_slope(c)
        assert fit.theta == pytest.approx(1.0)
        assert fit.nuisance[0] == pytest.approx(5.0)

    def test_all_post_rank_deficient(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0], post=[True, True])
        with pytest.raises(RankDeficient):
            did_slope(c)

    def test_missing_flag(self):
        c = Cluster.from_arrays("a", True, [1.0, 2.0], post=None)
        with pytest.raises(MissingPeriodFlag):
            did_slope(c)


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
        clusters = [probit_cluster(kind, f"c{i}", True, rng) for i, kind in enumerate(kinds)]
        for kind, cluster, fit in zip(kinds, clusters, _probit_fits(clusters)):
            if kind != "good":
                assert str(fit) == FAILURE_MESSAGES[kind]
                continue
            one = probit_z_estimate(cluster)
            assert fit.theta == one.theta
            assert fit.nuisance.tolist() == one.nuisance.tolist()
            assert fit.iterations == one.iterations


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
