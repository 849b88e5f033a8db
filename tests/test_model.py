"""Tests for the shared domain types and dataset validation."""

import pickle

import numpy as np
import pytest

from fewclusters.model import (
    Cluster,
    ClusterLayout,
    DataError,
    EmptyCluster,
    EstimateVector,
    EstimationError,
    FewClustersError,
    NoTreatedClusters,
    NoUntreatedClusters,
    RaggedCovariates,
    TestConfig,
    validate_dataset,
)


def make_cluster(cid, treated, outcomes=(1.0, 2.0)):
    return Cluster.from_arrays(cid, treated, outcomes)


class TestValidateDataset:
    def test_counts(self):
        clusters = [make_cluster(f"t{i}", True) for i in range(3)] + [
            make_cluster(f"u{i}", False) for i in range(3)
        ]
        ds = validate_dataset(clusters)
        assert ds.layout == ClusterLayout(q1=3, q0=3)

    def test_no_treated(self):
        with pytest.raises(NoTreatedClusters):
            validate_dataset([make_cluster("a", False), make_cluster("b", False)])

    def test_no_untreated(self):
        with pytest.raises(NoUntreatedClusters):
            validate_dataset([make_cluster("a", True)])

    def test_interleaved_reordered_stably(self):
        clusters = [
            make_cluster("t1", True),
            make_cluster("u1", False),
            make_cluster("t2", True),
            make_cluster("u2", False),
        ]
        ds = validate_dataset(clusters)
        assert [c.id for c in ds.clusters] == ["t1", "t2", "u1", "u2"]
        assert ds.layout == ClusterLayout(q1=2, q0=2)

    def test_reordering_is_permutation(self):
        rng = np.random.default_rng(0)
        clusters = [
            make_cluster(f"c{i}", bool(rng.integers(0, 2))) for i in range(8)
        ]
        clusters[0] = make_cluster("c0", True)
        clusters[1] = make_cluster("c1", False)
        ds = validate_dataset(clusters)
        assert sorted(c.id for c in ds.clusters) == sorted(c.id for c in clusters)

    def test_ragged_covariates_across_clusters(self):
        a = Cluster.from_arrays("a", True, [1.0], covariates=np.ones((1, 2)))
        b = Cluster.from_arrays("b", False, [1.0], covariates=np.ones((1, 3)))
        with pytest.raises(RaggedCovariates):
            validate_dataset([a, b])


class TestCluster:
    def test_empty_cluster(self):
        with pytest.raises(EmptyCluster):
            Cluster.from_arrays("x", True, [])

    def test_ragged_within_cluster(self):
        with pytest.raises(RaggedCovariates):
            Cluster.from_arrays("x", True, [1.0, 2.0], covariates=[[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize(
        "outcomes, covariates, post",
        [
            # six covariate values would fold into a garbled (3, 2) matrix
            ([1.0, 2.0, 3.0], np.arange(6.0).reshape(2, 3), None),
            ([1.0, 2.0], None, [True]),
            ([1.0, 2.0], None, [True, False, True]),
            ([1.0, 2.0], [[1.0, 2.0], [3.0]], None),
            ([[1.0, 2.0], [3.0, 4.0]], None, None),
        ],
        ids=["covariate-rows", "short-post", "long-post", "ragged-rows", "2d-outcomes"],
    )
    def test_bad_shapes_name_the_cluster(self, outcomes, covariates, post):
        with pytest.raises(DataError, match="'bad'"):
            Cluster.from_arrays("bad", True, outcomes, covariates, post)

    @pytest.mark.parametrize(
        "outcomes, covariates, field",
        [
            ([1.0, np.nan], None, "outcomes"),
            ([np.inf, 1.0], None, "outcomes"),
            ([1.0, 2.0], [[0.0], [np.nan]], "covariates"),
            ([1.0, 2.0], [[-np.inf, 1.0], [0.0, 1.0]], "covariates"),
        ],
    )
    def test_non_finite_values_name_cluster_and_field(self, outcomes, covariates, field):
        with pytest.raises(DataError, match=f"'bad': {field} contain nan or inf"):
            Cluster.from_arrays("bad", True, outcomes, covariates)

    def test_arrays_read_only(self):
        y = np.array([1.0, 2.0])
        c = Cluster.from_arrays("x", True, y, post=[0, 1])
        for array in (c.outcomes, c.covariate_matrix, c.post_flags):
            with pytest.raises(ValueError):
                array[0] = 5.0
        y[0] = 9.0  # the cluster keeps its own copy
        assert c.outcomes[0] == 1.0
        assert c.covariate_matrix.shape == (2, 0)

    def test_array_accessors(self):
        c = Cluster.from_arrays(
            "x", True, [1.0, 2.0], covariates=[[3.0], [4.0]], post=[False, True]
        )
        np.testing.assert_array_equal(c.outcomes, [1.0, 2.0])
        np.testing.assert_array_equal(c.covariate_matrix, [[3.0], [4.0]])
        np.testing.assert_array_equal(c.post_flags, [0.0, 1.0])


class TestEstimationError:
    def test_pickle_round_trip(self):
        err = EstimationError("c02", RaggedCovariates("cause"))
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is EstimationError
        assert back.cluster_id == "c02"
        assert type(back.cause) is RaggedCovariates
        assert str(back.cause) == "cause"
        assert str(back) == str(err)


class TestEstimateVector:
    def test_length_checked(self):
        with pytest.raises(FewClustersError):
            EstimateVector(np.zeros(3), ClusterLayout(2, 2))

    def test_finite_checked(self):
        with pytest.raises(FewClustersError):
            EstimateVector(np.array([1.0, np.nan, 0.0, 0.0]), ClusterLayout(2, 2))


class TestTestConfig:
    def test_alpha_range(self):
        with pytest.raises(FewClustersError):
            TestConfig(alpha=1.5)

    def test_bad_side(self):
        with pytest.raises(FewClustersError):
            TestConfig(side="sideways")

    def test_max_assignments_positive(self):
        with pytest.raises(FewClustersError):
            TestConfig(max_assignments=0)
