"""Tests for the shared domain types and dataset validation."""

import pickle

import numpy as np
import pytest

from fewclusters.model import (
    Cluster,
    ClusterDataset,
    ClusterLayout,
    DataError,
    EmptyCluster,
    EstimateVector,
    EstimationError,
    FewClustersError,
    MissingPeriodFlag,
    NoTreatedClusters,
    NoUntreatedClusters,
    RaggedCovariates,
    TestConfig,
    validate_dataset,
)


def make_cluster(cid, treated, outcomes=(1.0, 2.0)):
    return Cluster.from_arrays(cid, treated, outcomes)


# one cluster's outcomes, covariates and post flags, of a bad shape
BAD_SHAPES = [
    # six covariate values would fold into a garbled (3, 2) matrix
    ([1.0, 2.0, 3.0], np.arange(6.0).reshape(2, 3), None),
    ([1.0, 2.0], None, [True]),
    ([1.0, 2.0], None, [True, False, True]),
    ([1.0, 2.0], [[1.0, 2.0], [3.0]], None),
    ([[1.0, 2.0], [3.0, 4.0]], None, None),
]
BAD_SHAPE_IDS = ["covariate-rows", "short-post", "long-post", "ragged-rows", "2d-outcomes"]
# one cluster's outcomes and covariates, and the field holding a nan or inf
NON_FINITE = [
    ([1.0, np.nan], None, "outcomes"),
    ([np.inf, 1.0], None, "outcomes"),
    ([1.0, 2.0], [[0.0], [np.nan]], "covariates"),
    ([1.0, 2.0], [[-np.inf, 1.0], [0.0, 1.0]], "covariates"),
]


def cluster_error(*columns):
    """The DataError that Cluster.from_arrays raises for cluster 'bad'."""
    with pytest.raises(DataError) as info:
        Cluster.from_arrays("bad", True, *columns)
    return info.value


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

    def test_duplicate_ids_rejected(self):
        # two clusters named 'a' made every error naming 'a' ambiguous
        with pytest.raises(DataError, match="duplicate cluster id 'a'"):
            validate_dataset([make_cluster("a", True), make_cluster("a", False)])

    def test_clusters_are_views_of_the_columns(self):
        ds = validate_dataset([
            Cluster.from_arrays("u", False, [5.0], [[1.0]], post=[1]),
            Cluster.from_arrays("t", True, [1.0, 2.0], [[3.0], [4.0]], post=[0, 1]),
        ])
        assert ds.ids == ("t", "u") and ds.offsets.tolist() == [0, 2, 3]
        assert ds.outcomes.tolist() == [1.0, 2.0, 5.0]
        assert ds.covariates.tolist() == [[3.0], [4.0], [1.0]]
        for c in ds:
            for view, column in [
                (c.outcomes, ds.outcomes),
                (c.covariate_matrix, ds.covariates),
                (c.post, ds.post),
            ]:
                assert np.shares_memory(view, column) and not view.flags.writeable
        assert [c.size for c in ds] == [2, 1] and ds.clusters is ds.clusters

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

    @pytest.mark.parametrize("outcomes, covariates, post", BAD_SHAPES, ids=BAD_SHAPE_IDS)
    def test_bad_shapes_name_the_cluster(self, outcomes, covariates, post):
        with pytest.raises(DataError, match="'bad'"):
            Cluster.from_arrays("bad", True, outcomes, covariates, post)

    @pytest.mark.parametrize("outcomes, covariates, field", NON_FINITE)
    def test_non_finite_values_name_cluster_and_field(self, outcomes, covariates, field):
        with pytest.raises(DataError, match=f"'bad': {field} contain nan or inf"):
            Cluster.from_arrays("bad", True, outcomes, covariates)

    def test_arrays_read_only(self):
        y = np.array([1.0, 2.0])
        c = Cluster.from_arrays("x", True, y, post=[0, 1])
        for array in (c.outcomes, c.covariate_matrix, c.post):
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
        np.testing.assert_array_equal(c.post, [0.0, 1.0])


class TestColumnarChecks:
    """The Cluster shape and value cases, through validate_dataset and the
    columnar constructor: the same messages."""

    OK = ([7.0], [[0.0]], [0.0])  # a good cluster's outcomes, covariates, post

    @pytest.mark.parametrize("outcomes, covariates, post", BAD_SHAPES, ids=BAD_SHAPE_IDS)
    def test_bad_shapes_through_validate_dataset(self, outcomes, covariates, post):
        expected = cluster_error(outcomes, covariates, post)
        with pytest.raises(DataError) as info:
            ok = Cluster.from_arrays("ok", False, [7.0])
            bad = Cluster.from_arrays("bad", True, outcomes, covariates, post)
            validate_dataset([ok, bad])
        assert (type(info.value), str(info.value)) == (type(expected), str(expected))

    @pytest.mark.parametrize(
        "case, columns", zip(BAD_SHAPE_IDS, BAD_SHAPES), ids=BAD_SHAPE_IDS
    )
    def test_bad_shapes_through_the_columnar_constructor(self, case, columns):
        outcomes, covariates, post = columns
        expected = cluster_error(outcomes, covariates, post)
        if case not in ("ragged-rows", "2d-outcomes"):
            # the rows of 'bad' follow one row of 'ok': a column short of rows
            # cuts 'bad' short, and one with rows to spare gives them to 'bad'
            ok_y, ok_x, ok_post = self.OK
            d = 0 if covariates is None else np.shape(covariates)[1]
            columns = (
                ok_y + list(outcomes),
                None if covariates is None else np.vstack([np.zeros((1, d)), covariates]),
                None if post is None else ok_post + list(post),
            )
            ids, offsets = ("ok", "bad"), [0, 1, 1 + len(outcomes)]
        else:
            # a column that is no vector or matrix at all names the first
            # cluster: 'bad' owns row 0, 'ok' the rest
            columns, ids, offsets = (outcomes, covariates, post), ("bad", "ok"), [0, 1, 2]
        with pytest.raises(DataError) as info:
            ClusterDataset(ids, ClusterLayout(1, 1), offsets, *columns)
        assert (type(info.value), str(info.value)) == (type(expected), str(expected))

    @pytest.mark.parametrize("outcomes, covariates, field", NON_FINITE)
    def test_non_finite_values_through_both(self, outcomes, covariates, field):
        expected = str(cluster_error(outcomes, covariates))
        assert expected == f"cluster 'bad': {field} contain nan or inf"
        d = 0 if covariates is None else np.shape(covariates)[1]
        x = np.zeros((2, d)) if covariates is None else covariates
        ok = Cluster.from_arrays("ok", True, [7.0, 8.0], np.zeros((2, d)))
        with pytest.raises(DataError) as info:
            validate_dataset([ok, Cluster.from_arrays("bad", False, outcomes, covariates)])
        assert str(info.value) == expected
        # 'bad' second: the check names the cluster of the first bad row
        with pytest.raises(DataError) as info:
            ClusterDataset(
                ("ok", "bad"), ClusterLayout(1, 1), [0, 2, 4],
                [7.0, 8.0, *outcomes], np.vstack([ok.covariate_matrix, x]),
            )
        assert str(info.value) == expected

    def test_empty_cluster_and_bad_offsets(self):
        layout = ClusterLayout(1, 1)
        with pytest.raises(EmptyCluster, match="cluster 'b' has no observations"):
            ClusterDataset(("a", "b"), layout, [0, 2, 2], [1.0, 2.0])
        for offsets in ([0, 2], [1, 2, 3], [0.0, 1.0, 2.0], [0, 2, 1]):
            with pytest.raises(DataError):
                ClusterDataset(("a", "b"), layout, offsets, [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="3 cluster ids for 2 clusters"):
            ClusterDataset(("a", "b", "c"), layout, [0, 1, 2, 3], [1.0, 2.0, 3.0])

    def test_only_read_only_arrays_that_own_their_memory_are_kept(self):
        # such a column is taken as it is; a writable one, or a read-only
        # view of writable memory, is copied, and the caller's array is left
        # writable
        layout, offsets = ClusterLayout(1, 1), [0, 2, 4]
        frozen = np.array([1.0, 2.0, 3.0, 4.0])
        frozen.flags.writeable = False
        writable = np.array([1.0, 2.0, 3.0, 4.0])
        view = writable.view()
        view.flags.writeable = False
        assert ClusterDataset(("a", "b"), layout, offsets, frozen).outcomes is frozen
        strided = np.arange(8.0)[::2]
        strided.flags.writeable = False
        for column in (writable, view, strided, frozen.astype(np.float32)):
            kept = ClusterDataset(("a", "b"), layout, offsets, column).outcomes
            assert kept is not column and kept.flags.owndata and not kept.flags.writeable
        assert writable.flags.writeable
        writable[0] = 9.0
        assert ClusterDataset(("a", "b"), layout, offsets, view).outcomes[0] == 9.0
        # a kept column is still checked
        bad = np.array([1.0, np.inf, 3.0, 4.0])
        bad.flags.writeable = False
        with pytest.raises(DataError, match="cluster 'a': outcomes contain nan or inf"):
            ClusterDataset(("a", "b"), layout, offsets, bad)

    def test_post_flags_checked(self):
        with pytest.raises(DataError, match="cluster 'b': post flags must be 0 or 1"):
            ClusterDataset(("a", "b"), ClusterLayout(1, 1), [0, 1, 2], [1, 2], post=[1, 3])
        with pytest.raises(MissingPeriodFlag, match="cluster 'b'"):
            validate_dataset([
                Cluster.from_arrays("a", True, [1.0], post=[1]),
                Cluster.from_arrays("b", False, [1.0]),
            ])


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
