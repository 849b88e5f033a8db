"""Tests for the synthetic data generators and the circular moving average."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from fewclusters.dgp import (
    LinearDesign,
    ProbitDesign,
    _children,
    _ids,
    circular_ma,
    gen_linear,
    gen_probit,
    generate,
)
from fewclusters.estimators import estimate_all
from fewclusters.harness import _apply_sweep, spec_from_dict
from fewclusters.model import ClusterDataset, ClusterLayout, HOutOfRange


def gen_did_panel(
    q1: int,
    q0: int,
    periods: int,
    t0: int,
    beta: float,
    seed,
    theta0: float = 0.0,
    fe_scale: float = 1.0,
    noise_scale: float = 1.0,
) -> ClusterDataset:
    """Synthetic panel for the post-period slope estimator.

    Each cluster is one unit observed over ``periods`` time points; the
    outcome is theta0*post + beta*post*treated + fixed effect + noise, with
    post = 1 for t > t0 (1-based periods). Cluster k draws from child k of
    the seed, an int or a SeedSequence, which is only read.
    """
    q = q1 + q0
    rngs = _children(seed, q)
    post = np.tile((np.arange(1, periods + 1) > t0).astype(float), q)
    outcomes = np.empty(q * periods)
    for k, rng in enumerate(rngs):
        rows = slice(k * periods, (k + 1) * periods)
        fe = fe_scale * rng.standard_normal()
        outcomes[rows] = (
            theta0 * post[rows]
            + beta * post[rows] * float(k < q1)
            + fe
            + noise_scale * rng.standard_normal(periods)
        )
    offsets = np.arange(q + 1) * periods
    return ClusterDataset(_ids(q), ClusterLayout(q1, q0), offsets, outcomes, post=post)


def ma_autocov(sigma2, h, lag):
    """Analytic autocovariance of the circular moving average at a given lag.

    Entry i averages positions i..i+h of i.i.d. noise with variance sigma2,
    so entries at lag j share max(0, h + 1 - j) of their h + 1 sources.
    """
    return sigma2 * max(0, h + 1 - lag) / (h + 1) ** 2


class TestCircularMa:
    def test_h_zero_identity(self):
        x = np.arange(5.0)
        out = circular_ma(x, 0)
        np.testing.assert_array_equal(out, x)
        assert out is not x  # a copy, not an alias

    def test_h_max_is_global_mean(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        np.testing.assert_allclose(circular_ma(x, 3), np.full(4, 4.0))

    def test_wraparound(self):
        # entry 2 of a length-3 input at h = 1 averages positions 2 and 0
        x = np.array([6.0, 0.0, 3.0])
        np.testing.assert_allclose(circular_ma(x, 1), [3.0, 1.5, 4.5])

    def test_mean_preserved(self):
        rng = np.random.default_rng(0)
        for h in (0, 3, 9):
            x = rng.normal(size=25)
            assert circular_ma(x, h).mean() == pytest.approx(x.mean(), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(HOutOfRange):
            circular_ma(np.zeros(5), 5)
        with pytest.raises(HOutOfRange):
            circular_ma(np.zeros(5), -1)

    def test_variance_reduction(self):
        # variance of each entry is sigma^2 / (h + 1)
        rng = np.random.default_rng(1)
        h = 4
        x = circular_ma(rng.standard_normal((100_000, 25)), h)
        assert x.var() == pytest.approx(1.0 / (h + 1), rel=0.03)

    def test_autocovariance(self):
        rng = np.random.default_rng(2)
        h, m = 10, 25
        x = circular_ma(rng.standard_normal((200_000, m)), h)
        for lag in (1, 5, 10):
            emp = np.mean(x[:, 0] * x[:, lag]) - np.mean(x[:, 0]) * np.mean(x[:, lag])
            assert emp == pytest.approx(ma_autocov(1.0, h, lag), abs=0.05 / (h + 1))

    def test_independence_beyond_h(self):
        rng = np.random.default_rng(3)
        h, m = 3, 25
        x = circular_ma(rng.standard_normal((200_000, m)), h)
        emp = np.mean(x[:, 0] * x[:, h + 1])
        assert emp == pytest.approx(0.0, abs=0.01)

    def test_bitwise_equal_to_roll_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            shape = tuple(int(k) for k in rng.integers(1, 6, size=rng.integers(0, 3)))
            m = int(rng.integers(1, 30))
            source = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(*shape, m))
            h = int(rng.integers(0, m))
            expected = source.copy()
            for j in range(1, h + 1):
                expected += np.roll(source, -j, axis=-1)
            expected /= h + 1
            assert np.array_equal(circular_ma(source, h), expected)

    def test_sizes_wrap_each_row_over_its_own_length(self):
        # a zero-padded stack smoothed in one call gives each row the bits of
        # the row smoothed on its own
        rng = np.random.default_rng(6)
        for _ in range(300):
            q = int(rng.integers(1, 7))
            sizes = [int(m) for m in rng.integers(1, 30, size=q)]
            rows = int(rng.integers(1, 4))
            h = int(rng.integers(0, min(sizes)))
            source = np.zeros((q, rows, max(sizes)))
            for k, m in enumerate(sizes):
                source[k, :, :m] = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(rows, m))
            out = circular_ma(source, h, sizes)
            for k, m in enumerate(sizes):
                assert np.array_equal(out[k, :, :m], circular_ma(source[k, :, :m], h))
        with pytest.raises(HOutOfRange, match=r"\[0, 3\]"):
            circular_ma(np.zeros((2, 6)), 4, [6, 4])

    def test_2d_matches_rowwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 12))
        batch = circular_ma(x, 5)
        for i in range(3):
            np.testing.assert_allclose(batch[i], circular_ma(x[i], 5))


def same_data(a, b):
    """Equal cluster ids, treatment flags, outcomes and covariates, in order."""
    return len(a) == len(b) and all(
        (ca.id, ca.treated) == (cb.id, cb.treated)
        and np.array_equal(ca.outcomes, cb.outcomes)
        and np.array_equal(ca.covariate_matrix, cb.covariate_matrix)
        for ca, cb in zip(a, b)
    )


class TestGenLinear:
    def test_shapes_and_layout(self):
        ds = gen_linear(LinearDesign(q1=2, q0=4), seed=0)
        assert ds.layout.q1 == 2 and ds.layout.q0 == 4
        assert [c.treated for c in ds.clusters] == [True] * 2 + [False] * 4
        for c in ds.clusters:
            assert 15 <= c.size <= 25
            assert c.covariate_dim == 5

    def test_reproducible(self):
        a = gen_linear(LinearDesign(), seed=42)
        b = gen_linear(LinearDesign(), seed=42)
        assert same_data(a, b)
        c = gen_linear(LinearDesign(), seed=43)
        assert not same_data(a, c)

    def test_error_variances(self):
        # with h = 0 and beta = eta = 0 the outcome is the raw error:
        # variance 1 for treated clusters, 2 for untreated
        design = LinearDesign(
            q1=1, q0=1, h=0, eta=(), size_range=(200_000, 200_000)
        )
        ds = gen_linear(design, seed=5)
        treated, untreated = ds.clusters
        assert treated.outcomes.var() == pytest.approx(1.0, rel=0.1)
        assert untreated.outcomes.var() == pytest.approx(2.0, rel=0.1)

    def test_covariate_laws(self):
        # treated covariates are standard normal, untreated centered
        # chi-square(2): both mean 0, variances 1 and 4
        design = LinearDesign(
            q1=1, q0=1, h=0, eta=(1.0,), size_range=(200_000, 200_000)
        )
        ds = gen_linear(design, seed=6)
        treated, untreated = ds.clusters
        assert abs(treated.covariate_matrix.mean()) < 0.1
        assert abs(untreated.covariate_matrix.mean()) < 0.1
        assert treated.covariate_matrix.var() == pytest.approx(1.0, rel=0.1)
        assert untreated.covariate_matrix.var() == pytest.approx(4.0, rel=0.1)

    def test_treatment_shift(self):
        design = LinearDesign(
            q1=1, q0=1, h=0, beta=3.0, eta=(), size_range=(100_000, 100_000)
        )
        ds = gen_linear(design, seed=7)
        treated, untreated = ds.clusters
        assert treated.outcomes.mean() - untreated.outcomes.mean() == pytest.approx(
            3.0, abs=0.1
        )

    def test_cross_cluster_independence(self):
        # outcomes of different clusters come from independent child streams
        design = LinearDesign(
            q1=1, q0=1, h=0, eta=(), size_range=(100_000, 100_000)
        )
        ds = gen_linear(design, seed=8)
        a = ds.clusters[0].outcomes
        b = ds.clusters[1].outcomes
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02


class TestGenProbit:
    def test_binary_outcomes(self):
        ds = gen_probit(ProbitDesign(), seed=0)
        for c in ds.clusters:
            assert set(np.unique(c.outcomes)) <= {0.0, 1.0}
            assert 350 <= c.size <= 500

    def test_null_symmetry(self):
        # with theta0 = beta = 0 and symmetric latent errors the success
        # probability is exactly one half
        design = ProbitDesign(q1=1, q0=1, h=0, eta=(), size_range=(200_000, 200_000))
        ds = gen_probit(design, seed=1)
        for c in ds.clusters:
            assert c.outcomes.mean() == pytest.approx(0.5, abs=0.01)

    def test_monotone_in_beta(self):
        design0 = ProbitDesign(q1=1, q0=1, h=0, eta=(), size_range=(100_000, 100_000))
        design1 = ProbitDesign(
            q1=1, q0=1, h=0, beta=1.0, eta=(), size_range=(100_000, 100_000)
        )
        p0 = gen_probit(design0, seed=2).clusters[0].outcomes.mean()
        p1 = gen_probit(design1, seed=2).clusters[0].outcomes.mean()
        assert p1 > p0 + 0.2

    def test_reproducible(self):
        a = gen_probit(ProbitDesign(), seed=3)
        b = gen_probit(ProbitDesign(), seed=3)
        assert same_data(a, b)


def two_call_cluster(design, k, rng, untreated_error_scale):
    """One cluster's latent outcome and covariates, the errors and the
    covariates smoothed by separate ``circular_ma`` calls."""
    treated = k < design.q1
    lo, hi = design.size_range
    m = int(rng.integers(lo, hi + 1))
    scale = 1.0 if treated else untreated_error_scale
    u = circular_ma(scale * rng.standard_normal(m), design.h)
    n_cov = len(design.eta)
    if treated:
        raw_x = rng.standard_normal((n_cov, m))
    else:
        z = rng.standard_normal((2, n_cov, m))
        raw_x = z[0] ** 2 + z[1] ** 2 - 2.0
    x = circular_ma(raw_x, design.h).T
    latent = design.theta0 + design.beta * float(treated) + x @ np.asarray(design.eta) + u
    return latent, x


class TestOneSmoothingPerCluster:
    @pytest.mark.parametrize("h", [0, 1, 10, 14])
    def test_linear_and_probit_match_two_calls(self, h):
        # one circular_ma call on the stacked (1 + d, m) draws gives the
        # bits of the two calls it replaced, for every shipped kind of design
        designs = [
            (gen_linear, LinearDesign(q1=2, q0=3, h=h, beta=0.5), float(np.sqrt(2.0))),
            (gen_linear, LinearDesign(q1=1, q0=1, h=h, eta=(0.5,)), float(np.sqrt(2.0))),
            (gen_probit, ProbitDesign(q1=2, q0=2, h=h, beta=0.3, size_range=(15, 40)), 1.0),
        ]
        for seed in range(5):
            for generate, design, untreated_scale in designs:
                ds = generate(design, seed)
                children = np.random.SeedSequence(seed).spawn(design.q1 + design.q0)
                rngs = [np.random.default_rng(child) for child in children]
                for k, cluster in enumerate(ds):
                    latent, x = two_call_cluster(design, k, rngs[k], untreated_scale)
                    y = latent if generate is gen_linear else (latent > 0).astype(float)
                    assert np.array_equal(cluster.outcomes, y)
                    assert np.array_equal(cluster.covariate_matrix, x)


def rolled_mean(source, h):
    """The circular moving average of h + 1 entries along the last axis, by
    np.roll: the additions ``circular_ma`` makes, in its order."""
    out = source.copy()
    for j in range(1, h + 1):
        out += np.roll(source, -j, axis=-1)
    return out / (h + 1)


def reference_dataset(design, seed, probit):
    """Ids, offsets, outcomes and covariates of ``gen_linear`` (or
    ``gen_probit``), one cluster at a time from numpy's own spawned streams:
    size, errors, then covariates; ``x @ eta`` on the cluster's own (m, d)
    array."""
    q = design.q1 + design.q0
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(q)]
    lo, hi = design.size_range
    sizes = [int(rng.integers(lo, hi + 1)) for rng in rngs]
    d, eta = len(design.eta), np.asarray(design.eta)
    outcomes, covariates = [], []
    for k, (rng, m) in enumerate(zip(rngs, sizes)):
        treated = k < design.q1
        if treated:
            u, x = rng.standard_normal(m), rng.standard_normal((d, m))
        else:
            u = (1.0 if probit else np.sqrt(2.0)) * rng.standard_normal(m)
            z = rng.standard_normal((2, d, m))
            x = z[0] ** 2 + z[1] ** 2 - 2.0
        smooth = rolled_mean(np.vstack([u[None, :], x]), design.h)
        u, x = smooth[0], smooth[1:].T
        latent = design.theta0 + design.beta * float(treated) + x @ eta + u
        outcomes.append((latent > 0).astype(float) if probit else latent)
        covariates.append(x)
    ids = tuple(f"c{k:02d}" for k in range(q))
    return ids, np.cumsum([0] + sizes), np.concatenate(outcomes), np.vstack(covariates)


def bits(array):
    return array.dtype, array.shape, array.tobytes()


# seeds of one and of several 32-bit words of entropy
REFERENCE_SEEDS = [0, 1, 7, 2**40 + 3, 2**64 + 11]


class TestReferenceGenerators:
    @pytest.mark.parametrize("h", [0, 1, 10, 14])
    def test_linear_and_probit_bitwise(self, h):
        designs = [
            (gen_linear, LinearDesign(h=h)),
            (gen_linear, LinearDesign(q1=6, q0=6, h=h, beta=0.5, theta0=-0.2)),
            (gen_linear, LinearDesign(q1=1, q0=2, h=h, eta=(0.5,), size_range=(15, 15))),
            (gen_linear, LinearDesign(q1=2, q0=1, h=h, eta=())),
            (gen_probit, ProbitDesign(q1=2, q0=3, h=h, beta=0.3, size_range=(15, 60))),
        ]
        for seed in REFERENCE_SEEDS:
            for generate, design in designs:
                ds = generate(design, seed)
                probit = generate is gen_probit
                ids, offsets, y, x = reference_dataset(design, seed, probit)
                assert ds.ids == ids and ds.offsets.tolist() == offsets.tolist()
                assert ds.layout.q1 == design.q1 and ds.layout.q0 == design.q0
                assert bits(ds.outcomes) == bits(y) and bits(ds.covariates) == bits(x)
                assert ds.post is None

    def test_did_panel_bitwise(self):
        for seed in REFERENCE_SEEDS:
            ds = gen_did_panel(2, 3, periods=7, t0=3, beta=0.7, seed=seed, theta0=0.2)
            children = np.random.SeedSequence(seed).spawn(5)
            rngs = [np.random.default_rng(s) for s in children]
            post = (np.arange(1, 8) > 3).astype(float)
            y = []
            for k, rng in enumerate(rngs):
                fe = rng.standard_normal()
                noise = rng.standard_normal(7)
                y.append(0.2 * post + 0.7 * post * float(k < 2) + fe + noise)
            assert ds.offsets.tolist() == [0, 7, 14, 21, 28, 35]
            assert bits(ds.outcomes) == bits(np.concatenate(y))
            assert bits(ds.post) == bits(np.tile(post, 5))
            assert ds.covariates.shape == (35, 0)

    def test_seed_sequence_is_only_read(self):
        # a SeedSequence seed gives children 0..q-1 each time, however many
        # it has spawned, and spawns none
        design = LinearDesign(q1=3, q0=2, h=4)
        seed = np.random.SeedSequence(5)
        first, second = gen_linear(design, seed), gen_linear(design, seed)
        spent = np.random.SeedSequence(5)
        spent.spawn(7)
        panels = [gen_did_panel(2, 3, 6, 2, 0.5, s) for s in (seed, spent, 5)]
        assert seed.n_children_spawned == 0 and spent.n_children_spawned == 7
        for ds in (second, gen_linear(design, spent), gen_linear(design, 5)):
            assert bits(ds.outcomes) == bits(first.outcomes)
            assert bits(ds.covariates) == bits(first.covariates)
        assert all(bits(p.outcomes) == bits(panels[0].outcomes) for p in panels)
        probit = ProbitDesign(q1=2, q0=2, h=3, size_range=(20, 30))
        assert bits(gen_probit(probit, seed).outcomes) == bits(gen_probit(probit, 5).outcomes)

    def test_pool_size_other_than_four_gives_its_spawned_children(self):
        # a seed of any pool size gives the children its spawn makes, and
        # is only read, after spawns of its own too
        design = LinearDesign(q1=3, q0=2, h=4)
        for entropy in range(5):
            for pool_size in (4, 5, 8):
                seed = np.random.SeedSequence(entropy, pool_size=pool_size)
                seed.spawn(3)
                spawned = np.random.SeedSequence(entropy, pool_size=pool_size).spawn(5)
                expected = generate(design, [list(map(np.random.default_rng, spawned))])[0]
                states = [r.bit_generator.state for r in _children(seed, 5)]
                assert states == [np.random.default_rng(c).bit_generator.state for c in spawned]
                assert bits(gen_linear(design, seed).outcomes) == bits(expected.outcomes)
                assert seed.n_children_spawned == 3

    def test_generate_takes_one_generator_per_cluster(self):
        design = LinearDesign(q1=2, q0=2, h=3)
        rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(9).spawn(4)]
        [ds] = generate(design, [rngs])
        assert bits(ds.outcomes) == bits(gen_linear(design, 9).outcomes)
        with pytest.raises(ValueError, match="3 generators for 4 clusters"):
            generate(design, [rngs, rngs[:3]])

    def test_cluster_views_share_the_columns(self):
        for ds in [
            gen_linear(LinearDesign(), 3),
            gen_probit(ProbitDesign(size_range=(15, 40)), 3),
            gen_did_panel(q1=2, q0=2, periods=4, t0=2, beta=1.0, seed=3),
        ]:
            for k, c in enumerate(ds):
                assert np.shares_memory(c.outcomes, ds.outcomes)
                # the panel has no covariates, and an empty array shares nothing
                x = c.covariate_matrix
                assert ds.covariates.size == 0 or np.shares_memory(x, ds.covariates)
                assert c.post is None or np.shares_memory(c.post, ds.post)
                rows = slice(ds.offsets[k], ds.offsets[k + 1])
                assert bits(c.outcomes) == bits(ds.outcomes[rows])


class TestGenDidPanel:
    def test_layout_and_post_flags(self):
        ds = gen_did_panel(q1=2, q0=2, periods=6, t0=3, beta=1.0, seed=0)
        assert ds.layout.q1 == 2 and ds.layout.q0 == 2
        for c in ds.clusters:
            np.testing.assert_array_equal(c.post, [0, 0, 0, 1, 1, 1])

    def test_noiseless_recovery(self):
        # without noise the post-period slope is exactly theta0 (+ beta for
        # treated clusters), regardless of the fixed effects
        ds = gen_did_panel(
            q1=2, q0=2, periods=8, t0=4, beta=2.0, seed=1,
            theta0=0.5, noise_scale=0.0,
        )
        slopes = estimate_all(ds, "did_slope").values
        for c, slope in zip(ds.clusters, slopes):
            expected = 2.5 if c.treated else 0.5
            assert slope == pytest.approx(expected, abs=1e-12)


CONFIGS = sorted(
    p.name
    for p in (resources.files("fewclusters") / "configs").iterdir()
    if p.name.endswith(".json")
)


class TestTrustedColumns:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_generated_datasets_equal_checked_ones(self, config):
        # generate hands its own columns to ClusterDataset.trusted, unchecked:
        # ClusterDataset built from writable copies of them, which it checks
        # and copies, must have every field equal, arrays byte for byte and
        # read-only, at the first and last point of each shipped sweep
        text = (resources.files("fewclusters") / "configs" / config).read_text()
        spec = spec_from_dict(json.loads(text))
        for value in (spec.sweep_values[0], spec.sweep_values[-1]):
            design = _apply_sweep(spec.design, spec.sweep_param, value)
            q = design.q1 + design.q0
            rngs = [_children(np.random.SeedSequence(seed), q) for seed in range(3)]
            for dataset in generate(design, rngs):
                columns = [dataset.offsets, dataset.outcomes, dataset.covariates]
                checked = ClusterDataset(
                    list(dataset.ids), dataset.layout, *(c.copy() for c in columns)
                )
                for field in dataclasses.fields(ClusterDataset):
                    ours, theirs = getattr(dataset, field.name), getattr(checked, field.name)
                    if isinstance(theirs, np.ndarray):
                        assert not ours.flags.writeable and ours.flags.c_contiguous
                        assert bits(ours) == bits(theirs), (config, value, field.name)
                    else:
                        assert type(ours) is type(theirs) and ours == theirs, field.name
