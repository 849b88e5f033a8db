"""Synthetic data-generating processes for the simulation study.

Within-cluster dependence is produced by a circular moving average: each
error is the mean of h+1 consecutive raw draws with wraparound, so
observations more than h positions apart are independent. Treated and
untreated clusters deliberately differ in error scale and covariate law to
keep the clusters heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Cluster, ClusterDataset, ClusterLayout, HOutOfRange


@dataclass(frozen=True)
class LinearDesign:
    """Linear cluster-treatment design with h-dependent errors and covariates."""

    q1: int = 3
    q0: int = 3
    h: int = 10
    beta: float = 0.0
    theta0: float = 0.0
    eta: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    size_range: tuple[int, int] = (15, 25)


@dataclass(frozen=True)
class ProbitDesign:
    """Latent-linear probit design; in all clusters the latent errors are
    moving averages of h+1 standard normal draws, with sd 1/sqrt(h+1)."""

    q1: int = 3
    q0: int = 3
    h: int = 10
    beta: float = 0.0
    theta0: float = 0.0
    eta: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    size_range: tuple[int, int] = (350, 500)


def circular_ma(source: np.ndarray, h: int) -> np.ndarray:
    """Mean of h+1 consecutive entries with circular wraparound.

    Operates along the last axis; entry i averages positions i..i+h modulo
    the length. h=0 returns the input, h=m-1 the overall mean everywhere.
    """
    source = np.asarray(source, dtype=float)
    m = source.shape[-1]
    if not 0 <= h <= m - 1:
        raise HOutOfRange(f"h must lie in [0, {m - 1}], got {h}")
    if h == 0:
        return source.copy()
    # padded[..., j:j + m] is np.roll(source, -j): the same additions in order
    padded = np.concatenate([source, source[..., :h]], axis=-1)
    out = source.copy()
    for j in range(1, h + 1):
        out += padded[..., j : j + m]
    return out / (h + 1)


def _chi2_centered(rng: np.random.Generator, size) -> np.ndarray:
    """chi-square(2) minus 2, built from two squared standard normals."""
    z = rng.standard_normal((2,) + tuple(np.atleast_1d(size)))
    return z[0] ** 2 + z[1] ** 2 - 2.0


def _gen_latent_cluster(
    design: LinearDesign | ProbitDesign,
    k: int,
    rng: np.random.Generator,
    treated_error_scale: float,
    untreated_error_scale: float,
) -> tuple[bool, np.ndarray, np.ndarray]:
    treated = k < design.q1
    lo, hi = design.size_range
    m = int(rng.integers(lo, hi + 1))
    scale = treated_error_scale if treated else untreated_error_scale
    n_cov = len(design.eta)
    raw = np.empty((1 + n_cov, m))  # row 0 the error draws, then the covariates
    raw[0] = scale * rng.standard_normal(m)
    if treated:
        raw[1:] = rng.standard_normal((n_cov, m))
    else:
        raw[1:] = _chi2_centered(rng, (n_cov, m))
    # one smoothing of all rows: each row's sums are the same as on its own
    smooth = circular_ma(raw, design.h)
    u, x = smooth[0], smooth[1:].T  # x is (m, n_cov)
    latent = (
        design.theta0
        + design.beta * float(treated)
        + x @ np.asarray(design.eta)
        + u
    )
    return treated, latent, x


def _spawned_rngs(seed, count: int) -> list[np.random.Generator]:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seed.spawn(count)]


def gen_linear(design: LinearDesign, seed: int) -> ClusterDataset:
    """Generate one dataset from the linear cluster-treatment design.

    Errors are moving averages of h+1 draws, N(0,1) in treated and N(0,2)
    in untreated clusters, so their sd is 1/sqrt(h+1) and sqrt(2/(h+1)); the
    covariates average N(0,1) (treated) or centered chi-square(2) draws.
    Each cluster gets an independent child stream of the seed, so generation
    order cannot change the data.
    """
    q = design.q1 + design.q0
    rngs = _spawned_rngs(seed, q)
    clusters = []
    for k in range(q):
        treated, y, x = _gen_latent_cluster(
            design, k, rngs[k], 1.0, float(np.sqrt(2.0))
        )
        clusters.append(Cluster.from_arrays(f"c{k:02d}", treated, y, x))
    return ClusterDataset(
        clusters=tuple(clusters), layout=ClusterLayout(q1=design.q1, q0=design.q0)
    )


def gen_probit(design: ProbitDesign, seed: int) -> ClusterDataset:
    """Generate binary outcomes: 1 when the latent linear outcome is positive."""
    q = design.q1 + design.q0
    rngs = _spawned_rngs(seed, q)
    clusters = []
    for k in range(q):
        treated, latent, x = _gen_latent_cluster(design, k, rngs[k], 1.0, 1.0)
        y = (latent > 0).astype(float)
        clusters.append(Cluster.from_arrays(f"c{k:02d}", treated, y, x))
    return ClusterDataset(
        clusters=tuple(clusters), layout=ClusterLayout(q1=design.q1, q0=design.q0)
    )


def gen_did_panel(
    q1: int,
    q0: int,
    periods: int,
    t0: int,
    beta: float,
    seed: int,
    theta0: float = 0.0,
    fe_scale: float = 1.0,
    noise_scale: float = 1.0,
) -> ClusterDataset:
    """Synthetic panel for the post-period slope estimator.

    Each cluster is one unit observed over ``periods`` time points; the
    outcome is theta0*post + beta*post*treated + fixed effect + noise, with
    post = 1 for t > t0 (1-based periods).
    """
    q = q1 + q0
    rngs = _spawned_rngs(seed, q)
    clusters = []
    for k in range(q):
        treated = k < q1
        rng = rngs[k]
        fe = fe_scale * rng.standard_normal()
        post = (np.arange(1, periods + 1) > t0).astype(float)
        y = (
            theta0 * post
            + beta * post * float(treated)
            + fe
            + noise_scale * rng.standard_normal(periods)
        )
        clusters.append(Cluster.from_arrays(f"c{k:02d}", treated, y, post=post))
    return ClusterDataset(
        clusters=tuple(clusters), layout=ClusterLayout(q1=q1, q0=q0)
    )
