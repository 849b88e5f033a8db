"""Synthetic data-generating processes for the simulation study.

Within-cluster dependence is produced by a circular moving average: each
error is the mean of h+1 consecutive raw draws with wraparound, so
observations more than h positions apart are independent. Treated and
untreated clusters deliberately differ in error scale and covariate law to
keep the clusters heterogeneous. A generator writes its draws straight into
the columns of one :class:`~fewclusters.model.ClusterDataset`, cluster k in
rows ``offsets[k]:offsets[k + 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .methods import spawn_generators
from .model import ClusterDataset, ClusterLayout, HOutOfRange


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


def circular_ma(
    source: np.ndarray, h: int, sizes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Mean of h+1 consecutive entries with circular wraparound.

    Operates along the last axis; entry i averages positions i..i+h modulo
    the length. h=0 returns the input, h=m-1 the overall mean everywhere.
    With ``sizes``, row k of the first axis holds sizes[k] entries, zero
    padded after them: each row wraps over its own length, with the same
    additions in the same order as on its own, and its padding is left as
    meaningless values.
    """
    source = np.asarray(source, dtype=float)
    width = source.shape[-1]
    m = width if sizes is None else min(sizes)
    if not 0 <= h <= m - 1:
        raise HOutOfRange(f"h must lie in [0, {m - 1}], got {h}")
    if h == 0:
        return source.copy()
    # padded[..., j:j + m] is np.roll(source, -j): the same additions in order
    padded = np.concatenate([source, source[..., :h]], axis=-1)
    if sizes is not None:
        for k, size in enumerate(sizes):
            padded[k, ..., size : size + h] = source[k, ..., :h]
    out = source.copy()
    for j in range(1, h + 1):
        out += padded[..., j : j + width]
    out /= h + 1
    return out


def _chi2_centered(rng: np.random.Generator, size) -> np.ndarray:
    """chi-square(2) minus 2, built from two squared standard normals."""
    z = rng.standard_normal((2,) + tuple(np.atleast_1d(size)))
    return z[0] ** 2 + z[1] ** 2 - 2.0


def generate(
    design: LinearDesign | ProbitDesign, rngs: Sequence[np.random.Generator]
) -> ClusterDataset:
    """The dataset of :func:`gen_linear` or :func:`gen_probit`, by the kind
    of ``design``, with cluster k drawing from ``rngs[k]``, not from the
    seed's k-th child: latent outcomes, or their signs as 0/1 for a probit
    design.

    Cluster k draws its size, its errors and then its covariates, so
    generation order cannot change the data. All clusters are smoothed by
    one ``circular_ma`` call over their zero-padded (q, 1 + d, M) draws,
    each over its own length. The latent outcome takes ``x @ eta`` on each
    cluster's own (m, d) view of the smoothed draws: on the stacked (n, d)
    covariates the product can round differently.
    """
    q = design.q1 + design.q0
    if len(rngs) != q:
        raise ValueError(f"{len(rngs)} generators for {q} clusters")
    binary = isinstance(design, ProbitDesign)
    untreated_error_scale = 1.0 if binary else float(np.sqrt(2.0))
    lo, hi = design.size_range
    sizes = [int(rng.integers(lo, hi + 1)) for rng in rngs]
    n_cov = len(design.eta)
    raw = np.zeros((q, 1 + n_cov, max(sizes)))  # row 0 the errors, then the covariates
    for k, (rng, m) in enumerate(zip(rngs, sizes)):
        if k < design.q1:
            raw[k, 0, :m] = rng.standard_normal(m)
            raw[k, 1:, :m] = rng.standard_normal((n_cov, m))
        else:
            raw[k, 0, :m] = untreated_error_scale * rng.standard_normal(m)
            raw[k, 1:, :m] = _chi2_centered(rng, (n_cov, m))
    smooth = circular_ma(raw, design.h, sizes)
    eta = np.asarray(design.eta)
    offsets = np.cumsum([0] + sizes)
    outcomes, covariates = np.empty(offsets[-1]), np.empty((offsets[-1], n_cov))
    for k, m in enumerate(sizes):
        rows = slice(offsets[k], offsets[k + 1])
        x = smooth[k, 1:, :m].T
        covariates[rows] = x
        treated = float(k < design.q1)
        outcomes[rows] = design.theta0 + design.beta * treated + x @ eta + smooth[k, 0, :m]
    if binary:
        outcomes = (outcomes > 0).astype(float)
    layout = ClusterLayout(q1=design.q1, q0=design.q0)
    return ClusterDataset(_ids(q), layout, offsets, *_frozen(outcomes, covariates))


def _children(seed, count: int) -> list[np.random.Generator]:
    """Generators of children 0..count-1 of the seed, an int or a
    SeedSequence, which is only read."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return spawn_generators(seed, count)


def _frozen(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns made read-only, so that a dataset takes them uncopied."""
    for column in columns:
        column.flags.writeable = False
    return columns


def _ids(q: int) -> tuple[str, ...]:
    return tuple(f"c{k:02d}" for k in range(q))


def gen_linear(design: LinearDesign, seed) -> ClusterDataset:
    """Generate one dataset from the linear cluster-treatment design.

    Errors are moving averages of h+1 draws, N(0,1) in treated and N(0,2)
    in untreated clusters, so their sd is 1/sqrt(h+1) and sqrt(2/(h+1)); the
    covariates average N(0,1) (treated) or centered chi-square(2) draws.
    Cluster k draws from child k of the seed, an int or a SeedSequence,
    so generation order cannot change the data; the seed is only read, so
    its children are 0..q-1 however many it has spawned.
    """
    return generate(design, _children(seed, design.q1 + design.q0))


def gen_probit(design: ProbitDesign, seed) -> ClusterDataset:
    """Generate binary outcomes: 1 when the latent linear outcome is positive."""
    return generate(design, _children(seed, design.q1 + design.q0))


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
    post = 1 for t > t0 (1-based periods).
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
