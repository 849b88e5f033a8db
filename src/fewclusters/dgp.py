"""Synthetic data-generating processes for the simulation study.

Within-cluster dependence is produced by a circular moving average: each
error is the mean of h+1 consecutive raw draws with wraparound, so
observations more than h positions apart are independent. Treated and
untreated clusters deliberately differ in error scale and covariate law to
keep the clusters heterogeneous. A generator writes its draws straight into
the columns of one :class:`~fewclusters.model.ClusterDataset`, cluster k in
rows ``offsets[k]:offsets[k + 1]``, which takes them by
:meth:`~fewclusters.model.ClusterDataset.trusted`: columns built here are not
checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    m = width if sizes is None else int(np.min(sizes))
    if not 0 <= h <= m - 1:
        raise HOutOfRange(f"h must lie in [0, {m - 1}], got {h}")
    if h == 0:
        return source.copy()
    # padded[..., j:j + m] is np.roll(source, -j): the same additions in order
    padded = np.concatenate([source, source[..., :h]], axis=-1)
    if sizes is not None:
        # row k's first h entries again right after its own sizes[k]
        rows = np.arange(source.shape[0])[:, None]
        columns = np.asarray(sizes)[:, None] + np.arange(h)
        padded[rows, ..., columns] = np.moveaxis(source[..., :h], -1, 1)
    # each window as one shift of the flat array: entry i of a row gathers
    # its row's i..i+h, and the last h of each row, which run into the next
    # row, are left out
    flat = padded.reshape(-1)
    out = flat.copy()
    for j in range(1, h + 1):
        out[:-h] += flat[j : j + flat.shape[0] - h]
    out /= h + 1
    return out.reshape(padded.shape)[..., :width]


# The array steps of ``generate`` take at most this many draws at once, or one
# dataset, so that they run in a core's cache: a linear group of 16 at once,
# a probit dataset of twelve clusters of up to 500 rows and five covariates
# alone: a probit group of 16 at once measured slower than one dataset at a
# time, its arrays out of cache.
CHUNK_CELLS = 1 << 16


def generate(
    design: LinearDesign | ProbitDesign,
    cluster_rngs: Sequence[Sequence[np.random.Generator]],
) -> list[ClusterDataset]:
    """The datasets of :func:`gen_linear` or :func:`gen_probit`, by the kind
    of ``design``, one per row of ``cluster_rngs``, with cluster k of
    dataset j drawing from ``cluster_rngs[j][k]``, not from a seed's k-th
    child: latent outcomes, or their signs as 0/1 for a probit design.

    Each cluster draws its size, then all its normals in one call: (1 + d, m)
    if treated, the errors and then the covariates; (1 + 2d, m) if
    untreated, the errors and then the two halves whose squares make its
    centered chi-square(2) covariates. So generation order cannot change
    the data. The untreated scale, the chi-square, ``circular_ma`` and the
    outcomes then run once over the (g * q, 1 + d, M) draws of the group,
    zero padded to the largest size M the design allows, or over as many of
    its datasets as CHUNK_CELLS allows, each
    cluster over its own length and elementwise, so a dataset has the bits
    it has alone. The latent outcome takes ``x @ eta`` on each cluster's
    own (m, d) view of the smoothed draws: on the stacked (n, d) covariates
    the product can round differently.
    """
    q, d = design.q1 + design.q0, len(design.eta)
    step = max(1, CHUNK_CELLS // (q * (1 + 2 * d) * design.size_range[1]))
    return [
        dataset
        for start in range(0, len(cluster_rngs), step)
        for dataset in _generate(design, cluster_rngs[start : start + step])
    ]


def _generate(
    design: LinearDesign | ProbitDesign,
    cluster_rngs: Sequence[Sequence[np.random.Generator]],
) -> list[ClusterDataset]:
    q = design.q1 + design.q0
    for rngs in cluster_rngs:
        if len(rngs) != q:
            raise ValueError(f"{len(rngs)} generators for {q} clusters")
    rngs = [rng for row in cluster_rngs for rng in row]
    treated = np.tile(np.arange(q) < design.q1, len(cluster_rngs))
    lo, hi = design.size_range
    d = len(design.eta)
    # per cluster: its errors, then d covariate rows, or 2d halves if untreated
    draws = np.zeros((len(rngs), 1 + 2 * d, hi))
    sizes = np.empty(len(rngs), dtype=np.intp)
    for k, (rng, block, is_treated) in enumerate(zip(rngs, draws, treated.tolist())):
        sizes[k] = m = rng.integers(lo, hi + 1)
        rows = 1 + d if is_treated else 1 + 2 * d
        block[:rows, :m] = rng.standard_normal((rows, m))
    # the untreated clusters of every dataset, in place: errors scaled, and
    # covariates (z1 ** 2 + z2 ** 2) - 2 from their halves z1, z2
    untreated = draws.reshape(len(cluster_rngs), q, 1 + 2 * d, hi)[:, design.q1 :]
    if not isinstance(design, ProbitDesign):
        untreated[..., 0, :] *= np.sqrt(2.0)
    first, second = untreated[..., 1 : 1 + d, :], untreated[..., 1 + d :, :]
    np.square(first, out=first)
    first += np.square(second, out=second)
    first -= 2.0
    smooth = circular_ma(draws[:, : 1 + d], design.h, sizes)
    eta = np.asarray(design.eta)
    signal = np.zeros((len(rngs), hi))
    for x, out, m in zip(np.moveaxis(smooth[:, 1:], 1, 2), signal, sizes.tolist()):
        np.matmul(x[:m], eta, out=out[:m])
    shift = design.theta0 + design.beta * treated
    latent = shift[:, None] + signal + smooth[:, 0]
    outcomes = (latent > 0).astype(float) if isinstance(design, ProbitDesign) else latent
    real = np.arange(smooth.shape[-1]) < sizes[:, None]
    covariates = np.moveaxis(smooth[:, 1:], 1, 2)
    layout, ids = ClusterLayout(q1=design.q1, q0=design.q0), _ids(q)
    datasets = []
    for clusters in range(0, len(rngs), q):
        rows = slice(clusters, clusters + q)
        offsets = np.concatenate([[0], np.cumsum(sizes[rows])])
        columns = offsets, outcomes[rows][real[rows]], covariates[rows][real[rows]]
        # a design's theta0, beta or eta can overflow the outcomes, and the
        # checked constructor then raises the DataError that names the cluster
        make = ClusterDataset.trusted if np.isfinite(columns[1]).all() else ClusterDataset
        datasets.append(make(ids, layout, *_frozen(*columns)))
    return datasets


def _children(seed, count: int) -> list[np.random.Generator]:
    """Generators of children 0..count-1 of the seed, an int or a
    SeedSequence, which is only read: child k is the SeedSequence that
    ``spawn`` makes k-th, however many the seed has spawned."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    entropy, key, size = seed.entropy, seed.spawn_key, seed.pool_size
    return [
        np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(*key, k), pool_size=size))
        for k in range(count)
    ]


def _frozen(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns made read-only, so that a dataset can take them uncopied."""
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
    return generate(design, [_children(seed, design.q1 + design.q0)])[0]


def gen_probit(design: ProbitDesign, seed) -> ClusterDataset:
    """Generate binary outcomes: 1 when the latent linear outcome is positive."""
    return generate(design, [_children(seed, design.q1 + design.q0)])[0]

