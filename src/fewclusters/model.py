"""Shared domain types: clustered data, layouts, configs, results.

All types are immutable after construction. A :class:`ClusterDataset` is the
one in-memory form of clustered data: read-only columns of every row's
outcome, covariates and optional post-period flag, the clusters in a
canonical treated-first order, and row offsets that give cluster k the rows
``offsets[k]:offsets[k + 1]``. Every fit reads its rows through the offsets,
and every downstream index computation relies on the ordering.
:func:`checked_columns` checks such columns once. A :class:`Cluster` holds
one cluster's columns: built on its own it is checked by that same
function, and the clusters a dataset hands out are views of its rows,
neither copied nor checked again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

Side = str  # "greater" | "less" | "two_sided"

SIDES = ("greater", "less", "two_sided")
ADJUSTMENTS = ("adjusted", "unadjusted")


class FewClustersError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FewClustersError):
    """Invalid input data."""


class NoTreatedClusters(DataError):
    pass


class NoUntreatedClusters(DataError):
    pass


class EmptyCluster(DataError):
    pass


class RaggedCovariates(DataError):
    pass


class GroupTooSmall(FewClustersError):
    """A group has too few clusters for the requested computation."""


class TooManyAssignments(FewClustersError):
    """A test would hold more assignments, sign vectors or weights than the cap."""


class RankDeficient(FewClustersError):
    """Design matrix does not have full column rank."""


class MissingPeriodFlag(DataError):
    """An observation lacks the pre/post indicator required for DiD."""


class Separation(FewClustersError):
    """Binary outcome is (quasi-)separated; the moment condition has no zero."""


class NoConvergence(FewClustersError):
    """Iterative fit failed to converge."""


class UnbalancedGroups(FewClustersError):
    """Operation requires equally many treated and untreated clusters."""


class MethodInapplicable(FewClustersError):
    """Requested inference method does not apply to the given setting."""


class HOutOfRange(FewClustersError):
    """Dependence length h outside {0, ..., m - 1}."""


class EstimationError(FewClustersError):
    """Estimation failed; carries the offending cluster id (and a pair's partner)."""

    def __init__(self, cluster_id: str, cause: Exception, partner: Optional[str] = None):
        pair = "" if partner is None else f" paired with {partner!r}"
        super().__init__(f"estimation failed for cluster {cluster_id!r}{pair}: {cause}")
        self.cluster_id = cluster_id
        self.cause = cause
        self.partner = partner

    def __reduce__(self):
        # args holds only the message, so rebuild from the constructor's own
        # arguments; worker processes send the error back pickled
        return type(self), (self.cluster_id, self.cause, self.partner)


def unwrap(value):
    """One dataset's value from a batch, raised if it is that dataset's error."""
    if isinstance(value, FewClustersError):
        raise value
    return value


def batch(f, column, *extras) -> list:
    """f of every dataset's value in ``column`` that is not an error, with
    its entries of ``extras``, as one call that gives their results in
    order; an error in ``column`` stays that dataset's result, and an error
    f raises becomes the result of every dataset it was given."""
    results = list(column)
    ok = [j for j, value in enumerate(column) if not isinstance(value, FewClustersError)]
    if ok:
        try:
            values = f([column[j] for j in ok], *([extra[j] for j in ok] for extra in extras))
        except FewClustersError as exc:
            values = [exc.with_traceback(None)] * len(ok)
        for j, value in zip(ok, values):
            results[j] = value
    return results


def each(f, *columns) -> list:
    """f of each dataset's values, one from each column, or that dataset's
    error: the first error among its values, else the one f raises."""
    results = []
    for values in zip(*columns):
        try:
            results.append(f(*map(unwrap, values)))
        except FewClustersError as exc:
            # kept without its traceback, whose frames would hold ``results``
            results.append(exc.with_traceback(None))
    return results


def _read_only(values, error: type, message: str) -> np.ndarray:
    """A C-ordered float64 copy of ``values`` that cannot be written to, or
    ``values`` itself when it is already such an array and owns its memory,
    so nothing else can write to it."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    try:
        array = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise error(f"{message}: {exc}") from None
    array.flags.writeable = False
    return array


def checked_columns(
    ids: Sequence[str], outcomes, covariates=None, post=None, offsets=None
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Read-only float copies of the columns of clusters ``ids``, and their
    row offsets, checked against each other: cluster k owns rows
    offsets[k]:offsets[k + 1], or every row when there are no offsets.

    Outcomes are a vector, covariates an (n, d) matrix (a vector is one
    column, None none) and post None or n flags of 0 or 1. A repeated id,
    an empty cluster, a bad shape, a nan or infinite value or another flag
    raises a DataError naming the first offending cluster and the field. A
    column that is no array of the right rank names the first cluster, and
    one with too few or too many rows the first it cuts short, or the last.
    """
    q, name = len(ids), lambda k: f"cluster {ids[k]!r}"  # noqa: E731
    if len(set(ids)) < q:
        repeated = next(i for i in ids if ids.count(i) > 1)
        raise DataError(f"duplicate cluster id {repeated!r}")
    y = _read_only(outcomes, DataError, f"{name(0)}: bad outcomes")
    if y.ndim != 1:
        raise DataError(f"{name(0)}: outcomes of shape {y.shape} are not a vector")
    offsets = np.array([0, y.shape[0]] if offsets is None else offsets)
    if offsets.shape != (q + 1,) or offsets.dtype.kind not in "iu" or offsets[0] != 0:
        raise DataError(f"row offsets {offsets.tolist()} do not bound {q} clusters")
    sizes, n = np.diff(offsets), int(offsets[-1])
    if not (sizes > 0).all():
        raise EmptyCluster(f"{name(int(np.argmax(sizes <= 0)))} has no observations")

    def rows(array: np.ndarray, ndim: int, message: str) -> None:
        """Raise ``message`` for the first cluster whose rows ``array`` lacks
        or has to spare, with the shape of its share of them."""
        if array.ndim == ndim and array.shape[0] == n:
            return
        k, share = 0, array
        if array.ndim == ndim:
            short = offsets[1:] > array.shape[0]
            k = int(np.argmax(short)) if short.any() else q - 1
            share = array[offsets[k] : offsets[k + 1] if k < q - 1 else None]
        raise DataError(message.format(name(k), share.shape, sizes[k]))

    def values(ok: np.ndarray, message: str) -> None:
        """Raise ``message`` for the cluster of the first row with a value
        not ``ok``; rows are reduced only when some value is not."""
        if not ok.all():
            bad = ~ok if ok.ndim == 1 else ~ok.all(axis=1)
            k = int(np.searchsorted(offsets, np.argmax(bad), side="right")) - 1
            raise DataError(f"{name(k)}: {message}")

    rows(y, 1, "{}: outcomes of shape {}, need ({},)")
    values(np.isfinite(y), "outcomes contain nan or inf")
    x = np.empty((n, 0)) if covariates is None else covariates
    x = _read_only(x, RaggedCovariates, f"{name(0)}: covariates are not a matrix")
    if x.shape == (n,):
        x = x.reshape(n, 1)
    rows(x, 2, "{}: covariates of shape {} for {} outcomes")
    values(np.isfinite(x), "covariates contain nan or inf")
    if post is not None:
        post = _read_only(post, DataError, f"{name(0)}: bad post flags")
        rows(post, 1, "{}: post flags of shape {}, need ({},)")
        values((post == 0.0) | (post == 1.0), "post flags must be 0 or 1")
    offsets = offsets.astype(np.intp)
    offsets.flags.writeable = False
    return y, x, post, offsets


@dataclass(frozen=True, eq=False)
class Cluster:
    """A block of observations sharing one cluster-level treatment flag.

    The data are read-only float arrays: ``outcomes`` (m,), ``covariate_matrix``
    (m, d) with d >= 0, and ``post`` (m,) of 0/1 post-period indicators, or
    None when the data have no periods. Built here, a cluster copies its
    inputs and checks them by :func:`checked_columns`; the clusters of a
    :class:`ClusterDataset` are views of its rows.
    """

    id: str
    treated: bool
    outcomes: np.ndarray
    covariate_matrix: Optional[np.ndarray] = None
    post: Optional[np.ndarray] = None

    def __post_init__(self):
        columns = (self.outcomes, self.covariate_matrix, self.post)
        checked = checked_columns((self.id,), *columns)[:3]
        for name, column in zip(("outcomes", "covariate_matrix", "post"), checked):
            object.__setattr__(self, name, column)

    @classmethod
    def from_arrays(
        cls,
        id: str,
        treated: bool,
        outcomes: Iterable[float],
        covariates: Optional[np.ndarray] = None,
        post: Optional[Iterable[bool]] = None,
    ) -> "Cluster":
        return cls(id, treated, outcomes, covariates, post)

    @property
    def size(self) -> int:
        return self.outcomes.shape[0]

    @property
    def covariate_dim(self) -> int:
        return self.covariate_matrix.shape[1]


@dataclass(frozen=True)
class ClusterLayout:
    """Counts of treated and untreated clusters under the canonical ordering.

    Indices 0..q1-1 are treated, q1..q-1 untreated.
    """

    q1: int
    q0: int

    def __post_init__(self):
        if self.q1 < 1:
            raise NoTreatedClusters("need at least one treated cluster")
        if self.q0 < 1:
            raise NoUntreatedClusters("need at least one untreated cluster")

    @property
    def q(self) -> int:
        return self.q1 + self.q0


@dataclass(frozen=True, eq=False)
class ClusterDataset:
    """A dataset's columns: ``outcomes`` (n,), ``covariates`` (n, d) and
    ``post`` (n,) or None. Cluster k, ``ids[k]``, owns rows
    ``offsets[k]:offsets[k + 1]`` and is treated when k < ``layout.q1``.
    The columns are copied and checked once, by :func:`checked_columns`,
    except those of :meth:`trusted`.
    """

    ids: tuple[str, ...]
    layout: ClusterLayout
    offsets: np.ndarray
    outcomes: np.ndarray
    covariates: Optional[np.ndarray] = None
    post: Optional[np.ndarray] = None

    def __post_init__(self):
        ids = tuple(self.ids)
        if len(ids) != self.layout.q:
            raise DataError(f"{len(ids)} cluster ids for {self.layout.q} clusters")
        columns = (self.outcomes, self.covariates, self.post, self.offsets)
        names = ("outcomes", "covariates", "post", "offsets", "ids")
        for name, value in zip(names, (*checked_columns(ids, *columns), ids)):
            object.__setattr__(self, name, value)

    @classmethod
    def trusted(cls, ids, layout, offsets, outcomes, covariates, post=None) -> "ClusterDataset":
        """A dataset of columns its caller built as :func:`checked_columns`
        returns them: ids a tuple, read-only float64 columns and intp
        offsets that fit them. They are taken as they are, neither copied
        nor checked; the data generators build theirs so."""
        dataset = object.__new__(cls)  # no __post_init__: the columns are built checked
        dataset.__dict__.update(
            ids=ids, layout=layout, offsets=offsets, outcomes=outcomes,
            covariates=covariates, post=post,
        )
        return dataset

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        """Each cluster as a :class:`Cluster` of views of its rows, neither
        copied nor checked again."""
        views = []
        for k, rows in enumerate(map(slice, self.offsets[:-1], self.offsets[1:])):
            view = object.__new__(Cluster)  # no __post_init__: the rows are checked
            view.__dict__.update(
                id=self.ids[k],
                treated=k < self.layout.q1,
                outcomes=self.outcomes[rows],
                covariate_matrix=self.covariates[rows],
                post=None if self.post is None else self.post[rows],
            )
            views.append(view)
        return tuple(views)

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return self.layout.q

    @property
    def n(self) -> int:
        return int(self.offsets[-1])


@dataclass(frozen=True)
class EstimateVector:
    """Per-cluster scalar estimates, treated entries first."""

    values: np.ndarray
    layout: ClusterLayout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] != self.layout.q:
            raise FewClustersError(
                f"estimate vector has length {values.shape}, layout needs {self.layout.q}"
            )
        if not np.isfinite(values).all():
            raise FewClustersError("estimate vector contains non-finite entries")


@dataclass(frozen=True)
class TestConfig:
    """Settings for one placebo test run."""

    __test__ = False  # not a pytest class, despite the name

    alpha: float = 0.05
    side: Side = "greater"
    adjustment: str = "adjusted"
    max_assignments: Optional[int] = None
    seed: int | np.random.Generator = 0  # of the subsample, for np.random.default_rng

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise FewClustersError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.side not in SIDES:
            raise FewClustersError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.adjustment not in ADJUSTMENTS:
            raise FewClustersError(
                f"adjustment must be one of {ADJUSTMENTS}, got {self.adjustment!r}"
            )
        if self.max_assignments is not None and self.max_assignments < 1:
            raise FewClustersError("max_assignments must be >= 1 when given")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single hypothesis test."""

    __test__ = False  # not a pytest class, despite the name

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    n_assignments: int
    side: Side = "greater"
    adjustment: str = "unadjusted"
    randomized_threshold: Optional[float] = None
    warnings: tuple[str, ...] = field(default=())


def stack_clusters(ids, treated, outcomes, covariates, post) -> ClusterDataset:
    """One dataset of clusters given as lists of per-cluster values: ids,
    treated flags, outcomes, (m, d) covariates and post flags or None.

    Treated clusters come first, preserving the input order within each
    group (stable partition). Requires at least one treated and one
    untreated cluster, and post flags in every cluster or in none.
    """
    order = [k for k, t in enumerate(treated) if t]
    if not order:
        raise NoTreatedClusters("dataset has no treated cluster")
    if len(order) == len(treated):
        raise NoUntreatedClusters("dataset has no untreated cluster")
    layout = ClusterLayout(q1=len(order), q0=len(treated) - len(order))
    order += [k for k, t in enumerate(treated) if not t]
    bare = [ids[k] for k in order if post[k] is None]
    if 0 < len(bare) < len(order):
        raise MissingPeriodFlag(f"cluster {bare[0]!r} has no post flags, unlike others")
    return ClusterDataset(
        ids=[ids[k] for k in order],
        layout=layout,
        offsets=np.cumsum([0] + [len(outcomes[k]) for k in order]),
        outcomes=np.concatenate([outcomes[k] for k in order]),
        covariates=np.concatenate([covariates[k] for k in order]),
        post=None if bare else np.concatenate([post[k] for k in order]),
    )


def validate_dataset(clusters: Sequence[Cluster]) -> ClusterDataset:
    """The dataset of these clusters, by :func:`stack_clusters`; they must
    share one covariate dimension."""
    clusters = list(clusters)
    dims = {c.covariate_dim for c in clusters}
    if len(dims) > 1:
        raise RaggedCovariates(f"clusters mix covariate dimensions {sorted(dims)}")
    fields = ("id", "treated", "outcomes", "covariate_matrix", "post")
    return stack_clusters(*([getattr(c, f) for c in clusters] for f in fields))
