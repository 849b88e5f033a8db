"""Shared domain types: clustered data, layouts, configs, results.

All types are immutable after construction. A :class:`Cluster` holds its data
as columns, read-only numpy arrays of outcomes, covariates and optional
post-period flags, whose shapes are checked once when it is built; every
estimator and comparator reads those arrays directly. Clusters are kept in a
canonical treated-first order, established once by :func:`validate_dataset`;
every downstream index computation relies on that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Full enumeration would exceed the configured cap; subsample instead."""


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
    """Per-cluster estimation failed; carries the offending cluster id."""

    def __init__(self, cluster_id: str, cause: Exception):
        super().__init__(f"estimation failed for cluster {cluster_id!r}: {cause}")
        self.cluster_id = cluster_id
        self.cause = cause

    def __reduce__(self):
        # args holds only the message, so rebuild from the constructor's own
        # arguments; worker processes send the error back pickled
        return type(self), (self.cluster_id, self.cause)


def _read_only(values, error: type, message: str) -> np.ndarray:
    """A C-ordered float64 copy of ``values`` that cannot be written to."""
    try:
        array = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise error(f"{message}: {exc}") from None
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Cluster:
    """A block of observations sharing one cluster-level treatment flag.

    The data are read-only float arrays: ``outcomes`` (m,), ``covariate_matrix``
    (m, d) with d >= 0, and ``post`` (m,) of 0/1 post-period indicators, or
    None when the data have no periods. Shapes and values are checked here,
    once; a bad shape or a nan or infinite value raises a :class:`DataError`
    naming the cluster and the field.
    """

    id: str
    treated: bool
    outcomes: np.ndarray
    covariate_matrix: Optional[np.ndarray] = None
    post: Optional[np.ndarray] = None

    def __post_init__(self):
        name = f"cluster {self.id!r}"
        y = _read_only(self.outcomes, DataError, f"{name}: bad outcomes")
        if y.ndim != 1:
            raise DataError(f"{name}: outcomes of shape {y.shape} are not a vector")
        m = y.shape[0]
        if m == 0:
            raise EmptyCluster(f"{name} has no observations")
        if not np.all(np.isfinite(y)):
            raise DataError(f"{name}: outcomes contain nan or inf")
        x = np.empty((m, 0)) if self.covariate_matrix is None else self.covariate_matrix
        x = _read_only(x, RaggedCovariates, f"{name}: covariates are not a matrix")
        if x.ndim == 1 and x.shape[0] == m:
            x = x.reshape(m, 1)
        if x.ndim != 2 or x.shape[0] != m:
            raise DataError(f"{name}: covariates of shape {x.shape} for {m} outcomes")
        if not np.all(np.isfinite(x)):
            raise DataError(f"{name}: covariates contain nan or inf")
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "covariate_matrix", x)
        if self.post is not None:
            post = _read_only(self.post, DataError, f"{name}: bad post flags")
            if post.shape != (m,):
                raise DataError(f"{name}: post flags of shape {post.shape}, need ({m},)")
            if np.any((post != 0.0) & (post != 1.0)):
                raise DataError(f"{name}: post flags must be 0 or 1")
            object.__setattr__(self, "post", post)

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

    @property
    def post_flags(self) -> np.ndarray:
        """0/1 post-period indicators; raises if the cluster has none."""
        if self.post is None:
            raise MissingPeriodFlag(f"cluster {self.id!r} has no post indicator")
        return self.post


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


@dataclass(frozen=True)
class ClusterDataset:
    """Validated clusters in canonical treated-first order, plus their layout."""

    clusters: tuple[Cluster, ...]
    layout: ClusterLayout

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)

    @property
    def n(self) -> int:
        return sum(c.size for c in self.clusters)


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
        if not np.all(np.isfinite(values)):
            raise FewClustersError("estimate vector contains non-finite entries")


@dataclass(frozen=True)
class TestConfig:
    """Settings for one placebo test run."""

    __test__ = False  # not a pytest class, despite the name

    alpha: float = 0.05
    side: Side = "greater"
    adjustment: str = "adjusted"
    max_assignments: Optional[int] = None
    seed: int = 0

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


def validate_dataset(clusters: Sequence[Cluster]) -> ClusterDataset:
    """Check a collection of clusters and put it into canonical order.

    Treated clusters come first, preserving the input order within each
    group (stable partition). Requires at least one treated and one
    untreated cluster; cluster-level invariants (non-empty, homogeneous
    covariate dimension) are enforced by ``Cluster`` itself.
    """
    clusters = list(clusters)
    treated = [c for c in clusters if c.treated]
    untreated = [c for c in clusters if not c.treated]
    if not treated:
        raise NoTreatedClusters("dataset has no treated cluster")
    if not untreated:
        raise NoUntreatedClusters("dataset has no untreated cluster")
    dims = {c.covariate_dim for c in clusters}
    if len(dims) > 1:
        raise RaggedCovariates(f"clusters mix covariate dimensions {sorted(dims)}")
    layout = ClusterLayout(q1=len(treated), q0=len(untreated))
    return ClusterDataset(clusters=tuple(treated + untreated), layout=layout)
